"""Benchmark workloads: seeded gme-lab CLI ops and their independent oracles.

An op is a fixed sequence of ``gme_lab.cli.main(argv)`` calls run in
process.  The seed and the op index draw the op's parameters; sizes are
fixed.  Every output is checked against a closed form computed here, never
by calling gme_lab, and each check returns the list of mismatches it found.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

TOL = 1e-11          # absolute, on values printed to 12 significant digits
TOL_REL = 1e-10      # relative, on threshold values down to ~1e-7
# Endpoint of the two-copy decomposition's validity interval.
DECOMP_END = (4 * math.sqrt(3) - 3) / 13
GAMMA1_REPAIR = "gamma(11,12,31,31) -> gamma(11,12,31,32)"


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    code: int
    out: str
    err: str


def run_cli(main, argv) -> Call:
    """One in-process CLI call with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:     # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return Call(tuple(argv), code, out.getvalue(), err.getvalue())


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _near(got: str | float, want: float, tol: float = TOL) -> bool:
    return abs(float(got) - want) <= tol


def _grid(start: float, stop: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps)]


def _flag(b: bool) -> str:
    return "true" if b else "false"


# --- isotropic ---------------------------------------------------------------

THRESH_ARGV = ("thresholds", "--n", "2", "--n-max", "24", "--kmax", "8")


def check_thresholds(text: str) -> list[str]:
    """p(N, k) = r/(2^(N-1) + r), r = (2^(N-1) - 1)^(1/k); bound 1/(1 + 2^(N-1))."""
    header, rows = _rows(text)
    bad = []
    if header != ["N", "k", "p_threshold", "kind"]:
        return [f"thresholds: header {header}"]
    want = []
    for n in range(2, 25):
        half = 2 ** (n - 1)
        for k in range(1, 9):
            r = math.exp(math.log(half - 1) / k)
            want.append((str(n), str(k), r / (half + r), "single_copy" if k == 1 else "k_copy"))
        want.append((str(n), "", 1 / (1 + half), "partition_separability"))
    if len(rows) != len(want):
        return [f"thresholds: {len(rows)} rows, want {len(want)}"]
    for row, (n, k, p, kind) in zip(rows, want):
        if (row[0], row[1], row[3]) != (n, k, kind) or not _near(row[2], p, TOL_REL * p):
            bad.append(f"thresholds: row {row} != {(n, k, p, kind)}")
    return bad


def check_concurrence(n: int, text: str) -> list[str]:
    """c = max(0, |p| - (1-p)(1 - 2^(1-N))) on the grid p = i/100, exactly."""
    header, rows = _rows(text)
    if header != ["p", "c_gm", "is_gme"] or len(rows) != 101:
        return [f"concurrence: header {header}, {len(rows)} rows"]
    bad = []
    for i, row in enumerate(rows):
        p = Fraction(i, 100)
        c = max(Fraction(0), abs(p) - (1 - p) * (1 - Fraction(2, 2 ** n)))
        if not (_near(row[0], float(p)) and _near(row[1], float(c))
                and row[2] == _flag(c > 0)):
            bad.append(f"concurrence N={n}: row {row}, want c={float(c)}")
    return bad


DIAG_POLYS = (
    lambda p: (1 - p) ** 2,
    lambda p: 1 - 10 / 3 * p + 7 / 3 * p ** 2,
    lambda p: 1 - 2 * p - 13 / 3 * p ** 2,
    lambda p: 1 - 6 * p + 31 / 3 * p ** 2,
)


def check_decomposition(a: float, b: float, text: str) -> list[str]:
    """Residual <= 1e-10, weights (1-2p)^2, p(3-7p), p(1-p), 4p^2, and
    valid <=> p <= (4 sqrt 3 - 3)/13."""
    header, rows = _rows(text)
    want_header = ["p", "residual_max", "weight_rho_diag", "weight_gamma_1",
                   "weight_gamma_2", "weight_sigma", "diag_min", "valid",
                   "gamma1_correction_applied"]
    if header != want_header or len(rows) != 9:
        return [f"verify-decomposition: header {header}, {len(rows)} rows"]
    bad = []
    for p, row in zip(_grid(a, b, 9), rows):
        diag_min = min(f(p) for f in DIAG_POLYS) / (64 * (1 - 2 * p) ** 2)
        want = ((1 - 2 * p) ** 2, p * (3 - 7 * p), p * (1 - p), 4 * p * p, diag_min)
        ok = (_near(row[0], p) and 0 <= float(row[1]) <= 1e-10
              and all(_near(g, w) for g, w in zip(row[2:7], want))
              and row[7] == _flag(p <= DECOMP_END) and row[8] == GAMMA1_REPAIR)
        if not ok:
            bad.append(f"verify-decomposition: row {row} at p={p!r}")
    return bad


def draw_isotropic(rng: random.Random) -> dict:
    a = rng.uniform(0.0, 0.2)
    return {"n": rng.randint(3, 8), "a": a, "b": a + rng.uniform(0.05, 0.25)}


def argv_isotropic(q: dict, dump: str) -> list[tuple[str, ...]]:
    return [THRESH_ARGV,
            ("concurrence", "--n", str(q["n"]), "--p-steps", "101"),
            ("verify-decomposition", "--p-start", repr(q["a"]),
             "--p-stop", repr(q["b"]), "--p-steps", "9")]


def check_isotropic(q: dict, outs: list[str]) -> list[str]:
    return (check_thresholds(outs[0]) + check_concurrence(q["n"], outs[1])
            + check_decomposition(q["a"], q["b"], outs[2]))


# --- ppt ----------------------------------------------------------------------

PPT_N = 7


def check_ppt(q: dict, outs: list[str]) -> list[str]:
    """min_pt_eig = (1-p)/2^N - |p|/2 on each of the 2^(N-1)-1 cuts, and
    ppt <=> p <= 1/(1 + 2^(N-1))."""
    header, rows = _rows(outs[0])
    n, p = PPT_N, q["p"]
    if header != ["p", "cut", "min_pt_eig", "ppt"] or len(rows) != 2 ** (n - 1) - 1:
        return [f"ppt-scan: header {header}, {len(rows)} rows"]
    eig = (1 - p) / 2 ** n - abs(p) / 2
    ppt = _flag(p <= 1 / (1 + 2 ** (n - 1)))
    bad, cuts = [], set()
    for row in rows:
        sides = [frozenset(int(i) for i in side.split(",")) for side in row[1].split("|")]
        cuts.add(frozenset(sides))
        if not (len(sides) == 2 and not sides[0] & sides[1]
                and sides[0] | sides[1] == set(range(n))
                and _near(row[0], p) and _near(row[2], eig, 1e-13) and row[3] == ppt):
            bad.append(f"ppt-scan: row {row}, want min_pt_eig={eig!r} ppt={ppt}")
    if len(cuts) != len(rows):
        bad.append("ppt-scan: repeated cut")
    return bad


# --- protocol -----------------------------------------------------------------

def pair_norm(p: float) -> float:
    return 3 * (1 + p + 1 / p)


def triangle_witness(x: float, y: float, z: float) -> float:
    return 3 * (x * y + z / x + y * z - 1) / (pair_norm(x) * pair_norm(y) * pair_norm(z))


def wedge_witness(x: float, y: float) -> float:
    return 3 * (x + y + x * y - 1) / (pair_norm(x) * pair_norm(y))


def pair_state(p: float) -> np.ndarray:
    """Two-qutrit PPT pair: |00>+|11>+|22> coherences, p on 01,12,20 and
    1/p on 02,10,21, over N_p."""
    m = np.zeros((9, 9))
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            m[i, j] = 1.0
    for i in (1, 5, 6):
        m[i, i] = p
    for i in (2, 3, 7):
        m[i, i] = 1 / p
    return m / pair_norm(p)


def check_witness(mode: str, fixed: float, text: str) -> list[str]:
    header, rows = _rows(text)
    if header != ["x", "y", "z", "closed_form", "dense_trace", "gme_detected"] \
            or len(rows) != 3:
        return [f"witness-scan {mode}: header {header}, {len(rows)} rows"]
    bad = []
    for t, row in zip(_grid(0.2, 0.6, 3), rows):
        if mode == "triangle":
            args, w = (fixed, t, t), triangle_witness(fixed, t, t)
        else:
            args, w = (t, fixed), wedge_witness(t, fixed)
        ok = (all(_near(g, v) for g, v in zip(row, args))
              and (mode == "triangle" or row[2] == "")
              and _near(row[3], w, 1e-13) and _near(row[4], w, 1e-13)
              and row[5] == _flag(w < 0))
        if not ok:
            bad.append(f"witness-scan {mode}: row {row}, want {w!r}")
    return bad


def check_report(q: dict, text: str) -> list[str]:
    """Step probabilities (p1, p2, p3), residual <= 1e-12, witness closed form."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"locc-demo: report is not JSON: {exc}"]
    probs = (q["p1"], q["p2"], q["p3"])
    w = triangle_witness(q["x"], q["y"], q["z"])
    ok = (all(_near(rep[k], q[k]) for k in ("p1", "p2", "p3", "x", "y", "z"))
          and len(rep["step_probabilities"]) == 3
          and all(_near(g, v) for g, v in zip(rep["step_probabilities"], probs))
          and _near(rep["protocol_probability"], math.prod(probs))
          and 0 <= rep["residual_max"] <= 1e-12
          and _near(rep["witness_closed_form"], w, 1e-13)
          and _near(rep["witness_dense"], w, 1e-13)
          and rep["gme_detected"] is (w < 0)
          and rep["conclusion"].startswith("GME activated" if w < 0 else "not detected"))
    return [] if ok else [f"locc-demo: report {rep}, want witness {w!r}"]


def check_state(q: dict, data: bytes) -> list[str]:
    """The dumped six-qutrit state equals rho_z (x) rho_y (x) rho_x."""
    obj = json.loads(data)
    re, im = np.array(obj["re"]), np.array(obj["im"])
    if obj["dims"] != [3] * 6 or re.shape != (729, 729) or im.shape != (729, 729):
        return [f"locc-demo: dumped state of dims {obj['dims']}, shape {re.shape}"]
    want = np.kron(np.kron(pair_state(q["z"]), pair_state(q["y"])), pair_state(q["x"]))
    err = max(float(abs(re - want).max()), float(abs(im).max()))
    return [] if err <= 1e-12 else [f"locc-demo: dumped state off by {err:.3e}"]


def draw_protocol(rng: random.Random) -> dict:
    p1, p2 = rng.uniform(0.15, 0.45), rng.uniform(0.15, 0.45)
    return {"tx": rng.uniform(0.5, 2.0), "wy": rng.uniform(0.1, 1.0),
            "p1": p1, "p2": p2, "p3": 1.0 - p1 - p2,
            "x": rng.uniform(0.2, 2.0), "y": rng.uniform(0.2, 2.0),
            "z": rng.uniform(0.2, 2.0)}


def argv_protocol(q: dict, dump: str) -> list[tuple[str, ...]]:
    locc = ["locc-demo"]
    for k in ("p1", "p2", "p3", "x", "y", "z"):
        locc += [f"--{k}", repr(q[k])]
    return [("witness-scan", "--mode", "triangle", "--x", repr(q["tx"]), "--p-steps", "3"),
            ("witness-scan", "--mode", "wedge", "--x", "t", "--y", repr(q["wy"]),
             "--p-steps", "3"),
            tuple(locc + ["--dump-state", dump])]


def check_protocol(q: dict, outs: list[str]) -> list[str]:
    return (check_witness("triangle", q["tx"], outs[0])
            + check_witness("wedge", q["wy"], outs[1]) + check_report(q, outs[2]))


# --- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random], dict]
    argv: Callable[[dict, str], list[tuple[str, ...]]]
    check: Callable[[dict, list[str]], list[str]]
    dumps_state: bool = False     # the last call writes the state to a file


# Why each workload exists is recorded in BENCHMARK.json.  Together they
# cover dense dimensions 64, 128 and 729, and every layer does most of the
# work in one workload and little in another.
WORKLOADS = {w.name: w for w in (
    Workload("isotropic", draw_isotropic, argv_isotropic, check_isotropic),
    Workload("ppt", lambda rng: {"p": rng.uniform(0.0, 0.05)},
             lambda q, dump: [("ppt-scan", "--n", str(PPT_N), "--p-start", repr(q["p"]),
                               "--p-steps", "1")],
             check_ppt),
    Workload("protocol", draw_protocol, argv_protocol, check_protocol, dumps_state=True),
)}


def params(workload: Workload, seed: int, index: int) -> dict:
    """Parameters of op ``index``; independent of how many ops ran before."""
    return workload.draw(random.Random(f"{seed}/{index}"))


def results_of(outs: list[str]) -> int:
    """Output rows of the CSV outputs, plus one per JSON report."""
    return sum(1 if o.startswith("{") else o.count("\n") - 1 for o in outs)
