"""Command-line front end.

Emits deterministic CSV or JSON (floats printed to 12 significant digits)
for offline plotting and verification.  Exit codes: 0 success, 2 invalid
configuration, 3 numerical-contract violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import boundent, gme, separability
from .linalg import write_density_matrix_json
from .states import (_product_form_array, isotropic_ghz, product_form_to_dense,
                     xform_pt_spectrum)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# ppt-scan's largest --n.  It enumerates 2^(N-1) - 1 cuts and a 2^N-entry
# spectrum for each, so its time and output grow as 4^N: one grid point at
# N = 16 takes about 35 s (in process, one core) and prints 2.2 MB.
PPT_SCAN_MAX_N = 16


class ConfigError(ValueError):
    pass


def fmt12(x: float) -> str:
    return format(float(x), ".12g")


def round12(x: float) -> float | None:
    """x at 12 significant digits for JSON; None (null) if x is not finite,
    since JSON has no NaN or infinity."""
    return float(fmt12(x)) if math.isfinite(x) else None


@dataclass(frozen=True)
class RunConfig:
    """The options several subcommands share, validated once.  A subcommand
    declares only those it reads; the rest keep these defaults."""

    n_qubits: int = 3
    p_start: float = 0.0
    p_stop: float = 1.0
    p_steps: int = 11
    output_format: str = "csv"
    output_path: str | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.p_steps < 1:
            raise ConfigError("grid needs at least 1 step")
        if not (math.isfinite(self.p_start) and math.isfinite(self.p_stop)):
            raise ConfigError("grid start and stop must be finite")
        if self.p_start > self.p_stop:
            raise ConfigError("grid start must not exceed stop")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.output_format!r}")
        # ``not tol >= 0`` also catches NaN, which would pass every ``> tol`` check.
        if self.tolerance is not None and not self.tolerance >= 0:
            raise ConfigError(f"tolerance {self.tolerance} is not a nonnegative number")

    def grid(self) -> list[float]:
        if self.p_steps == 1:
            return [self.p_start]
        step = (self.p_stop - self.p_start) / (self.p_steps - 1)
        return [self.p_start + i * step for i in range(self.p_steps)]


def _emit(rows: list[dict], columns: list[str], config: RunConfig) -> None:
    """Write rows as CSV (fixed column order) or JSON, deterministically."""
    if config.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
        text = buf.getvalue()
    else:
        payload = [{c: _jsonval(row.get(c)) for c in columns} for row in rows]
        text = _json_text(payload)
    _write(text, config)


def _json_text(payload) -> str:
    """The one JSON encoding; ``allow_nan=False`` makes a non-finite number
    that missed ``round12`` an error instead of invalid JSON."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write(text: str, config: RunConfig) -> None:
    """The one output path: write to ``--out`` if given, else to stdout."""
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _worst(values) -> float:
    """The largest value, or NaN if any is NaN (``max`` would drop it), so that
    a contract check written ``not worst <= tol`` fails on NaN."""
    return float(np.max(np.fromiter(values, dtype=float)))


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt12(v)
    return str(v)


def _jsonval(v):
    if isinstance(v, float):
        return round12(v)
    return v


def cmd_thresholds(config: RunConfig, args: argparse.Namespace) -> int:
    if args.kmax < 1:
        raise ConfigError("empty copy-count range")
    n_hi = args.n_max if args.n_max is not None else config.n_qubits
    if n_hi < config.n_qubits:
        raise ConfigError("--n-max below --n")
    rows = []
    for n in range(config.n_qubits, n_hi + 1):
        for k in range(1, args.kmax + 1):
            rep = gme.k_copy_threshold(n, k) if k > 1 else gme.single_copy_threshold(n)
            rows.append({"N": n, "k": k, "p_threshold": rep.p_threshold,
                         "kind": rep.kind})
        crit = gme.partition_separability_threshold(n)
        rows.append({"N": n, "k": None, "p_threshold": crit.p_threshold,
                     "kind": crit.kind})
    _emit(rows, ["N", "k", "p_threshold", "kind"], config)
    return EXIT_OK


def cmd_concurrence(config: RunConfig, args: argparse.Namespace) -> int:
    rows = []
    for p in config.grid():
        c = gme.gm_concurrence_isotropic(config.n_qubits, p)
        rows.append({"p": p, "c_gm": c, "is_gme": c > 0})
    _emit(rows, ["p", "c_gm", "is_gme"], config)
    return EXIT_OK


def cmd_verify_decomposition(config: RunConfig, args: argparse.Namespace) -> int:
    if config.n_qubits != 3:
        raise separability.UnsupportedNError(
            "the two-copy decomposition is constructed for N = 3 only")
    rows = []
    for p in config.grid():
        dec = separability.two_copy_decomposition(p)
        rows.append({
            "p": p,
            "residual_max": dec.residual_max,
            "weight_rho_diag": dec.weights["rho_diag"],
            "weight_gamma_1": dec.weights["gamma_1"],
            "weight_gamma_2": dec.weights["gamma_2"],
            "weight_sigma": dec.weights["sigma"],
            "diag_min": dec.diag_min,
            "valid": dec.valid,
            "gamma1_correction_applied": dec.gamma1_correction,
        })
    if config.output_format == "json":
        payload = [{
            "p": round12(r["p"]),
            "residual_max": round12(r["residual_max"]),
            "weights": {
                "rho_diag": round12(r["weight_rho_diag"]),
                "gamma_1": round12(r["weight_gamma_1"]),
                "gamma_2": round12(r["weight_gamma_2"]),
                "sigma": round12(r["weight_sigma"]),
            },
            "diag_min": round12(r["diag_min"]),
            "valid": r["valid"],
            "gamma1_correction_applied": r["gamma1_correction_applied"],
        } for r in rows]
        _write(_json_text(payload), config)
    else:
        _emit(rows, ["p", "residual_max", "weight_rho_diag", "weight_gamma_1",
                     "weight_gamma_2", "weight_sigma", "diag_min", "valid",
                     "gamma1_correction_applied"], config)
    worst = _worst(r["residual_max"] for r in rows)
    if not worst <= config.tolerance:
        print(f"decomposition residual {worst:.3e} exceeds tolerance "
              f"{config.tolerance:.3e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_ppt_scan(config: RunConfig, args: argparse.Namespace) -> int:
    if config.n_qubits < 2:
        raise ConfigError("ppt-scan needs at least 2 qubits")
    if config.n_qubits > PPT_SCAN_MAX_N:
        raise ConfigError(f"ppt-scan takes at most {PPT_SCAN_MAX_N} qubits, "
                          f"got {config.n_qubits}")
    cuts = separability.all_bipartitions(config.n_qubits)
    rows = []
    for p in config.grid():
        state = isotropic_ghz(config.n_qubits, p)
        for cut in cuts:
            eig = float(xform_pt_spectrum(state, cut.blocks[0])[0])
            rows.append({"p": p, "cut": str(cut), "min_pt_eig": eig,
                         "ppt": eig >= -1e-10})
    _emit(rows, ["p", "cut", "min_pt_eig", "ppt"], config)
    return EXIT_OK


def _parse_param(spec: str, name: str) -> float | None:
    """A witness-scan parameter: a number, or 't' for the scan variable."""
    if spec == "t":
        return None
    try:
        return float(spec)
    except ValueError:
        raise ConfigError(f"--{name} must be a number or 't', got {spec!r}")


def cmd_witness_scan(config: RunConfig, args: argparse.Namespace) -> int:
    px, py, pz = (_parse_param(getattr(args, name), name) for name in "xyz")
    rows = []
    for t in config.grid():
        xv = t if px is None else px
        yv = t if py is None else py
        if args.mode == "triangle":
            zv = t if pz is None else pz
            closed = boundent.witness_trace_triangle(xv, yv, zv)
            dense = boundent.witness_trace_triangle_dense(xv, yv, zv)
        else:
            zv = None
            closed = boundent.witness_trace_wedge(xv, yv)
            dense = boundent.witness_trace_wedge_dense(xv, yv)
        rows.append({"x": xv, "y": yv, "z": zv, "closed_form": closed,
                     "dense_trace": dense, "gme_detected": closed < 0})
    _emit(rows, ["x", "y", "z", "closed_form", "dense_trace", "gme_detected"],
          config)
    worst = _worst(abs(r["closed_form"] - r["dense_trace"]) for r in rows)
    if not worst <= config.tolerance:
        print(f"closed-form vs dense mismatch {worst:.3e} exceeds "
              f"{config.tolerance:.3e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_locc_demo(config: RunConfig, args: argparse.Namespace) -> int:
    p1, p2, p3, x, y, z = args.p1, args.p2, args.p3, args.x, args.y, args.z
    source = boundent.biseparable_source_state(p1, p2, p3, x, y, z)
    result = boundent.simulate_locc_triangle((source, source, source))
    # The produced state is expanded once, for the residual and the dump;
    # both expansions' factors were validated when they were built.
    produced = product_form_to_dense(result.state)
    expected = _product_form_array(boundent.triangle_state(x, y, z))
    residual = float(abs(produced.mat - expected).max())
    closed = boundent.witness_trace_triangle(x, y, z)
    dense = boundent.witness_trace_triangle_dense(x, y, z)
    detected = closed < 0
    report = {
        "p1": round12(p1), "p2": round12(p2), "p3": round12(p3),
        "x": round12(x), "y": round12(y), "z": round12(z),
        "step_probabilities": [round12(s) for s in result.step_probabilities],
        "protocol_probability": round12(result.probability),
        "residual_max": round12(residual),
        "witness_closed_form": round12(closed),
        "witness_dense": round12(dense),
        "gme_detected": detected,
        "conclusion": (
            f"GME activated: witness = {fmt12(closed)} < 0" if detected
            else f"not detected: witness = {fmt12(closed)} >= 0"),
    }
    _write(_json_text(report), config)
    if args.dump_state:
        with open(args.dump_state, "w") as fh:
            write_density_matrix_json(produced, fh)
            fh.write("\n")
    if not residual <= config.tolerance:
        print(f"protocol residual {residual:.3e} violates tolerance "
              f"{config.tolerance:.3e}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not abs(closed - dense) <= 1e-10:
        print(f"witness closed-form vs dense mismatch {abs(closed - dense):.3e} "
              f"exceeds 1.000e-10", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _subcommand(sub, name: str, handler, help: str, *, n: bool = False,
                grid: tuple[float, float, int] | None = None, fmt: bool = True,
                tol: float | None = None) -> argparse.ArgumentParser:
    """Declare one subcommand with only the shared options its handler reads:
    ``--n``, a p grid with the given defaults, ``--format``, ``--out`` (every
    subcommand) and ``--tol`` with the given default."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    if n:
        p.add_argument("--n", type=int, default=3, dest="n_qubits",
                       help="number of qubits N")
    if grid is not None:
        p.add_argument("--p-start", type=float, default=grid[0])
        p.add_argument("--p-stop", type=float, default=grid[1])
        p.add_argument("--p-steps", type=int, default=grid[2])
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       dest="output_format")
    p.add_argument("--out", default=None, dest="output_path",
                   help="output file path (default: stdout)")
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol, dest="tolerance",
                       help="numerical tolerance (default %(default)g)")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gme-lab",
        description="Multi-copy GME activation: thresholds, concurrence curves, "
                    "decomposition and witness verification, protocol demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "thresholds", cmd_thresholds,
                    "k-copy activation threshold table", n=True)
    p.add_argument("--kmax", type=int, default=1)
    p.add_argument("--n-max", type=int, default=None,
                   help="emit rows for N in [--n, --n-max]")

    _subcommand(sub, "concurrence", cmd_concurrence, "GM concurrence over a p grid",
                n=True, grid=(0.0, 1.0, 11))
    _subcommand(sub, "verify-decomposition", cmd_verify_decomposition,
                "verify the two-copy biseparable decomposition",
                n=True, grid=(0.0, 0.3, 61), tol=separability.TAU_DECOMP)
    _subcommand(sub, "ppt-scan", cmd_ppt_scan,
                "partial-transpose spectra across every bipartition",
                n=True, grid=(0.0, 1.0, 11))

    p = _subcommand(sub, "witness-scan", cmd_witness_scan,
                    "witness values over a parameter grid", grid=(0.2, 0.6, 9), tol=1e-10)
    p.add_argument("--mode", choices=("triangle", "wedge"), default="triangle")
    p.add_argument("--x", default="1", help="number or 't' (the grid variable)")
    p.add_argument("--y", default="t", help="number or 't'")
    p.add_argument("--z", default="t", help="number or 't' (triangle only)")

    p = _subcommand(sub, "locc-demo", cmd_locc_demo,
                    "three-copy triangle protocol, end to end", fmt=False, tol=1e-12)
    for name, default in (("p1", 1 / 3), ("p2", 1 / 3), ("p3", 1 / 3),
                          ("x", 1.0), ("y", 0.3), ("z", 0.3)):
        p.add_argument(f"--{name}", type=float, default=default)
    p.add_argument("--dump-state", default=None,
                   help="write the produced dense state as JSON to this path")
    return parser


# Built once: main only parses, validates and dispatches.
_PARSER = _build_parser()
_CONFIG_FIELDS = frozenset(f.name for f in fields(RunConfig))


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = RunConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS})
        return args.handler(config, args)
    except ValueError as exc:   # ConfigError, UnsupportedNError and every domain error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
