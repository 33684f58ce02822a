"""gme-lab benchmark: seeded CLI workloads, end to end and per layer.

Run from anywhere, with the repository's ``src/`` next to this directory:

    python3 bench/run.py --workload {isotropic,ppt,protocol} --seed N \\
        --seconds S --trace {0,1}

The load is a closed loop with one client: a single process, BLAS pinned to
one thread, calls ``gme_lab.cli.main(argv)`` in process, one op after the
other, for ``--seconds`` seconds and at least ``MIN_OPS`` ops.  Outputs are
checked against the independent oracles in ``workloads.py``, outside the
timed span.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``setup_s``
is the median over ``SETUP_RUNS`` fresh interpreters of importing
``gme_lab.cli`` plus the first, untimed op, which fills the lru_caches.
Op latency and throughput are given in units of a reference computation
timed around each op (``op_ref.p50``, ``op_ref.tail``, ``results_per_ref``;
see ``Reference``), and ``setup_s`` is scaled to a fixed reference speed
(``REF_NOMINAL_S``); the unscaled figures in seconds are in the report.

``--trace 1`` alternates untraced and traced ops and prints the per-layer
metrics: per-op means over the traced ops (see ``tracing.py``) and the
tracing overhead, traced minus untraced median op time.

Before the last line, a JSON report records the environment, the SHA-256
digest of the outputs of the first ``DIGEST_OPS`` ops (equal for equal code
and seed), the tail percentile and any failures.  The last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3      # fresh interpreters whose median set-up time is reported
# Timed ops at least, so that op_s.tail (10 ops beyond it) sits above the
# median even for the ~1 s protocol op.
MIN_OPS = 30
DIGEST_OPS = 10     # ops 0..9 (op 0 is the warm-up) make the output digest
PROBE_TIMEOUT_S = 120
# setup_s is reported at the host speed on which Reference takes this long
# (its median on the host the benchmark was built on): each set-up time is
# scaled by REF_NOMINAL_S over the reference time measured right after it.
REF_NOMINAL_S = 0.04


@dataclass
class Op:
    index: int
    params: dict
    seconds: float
    results: int
    out_bytes: int
    digest: "hashlib._Hash"
    dump: str | None
    mismatches: list[str] = field(default_factory=list)
    ref_s: float = 0.0     # reference time around the op; see Reference


class _Discard:
    def write(self, text: str) -> None:
        pass


class Reference:
    """A fixed computation in the benchmark's own code, timed around every op.

    On the 2-vCPU KVM guest (Xeon host) this benchmark was built on, CPU
    speed switches between states up to ~2x apart that last tens of seconds.
    Over ten 25 s runs the quartile spread of the median op latency in
    seconds was as high as 0.5 of the median; in units of this reference it
    stayed below 0.08.  Each op's latency is divided by the mean time of
    this reference just before and just after it.  The reference mixes the
    kinds of work the workloads do (streaming JSON encoding, LAPACK eigvalsh
    of a small Hermitian matrix, pure-Python arithmetic) and never calls
    gme_lab, so a change to the program moves the ratio as it moves the
    latency.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._eigvalsh = np.linalg.eigvalsh
        self._h = a + a.conj().T
        self._rows = rng.standard_normal((24, 729)).tolist()

    def __call__(self) -> float:
        t0 = perf_counter()
        json.dump(self._rows, _Discard())
        for _ in range(8):
            self._eigvalsh(self._h)
        acc = 0
        for i in range(30000):
            acc += i * i
        return perf_counter() - t0


def run_op(cli, workload, seed: int, index: int, workdir: Path, tracer=None) -> Op:
    """Run op ``index`` and check its standard output; a dumped state is
    checked later by ``finish_op``."""
    import workloads as wl

    q = wl.params(workload, seed, index)
    dump = str(workdir / f"state-{index}.json")
    argvs = workload.argv(q, dump)
    if tracer is not None:
        tracer.begin_op()
    t0 = perf_counter()
    try:
        calls = [wl.run_cli(cli.main, argv) for argv in argvs]
    finally:
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
    outs = [c.out for c in calls]
    digest = hashlib.sha256()
    for text in outs:
        digest.update(text.encode())
    op = Op(index, q, seconds, wl.results_of(outs), sum(len(t.encode()) for t in outs),
            digest, dump if workload.dumps_state else None)
    op.mismatches = [f"exit {c.code} from {' '.join(c.argv)}: {c.err.strip()}"
                     for c in calls if c.code != 0]
    if not op.mismatches:
        op.mismatches = workload.check(q, outs)
    return op


def finish_op(op: Op) -> None:
    """Digest and check the state an op dumped, then delete it.  Deferred
    until after the loop so the oracle's memory stays out of peak_rss_mb."""
    import workloads as wl

    if op.dump is None:
        return
    if not Path(op.dump).exists():
        op.mismatches.append(f"op {op.index} dumped no state")
        return
    data = Path(op.dump).read_bytes()
    Path(op.dump).unlink()
    op.digest.update(data)
    op.out_bytes += len(data)
    if not op.mismatches:
        op.mismatches = wl.check_state(op.params, data)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 ops beyond it."""
    lat = sorted(latencies)
    i = max(len(lat) - 11, 0)
    return lat[i], 100.0 * (i + 1) / len(lat)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            min_ops: int = MIN_OPS) -> dict:
    """Set up in this interpreter, run the closed loop, check every output."""
    t0 = perf_counter()
    cli = importlib.import_module("gme_lab.cli")
    import workloads as wl

    workload = wl.WORKLOADS[name]
    ops, errors = [], []

    def attempt(index, tracer=None):
        try:
            ops.append(run_op(cli, workload, seed, index, workdir, tracer))
            return ops[-1]
        except Exception:     # the op failed; record it and keep measuring
            errors.append(traceback.format_exc(limit=4))
            return None

    attempt(0)
    setup_s = perf_counter() - t0
    reference = Reference()
    setup_ref_s = statistics.median(reference() for _ in range(3))

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    ref_before = reference()
    deadline = perf_counter() + seconds
    index = 1
    while perf_counter() < deadline or index <= min_ops:
        op = attempt(index, tracer if trace and index % 2 == 0 else None)
        ref_after = reference()
        if op is not None:
            op.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op in ops:
        finish_op(op)
    mismatches = [m for op in ops for m in op.mismatches]
    failed = len(errors) + sum(1 for op in ops if op.mismatches)
    head = sorted(ops, key=lambda op: op.index)[:DIGEST_OPS]
    complete = [op.index for op in head] == list(range(DIGEST_OPS))
    stream = hashlib.sha256()
    for op in head:
        stream.update(op.digest.digest())
    timed = [op for op in ops if op.index > 0]
    untraced = [op for op in timed if not (trace and op.index % 2 == 0)]
    return {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "attempted": index,
        "failed": failed,
        "errors": errors[:3],
        "mismatches": mismatches[:5],
        "warmup_sha256": ops[0].digest.hexdigest() if ops and ops[0].index == 0 else None,
        "output_sha256": stream.hexdigest() if complete else None,
        "latencies": [op.seconds for op in untraced],
        "ref_s": [op.ref_s for op in untraced],
        "traced_latencies": [op.seconds for op in timed if trace and op.index % 2 == 0],
        "results": sum(op.results for op in untraced),
        "busy_s": sum(op.seconds for op in untraced),
        "out_bytes_per_op": statistics.fmean(op.out_bytes for op in timed) if timed else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "tracer": tracer,
    }


# --- environment --------------------------------------------------------------

def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, threads_env: str | None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "gme_lab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "GME_LAB_THREADS": os.environ.get("GME_LAB_THREADS"),
        "GME_LAB_THREADS_on_entry": threads_env,
    }


# --- entry point ---------------------------------------------------------------

def _probe(name: str, seed: int, workdir: str) -> dict:
    """Set up once in a fresh interpreter; returns set-up time and digest."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", workdir, "--workload", name,
         "--seed", str(seed)], capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


class Terminated(BaseException):
    """SIGTERM, raised so that the temporary directory is removed and a running
    set-up probe is killed and waited for.  Not a SystemExit, which
    ``run_cli`` reads as an exit of the CLI."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (SRC / "gme_lab" / "cli.py").is_file():
        print(f"error: gme_lab source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:        # before numpy is imported
        os.environ[var] = "1"
    threads_env = os.environ.pop("GME_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        res = measure(args.workload, args.seed, 0.0, False, Path(args.setup_probe), min_ops=0)
        print(json.dumps({k: res[k] for k in
                          ("setup_s", "setup_ref_s", "warmup_sha256", "failed")}))
        return 0
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        probes = []
        if not args.trace:
            probes = [_probe(args.workload, args.seed, tmp) for _ in range(SETUP_RUNS - 1)]
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))

    lat = res["latencies"]
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    setup_refs = [p["setup_ref_s"] for p in probes] + [res["setup_ref_s"]]
    attempted = res["attempted"] + len(probes)
    failed = res["failed"] + sum(1 for p in probes if p["failed"])
    digests_agree = all(p["warmup_sha256"] == res["warmup_sha256"] for p in probes)
    correct = failed == 0 and digests_agree and res["output_sha256"] is not None
    extra = {}
    if args.trace:
        values = res["tracer"].metrics()
        values["trace.overhead_s"] = (statistics.median(res["traced_latencies"])
                                      - statistics.median(lat))
        values["cli.bytes_out"] = res["out_bytes_per_op"]
    else:
        rel = [t / r for t, r in zip(lat, res["ref_s"])]
        tail_s, extra["op_s.tail_percentile"] = tail(lat)
        extra["op_s.tail_samples_beyond"] = 10
        values = {
            "setup_s": statistics.median(
                t * REF_NOMINAL_S / r for t, r in zip(setups, setup_refs)),
            "op_ref.p50": statistics.median(rel),
            "op_ref.tail": tail(rel)[0],
            "results_per_ref": res["results"] / sum(rel),
            "peak_rss_mb": res["peak_rss_mb"],
            # In seconds: what a user waits, but only as steady as the host.
            "op_s.p50": statistics.median(lat),
            "op_s.tail": tail_s,
            "results_per_s": res["results"] / res["busy_s"],
            "ref_s.p50": statistics.median(res["ref_s"]),
            "setup_s.unscaled": statistics.median(setups),
        }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, threads_env),
        "output_sha256": res["output_sha256"],
        "warmup_sha256_agree": digests_agree,
        "setup_s_samples": setups,
        "setup_ref_s_samples": setup_refs,
        "op_s_samples": lat,
        "ref_s_samples": res["ref_s"],
        **extra,
        "error_rate": failed / attempted,
        "errors": res["errors"],
        "mismatches": res["mismatches"],
        "metrics": values,
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
