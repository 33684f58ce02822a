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
import sys
from dataclasses import dataclass

from . import boundent, gme, separability
from .linalg import density_matrix_to_json
from .states import isotropic_ghz, product_form_to_dense, xform_pt_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def fmt12(x: float) -> str:
    return format(float(x), ".12g")


def round12(x: float) -> float:
    return float(fmt12(x))


@dataclass(frozen=True)
class RunConfig:
    command: str
    n_qubits: int = 3
    k_max: int = 1
    p_start: float = 0.0
    p_stop: float = 1.0
    p_steps: int = 11
    output_format: str = "csv"
    output_path: str | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.p_steps < 1:
            raise ConfigError("grid needs at least 1 step")
        if self.p_start > self.p_stop:
            raise ConfigError("grid start must not exceed stop")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.output_format!r}")

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
        text = json.dumps(payload, indent=2) + "\n"
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def cmd_thresholds(config: RunConfig, n_max: int | None) -> int:
    if config.k_max < 1:
        raise ConfigError("empty copy-count range")
    n_hi = n_max if n_max is not None else config.n_qubits
    if n_hi < config.n_qubits:
        raise ConfigError("--n-max below --n")
    rows = []
    for n in range(config.n_qubits, n_hi + 1):
        for k in range(1, config.k_max + 1):
            rep = gme.k_copy_threshold(n, k) if k > 1 else gme.single_copy_threshold(n)
            rows.append({"N": n, "k": k, "p_threshold": rep.p_threshold,
                         "kind": rep.kind})
        crit = gme.partition_separability_threshold(n)
        rows.append({"N": n, "k": None, "p_threshold": crit.p_threshold,
                     "kind": crit.kind})
    _emit(rows, ["N", "k", "p_threshold", "kind"], config)
    return EXIT_OK


def cmd_concurrence(config: RunConfig) -> int:
    rows = []
    for p in config.grid():
        c = gme.gm_concurrence_isotropic(config.n_qubits, p)
        rows.append({"p": p, "c_gm": c, "is_gme": c > 0})
    _emit(rows, ["p", "c_gm", "is_gme"], config)
    return EXIT_OK


def cmd_verify_decomposition(config: RunConfig) -> int:
    if config.n_qubits != 3:
        raise separability.UnsupportedNError(
            "the two-copy decomposition is constructed for N = 3 only")
    tol = config.tolerance if config.tolerance is not None else separability.TAU_DECOMP
    rows = []
    worst = 0.0
    for p in config.grid():
        dec = separability.two_copy_decomposition(p)
        worst = max(worst, dec.residual_max)
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
        text = json.dumps(payload, indent=2) + "\n"
        if config.output_path:
            with open(config.output_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit(rows, ["p", "residual_max", "weight_rho_diag", "weight_gamma_1",
                     "weight_gamma_2", "weight_sigma", "diag_min", "valid",
                     "gamma1_correction_applied"], config)
    if worst > tol:
        print(f"decomposition residual {worst:.3e} exceeds tolerance {tol:.3e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_ppt_scan(config: RunConfig) -> int:
    if config.n_qubits < 2:
        raise ConfigError("ppt-scan needs at least 2 qubits")
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


def cmd_witness_scan(config: RunConfig, mode: str, x: str, y: str, z: str,
                     tol: float) -> int:
    px, py, pz = _parse_param(x, "x"), _parse_param(y, "y"), _parse_param(z, "z")
    rows = []
    for t in config.grid():
        xv = t if px is None else px
        yv = t if py is None else py
        if mode == "triangle":
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
    worst = max(abs(r["closed_form"] - r["dense_trace"]) for r in rows)
    if worst > tol:
        print(f"closed-form vs dense mismatch {worst:.3e} exceeds {tol:.3e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_locc_demo(config: RunConfig, probs: tuple[float, float, float],
                  params: tuple[float, float, float], tol: float,
                  dump_state: str | None) -> int:
    p1, p2, p3 = probs
    x, y, z = params
    try:
        source = boundent.biseparable_source_state(p1, p2, p3, x, y, z)
    except (ValueError, boundent.NonPositiveParameterError) as exc:
        raise ConfigError(str(exc))
    result = boundent.simulate_locc_triangle((source, source, source))
    produced = product_form_to_dense(result.state).mat
    expected = product_form_to_dense(boundent.triangle_state(x, y, z)).mat
    residual = float(abs(produced - expected).max())
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
    text = json.dumps(report, indent=2) + "\n"
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if dump_state:
        dense_dm = product_form_to_dense(result.state)
        with open(dump_state, "w") as fh:
            json.dump(density_matrix_to_json(dense_dm), fh)
            fh.write("\n")
    if residual > tol or abs(closed - dense) > 1e-10:
        print(f"protocol residual {residual:.3e} violates tolerance {tol:.3e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gme-lab",
        description="Multi-copy GME activation: thresholds, concurrence curves, "
                    "decomposition and witness verification, protocol demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, n_default=3, p_grid=(0.0, 1.0, 11)):
        p.add_argument("--n", type=int, default=n_default, dest="n_qubits",
                       help="number of qubits N")
        p.add_argument("--p-start", type=float, default=p_grid[0])
        p.add_argument("--p-stop", type=float, default=p_grid[1])
        p.add_argument("--p-steps", type=int, default=p_grid[2])
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       dest="output_format")
        p.add_argument("--out", default=None, dest="output_path",
                       help="output file path (default: stdout)")
        p.add_argument("--tol", type=float, default=None, dest="tolerance",
                       help="override the default numerical tolerance")

    p_thr = sub.add_parser("thresholds", help="k-copy activation threshold table")
    common(p_thr)
    p_thr.add_argument("--kmax", type=int, default=1)
    p_thr.add_argument("--n-max", type=int, default=None,
                       help="emit rows for N in [--n, --n-max]")

    p_con = sub.add_parser("concurrence", help="GM concurrence over a p grid")
    common(p_con)

    p_ver = sub.add_parser("verify-decomposition",
                           help="verify the two-copy biseparable decomposition")
    common(p_ver, p_grid=(0.0, 0.3, 61))

    p_ppt = sub.add_parser("ppt-scan",
                           help="partial-transpose spectra across every bipartition")
    common(p_ppt)

    p_wit = sub.add_parser("witness-scan", help="witness values over a parameter grid")
    common(p_wit, p_grid=(0.2, 0.6, 9))
    p_wit.add_argument("--mode", choices=("triangle", "wedge"), default="triangle")
    p_wit.add_argument("--x", default="1", help="number or 't' (the grid variable)")
    p_wit.add_argument("--y", default="t", help="number or 't'")
    p_wit.add_argument("--z", default="t", help="number or 't' (triangle only)")

    p_locc = sub.add_parser("locc-demo",
                            help="three-copy triangle protocol, end to end")
    common(p_locc)
    p_locc.add_argument("--p1", type=float, default=1 / 3)
    p_locc.add_argument("--p2", type=float, default=1 / 3)
    p_locc.add_argument("--p3", type=float, default=1 / 3)
    p_locc.add_argument("--x", type=float, default=1.0)
    p_locc.add_argument("--y", type=float, default=0.3)
    p_locc.add_argument("--z", type=float, default=0.3)
    p_locc.add_argument("--dump-state", default=None,
                        help="write the produced dense state as JSON to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            n_qubits=args.n_qubits,
            k_max=getattr(args, "kmax", 1),
            p_start=args.p_start,
            p_stop=args.p_stop,
            p_steps=args.p_steps,
            output_format=args.output_format,
            output_path=args.output_path,
            tolerance=args.tolerance,
        )
        if args.command == "thresholds":
            return cmd_thresholds(config, args.n_max)
        if args.command == "concurrence":
            return cmd_concurrence(config)
        if args.command == "verify-decomposition":
            return cmd_verify_decomposition(config)
        if args.command == "ppt-scan":
            return cmd_ppt_scan(config)
        if args.command == "witness-scan":
            tol = config.tolerance if config.tolerance is not None else 1e-10
            return cmd_witness_scan(config, args.mode, args.x, args.y, args.z, tol)
        if args.command == "locc-demo":
            tol = config.tolerance if config.tolerance is not None else 1e-12
            return cmd_locc_demo(config, (args.p1, args.p2, args.p3),
                                 (args.x, args.y, args.z), tol, args.dump_state)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, separability.UnsupportedNError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
