"""Tests for the command-line interface."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest

from gme_lab import boundent, cli, linalg, separability, states
from gme_lab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, fmt12, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --------------------------------------------------------------- thresholds

def test_thresholds_table(capsys):
    code, out, _ = run(capsys, "thresholds", "--n", "3", "--kmax", "3")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["N", "k", "p_threshold", "kind"]
    values = [float(r[2]) for r in rows]
    assert np.isclose(values[0], 3 / 7, atol=1e-12)
    assert np.isclose(values[1], 0.302169479252, atol=1e-12)
    assert np.isclose(values[2], np.cbrt(3) / (4 + np.cbrt(3)), atol=1e-12)
    assert rows[3][1] == "" and float(rows[3][2]) == 0.2
    assert rows[3][3] == "partition_separability"


def test_thresholds_two_qubits(capsys):
    code, out, _ = run(capsys, "thresholds", "--n", "2", "--kmax", "1")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert np.isclose(float(rows[0][2]), 1 / 3, atol=1e-12)


def test_thresholds_empty_k_range(capsys):
    code, _, err = run(capsys, "thresholds", "--n", "3", "--kmax", "0")
    assert code == EXIT_CONFIG
    assert "empty" in err


def test_thresholds_n_range(capsys):
    code, out, _ = run(capsys, "thresholds", "--n", "3", "--n-max", "5",
                       "--kmax", "2")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["3", "3", "3", "4", "4", "4", "5", "5", "5"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, n_rows", [
    (("--n", "1100"), 2),
    (("--n", "1029", "--kmax", "30", "--n-max", "1032"), 4 * 31),
])
def test_thresholds_beyond_float_range(capsys, argv, n_rows):
    code, out, err = run(capsys, "thresholds", *argv)
    assert code == EXIT_OK and err == ""
    _, rows = parse_csv(out)
    assert len(rows) == n_rows
    assert all(np.isfinite(float(r[2])) for r in rows)
    assert all(float(r[2]) == 0.5 for r in rows if r[1] == "1")


# -------------------------------------------------------------- concurrence

def test_concurrence_shape(capsys):
    code, out, _ = run(capsys, "concurrence", "--n", "3",
                       "--p-start", "0", "--p-stop", "1", "--p-steps", "11")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 11
    # flat at zero through the threshold, then rising
    assert float(rows[4][1]) == 0.0 and rows[4][2] == "false"
    assert float(rows[10][1]) == 1.0 and rows[10][2] == "true"


def test_concurrence_single_point(capsys):
    code, out, _ = run(capsys, "concurrence", "--n", "3",
                       "--p-start", "0.5", "--p-stop", "0.5", "--p-steps", "1")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert np.isclose(float(rows[0][1]), 0.125)


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_concurrence_rejects_fewer_than_two_qubits(capsys, n):
    code, out, err = run(capsys, "concurrence", "--n", n)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("--p-start=-1e308", "--p-stop=1e308", "--p-steps", "3"),   # the grid holds inf, nan
    ("--n", "2302", "--p-start=1e-310", "--p-stop=1e308", "--p-steps", "5"),
    ("--p-start", "0", "--p-stop", "1.5", "--p-steps", "3"),
    ("--p-start=-0.2", "--p-stop", "0", "--p-steps", "2"),
], ids=" ".join)
def test_concurrence_rejects_p_outside_range(capsys, argv):
    code, out, err = run(capsys, "concurrence", *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_grid_rejected(capsys):
    code, _, err = run(capsys, "concurrence", "--p-start", "0.6",
                       "--p-stop", "0.4")
    assert code == EXIT_CONFIG


# ------------------------------------------------------ verify-decomposition

def test_verify_decomposition_json(capsys):
    code, out, _ = run(capsys, "verify-decomposition", "--format", "json",
                       "--p-start", "0.25", "--p-stop", "0.25", "--p-steps", "1")
    assert code == EXIT_OK
    report = json.loads(out)[0]
    assert report["valid"] is True
    assert report["residual_max"] <= 1e-10
    assert report["gamma1_correction_applied"].startswith("gamma(11,12,31,31)")
    assert set(report["weights"]) == {"rho_diag", "gamma_1", "gamma_2", "sigma"}


def test_verify_decomposition_invalid_point(capsys):
    code, out, _ = run(capsys, "verify-decomposition", "--format", "json",
                       "--p-start", "0.5", "--p-stop", "0.5", "--p-steps", "1")
    assert code == EXIT_OK  # identity holds, so no numerical violation
    assert json.loads(out)[0]["valid"] is False


def test_verify_decomposition_whole_range_through_half(capsys):
    code, out, err = run(capsys, "verify-decomposition", "--format", "json",
                         "--p-start", "-0.142857", "--p-stop", "1", "--p-steps", "200")
    assert (code, err) == (EXIT_OK, "")
    reports = json.loads(out)
    assert len(reports) == 200
    assert max(r["residual_max"] for r in reports) <= 1e-10


def test_verify_decomposition_rejects_other_n(capsys):
    code, _, err = run(capsys, "verify-decomposition", "--n", "4")
    assert code == EXIT_CONFIG
    assert "N = 3" in err


def test_verify_decomposition_strict_tolerance_violation(capsys):
    code, _, err = run(capsys, "verify-decomposition", "--tol", "1e-30",
                       "--p-start", "0.1", "--p-stop", "0.2", "--p-steps", "3")
    assert code == EXIT_NUMERICAL
    assert "exceeds tolerance" in err


# ----------------------------------------------------------------- ppt-scan

def test_ppt_scan(capsys):
    code, out, _ = run(capsys, "ppt-scan", "--n", "3",
                       "--p-start", "0.1", "--p-stop", "0.3", "--p-steps", "3")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 9  # 3 grid points x 3 bipartitions
    by_p = {}
    for r in rows:
        by_p.setdefault(r[0], set()).add(r[3])
    grid = sorted(by_p)
    assert by_p[grid[0]] == {"true"}   # p = 0.1 below the threshold
    assert by_p[grid[-1]] == {"false"}  # p = 0.3 above


@pytest.mark.parametrize("n", [str(cli.PPT_SCAN_MAX_N + 1), "40", "100000"])
def test_ppt_scan_refuses_n_above_ceiling(capsys, monkeypatch, n):
    def boom(*args, **kwargs):
        raise AssertionError("cuts enumerated")

    monkeypatch.setattr(separability, "all_bipartitions", boom)
    code, out, err = run(capsys, "ppt-scan", "--n", n, "--p-steps", "1")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"error: ppt-scan takes at most {cli.PPT_SCAN_MAX_N} qubits, got {n}\n"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_ppt_scan_rejects_fewer_than_two_qubits(capsys, n):
    code, out, err = run(capsys, "ppt-scan", "--n", n)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ")


def test_ppt_scan_builds_no_dense_matrix(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("dense route taken")

    monkeypatch.setattr(separability, "xform_to_dense", boom)
    monkeypatch.setattr(linalg, "partial_transpose", boom)
    monkeypatch.setattr(linalg.DensityMatrix, "__post_init__", boom)
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    n = 6
    code, out, _ = run(capsys, "ppt-scan", "--n", str(n), "--p-start", "-0.01",
                       "--p-stop", "0.99", "--p-steps", "11")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 11 * (2 ** (n - 1) - 1)
    for r in rows:
        p = float(r[0])
        expected = (1 - p) / 2 ** n - abs(p) / 2
        assert abs(float(r[2]) - expected) <= 1e-12
        assert r[3] == ("true" if expected >= -1e-10 else "false")


# -------------------------------------------------------------- witness-scan

def test_witness_scan_triangle_brackets_root(capsys):
    code, out, _ = run(capsys, "witness-scan", "--mode", "triangle",
                       "--x", "1", "--y", "t", "--z", "t",
                       "--p-start", "0.2", "--p-stop", "0.6", "--p-steps", "9")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    detected = [r[5] == "true" for r in rows]
    assert detected[0] and not detected[-1]
    flips = sum(a != b for a, b in zip(detected, detected[1:]))
    assert flips == 1  # single sign change, bracketing sqrt(2) - 1
    for r in rows:
        assert abs(float(r[3]) - float(r[4])) <= 1e-10


def test_witness_scan_wedge(capsys):
    code, out, _ = run(capsys, "witness-scan", "--mode", "wedge",
                       "--x", "t", "--y", "t",
                       "--p-start", "0.2", "--p-stop", "0.6", "--p-steps", "9")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert all(r[2] == "" for r in rows)  # no z column content in wedge mode
    detected = [r[5] == "true" for r in rows]
    assert detected[0] and not detected[-1]


def test_witness_scan_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "witness-scan", "--x", "-1", "--y", "t", "--z", "t")
    assert code == EXIT_CONFIG


def test_witness_scan_builds_no_dense_matrix(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("dense route taken")

    for module in (states, boundent, cli):
        monkeypatch.setattr(module, "product_form_to_dense", boom, raising=False)
    monkeypatch.setattr(np, "kron", boom)
    for argv in (("--mode", "triangle", "--x", "0.7", "--y", "t", "--z", "t"),
                 ("--mode", "wedge", "--x", "t", "--y", "1.3")):
        code, out, _ = run(capsys, "witness-scan", *argv,
                           "--p-start", "0.1", "--p-stop", "3", "--p-steps", "7")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 7
        for r in rows:
            assert abs(float(r[3]) - float(r[4])) <= 1e-13


# ----------------------------------------------------------------- locc-demo

def test_locc_demo_default_detects_gme(capsys):
    code, out, _ = run(capsys, "locc-demo")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["gme_detected"] is True
    assert report["conclusion"].startswith("GME activated")
    assert report["residual_max"] <= 1e-12
    assert np.isclose(report["protocol_probability"], 1 / 27, atol=1e-9)


def test_locc_demo_not_detected(capsys):
    code, out, _ = run(capsys, "locc-demo", "--y", "0.5", "--z", "0.5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["gme_detected"] is False
    assert report["conclusion"].startswith("not detected")


def test_locc_demo_malformed_probabilities(capsys):
    code, _, err = run(capsys, "locc-demo", "--p1", "0.9", "--p2", "0.9",
                       "--p3", "0.9")
    assert code == EXIT_CONFIG


def test_locc_demo_dump_state(tmp_path, capsys):
    out_path = tmp_path / "state.json"
    code, _, _ = run(capsys, "locc-demo", "--dump-state", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["dims"] == [3, 3, 3, 3, 3, 3]
    assert len(payload["re"]) == 729


def test_locc_demo_dump_state_equals_json_dump(tmp_path, capsys):
    probs, params = (0.2, 0.3, 0.5), (0.7, 1.3, 0.4)
    out_path = tmp_path / "state.json"
    argv = ["locc-demo", "--dump-state", str(out_path)]
    for name, value in zip(("p1", "p2", "p3", "x", "y", "z"), probs + params):
        argv += [f"--{name}", repr(value)]
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    source = boundent.biseparable_source_state(*probs, *params)
    produced = boundent.simulate_locc_triangle((source, source, source)).state
    oracle = io.StringIO()
    json.dump(linalg.density_matrix_to_json(states.product_form_to_dense(produced)), oracle)
    oracle.write("\n")
    assert out_path.read_text() == oracle.getvalue()


def test_locc_demo_expands_the_state_once(capsys, monkeypatch):
    """One dense expansion per run, shared by the residual and the dump, and
    no 729-dimensional check: the expansion's factors were checked.  Once
    the constant carrier states are cached, a run needs no eigvalsh."""
    expansions, checked, eigvalsh_calls = [], [], []
    to_dense = cli.product_form_to_dense
    post_init = linalg.DensityMatrix.__post_init__
    eigvalsh = np.linalg.eigvalsh

    def counting_to_dense(s, *args, **kwargs):
        expansions.append(s.global_dims)
        return to_dense(s, *args, **kwargs)

    def counting_post_init(self):
        post_init(self)
        checked.append(self.dim)

    def counting_eigvalsh(a, *args, **kwargs):
        eigvalsh_calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    assert run(capsys, "locc-demo")[0] == EXIT_OK     # warm the caches
    monkeypatch.setattr(cli, "product_form_to_dense", counting_to_dense)
    monkeypatch.setattr(linalg.DensityMatrix, "__post_init__", counting_post_init)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for argv in ((), ("--x", "0.7", "--y", "1.3", "--z", "0.4")):
        expansions.clear()
        checked.clear()
        code, _, _ = run(capsys, "locc-demo", "--dump-state", os.devnull, *argv)
        assert code == EXIT_OK
        assert expansions == [(3,) * 6]
        assert 729 not in checked
        assert eigvalsh_calls == []


def test_locc_residual_oracle_is_the_validated_dense_state(capsys, monkeypatch):
    """The residual's oracle skips ``DensityMatrix``; its bytes must still be
    those of the validated dense expansion of ``triangle_state``."""
    oracles = []

    def recording(s, *args, **kwargs):
        out = states._product_form_array(s, *args, **kwargs)
        oracles.append(out.copy())
        return out

    monkeypatch.setattr(cli, "_product_form_array", recording)
    params = [(1.0, 0.3, 0.3), (0.7, 1.3, 0.4), (2.0, 0.2, 1.1), (0.25, 0.5, 1.9)]
    for x, y, z in params:
        code, _, _ = run(capsys, "locc-demo", "--x", repr(x), "--y", repr(y),
                         "--z", repr(z))
        assert code == EXIT_OK
        want = states.product_form_to_dense(boundent.triangle_state(x, y, z)).mat
        assert oracles[-1].tobytes() == want.tobytes()
    assert len(oracles) == len(params)


# Parameters whose product x y overflows a float.
OVERFLOW_ARGVS = [
    ("witness-scan", "--x", "1e200", "--y", "1e200", "--z", "1", "--p-steps", "1"),
    # the overflowing rows come after a finite one
    ("witness-scan", "--x", "1e200", "--z", "1", "--p-start", "1", "--p-stop", "1e200",
     "--p-steps", "3"),
    ("locc-demo", "--x", "1e200", "--y", "1e200", "--z", "1e200"),
]
OVERFLOW_IDS = ["witness-scan-one-row", "witness-scan-nan-after-finite-row", "locc-demo"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", zip(OVERFLOW_ARGVS, [
    "closed-form vs dense mismatch nan",
    # the built-in max would keep the finite row and drop the nan ones
    "closed-form vs dense mismatch nan",
    "witness closed-form vs dense mismatch nan",
]), ids=OVERFLOW_IDS)
def test_contract_checks_fail_on_nan(capsys, monkeypatch, argv, message):
    closed_form = boundent.witness_trace_triangle

    def nan_where_xy_overflows(x, y, z):
        return math.nan if math.isinf(x * y) else closed_form(x, y, z)

    monkeypatch.setattr(boundent, "witness_trace_triangle", nan_where_xy_overflows)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_NUMERICAL
    assert err.startswith(message)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", OVERFLOW_ARGVS, ids=OVERFLOW_IDS)
def test_witness_closed_form_survives_overflow(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    if argv[0] == "locc-demo":
        report = json.loads(out)
        pairs = [(report["witness_closed_form"], report["witness_dense"])]
    else:
        pairs = [(float(r[3]), float(r[4])) for r in parse_csv(out)[1]]
    assert len(pairs) == (3 if "3" in argv else 1)
    for closed, dense in pairs:
        assert math.isfinite(closed) and abs(closed - dense) <= 1e-10


def test_verify_decomposition_fails_on_nan_residual(capsys, monkeypatch):
    decompose = separability.two_copy_decomposition
    calls = []

    def nan_at_middle_point(p):
        calls.append(p)
        dec = decompose(p)
        return dataclasses.replace(dec, residual_max=math.nan) if len(calls) == 2 else dec

    monkeypatch.setattr(separability, "two_copy_decomposition", nan_at_middle_point)
    code, _, err = run(capsys, "verify-decomposition", "--p-start", "0.1",
                       "--p-stop", "0.2", "--p-steps", "3")
    assert code == EXIT_NUMERICAL
    assert err.startswith("decomposition residual nan exceeds")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("locc-demo", "--p1", "nan"),
    ("locc-demo", "--p2", "nan"),
    ("locc-demo", "--p3", "nan"),
    ("locc-demo", "--x", "inf"),
    ("locc-demo", "--y", "nan"),
    ("locc-demo", "--z", "inf"),
    ("witness-scan", "--x", "nan"),
    ("witness-scan", "--x", "inf", "--y", "0.3", "--z", "0.3", "--p-steps", "1"),
    ("witness-scan", "--mode", "wedge", "--x", "t", "--y", "inf"),
    ("witness-scan", "--mode", "wedge", "--x", "nan", "--y", "t"),
    # a NaN tolerance would pass every ``> tol`` contract check
    ("verify-decomposition", "--tol", "nan", "--p-start", "0.1", "--p-stop", "0.2",
     "--p-steps", "3"),
    ("witness-scan", "--tol", "nan"),
    ("locc-demo", "--tol", "nan"),
    # under a negative tolerance every run would exit 3
    ("verify-decomposition", "--tol=-1e-3", "--p-steps", "3"),
    ("witness-scan", "--tol=-1"),
    ("locc-demo", "--tol=-1e-12"),
    ("concurrence", "--p-start", "nan"),
    ("concurrence", "--p-stop", "inf"),
    ("concurrence", "--p-start=-inf"),
    ("verify-decomposition", "--p-stop", "nan"),
    ("ppt-scan", "--p-start", "nan", "--p-stop", "nan"),
    # 1/p or the pair normalization overflows
    ("witness-scan", "--x", "1e-320", "--p-steps", "1"),
    ("witness-scan", "--mode", "wedge", "--x", "t", "--y", "5e-324"),
    ("locc-demo", "--z", "1e-310"),
    ("locc-demo", "--x", "1e308"),
], ids=" ".join)
def test_non_finite_parameters_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ------------------------------------------------------------------ parser

def test_parser_is_built_once(capsys, monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", boom)
    for argv in (("thresholds", "--kmax", "2"),
                 ("concurrence", "--p-steps", "3"),
                 ("verify-decomposition", "--p-steps", "2"),
                 ("ppt-scan", "--n", "4", "--p-steps", "2"),
                 ("witness-scan", "--p-steps", "2"),
                 ("locc-demo", "--dump-state", str(tmp_path / "state.json"))):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "") and out, argv


@pytest.mark.parametrize("argv", [
    ("thresholds", "--p-start", "0"),
    ("thresholds", "--p-stop", "1"),
    ("thresholds", "--p-steps", "3"),
    ("thresholds", "--tol", "1e-30"),
    ("concurrence", "--tol", "1e-30"),
    ("ppt-scan", "--tol", "1e-30"),
    ("witness-scan", "--n", "3"),
    ("locc-demo", "--n", "3"),
    ("locc-demo", "--p-start", "0"),
    ("locc-demo", "--p-stop", "1"),
    ("locc-demo", "--p-steps", "3"),
    ("locc-demo", "--format", "csv"),
], ids=" ".join)
def test_option_the_subcommand_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in captured.err


# ------------------------------------------------------------- determinism

def test_outputs_are_deterministic(capsys):
    args = ("concurrence", "--n", "4", "--p-start", "0", "--p-stop", "1",
            "--p-steps", "17")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_csv_parses_back_losslessly(capsys):
    _, out, _ = run(capsys, "thresholds", "--n", "5", "--kmax", "4")
    _, rows = parse_csv(out)
    for r in rows:
        assert fmt12(float(r[2])) == r[2]


def test_output_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "thresholds", "--n", "3", "--kmax", "2",
                       "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    header, rows = parse_csv(path.read_text())
    assert header == ["N", "k", "p_threshold", "kind"]
    assert len(rows) == 3


def test_thread_cap_does_not_change_output(capsys, monkeypatch):
    args = ("ppt-scan", "--n", "4", "--p-start", "0", "--p-stop", "0.4",
            "--p-steps", "5")
    monkeypatch.delenv("GME_LAB_THREADS", raising=False)
    _, serial, _ = run(capsys, *args)
    monkeypatch.setenv("GME_LAB_THREADS", "4")
    _, threaded, _ = run(capsys, *args)
    assert serial == threaded
