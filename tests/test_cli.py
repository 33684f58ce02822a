"""Tests for the command-line interface."""

import csv
import io
import json

import numpy as np
import pytest

from gme_lab import linalg, separability
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
