"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

import gme_lab as gl
from gme_lab.states import product_form_to_dense
from oracles import project_triangle_to_D


def report(number, description, started, budget):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_01_threshold_reproduction():
    t0 = time.perf_counter()
    assert abs(gl.single_copy_threshold(3).p_threshold - 3 / 7) <= 1e-12
    r3 = math.sqrt(3)
    assert abs(gl.k_copy_threshold(3, 2).p_threshold - r3 / (4 + r3)) <= 1e-12
    assert abs(gl.k_copy_threshold(3, 2).p_threshold - 0.302169479252) <= 1e-12
    assert abs(gl.partition_separability_threshold(3).p_threshold - 0.2) <= 1e-12
    report(1, "single-copy, two-copy, and separability thresholds at N=3", t0, 1.0)


def test_criterion_02_concurrence_consistency():
    t0 = time.perf_counter()
    for n in range(2, 11):
        lo, hi = gl.isotropic_p_range(n)
        for p in np.linspace(lo, hi, 101):
            got = gl.gm_concurrence_xform(gl.isotropic_ghz(n, p))
            want = gl.gm_concurrence_isotropic(n, p)
            assert abs(got - want) <= 1e-12, (n, p)
    report(2, "X-form vs closed-form concurrence, N=2..10, 101-point grids", t0, 1.0)


def test_criterion_03_activation_sign():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        for k in (2, 3, 4):
            thr = gl.k_copy_threshold(n, k).p_threshold
            above = gl.gm_concurrence_xform(
                gl.iterated_hadamard(gl.isotropic_ghz(n, thr + 1e-6), k))
            below = gl.gm_concurrence_xform(
                gl.iterated_hadamard(gl.isotropic_ghz(n, thr - 1e-6), k))
            assert above > 0.0, (n, k)
            assert below == 0.0, (n, k)
    report(3, "merged k-copy concurrence flips sign at the k-copy threshold", t0, 1.0)


def test_criterion_04_two_copy_decomposition_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.0, 0.3, 61):
        dec = gl.two_copy_decomposition(p)
        worst = max(worst, dec.residual_max)
        assert dec.residual_max <= 1e-10, p
    assert gl.two_copy_decomposition(0.1).gamma1_correction == gl.GAMMA1_CORRECTION
    print(f"    applied data repair: {gl.GAMMA1_CORRECTION}; "
          f"max residual over grid = {worst:.2e}")
    report(4, "two-copy decomposition identity on 61 points of [0, 0.3]", t0, 5.0)


def test_criterion_05_validity_boundary():
    t0 = time.perf_counter()
    _, hi = gl.bisep_validity_interval()
    assert abs(hi - (-3 + 4 * math.sqrt(3)) / 13) <= 1e-12
    assert abs(hi - gl.k_copy_threshold(3, 2).p_threshold) <= 1e-12
    report(5, "validity interval endpoint equals the two-copy threshold", t0, 1.0)


def test_criterion_06_pt_spectrum_and_crit():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        dense = {p: gl.xform_to_dense(gl.isotropic_ghz(n, p))
                 for p in (0.1, 0.3, 0.6)}
        for cut in gl.all_bipartitions(n):
            for p, dm in dense.items():
                expected = (1 - p) / 2 ** n - p / 2
                spectrum = np.linalg.eigvalsh(
                    gl.partial_transpose(dm, cut.blocks[0]).mat)
                assert np.abs(spectrum - expected).min() <= 1e-10, (n, p, cut)
            lo, hi = 0.05, 0.6
            for _ in range(60):  # bisect the sign change to well below 1e-8
                mid = 0.5 * (lo + hi)
                if gl.pt_min_eig_isotropic(n, mid, cut) < 0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-9:
                    break
            crit = gl.partition_separability_threshold(n).p_threshold
            assert abs(0.5 * (lo + hi) - crit) <= 1e-8, (n, cut)
    report(6, "analytic PT eigenvalue present; sign flips at p_crit on every cut",
           t0, 10.0)


def test_criterion_07_ppt_family():
    t0 = time.perf_counter()
    for p in np.logspace(-2, 2, 25):
        pt = gl.partial_transpose(gl.qutrit_ppt_state(p), {1})
        assert gl.min_eigenvalue_hermitian(pt.mat) >= -1e-10, p
    report(7, "two-qutrit pair family is PPT across 25 log-spaced parameters",
           t0, 1.0)


def test_criterion_08_witness_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        x, y, z = rng.uniform(0.05, 5.0, size=3)
        assert abs(gl.witness_trace_triangle(x, y, z)
                   - gl.witness_trace_triangle_dense(x, y, z)) <= 1e-10
    for _ in range(50):
        x, y = rng.uniform(0.05, 5.0, size=2)
        assert abs(gl.witness_trace_wedge(x, y)
                   - gl.witness_trace_wedge_dense(x, y)) <= 1e-10
    lo, hi = 0.2, 0.6
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gl.witness_trace_triangle(1.0, mid, mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - (math.sqrt(2) - 1)) <= 1e-6
    report(8, "witness closed forms match dense traces; boundary at sqrt(2)-1",
           t0, 10.0)


def test_criterion_09_locc_end_to_end():
    t0 = time.perf_counter()
    x, y, z = 1.0, 0.3, 0.3
    source = gl.biseparable_source_state(1 / 3, 1 / 3, 1 / 3, x, y, z)
    result = gl.simulate_locc_triangle((source, source, source))
    produced = product_form_to_dense(result.state).mat
    expected = product_form_to_dense(gl.triangle_state(x, y, z)).mat
    assert np.abs(produced - expected).max() <= 1e-12
    state, prob = project_triangle_to_D(result.state)
    witness = prob * float(np.trace(gl.witness_w3().mat @ state.mat).real)
    assert witness < 0
    assert abs(witness - gl.witness_trace_triangle(x, y, z)) <= 1e-10
    print(f"    protocol probability {result.probability:.6f}; "
          f"witness value {witness:.6e}")
    report(9, "three biseparable PPT copies yield a GME triangle state", t0, 30.0)


def test_criterion_10_asymptotic_collapse():
    t0 = time.perf_counter()
    for n in range(3, 7):
        crit = gl.partition_separability_threshold(n).p_threshold
        gaps = [gl.k_copy_threshold(n, k).p_threshold - crit
                for k in (1, 2, 4, 10, 100, 1000, 10_000)]
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
    report(10, "k-copy thresholds collapse onto p_crit as k grows", t0, 1.0)
