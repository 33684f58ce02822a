"""Tests for GM concurrence, activation thresholds, and the Schur-product map."""

import decimal
import fractions
import math

import numpy as np
import pytest

from gme_lab.gme import (
    ZeroTraceError,
    activation_classification,
    gm_concurrence_isotropic,
    gm_concurrence_xform,
    hadamard_map,
    iterated_hadamard,
    k_copy_threshold,
    partition_separability_threshold,
    single_copy_threshold,
)
from gme_lab.linalg import DensityMatrix
from gme_lab.states import isotropic_ghz, isotropic_p_range, xform_from_dense, xform_to_dense


def two_copy_cross_check(n_qubits: int, p: float) -> float:
    """Dense-path GM concurrence of the merged two-copy state.

    Builds the dense Schur product of two copies and evaluates the
    concurrence from the re-extracted X-form data; agrees with
    ``iterated_hadamard(..., 2)`` and exists for cross-validation.
    """
    dense = xform_to_dense(isotropic_ghz(n_qubits, p))
    merged = hadamard_map(dense, dense)
    return gm_concurrence_xform(xform_from_dense(merged))


# ------------------------------------------------------------- concurrence

def test_concurrence_pure_ghz():
    assert np.isclose(gm_concurrence_xform(isotropic_ghz(3, 1.0)), 1.0)


def test_concurrence_maximally_mixed():
    assert gm_concurrence_xform(isotropic_ghz(3, 0.0)) == 0.0


def test_concurrence_value_above_threshold():
    # |p| - (1-p)(1 - 2^(1-N)) = 0.6 - 0.4 * 0.75
    assert np.isclose(gm_concurrence_xform(isotropic_ghz(3, 0.6)), 0.3)


def test_concurrence_closed_form_boundary():
    assert gm_concurrence_isotropic(3, 3 / 7) == 0.0
    assert gm_concurrence_isotropic(3, 3 / 7 + 1e-9) > 0.0


def test_concurrence_closed_form_values():
    assert np.isclose(gm_concurrence_isotropic(3, 1.0), 1.0)
    assert np.isclose(gm_concurrence_isotropic(4, 0.5), 0.0625)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_concurrence_closed_form_needs_two_qubits(n):
    with pytest.raises(ValueError):
        gm_concurrence_isotropic(n, 0.5)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10])
def test_concurrence_xform_matches_closed_form(n):
    lo, hi = isotropic_p_range(n)
    for p in np.linspace(lo, hi, 101):
        a = gm_concurrence_xform(isotropic_ghz(n, p))
        b = gm_concurrence_isotropic(n, p)
        assert abs(a - b) < 1e-12


def test_concurrence_inner_max_at_first_block():
    # for the isotropic family the block maximization is attained at i = 0
    for n in (3, 4, 5):
        for p in (0.3, 0.5, 0.9):
            x = isotropic_ghz(n, p)
            roots = np.sqrt(x.a * x.b)
            per_block = np.abs(x.z) - (roots.sum() - roots)
            assert per_block.argmax() == 0


@pytest.mark.parametrize("n, p", [
    (3, float("nan")), (3, 1 + 1e-9), (3, -1 / 7 - 1e-9), (3, 1e308), (3, -1e308),
    (2, float("inf")), (2302, 1e308), (2302, -1e-11),
])
def test_concurrence_closed_form_rejects_p_outside_range(n, p):
    with pytest.raises(ValueError):
        gm_concurrence_isotropic(n, p)


def test_concurrence_closed_form_accepts_range_up_to_slack():
    for n in (2, 3, 10, 24, 1100):
        lo, hi = isotropic_p_range(n)
        for p in (lo, hi, lo - 5e-13, hi + 5e-13, *np.linspace(lo, hi, 7)):
            assert 0.0 <= gm_concurrence_isotropic(n, p) <= 1.0 + 1e-12
    for n in range(2, 25):
        for i in range(101):
            gm_concurrence_isotropic(n, i / 100)


# -------------------------------------------------------------- thresholds

def test_single_copy_values():
    assert np.isclose(single_copy_threshold(3).p_threshold, 3 / 7, atol=1e-15)
    assert np.isclose(single_copy_threshold(2).p_threshold, 1 / 3, atol=1e-15)
    assert single_copy_threshold(3).kind == "single_copy"


def test_single_copy_monotone_to_half():
    values = [single_copy_threshold(n).p_threshold for n in range(2, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 0.5) < 1e-3


def test_k_copy_values():
    r3 = np.sqrt(3)
    assert np.isclose(k_copy_threshold(3, 2).p_threshold, r3 / (4 + r3), atol=1e-15)
    r7 = np.sqrt(7)
    assert np.isclose(k_copy_threshold(4, 2).p_threshold, r7 / (8 + r7), atol=1e-15)
    assert np.isclose(k_copy_threshold(3, 2).p_threshold, 0.302169, atol=1e-6)


def test_k1_equals_single_copy_exactly():
    for n in range(2, 12):
        rep = k_copy_threshold(n, 1)
        assert rep.p_threshold == single_copy_threshold(n).p_threshold
        assert rep.note == "k=1 value equals the single-copy threshold"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_threshold_ordering_and_limit(n):
    crit = partition_separability_threshold(n).p_threshold
    prev = None
    for k in range(1, 65):
        val = k_copy_threshold(n, k).p_threshold
        assert val > crit
        if prev is not None:
            assert val < prev
        prev = val
    assert abs(k_copy_threshold(n, 256).p_threshold - crit) < 1e-2


def test_thresholds_coincide_for_two_qubits():
    # with 2^(N-1) - 1 = 1 every root is 1: all copy counts give 1/3,
    # which is also the partition-separability bound
    for k in (1, 2, 10, 1000):
        assert k_copy_threshold(2, k).p_threshold == pytest.approx(1 / 3, abs=1e-15)
    assert partition_separability_threshold(2).p_threshold == pytest.approx(1 / 3)


def test_kinds_and_validation():
    assert partition_separability_threshold(4).p_threshold == pytest.approx(1 / 9)
    assert partition_separability_threshold(4).k is None
    with pytest.raises(ValueError):
        k_copy_threshold(3, 0)
    with pytest.raises(ValueError):
        single_copy_threshold(1)


# ------------------------------------------------------- Schur-product map

def test_hadamard_map_fixed_point_identity():
    mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
    out = hadamard_map(mixed, mixed)
    assert np.allclose(out.mat, np.eye(4) / 4)


def test_hadamard_map_two_copy_corner():
    dense = xform_to_dense(isotropic_ghz(3, 0.4))
    out = hadamard_map(dense, dense)
    tr = float(np.trace(dense.mat * dense.mat).real)  # sum of squared diagonals
    assert np.isclose(out.mat[0, 7].real, (0.2 ** 2) / tr)


def test_hadamard_map_diagonal_states():
    a = DensityMatrix(np.diag([0.5, 0.5]).astype(complex), (2,))
    b = DensityMatrix(np.diag([0.9, 0.1]).astype(complex), (2,))
    out = hadamard_map(a, b)
    assert np.allclose(out.mat, np.diag([0.9, 0.1]))


def test_hadamard_map_zero_trace():
    a = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    b = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
    with pytest.raises(ZeroTraceError):
        hadamard_map(a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_dense_map_agrees_with_compact_route(n):
    for p in (0.2, 0.5, 0.8):
        dense = xform_to_dense(isotropic_ghz(n, p))
        via_dense = hadamard_map(dense, dense)
        via_compact = xform_to_dense(iterated_hadamard(isotropic_ghz(n, p), 2))
        assert np.abs(via_dense.mat - via_compact.mat).max() < 1e-12
        assert abs(two_copy_cross_check(n, p)
                   - gm_concurrence_xform(iterated_hadamard(isotropic_ghz(n, p), 2))) < 1e-12


def test_iterated_identity_at_one_copy():
    x = isotropic_ghz(3, 0.77)
    assert iterated_hadamard(x, 1) is x


def test_iterated_pure_ghz_fixed_point():
    x = isotropic_ghz(4, 1.0)
    for k in (2, 3, 7):
        out = iterated_hadamard(x, k)
        assert np.allclose(out.a, x.a) and np.allclose(out.z, x.z)
        assert np.isclose(gm_concurrence_xform(out), 1.0)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sign_agreement_near_thresholds(n, k):
    thr = k_copy_threshold(n, k).p_threshold
    above = gm_concurrence_xform(iterated_hadamard(isotropic_ghz(n, thr + 1e-6), k))
    below = gm_concurrence_xform(iterated_hadamard(isotropic_ghz(n, thr - 1e-6), k))
    assert above > 0.0
    assert below == 0.0


def test_iterated_requires_positive_k():
    with pytest.raises(ValueError):
        iterated_hadamard(isotropic_ghz(3, 0.5), 0)


# ------------------------------------------------------------- activation

def test_activation_already_gme():
    rep = activation_classification(3, 0.45, 5)
    assert rep.copies == 1 and rep.detected and not rep.partition_separable


def test_activation_two_copies():
    rep = activation_classification(3, 0.35, 5)
    assert rep.copies == 2


def test_activation_partition_separable():
    rep = activation_classification(3, 0.15, 100)
    assert rep.partition_separable
    assert rep.copies is None and not rep.detected


def test_activation_between_crit_and_kmax():
    # just above the separability bound but below every threshold up to k_max
    rep = activation_classification(3, 0.201, 3)
    assert not rep.partition_separable and rep.copies is None


def test_activation_validates_kmax():
    with pytest.raises(ValueError):
        activation_classification(3, 0.3, 0)


def test_activation_beyond_float_range_of_2_to_the_n():
    # The range check once formed 2.0 ** N and overflowed above N = 1023.
    # One copy sits at the threshold 1/2 (not strictly above it); two activate.
    rep = activation_classification(1100, 0.5, 2)
    assert rep.copies == 2 and not rep.partition_separable


@pytest.mark.parametrize("n", [3, 1100])
def test_activation_range_matches_isotropic_ghz(n):
    lo = isotropic_p_range(n)[0]
    for p in (1 + 1e-13, lo - 1e-13):     # within the slack isotropic_ghz allows
        activation_classification(n, p, 2)
        gm_concurrence_isotropic(n, p)
    for p in (math.nan, 1 + 1e-6, -math.inf):
        with pytest.raises(ValueError, match="outside"):
            activation_classification(n, p, 2)


@pytest.mark.parametrize("n", [1, 0, -2])
def test_activation_rejects_fewer_than_two_qubits(n):
    with pytest.raises(ValueError, match="at least 2 qubits"):
        activation_classification(n, 0.5, 2)


def test_thresholds_up_to_1024_qubits_equal_the_float_formula():
    """Bit-identical to r / (2^(N-1) + r), r = (2^(N-1) - 1)^(1/k), where that
    float formula is finite; at N = 1024, k = 1 its denominator overflowed to
    inf and it gave 0, so k = 1 is taken from the single-copy value there."""
    for n in range(2, 1025):
        half = 2 ** (n - 1)
        # The bound is now the correctly rounded 1/(1 + 2^(N-1)); the float
        # formula rounded 1 + 2^53 first and is one ulp off at N = 54, which
        # does not show in the 12 printed digits.
        crit = partition_separability_threshold(n).p_threshold
        assert crit == float(fractions.Fraction(1, 1 + half))
        assert format(crit, ".12g") == format(1.0 / (1 + half), ".12g")
        for k in range(1, 65):
            rep = k_copy_threshold(n, k)
            if (n, k) == (1024, 1):
                want = single_copy_threshold(n).p_threshold
            else:
                root = (half - 1) ** (1.0 / k)
                want = root / (half + root)
            assert rep.p_threshold == want, (n, k)
            if k == 1:
                assert rep.note == "k=1 value equals the single-copy threshold"


@pytest.mark.parametrize("n", [1025, 1029, 1032, 1050, 1100, 1500, 2302, 3000])
def test_thresholds_beyond_1024_qubits_match_exact_oracle(n):
    ctx = decimal.Context(prec=60)
    half = decimal.Decimal(2) ** (n - 1)
    for k in (1, 2, 3, 7, 30, 64):
        root = ctx.exp(ctx.divide(ctx.ln(half - 1), k))
        want = float(ctx.divide(root, half + root))
        rep = k_copy_threshold(n, k)
        assert math.isfinite(rep.p_threshold)
        # Below the normal range only absolute accuracy is possible.
        assert math.isclose(rep.p_threshold, want, rel_tol=1e-12, abs_tol=1e-322), (n, k)
    assert k_copy_threshold(n, 1).note == "k=1 value equals the single-copy threshold"
    assert single_copy_threshold(n).p_threshold == 0.5
    crit = partition_separability_threshold(n).p_threshold
    assert crit == float(fractions.Fraction(1, 1 + 2 ** (n - 1)))
