"""Tests for the PPT pair family, triangle/wedge witnesses, and the protocol."""

import itertools
import math

import numpy as np
import pytest

from gme_lab import states
from gme_lab.boundent import (
    FLAG_DIM,
    NonPositiveParameterError,
    biseparable_source_state,
    project_triangle_to_D,
    project_wedge_to_D,
    qutrit_ppt_normalization,
    qutrit_ppt_state,
    simulate_locc_triangle,
    triangle_state,
    uncorrelated_party_state,
    wedge_state,
    witness_trace_triangle,
    witness_trace_triangle_dense,
    witness_trace_wedge,
    witness_trace_wedge_dense,
    witness_w3,
)
from gme_lab.linalg import min_eigenvalue_hermitian, partial_transpose
from gme_lab.states import ZeroProbabilityError, product_form_to_dense


# ------------------------------------------------------------- pair family

def test_pair_normalization_and_diagonals():
    assert np.isclose(qutrit_ppt_normalization(1.0), 9.0)
    m = qutrit_ppt_state(1.0).mat
    for a, b in ((0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)):
        assert np.isclose(m[3 * a + b, 3 * a + b], 1 / 9)


def test_pair_coherent_entry():
    for p in (0.1, 0.7, 2.5):
        m = qutrit_ppt_state(p).mat
        assert np.isclose(m[0, 4], 1 / qutrit_ppt_normalization(p))  # <00|rho|11>


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 1.0, 2.0, 5.0])
def test_pair_is_ppt(p):
    pt = partial_transpose(qutrit_ppt_state(p), {1})
    assert min_eigenvalue_hermitian(pt.mat) >= -1e-10


def test_pair_pt_spectrum_structure():
    # three eigenvalues, each threefold degenerate: 0, 1/N_p, (p + 1/p)/N_p
    for p in (0.25, 1.0, 3.0):
        norm = qutrit_ppt_normalization(p)
        pt = partial_transpose(qutrit_ppt_state(p), {1})
        spectrum = np.sort(np.linalg.eigvalsh(pt.mat))
        expected = np.sort([0.0] * 3 + [1 / norm] * 3 + [(p + 1 / p) / norm] * 3)
        assert np.allclose(spectrum, expected, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_pair_rejects_nonpositive_parameter():
    for p in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(NonPositiveParameterError):
            qutrit_ppt_normalization(p)
        with pytest.raises(NonPositiveParameterError):
            qutrit_ppt_state(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [5e-324, 1e-310, 1e308, 1.7e308])
def test_pair_rejects_parameter_whose_normalization_overflows(p):
    # 1/p overflows for a subnormal p; 3 (1 + p) overflows near the float limit.
    with pytest.raises(NonPositiveParameterError):
        qutrit_ppt_normalization(p)
    with pytest.raises(NonPositiveParameterError):
        witness_trace_triangle(1.0, p, 0.3)


def test_pair_accepts_extreme_finite_parameters():
    for p in (1e-300, 1e300):
        assert math.isfinite(qutrit_ppt_normalization(p))


# ---------------------------------------------------------------- witness

def test_witness_entries():
    w = witness_w3().mat
    assert np.isclose(w[0, 13], -1.0)   # <000| W |111>
    assert np.isclose(w[4, 4], 1.0)     # |011><011|
    assert np.isclose(np.trace(w).real, 12.0)
    assert np.abs(w - w.conj().T).max() == 0


def test_witness_nonnegative_on_product_states():
    # necessary condition for a GME witness: nonnegative expectation on
    # states product across any one cut
    rng = np.random.default_rng(5)

    def rand_ket(d):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    w = witness_w3().mat
    for cut in (0, 1, 2):
        for _ in range(100):
            single = rand_ket(3)
            pair = rand_ket(9).reshape(3, 3)
            if cut == 0:
                psi = np.einsum("a,bc->abc", single, pair)
            elif cut == 1:
                psi = np.einsum("b,ac->abc", single, pair)
            else:
                psi = np.einsum("c,ab->abc", single, pair)
            psi = psi.reshape(27)
            assert np.real(psi.conj() @ (w @ psi)) >= -1e-12


# ----------------------------------------------------------- triangle state

def test_triangle_dense_dimension_and_trace():
    dense = product_form_to_dense(triangle_state(1.0, 0.5, 2.0))
    assert dense.dim == 729
    assert np.isclose(dense.trace, 1.0)


def test_triangle_equal_parameters_give_identical_factors():
    s = triangle_state(1.0, 1.0, 1.0)
    f0, f1, f2 = s.terms[0].factors
    assert np.array_equal(f0.mat, f1.mat)
    assert np.array_equal(f1.mat, f2.mat)


def test_triangle_factors_ppt_across_their_cuts():
    s = triangle_state(0.7, 1.3, 0.4)
    for f in s.terms[0].factors:
        pt = partial_transpose(f, {0})
        assert min_eigenvalue_hermitian(pt.mat) >= -1e-10


def test_triangle_projection_normalizes():
    state, prob = project_triangle_to_D(triangle_state(1.0, 1.0, 1.0))
    assert state.dims == (3, 3, 3)
    assert np.isclose(state.trace, 1.0)
    assert 0 < prob < 1


def test_triangle_projection_detects_gme():
    state, prob = project_triangle_to_D(triangle_state(1.0, 0.3, 0.3))
    value = prob * float(np.trace(witness_w3().mat @ state.mat).real)
    assert value < 0
    assert np.isclose(value, witness_trace_triangle(1.0, 0.3, 0.3), atol=1e-12)


def test_triangle_closed_form_values():
    # x y + z/x + y z - 1 at (1, 0.3, 0.3) is -0.31
    norm = qutrit_ppt_normalization(1.0) * qutrit_ppt_normalization(0.3) ** 2
    assert np.isclose(witness_trace_triangle(1.0, 0.3, 0.3), 3 * (-0.31) / norm)
    assert witness_trace_triangle(1.0, 1.0, 1.0) > 0


def test_triangle_boundary_root():
    y = math.sqrt(2) - 1
    assert abs(witness_trace_triangle(1.0, y, y)) < 1e-15


def test_triangle_closed_form_matches_dense_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        x, y, z = rng.uniform(0.05, 5.0, size=3)
        closed = witness_trace_triangle(x, y, z)
        dense = witness_trace_triangle_dense(x, y, z)
        assert abs(closed - dense) <= 1e-10


@pytest.mark.parametrize("y,detected", [
    (0.40, True), (0.41, True), (0.414, True), (0.415, False), (0.42, False),
])
def test_triangle_detection_region(y, detected):
    assert (witness_trace_triangle(1.0, y, y) < 0) == detected


@pytest.mark.filterwarnings("error")
def test_triangle_rejects_nonpositive():
    for bad in (0.0, -0.3, math.nan, math.inf):
        with pytest.raises(NonPositiveParameterError):
            triangle_state(bad, 1.0, 1.0)
        for args in ((bad, 0.3, 0.3), (1.0, bad, 0.3), (1.0, 0.3, bad)):
            with pytest.raises(NonPositiveParameterError):
                witness_trace_triangle(*args)
        for args in ((bad, 0.3), (0.3, bad)):
            with pytest.raises(NonPositiveParameterError):
                witness_trace_wedge(*args)


def _isometry(rows, dim):
    """0/1 isometry V with V[rows[c], c] = 1: the independent projection oracle."""
    V = np.zeros((dim, 27), dtype=complex)
    for col, (i, j, k) in enumerate(itertools.product(range(3), repeat=3)):
        V[rows(i, j, k), col] = 1.0
    return V


# (A2, A3, B1, B3, C1, C2) = (j, k, i, k, i, j) and (A2, A3, B1, B3) = (j, k, i, k).
TRIANGLE_V = _isometry(
    lambda i, j, k: ((((j * 3 + k) * 3 + i) * 3 + k) * 3 + i) * 3 + j, 729)
WEDGE_V = _isometry(lambda i, j, k: ((j * 3 + k) * 3 + i) * 3 + k, 81)


def test_twin_diagonal_routes_match_dense_isometry_oracle():
    rng = np.random.default_rng(44)
    w3 = witness_w3().mat
    for _ in range(10):
        x, y, z = rng.uniform(0.05, 5.0, size=3)
        for s, V, project, witness in (
                (triangle_state(x, y, z), TRIANGLE_V, project_triangle_to_D,
                 lambda: witness_trace_triangle_dense(x, y, z)),
                (wedge_state(x, y), WEDGE_V, project_wedge_to_D,
                 lambda: witness_trace_wedge_dense(x, y))):
            oracle = V.conj().T @ product_form_to_dense(s).mat @ V
            state, prob = project(s)
            assert prob == float(np.trace(oracle).real)
            assert np.array_equal(state.mat, oracle / prob)
            assert witness() == float(np.trace(w3 @ oracle).real)


# -------------------------------------------------------------- wedge state

def test_wedge_detection_values():
    assert witness_trace_wedge(0.3, 0.3) < 0   # 0.6 + 0.09 - 1
    assert witness_trace_wedge(1.0, 1.0) > 0   # 3 - 1
    y = math.sqrt(2) - 1
    assert abs(witness_trace_wedge(y, y)) < 1e-15


def test_wedge_closed_form_matches_dense_random():
    rng = np.random.default_rng(43)
    for _ in range(50):
        x, y = rng.uniform(0.05, 5.0, size=2)
        assert abs(witness_trace_wedge(x, y) - witness_trace_wedge_dense(x, y)) <= 1e-10


@pytest.mark.filterwarnings("error")
def test_closed_forms_match_dense_across_the_float_range():
    # x y or the product of the normalizations overflows for most of these;
    # the closed forms then read inf/inf = nan, or 0 against a nonzero trace.
    assert witness_trace_triangle(1e160, 1e160, 1.0) == pytest.approx(1 / 27, rel=1e-12)
    assert witness_trace_wedge(1e200, 1e200) == pytest.approx(1 / 3, rel=1e-12)
    rng = np.random.default_rng(46)
    for _ in range(200):
        x, y, z = 10.0 ** rng.uniform(-300, 300, size=3)
        for closed, dense in ((witness_trace_triangle(x, y, z),
                               witness_trace_triangle_dense(x, y, z)),
                              (witness_trace_wedge(x, y), witness_trace_wedge_dense(x, y))):
            assert math.isclose(closed, dense, rel_tol=1e-12, abs_tol=1e-300), (x, y, z)


def test_wedge_projection():
    state, prob = project_wedge_to_D(wedge_state(0.3, 0.3))
    assert state.dims == (3, 3, 3)
    value = prob * float(np.trace(witness_w3().mat @ state.mat).real)
    assert np.isclose(value, witness_trace_wedge(0.3, 0.3), atol=1e-12)
    assert value < 0


# ------------------------------------------------------------- source state

def test_source_term_count_tracks_nonzero_probabilities():
    assert biseparable_source_state(1, 0, 0, 1, 1, 1).n_terms == 1
    assert biseparable_source_state(0.5, 0.5, 0, 1, 1, 1).n_terms == 2
    assert biseparable_source_state(1 / 3, 1 / 3, 1 / 3, 1, 1, 1).n_terms == 3


def test_source_single_term_leaves_party_one_uncorrelated():
    s = biseparable_source_state(1, 0, 0, 1.0, 1.0, 1.0)
    term = s.terms[0]
    assert np.array_equal(term.factors[0].mat, uncorrelated_party_state().mat)
    assert s.global_dims == (FLAG_DIM,) * 9


def test_source_state_is_not_expanded(monkeypatch):
    # dimension 4^9 = 262144: the 1 TiB expansion is refused before any allocation
    s = biseparable_source_state(1 / 3, 1 / 3, 1 / 3, 1.0, 0.3, 0.3)

    def boom(*args, **kwargs):
        raise AssertionError("allocated before the dimension check")

    monkeypatch.setattr(np, "zeros", boom)
    monkeypatch.setattr(np, "kron", boom)
    for expand in (product_form_to_dense, states._product_form_array):
        with pytest.raises(ValueError, match="262144 exceeds limit 4096"):
            expand(s)


def test_source_validates_probabilities():
    for probs in ((0.5, 0.2, 0.2), (-0.1, 0.6, 0.5), (math.nan, 0.5, 0.5),
                  (0.5, math.nan, 0.5), (0.5, 0.5, math.nan), (math.inf, 0.5, 0.5)):
        with pytest.raises(ValueError):
            biseparable_source_state(*probs, 1, 1, 1)


def test_source_terms_ppt_across_every_party_cut():
    # Each term is a product of factors; a cut between the three parties
    # splits each factor's subsystems, and the partial transpose factorizes,
    # so the term is PPT across the cut iff every factor is PPT across its
    # induced piece of the cut.  Party m holds subsystems m-1, m+2, m+5.
    s = biseparable_source_state(0.3, 0.3, 0.4, 0.7, 1.1, 0.4)
    party_of = {sub: sub % 3 + 1 for sub in range(9)}
    for side in ({1}, {2}, {3}):
        for term in s.terms:
            pos = 0
            for f in term.factors:
                local = [i for i in range(f.n_subsystems)
                         if party_of[pos + i] in side]
                pos += f.n_subsystems
                pt = partial_transpose(f, local) if local else f
                assert min_eigenvalue_hermitian(pt.mat) >= -1e-10


# ----------------------------------------------------------------- protocol

def run_protocol(p1, p2, p3, x, y, z):
    src = biseparable_source_state(p1, p2, p3, x, y, z)
    return simulate_locc_triangle((src, src, src))


def test_protocol_reproduces_triangle_exactly():
    res = run_protocol(1 / 3, 1 / 3, 1 / 3, 1.0, 1.0, 1.0)
    got = product_form_to_dense(res.state).mat
    want = product_form_to_dense(triangle_state(1.0, 1.0, 1.0)).mat
    assert np.abs(got - want).max() <= 1e-12


def test_protocol_with_asymmetric_inputs():
    res = run_protocol(0.25, 0.25, 0.5, 1.0, 0.3, 0.3)
    got = product_form_to_dense(res.state).mat
    want = product_form_to_dense(triangle_state(1.0, 0.3, 0.3)).mat
    assert np.abs(got - want).max() <= 1e-12
    assert np.allclose(res.step_probabilities, (0.25, 0.25, 0.5))
    assert np.isclose(res.probability, 0.25 * 0.25 * 0.5)


def test_protocol_probability_is_product_of_term_weights():
    # within the surviving term each projection succeeds with certainty
    # because the lone-party state has no overlap with the flag direction
    res = run_protocol(1 / 3, 1 / 3, 1 / 3, 1.0, 0.3, 0.3)
    assert np.allclose(res.step_probabilities, (1 / 3, 1 / 3, 1 / 3))
    assert np.isclose(res.probability, 1 / 27)


def test_protocol_chains_into_gme_detection():
    res = run_protocol(1 / 3, 1 / 3, 1 / 3, 1.0, 0.3, 0.3)
    state, prob = project_triangle_to_D(res.state)
    value = prob * float(np.trace(witness_w3().mat @ state.mat).real)
    assert value < 0
    assert np.isclose(value, witness_trace_triangle(1.0, 0.3, 0.3), atol=1e-12)


def test_protocol_zero_probability_when_term_missing():
    src = biseparable_source_state(0.5, 0.0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ZeroProbabilityError):
        simulate_locc_triangle((src, src, src))


def test_protocol_validates_copies():
    src = biseparable_source_state(1 / 3, 1 / 3, 1 / 3, 1, 1, 1)
    with pytest.raises(ValueError):
        simulate_locc_triangle((src, src))
    with pytest.raises(ValueError):
        simulate_locc_triangle((src, src, triangle_state(1, 1, 1)))
