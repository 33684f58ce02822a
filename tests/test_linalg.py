"""Tests for the dense multipartite linear algebra layer."""

import io
import json

import numpy as np
import pytest

from gme_lab.linalg import (
    DensityMatrix,
    density_matrix_from_json,
    density_matrix_to_json,
    hadamard,
    min_eigenvalue_hermitian,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
    write_density_matrix_json,
)
from gme_lab import boundent, separability
from gme_lab.states import (
    ProductFormState,
    ProductTerm,
    XFormState,
    isotropic_ghz,
    product_form_project,
    product_form_to_dense,
    pure_state_dm,
    xform_from_dense,
    xform_to_dense,
)


def max_mixed(*dims):
    d = int(np.prod(dims))
    return DensityMatrix(np.eye(d) / d, dims)


def bell_dm():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return pure_state_dm(v, (2, 2))


def iso3(p):
    return xform_to_dense(isotropic_ghz(3, p))


# ---------------------------------------------------------------- tensor

def test_tensor_maximally_mixed():
    out = tensor(max_mixed(2), max_mixed(2))
    assert out.dims == (2, 2)
    assert np.allclose(out.mat, np.eye(4) / 4)


def test_tensor_pure_product():
    zero = pure_state_dm(np.array([1, 0], dtype=complex), (2,))
    one = pure_state_dm(np.array([0, 1], dtype=complex), (2,))
    out = tensor(zero, one)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1
    assert np.allclose(out.mat, expected)


def test_tensor_two_copy_trace_and_dims():
    rho = iso3(0.25)
    out = tensor(rho, rho)
    assert out.dims == (2,) * 6
    # trace by explicit summation over the 64-dim diagonal
    assert abs(sum(out.mat[i, i].real for i in range(64)) - 1.0) < 1e-14


def test_tensor_associative():
    a, b, c = iso3(0.1), max_mixed(2), bell_dm()
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.array_equal(left.mat, right.mat)
    assert left.dims == right.dims


# -------------------------------------------------------------- hadamard

def test_hadamard_identity_diagonals():
    assert np.allclose(hadamard(np.eye(2), np.eye(2)), np.eye(2))


def test_hadamard_all_ones_is_identity_element():
    m = iso3(0.4).mat
    assert np.array_equal(hadamard(np.ones((8, 8)), m), m)


def test_hadamard_squares_corner_coherence():
    # z_1 = p/2 = 0.25 at p = 0.5; the Schur square carries (p/2)^2
    m = iso3(0.5).mat
    sq = hadamard(m, m)
    assert np.isclose(sq[0, 7], 0.0625)


def test_hadamard_shape_mismatch():
    with pytest.raises(ValueError):
        hadamard(np.eye(2), np.eye(3))


def test_hadamard_preserves_xform_sparsity():
    a = iso3(0.3)
    b = iso3(0.6)
    prod = hadamard(a.mat, b.mat)
    dm = DensityMatrix(prod, (2,) * 3, normalized=False, state=False)
    xform_from_dense(dm)  # raises NotXFormError if the sparsity pattern broke


# ------------------------------------------------------ partial transpose

def test_pt_bell_min_eigenvalue():
    pt = partial_transpose(bell_dm(), {1})
    assert np.isclose(min_eigenvalue_hermitian(pt.mat), -0.5)
    spectrum = np.linalg.eigvalsh(pt.mat)
    assert np.allclose(sorted(spectrum), [-0.5, 0.5, 0.5, 0.5])


def test_pt_product_state_stays_psd():
    prod = tensor(bell_dm(), max_mixed(2))
    for subs in ({0}, {2}, {0, 1}, {0, 1, 2}):
        pt = partial_transpose(prod, subs)
        if subs in ({2}, {0, 1}, {0, 1, 2}):
            assert min_eigenvalue_hermitian(pt.mat) >= -1e-12


def test_pt_isotropic_sign_straddles_crit():
    # three-qubit separability boundary sits at p = 1/5
    assert min_eigenvalue_hermitian(partial_transpose(iso3(0.3), {0}).mat) < -1e-6
    assert min_eigenvalue_hermitian(partial_transpose(iso3(0.15), {0}).mat) >= -1e-12


def test_pt_involution_and_trace():
    rho = iso3(0.35)
    for subs in ({0}, {1, 2}):
        pt = partial_transpose(rho, subs)
        assert np.isclose(pt.trace, rho.trace)
        assert np.abs(pt.mat - pt.mat.conj().T).max() < 1e-12
        back = partial_transpose(pt, subs)
        assert np.array_equal(back.mat, rho.mat)


def test_pt_index_out_of_range():
    with pytest.raises(ValueError):
        partial_transpose(bell_dm(), {2})


# ---------------------------------------------------------- partial trace

def test_partial_trace_bell_marginal():
    out = partial_trace(bell_dm(), {1})
    assert np.allclose(out.mat, np.eye(2) / 2)


def test_partial_trace_product_factorizes():
    a = iso3(0.2)
    b = max_mixed(2)
    out = partial_trace(tensor(a, b), {3})
    assert np.abs(out.mat - a.mat * b.trace).max() < 1e-14


def test_partial_trace_ghz_kills_coherence():
    out = partial_trace(iso3(0.3), {2})
    # remaining two-qubit state is diagonal: p/2 on |00>,|11> plus white noise
    expected = np.diag([0.325, 0.175, 0.175, 0.325])
    assert np.allclose(out.mat, expected)
    assert out.dims == (2, 2)
    assert np.isclose(out.trace, 1.0)


def test_partial_trace_everything_rejected():
    with pytest.raises(ValueError):
        partial_trace(bell_dm(), {0, 1})


# ---------------------------------------------------- subsystem permutation

def test_permute_identity():
    rho = iso3(0.4)
    out = permute_subsystems(rho, (0, 1, 2))
    assert np.array_equal(out.mat, rho.mat)


def test_permute_interleave_preserves_spectrum():
    rho = iso3(0.25)
    two = tensor(rho, rho)
    inter = permute_subsystems(two, (0, 3, 1, 4, 2, 5))
    assert np.allclose(np.linalg.eigvalsh(inter.mat), np.linalg.eigvalsh(two.mat),
                       atol=1e-12)


def test_permute_swap_basis_states():
    v = np.zeros(4, dtype=complex)
    v[1] = 1  # |01>
    out = permute_subsystems(pure_state_dm(v, (2, 2)), (1, 0))
    expected = np.zeros((4, 4))
    expected[2, 2] = 1  # |10>
    assert np.allclose(out.mat, expected)


def test_permute_inverse_restores_exactly():
    rho = tensor(iso3(0.3), max_mixed(2))
    perm = (2, 0, 3, 1)
    inv = tuple(np.argsort(perm))
    back = permute_subsystems(permute_subsystems(rho, perm), inv)
    assert np.array_equal(back.mat, rho.mat)


def test_permute_rejects_malformed():
    with pytest.raises(ValueError):
        permute_subsystems(bell_dm(), (0, 0))


# ------------------------------------------------------------ eigenvalues

def test_min_eig_identity():
    assert np.isclose(min_eigenvalue_hermitian(np.eye(2)), 1.0)


def test_min_eig_diagonal():
    assert np.isclose(min_eigenvalue_hermitian(np.diag([3.0, -2.0, 0.0])), -2.0)


def test_min_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        min_eigenvalue_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


# ------------------------------------------------------------- validation

def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0, 1], [0, 0]], dtype=complex), (2,))


def test_density_matrix_normalization_flag():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (2,))  # trace 2 but flagged normalized
    DensityMatrix(np.eye(2), (2,), normalized=False)  # fine when flagged


def test_density_matrix_psd_flag():
    ind = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(ind, (2,))
    DensityMatrix(ind, (2,), state=False)


def test_density_matrix_shape_vs_dims():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, (2,))


NON_FINITE = [np.nan, np.inf, -np.inf]
HUGE = 1.5e308   # finite, but two of them sum beyond the float range


@pytest.mark.filterwarnings("error")   # a RuntimeWarning is not a rejection
@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("normalized,state", [(True, True), (True, False), (False, True)])
def test_density_matrix_rejects_non_finite_entries(value, normalized, state):
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(np.full((2, 2), value), (2,), normalized=normalized, state=state)
    for i, j in ((0, 0), (0, 1)):
        m = np.eye(2, dtype=complex) / 2
        m[i, j] = m[j, i] = value
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m, (2,), normalized=normalized, state=state)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", NON_FINITE)
def test_hermiticity_check_rejects_non_finite(value):
    for entry in (value, complex(0.0, value), complex(value, value)):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = entry
        m[1, 0] = np.conj(entry)
        with pytest.raises(ValueError, match="finite"):
            min_eigenvalue_hermitian(m)
    # finite entries whose deviation from Hermiticity overflows to inf
    with pytest.raises(ValueError, match="Hermitian"):
        min_eigenvalue_hermitian(np.array([[0, HUGE], [-HUGE, 0]], dtype=complex))


# Finite diagonals whose trace reads +inf, -inf and (under NumPy's pairwise
# summation of eight terms) inf + -inf = NaN.
OVERFLOWING_DIAGONALS = {
    "inf": [HUGE, HUGE],
    "-inf": [-HUGE, -HUGE],
    "nan": [HUGE, HUGE, -HUGE, -HUGE, 0, 0, 0, 0],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diagonal", OVERFLOWING_DIAGONALS.values(),
                         ids=OVERFLOWING_DIAGONALS.keys())
def test_trace_check_rejects_a_trace_beyond_the_float_range(diagonal):
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag(diagonal), (len(diagonal),), state=False)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diagonal", OVERFLOWING_DIAGONALS.values(),
                         ids=OVERFLOWING_DIAGONALS.keys())
def test_psd_check_rejects_a_trace_beyond_the_float_range(diagonal):
    # The PSD tolerance is relative to the trace, so no finite scale exists.
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix(np.diag(diagonal), (len(diagonal),), normalized=False)
    # min eigenvalue -inf with trace -inf: a scale of |trace| would accept it
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix(-np.full((2, 2), HUGE), (2,), normalized=False)


# ------------------------------------------- results built without checks

def random_state(rng, dims):
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real, dims)


def random_xform(rng, n_qubits, trace=1.0):
    """X-form operator of the given trace with some blocks on the PSD
    boundary |z|^2 = a b."""
    n = 2 ** (n_qubits - 1)
    a, b = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    shrink = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.0, 1.0, n))
    z = np.sqrt(a * b) * shrink * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    tr = (a.sum() + b.sum()) / trace
    return XFormState(n_qubits, a / tr, b / tr, z / tr)


def random_product_form(rng):
    terms = tuple(ProductTerm(w, (random_state(rng, (2,)), random_state(rng, (3, 2))))
                  for w in (0.25, 0.75))
    return ProductFormState(terms, (2, 3, 2))


def random_projector(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    v = q[:, :int(rng.integers(1, d))]
    return v @ v.conj().T


def locc_factors(rng):
    x, y, z = np.exp(rng.uniform(-3.0, 3.0, 3))
    source = boundent.biseparable_source_state(0.2, 0.3, 0.5, x, y, z)
    result = boundent.simulate_locc_triangle((source, source, source))
    return [f for s in (source, result.state) for t in s.terms for f in t.factors]


# Every library result built by linalg._unchecked, per site, from seeded inputs.
UNCHECKED_SITES = {
    "tensor": lambda rng: [tensor(random_state(rng, (2,)), random_state(rng, (3, 2)))],
    "permute_subsystems": lambda rng: [
        permute_subsystems(random_state(rng, (2, 3, 2)), (2, 0, 1))],
    "partial_transpose": lambda rng: [
        partial_transpose(random_state(rng, (2, 3, 2)), subs) for subs in ({0}, {1, 2})],
    "partial_trace": lambda rng: [
        partial_trace(random_state(rng, (2, 3, 2)), subs) for subs in ({0}, {1, 2})],
    "xform_to_dense": lambda rng: [
        xform_to_dense(random_xform(rng, n, trace)) for n in (2, 3, 5) for trace in (1.0, 2.5)],
    "two_copy_target": lambda rng: [
        separability.two_copy_target(p) for p in rng.uniform(-1 / 7, 1.0, 5)],
    "rho_diag_closed_form": lambda rng: [
        separability.rho_diag_closed_form(p) for p in (*rng.uniform(-1 / 7, 1.0, 5), 0.5)],
    "product_form_to_dense": lambda rng: [product_form_to_dense(random_product_form(rng))],
    "product_form_project": lambda rng: [
        f for t in product_form_project(random_product_form(rng), 1,
                                        random_projector(rng, 3))[0].terms
        for f in t.factors],
    "qutrit_ppt_state": lambda rng: [
        boundent.qutrit_ppt_state(p) for p in (*np.exp(rng.uniform(-9.0, 9.0, 5)), 1e-300, 1e300)],
    "locc_protocol_factors": locc_factors,
}


@pytest.mark.parametrize("site", UNCHECKED_SITES)
def test_unchecked_results_pass_the_full_checks(site):
    """The public checks are the oracle for each result that skips them."""
    rng = np.random.default_rng(sorted(UNCHECKED_SITES).index(site))
    results = UNCHECKED_SITES[site](rng)
    assert results
    for dm in results:
        assert not dm.mat.flags.writeable
        checked = DensityMatrix(dm.mat, dm.dims, normalized=dm.normalized, state=dm.state)
        assert checked.dims == dm.dims and checked.mat.tobytes() == dm.mat.tobytes()


# -------------------------------------------------------------------- io

def test_density_matrix_json_roundtrip():
    rho = iso3(0.45)
    obj = density_matrix_to_json(rho)
    assert sorted(obj) == ["dims", "im", "re"]
    back = density_matrix_from_json(obj)
    assert back.dims == rho.dims
    assert np.allclose(back.mat, rho.mat)


def test_streamed_json_equals_json_dump():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    complex_state = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real, (2, 3))
    signed_zeros = np.zeros((4, 4), dtype=complex)
    signed_zeros[0, 0] = signed_zeros[3, 3] = 0.5
    signed_zeros[1, 2] = complex(-0.0, -0.0)   # -0.0 must not take the zero-row path
    signed_zeros[2, 1] = complex(0.0, -0.0)
    with_nan = np.eye(3, dtype=complex) / 3
    with_nan[1, 1] = complex(np.nan, 0.0)
    with_nan[2, 0] = with_nan[0, 2] = complex(0.0, np.nan)
    cases = [
        complex_state,
        DensityMatrix(signed_zeros, (2, 2)),
        DensityMatrix(np.zeros((4, 4)), (2, 2), normalized=False),  # every row zero
        DensityMatrix(with_nan, (3,), normalized=False, state=False),
        iso3(0.3),
    ]
    for dm in cases:
        oracle, streamed = io.StringIO(), io.StringIO()
        json.dump(density_matrix_to_json(dm), oracle)
        write_density_matrix_json(dm, streamed)
        assert streamed.getvalue() == oracle.getvalue()


def test_sparse_writer_equals_json_dump_on_edge_rows():
    """Seeded rows of every shape the gap-filling writer must get right."""
    rng = np.random.default_rng(11)
    specials = (-0.0, np.nan, np.inf, -np.inf)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        m = np.zeros((n, n), dtype=complex)
        kind = trial % 5
        if kind == 1:      # one nonzero per row, at a random column
            for i in range(n):
                m[i, rng.integers(n)] = rng.standard_normal() + 1j * rng.standard_normal()
        elif kind == 2:    # nonzeros at the first and last column only
            m[:, 0] = rng.standard_normal(n)
            m[:, -1] = 1j * rng.standard_normal(n)
        elif kind == 3:    # fully dense
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        elif kind == 4:    # sparse, some rows left all zero
            mask = rng.random((n, n)) < 0.2
            m[mask] = rng.standard_normal(mask.sum())
        m = m + m.conj().T     # kind 0 stays the zero matrix
        for _ in range(int(rng.integers(0, 4))):
            i, j = (int(v) for v in rng.integers(0, n, 2))
            v = complex(rng.choice(specials), rng.choice(specials + (0.0,)))
            m[i, j], m[j, i] = v, v.conjugate()
        i, j = (int(v) for v in rng.integers(0, n, 2))
        m[i, j], m[j, i] = complex(-0.0, -0.0), complex(-0.0, 0.0)   # -0.0 in re and im
        with np.errstate(invalid="ignore"):   # inf - inf in the Hermiticity check
            dm = DensityMatrix(m, (n,), normalized=False, state=False)
        oracle, streamed = io.StringIO(), io.StringIO()
        json.dump(density_matrix_to_json(dm), oracle)
        write_density_matrix_json(dm, streamed)
        assert streamed.getvalue() == oracle.getvalue(), trial
