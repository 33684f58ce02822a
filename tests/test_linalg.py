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
from gme_lab.states import isotropic_ghz, pure_state_dm, xform_from_dense, xform_to_dense


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
