"""Tests for the state families and the product-form representation."""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from gme_lab.linalg import DensityMatrix, partial_transpose, permute_subsystems, tensor
from gme_lab.states import (
    Partition,
    ProductFormState,
    ProductTerm,
    ZeroProbabilityError,
    ghz_vector,
    isotropic_ghz,
    isotropic_p_range,
    product_form_entries,
    product_form_from_json,
    product_form_partial_trace,
    product_form_project,
    product_form_submatrix,
    product_form_tensor,
    product_form_to_dense,
    product_form_to_json,
    xform_pt_spectrum,
    xform_to_dense,
)
from oracles import NotXFormError, xform_from_dense


# ------------------------------------------------------------- GHZ vector

def test_ghz_bell_case():
    v = ghz_vector(2)
    assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_ghz_three_qubits():
    v = ghz_vector(3)
    assert np.isclose(v[0], 1 / np.sqrt(2))
    assert np.isclose(v[7], 1 / np.sqrt(2))
    assert np.abs(v[1:7]).max() == 0


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_normalized(n):
    v = ghz_vector(n)
    assert np.isclose(np.vdot(v, v).real, 1.0)


def test_ghz_requires_two_qubits():
    with pytest.raises(ValueError):
        ghz_vector(1)


# ----------------------------------------------------------- isotropic GHZ

def test_isotropic_pure_ghz():
    x = isotropic_ghz(3, 1.0)
    assert np.isclose(x.a[0], 0.5) and np.isclose(x.b[0], 0.5)
    assert np.isclose(x.z[0], 0.5)
    assert np.abs(x.a[1:]).max() == 0 and np.abs(x.z[1:]).max() == 0


def test_isotropic_maximally_mixed():
    x = isotropic_ghz(3, 0.0)
    assert np.allclose(x.a, 1 / 8) and np.allclose(x.b, 1 / 8)
    assert np.abs(x.z).max() == 0


def test_isotropic_parameter_values():
    x = isotropic_ghz(3, 0.2)
    assert np.isclose(x.a[0], 0.2)      # (1-p)/8 + p/2 = 0.1 + 0.1
    assert np.isclose(x.a[1], 0.1)
    assert np.isclose(x.z[0], 0.1)


def test_isotropic_range_enforced():
    lo, hi = isotropic_p_range(3)
    assert np.isclose(lo, -1 / 7) and hi == 1.0
    isotropic_ghz(3, lo)  # boundary is admissible
    with pytest.raises(ValueError):
        isotropic_ghz(3, 1.01)
    with pytest.raises(ValueError):
        isotropic_ghz(3, lo - 1e-6)


@pytest.mark.parametrize("n", range(2, 7))
def test_isotropic_dense_is_a_state_across_range(n):
    lo, hi = isotropic_p_range(n)
    for p in np.linspace(lo, hi, 21):
        dm = xform_to_dense(isotropic_ghz(n, p))
        DensityMatrix(dm.mat, dm.dims)  # the full checks xform_to_dense skips
        assert np.isclose(dm.trace, 1.0)


@pytest.mark.parametrize("n", range(2, 11))
def test_isotropic_block_positivity_full_range(n):
    lo, hi = isotropic_p_range(n)
    for p in np.linspace(lo, hi, 31):
        x = isotropic_ghz(n, p)  # constructor asserts |z|^2 <= a b
        assert x.trace == pytest.approx(1.0, abs=1e-12)


def test_isotropic_invariant_under_qubit_permutations():
    from itertools import permutations

    dense = xform_to_dense(isotropic_ghz(3, 0.37))
    for perm in permutations(range(3)):
        out = permute_subsystems(dense, perm)
        assert np.abs(out.mat - dense.mat).max() < 1e-15


# ---------------------------------------------------------------- X-form

def test_xform_dense_corner():
    dm = xform_to_dense(isotropic_ghz(3, 0.5))
    assert np.isclose(dm.mat[0, 7], 0.25)  # z_1 = p/2
    assert np.isclose(dm.mat[7, 0], 0.25)


def test_xform_dense_diagonal_when_z_zero():
    from gme_lab.states import XFormState

    x = XFormState(2, np.array([0.3, 0.2]), np.array([0.25, 0.25]),
                   np.zeros(2, dtype=complex))
    dm = xform_to_dense(x)
    assert np.abs(dm.mat - np.diag(np.diag(dm.mat))).max() == 0


def test_xform_trace_is_sum_of_halves():
    from gme_lab.states import XFormState

    x = XFormState(2, np.array([0.25, 0.25]), np.array([0.25, 0.25]),
                   np.array([0.25, 0.0], dtype=complex))
    dm = xform_to_dense(x)
    assert np.isclose(dm.trace, 1.0)
    assert np.isclose(x.trace, 1.0)


def test_xform_roundtrip_exact():
    x = isotropic_ghz(3, 0.3)
    back = xform_from_dense(xform_to_dense(x))
    assert np.array_equal(back.a, x.a)
    assert np.array_equal(back.b, x.b)
    assert np.array_equal(back.z, x.z)


def test_xform_from_maximally_mixed():
    dm = DensityMatrix(np.eye(4) / 4, (2, 2))
    x = xform_from_dense(dm)
    assert np.allclose(x.a, 0.25) and np.allclose(x.b, 0.25)
    assert np.abs(x.z).max() == 0


def test_interleaved_two_copy_is_not_xform():
    # Coherences between one copy's corner and the other copy's diagonal
    # land off the anti-diagonal of the collective basis, so the compact
    # representation does not apply to the interleaved two-copy state.
    one = xform_to_dense(isotropic_ghz(3, 0.25))
    two = permute_subsystems(tensor(one, one), (0, 3, 1, 4, 2, 5))
    with pytest.raises(NotXFormError):
        xform_from_dense(two)


def test_xform_block_positivity_rejected():
    from gme_lab.states import XFormState

    with pytest.raises(ValueError):
        XFormState(2, np.array([0.25, 0.25]), np.array([0.25, 0.25]),
                   np.array([0.3, 0.0], dtype=complex))


@pytest.mark.parametrize("a0, offset", [
    (0.0, 1e-6),      # |z|^2 - a b = 1e-12, yet the block has eigenvalue -1e-6
    (0.5, 1e-9),
    (0.5, 1e-11),
    (1e-3, 1e-9),
    (1e-3, -1e-9),
])
def test_xform_block_positivity_agrees_with_the_dense_psd_check(a0, offset):
    """xform_to_dense skips the dense check, so XFormState must reject
    exactly what that check would: a block eigenvalue below -TAU_PSD."""
    from gme_lab.states import XFormState

    a = np.array([a0, 0.5 - a0])
    z = np.array([a0 + offset, 0.0], dtype=complex)   # smallest eigenvalue -offset
    mat = np.diag([a[0], a[1], a[1], a[0]]).astype(complex)
    mat[0, 3] = mat[3, 0] = z[0]
    builds = (lambda: DensityMatrix(mat, (2, 2)), lambda: XFormState(2, a, a, z))
    for build in builds:
        if offset <= 1e-10:
            build()
        else:
            with pytest.raises(ValueError):
                build()


@pytest.mark.parametrize("field", ["a", "b", "z"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_xform_rejects_non_finite(field, bad):
    from gme_lab.states import XFormState

    entries = {"a": [0.25, 0.25], "b": [0.25, 0.25], "z": [0.0, 0.0]}
    entries[field] = [bad, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning is not a rejection
        with pytest.raises(ValueError, match="finite"):
            XFormState(2, entries["a"], entries["b"], entries["z"])


def _random_xform(n_qubits, rng):
    """Normalized X-form state with complex z, a != b and |z|^2 <= a b."""
    from gme_lab.states import XFormState

    n = 2 ** (n_qubits - 1)
    a = rng.uniform(0.1, 1.0, n)
    b = rng.uniform(0.1, 1.0, n)
    z = (np.sqrt(a * b) * rng.uniform(0.0, 1.0, n)
         * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n)))
    tr = a.sum() + b.sum()
    return XFormState(n_qubits, a / tr, b / tr, z / tr)


@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6])
def test_xform_pt_spectrum_matches_dense_oracle(n_qubits):
    rng = np.random.default_rng(n_qubits)
    for _ in range(3):
        x = _random_xform(n_qubits, rng)
        dense = xform_to_dense(x)
        for r in range(n_qubits + 1):  # includes the empty set and all qubits
            for subs in combinations(range(n_qubits), r):
                oracle = np.linalg.eigvalsh(partial_transpose(dense, subs).mat)
                got = xform_pt_spectrum(x, subs)
                assert np.abs(got - oracle).max() <= 1e-13, subs


def test_xform_pt_spectrum_rejects_out_of_range():
    x = isotropic_ghz(3, 0.3)
    for subs in ([3], [-1], [0, 5]):
        with pytest.raises(ValueError):
            xform_pt_spectrum(x, subs)


# -------------------------------------------------------------- partition

def test_partition_validation():
    Partition((frozenset({0}), frozenset({1, 2})))
    with pytest.raises(ValueError):
        Partition((frozenset({0}), frozenset({0, 1})))  # overlap
    with pytest.raises(ValueError):
        Partition((frozenset({0}), frozenset({2})))  # gap


def test_partition_str():
    cut = Partition((frozenset({1}), frozenset({0, 2})))
    assert str(cut) == "1|0,2"


# ------------------------------------------------------------ product form

def qutrit_mixed():
    return DensityMatrix(np.eye(3) / 3, (3,))


def test_product_tensor_single_terms():
    a = ProductFormState((ProductTerm(1.0, (qutrit_mixed(),)),), (3,))
    b = ProductFormState((ProductTerm(1.0, (qutrit_mixed(),)),), (3,))
    out = product_form_tensor(a, b)
    assert out.n_terms == 1
    assert out.global_dims == (3, 3)
    assert len(out.terms[0].factors) == 2


def test_product_tensor_term_counts_multiply():
    def three_term():
        kets = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex),
                np.array([1, 1], dtype=complex) / np.sqrt(2)]
        terms = tuple(ProductTerm(1 / 3, (DensityMatrix(np.outer(k, k.conj()), (2,)),))
                      for k in kets)
        return ProductFormState(terms, (2,))

    out = product_form_tensor(product_form_tensor(three_term(), three_term()),
                              three_term())
    assert out.n_terms == 27


def test_product_dense_matches_kron_oracle():
    a = DensityMatrix(np.full((2, 2), 0.5), (2,))   # |+><+|
    b = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))
    s = ProductFormState(
        (ProductTerm(0.4, (a, b)), ProductTerm(0.6, (b, a))), (2, 2))
    dense = product_form_to_dense(s).mat
    oracle = 0.4 * np.kron(a.mat, b.mat) + 0.6 * np.kron(b.mat, a.mat)
    assert np.abs(dense - oracle).max() < 1e-14


def test_product_project_drops_orthogonal_term():
    zero = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    one = DensityMatrix(np.diag([0.0, 1.0]), (2,))
    s = ProductFormState(
        (ProductTerm(0.5, (zero,)), ProductTerm(0.5, (one,))), (2,))
    proj = np.diag([0.0, 1.0]).astype(complex)  # complement of |0>
    out, prob = product_form_project(s, 0, proj)
    assert out.n_terms == 1
    assert np.isclose(prob, 0.5)
    assert np.isclose(out.terms[0].weight, 1.0)


def test_product_project_rank2_weight():
    s = ProductFormState((ProductTerm(1.0, (qutrit_mixed(),)),), (3,))
    proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
    out, prob = product_form_project(s, 0, proj)
    assert np.isclose(prob, 2 / 3)
    assert np.allclose(out.terms[0].factors[0].mat, np.diag([0.5, 0.5, 0.0]))


def test_product_project_commutes_with_dense():
    rng = np.random.default_rng(11)

    def random_state(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return DensityMatrix(m / np.trace(m).real, (d,))

    terms = tuple(
        ProductTerm(w, (random_state(3), random_state(3), random_state(3)))
        for w in (0.3, 0.7))
    s = ProductFormState(terms, (3, 3, 3))
    proj = np.diag([1.0, 0.0, 1.0]).astype(complex)
    projected, prob = product_form_project(s, 1, proj)
    big = np.kron(np.kron(np.eye(3), proj), np.eye(3))
    oracle = big @ product_form_to_dense(s).mat @ big
    got = prob * product_form_to_dense(projected).mat
    assert np.abs(got - oracle).max() < 1e-12


def test_product_project_zero_probability():
    zero = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    s = ProductFormState((ProductTerm(1.0, (zero,)),), (2,))
    with pytest.raises(ZeroProbabilityError):
        product_form_project(s, 0, np.diag([0.0, 1.0]).astype(complex))


def test_product_project_validates_projector():
    s = ProductFormState((ProductTerm(1.0, (qutrit_mixed(),)),), (3,))
    with pytest.raises(ValueError):
        product_form_project(s, 0, np.diag([0.5, 0.5, 0.0]).astype(complex))


def test_product_partial_trace_within_factor():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell = DensityMatrix(np.outer(v, v.conj()), (2, 2))
    s = ProductFormState((ProductTerm(1.0, (bell, qutrit_mixed())),), (2, 2, 3))
    out = product_form_partial_trace(s, {1, 2})
    assert out.global_dims == (2,)
    assert np.allclose(out.terms[0].factors[0].mat, np.eye(2) / 2)


def test_product_json_roundtrip():
    s = ProductFormState(
        (ProductTerm(1.0, (qutrit_mixed(), qutrit_mixed())),), (3, 3))
    back = product_form_from_json(product_form_to_json(s))
    assert back.global_dims == s.global_dims
    assert np.allclose(product_form_to_dense(back).mat,
                       product_form_to_dense(s).mat)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1e-3])
@pytest.mark.parametrize("normalized", [True, False])
def test_product_state_rejects_a_negative_or_non_finite_weight(weight, normalized):
    with pytest.raises(ValueError, match="negative or not finite"):
        ProductFormState((ProductTerm(weight, (qutrit_mixed(),)),), (3,),
                         normalized=normalized)


def test_product_state_rejects_weights_that_do_not_sum_to_1():
    terms = tuple(ProductTerm(w, (qutrit_mixed(),)) for w in (0.5, 0.4))
    with pytest.raises(ValueError, match="weights sum to"):
        ProductFormState(terms, (3,))
    ProductFormState(terms, (3,), normalized=False)


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_product_json_rejects_a_non_finite_weight(weight):
    obj = product_form_to_json(
        ProductFormState((ProductTerm(1.0, (qutrit_mixed(),)),), (3,)))
    obj["terms"][0]["weight"] = weight
    with pytest.raises(ValueError):
        product_form_from_json(obj)


def test_product_submatrix_equals_dense_oracle_exactly():
    rng = np.random.default_rng(17)

    def random_operator(dims):
        d = int(np.prod(dims))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return DensityMatrix(m / np.trace(m).real, dims)

    for _ in range(60):
        global_dims = tuple(int(d) for d in rng.integers(2, 5, size=rng.integers(1, 5)))
        n = len(global_dims)
        terms = []
        weights = rng.dirichlet(np.ones(rng.integers(1, 4)))
        for w in weights:
            # Each term groups adjacent subsystems into factors its own way.
            cuts = sorted({int(c) for c in rng.integers(1, n, size=rng.integers(0, n))}) \
                if n > 1 else []
            bounds = [0, *cuts, n]
            factors = tuple(random_operator(global_dims[lo:hi])
                            for lo, hi in zip(bounds, bounds[1:]))
            terms.append(ProductTerm(float(w), factors))
        s = ProductFormState(tuple(terms), global_dims)
        d = int(np.prod(global_dims))
        rows = rng.choice(d, size=rng.integers(1, d + 1), replace=rng.random() < 0.3)
        got = product_form_submatrix(s, rows)
        want = product_form_to_dense(s).mat[np.ix_(rows, rows)]
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_product_submatrix_rejects_out_of_range_rows():
    s = ProductFormState((ProductTerm(1.0, (qutrit_mixed(), qutrit_mixed())),), (3, 3))
    for rows in ([0, 9], [-1], [[0, 1]]):
        with pytest.raises(ValueError):
            product_form_submatrix(s, rows)


def test_product_dense_guard():
    big = ProductFormState(
        (ProductTerm(1.0, tuple(qutrit_mixed() for _ in range(9))),), (3,) * 9)
    with pytest.raises(ValueError):
        product_form_to_dense(big)


def test_product_entries_need_no_dense_expansion_but_int64_indices():
    nine = ProductFormState(
        (ProductTerm(1.0, tuple(qutrit_mixed() for _ in range(9))),), (3,) * 9)
    indices, values = product_form_entries(nine)     # beyond the dense guard
    d = 3 ** 9
    assert indices.tolist() == list(range(0, d * d, d + 1))
    assert np.allclose(values, 1 / d, rtol=1e-14, atol=0)
    one = DensityMatrix(np.diag([0.0, 1.0]), (2,))
    wide = ProductFormState((ProductTerm(1.0, (one,) * 32),), (2,) * 32)
    with pytest.raises(ValueError, match="more entries than int64 can index"):
        product_form_entries(wide)     # its one entry has flat index 2^64 - 1


def test_product_entries_drop_entries_that_cancel():
    """|+><+| and |-><-| in equal weight: the coherences sum to +0.0, as in
    the expansion, and are not entries."""
    plus = DensityMatrix(np.full((2, 2), 0.5), (2,))
    minus = DensityMatrix(np.array([[0.5, -0.5], [-0.5, 0.5]]), (2,))
    s = ProductFormState((ProductTerm(0.5, (plus,)), ProductTerm(0.5, (minus,))), (2,))
    indices, values = product_form_entries(s)
    assert indices.tolist() == [0, 3] and values.tolist() == [0.5, 0.5]
    assert product_form_to_dense(s).mat[0, 1].real.hex() == (0.0).hex()


def test_product_dense_is_normalized_only_when_every_factor_is():
    """The expansion is not checked, so its flag must follow the factors:
    weights summing to 1 over an unnormalized factor give trace != 1."""
    half = DensityMatrix(np.eye(2) / 2, (2,))
    double = DensityMatrix(np.eye(2), (2,), normalized=False)
    assert product_form_to_dense(ProductFormState(
        (ProductTerm(1.0, (half, half)),), (2, 2))).normalized
    dense = product_form_to_dense(ProductFormState(
        (ProductTerm(1.0, (half, double)),), (2, 2)))
    assert not dense.normalized and dense.trace == 2.0
