"""Property tests of the exact primitives.

Partial transposes and subsystem permutations only move entries, the X-form
expansion only places them (checked against an entry-by-entry loop), and ``product_form_submatrix`` forms the same
products as the dense expansion, as do ``product_form_entries`` and the
JSON writer fed with them, so these properties hold bit for bit.
Operators are drawn from a seed and a scale (down to 1e-300, up to 1e300)
over one to three qubit or qutrit subsystems.  ``product_form_project``
equals its Kronecker-product form bit for bit on diagonal 0/1 projectors and
to 1e-14 on general ones.  The witness closed forms are another formula than
their dense gathers, and agree with them to 1e-13 over log-uniform
parameters in [1e-4, 1e4], as ``iterated_hadamard`` agrees with the k-fold
dense Schur product to 1e-12.  The search is derandomized and keeps
no example database, so runs are repeatable.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gme_lab.gme import iterated_hadamard
from gme_lab.boundent import (
    witness_trace_triangle,
    witness_trace_triangle_dense,
    witness_trace_wedge,
    witness_trace_wedge_dense,
)
from gme_lab.linalg import (
    DensityMatrix,
    density_matrix_to_json,
    partial_transpose,
    permute_subsystems,
    write_entries_json,
)
from gme_lab.states import (
    ProductFormState,
    ProductTerm,
    XFormState,
    ZeroProbabilityError,
    product_form_entries,
    product_form_project,
    product_form_submatrix,
    product_form_to_dense,
    xform_to_dense,
)
from oracles import hadamard_map, product_form_project_kron, xform_from_dense

PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])

DIMS = st.lists(st.integers(2, 3), min_size=1, max_size=3).map(tuple)
SEEDS = st.integers(0, 2 ** 32 - 1)
SCALES = st.sampled_from([1.0, 1e-300, 1e300])


def hermitian(dims, seed, scale=1.0) -> DensityMatrix:
    """A seeded Hermitian operator with entries of order ``scale``."""
    d = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    a = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return DensityMatrix(a + a.conj().T, dims, normalized=False, state=False)


def state(dims, rng) -> DensityMatrix:
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, dims)


@PROPERTY
@given(dims=DIMS, seed=SEEDS, scale=SCALES, data=st.data())
def test_partial_transpose_keeps_the_trace_and_is_an_involution(dims, seed, scale, data):
    dm = hermitian(dims, seed, scale)
    subs = data.draw(st.sets(st.integers(0, len(dims) - 1)))
    pt = partial_transpose(dm, subs)
    assert pt.dims == dm.dims
    assert np.trace(pt.mat) == np.trace(dm.mat)
    assert partial_transpose(pt, subs).mat.tobytes() == dm.mat.tobytes()


@PROPERTY
@given(dims=DIMS, seed=SEEDS, scale=SCALES, data=st.data())
def test_permutation_then_inverse_is_the_identity(dims, seed, scale, data):
    dm = hermitian(dims, seed, scale)
    perm = data.draw(st.permutations(range(len(dims))))
    moved = permute_subsystems(dm, perm)
    assert moved.dims == tuple(dims[p] for p in perm)
    back = permute_subsystems(moved, np.argsort(perm))
    assert back.dims == dm.dims and back.mat.tobytes() == dm.mat.tobytes()


@PROPERTY
@given(n=st.integers(2, 6), seed=SEEDS, scale=SCALES)
def test_xform_dense_round_trip_is_exact(n, seed, scale):
    rng = np.random.default_rng(seed)
    half = 2 ** (n - 1)
    a, b = scale * rng.random(half), scale * rng.random(half)
    # |z| <= sqrt(a b) keeps every 2x2 block positive semidefinite.
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, half))
    z = np.sqrt(a) * np.sqrt(b) * rng.random(half) * phase
    x = XFormState(n, a, b, z)
    dense = xform_to_dense(x)
    assert dense.dims == (2,) * n
    loop = np.zeros((2 * half,) * 2, dtype=complex)   # the placement, entry by entry
    for k in range(half):
        loop[k, k], loop[-1 - k, -1 - k] = x.a[k], x.b[k]
        loop[k, -1 - k], loop[-1 - k, k] = x.z[k], np.conj(x.z[k])
    assert dense.mat.tobytes() == loop.tobytes()
    back = xform_from_dense(dense)
    for got, want in ((back.a, x.a), (back.b, x.b), (back.z, x.z)):
        assert got.tobytes() == want.tobytes()
    assert xform_to_dense(back).mat.tobytes() == dense.mat.tobytes()


@PROPERTY
@given(dims=DIMS, seed=SEEDS, data=st.data())
def test_submatrix_of_a_projected_state_equals_its_dense_rows(dims, seed, data):
    rng = np.random.default_rng(seed)
    n_terms = data.draw(st.integers(1, 3))
    weights = rng.random(n_terms) + 0.1
    terms = tuple(ProductTerm(w, tuple(state((d,), rng) for d in dims))
                  for w in weights / weights.sum())
    s = ProductFormState(terms, dims)
    target = data.draw(st.integers(0, len(dims) - 1))
    d = dims[target]
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rank = data.draw(st.integers(1, d - 1))
    projected, _ = product_form_project(s, target, q[:, :rank] @ q[:, :rank].conj().T)
    full = int(np.prod(dims))
    rows = data.draw(st.lists(st.integers(0, full - 1), min_size=1, max_size=full))
    dense = product_form_to_dense(projected).mat
    assert product_form_submatrix(projected, rows).tobytes() == \
        dense[np.ix_(rows, rows)].tobytes()


@st.composite
def product_forms(draw):
    """A product form of normalized states over one to four qubits or qutrits.
    Each term groups adjacent subsystems into factors its own way, and each
    factor has rows and columns of exact zeros, some signed -0.0, and is
    sometimes real with every imaginary part -0.0."""
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4).map(tuple))
    rng = np.random.default_rng(draw(SEEDS))
    n_terms = draw(st.integers(1, 3))
    weights = rng.random(n_terms) + 0.1
    terms = []
    for w in weights / weights.sum():
        cuts = sorted(draw(st.sets(st.integers(1, len(dims) - 1))) if len(dims) > 1
                      else set())
        bounds = [0, *cuts, len(dims)]
        factors = []
        for lo, hi in zip(bounds, bounds[1:]):
            d = int(np.prod(dims[lo:hi]))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a[rng.random(d) < 0.4] = 0      # zero rows of a: zero rows of rho
            a[rng.integers(d)] += 1
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            if draw(st.booleans()):
                rho = rho.real + 0j
                rho.imag = -0.0
            zero = rho == 0
            signs = rng.choice([-0.0, 0.0], size=(2, int(zero.sum())))
            rho[zero] = signs[0] + 1j * signs[1]
            factors.append(DensityMatrix(rho, dims[lo:hi]))
        terms.append(ProductTerm(w, tuple(factors)))
    return ProductFormState(tuple(terms), dims)


@PROPERTY
@given(s=product_forms())
def test_product_form_entries_are_the_nonzero_entries_of_its_expansion(s):
    indices, values = product_form_entries(s)
    dense = product_form_to_dense(s).mat.reshape(-1)
    want = np.flatnonzero(dense.view(np.uint64).reshape(-1, 2).any(axis=1))
    assert indices.tobytes() == want.astype(np.int64).tobytes()
    assert values.tobytes() == dense[want].tobytes()


@PROPERTY
@given(s=product_forms())
def test_entries_fed_writer_equals_json_dump_of_the_expansion(s):
    oracle, streamed = io.StringIO(), io.StringIO()
    json.dump(density_matrix_to_json(product_form_to_dense(s)), oracle)
    write_entries_json(s.global_dims, *product_form_entries(s), streamed)
    assert streamed.getvalue() == oracle.getvalue()


def same_bits(got, want):
    """Equal weights, totals and factor entries, bit for bit."""
    (s, total), (t, want_total) = got, want
    assert np.float64(total).tobytes() == np.float64(want_total).tobytes()
    assert len(s.terms) == len(t.terms)
    for a, b in zip(s.terms, t.terms):
        assert np.float64(a.weight).tobytes() == np.float64(b.weight).tobytes()
        for fa, fb in zip(a.factors, b.factors, strict=True):
            assert fa.mat.tobytes() == fb.mat.tobytes()


def close(got, want, tol):
    (s, total), (t, want_total) = got, want
    assert abs(total - want_total) <= tol
    assert len(s.terms) == len(t.terms)
    for a, b in zip(s.terms, t.terms):
        assert abs(a.weight - b.weight) <= tol
        for fa, fb in zip(a.factors, b.factors, strict=True):
            assert np.abs(fa.mat - fb.mat).max() <= tol


@PROPERTY
@given(s=product_forms(), data=st.data())
def test_projection_equals_the_kron_form(s, data):
    """A diagonal 0/1 projector moves or zeroes entries, as the Kronecker
    form's products do, so the two agree bit for bit; a general projector
    sums products in another order, so to rounding."""
    target = data.draw(st.integers(0, len(s.global_dims) - 1))
    d = s.global_dims[target]
    keep = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
    diagonal = np.diag(np.array(keep, dtype=float)).astype(complex)
    try:
        want = product_form_project_kron(s, target, diagonal)
    except ZeroProbabilityError:
        with pytest.raises(ZeroProbabilityError):
            product_form_project(s, target, diagonal)
    else:
        same_bits(product_form_project(s, target, diagonal), want)
    rng = np.random.default_rng(data.draw(SEEDS))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rank = data.draw(st.integers(1, d))
    general = q[:, :rank] @ q[:, :rank].conj().T
    try:
        want = product_form_project_kron(s, target, general)
    except ZeroProbabilityError:
        return
    close(product_form_project(s, target, general), want, 1e-14)


@st.composite
def xform_states(draw):
    """A normalized X-form state on two to five qubits, some blocks with a
    coherence at its bound |z| = sqrt(a b) and some with none."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(SEEDS))
    half = 2 ** (n - 1)
    a, b = rng.random(half), rng.random(half)
    reach = rng.choice([0.0, rng.random(), 1.0], size=half)
    z = np.sqrt(a * b) * reach * np.exp(1j * rng.uniform(-np.pi, np.pi, half))
    trace = a.sum() + b.sum()
    return XFormState(n, a / trace, b / trace, z / trace)


@PROPERTY
@given(x=xform_states(), k=st.integers(1, 4))
def test_iterated_hadamard_equals_the_dense_schur_power(x, k):
    one = xform_to_dense(x)
    dense = one
    for _ in range(k - 1):
        dense = hadamard_map(dense, one)
    want = xform_from_dense(dense)
    got = iterated_hadamard(x, k)
    for g, w in ((got.a, want.a), (got.b, want.b), (got.z, want.z)):
        assert np.abs(g - w).max() <= 1e-12


LOG_UNIFORM = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)


@PROPERTY
@given(x=LOG_UNIFORM, y=LOG_UNIFORM, z=LOG_UNIFORM)
def test_witness_closed_forms_agree_with_their_dense_gathers(x, y, z):
    assert abs(witness_trace_triangle(x, y, z) - witness_trace_triangle_dense(x, y, z)) \
        <= 1e-13
    assert abs(witness_trace_wedge(x, y) - witness_trace_wedge_dense(x, y)) <= 1e-13
