"""Dense oracles for the tests.

Each function here computes on dense matrices what the library computes on
X-form or product-form data, and serves only as an independent check of that
production path: the dense Schur product against ``iterated_hadamard``, the
extraction of (a, b, z) from a dense X-form matrix, the twin-diagonal
projections of the triangle and wedge states as validated states, and the
Kronecker-product form of ``product_form_project``.
"""

import numpy as np

from gme_lab.boundent import _TRIANGLE_ROWS, _WEDGE_ROWS
from gme_lab.gme import ZeroTraceError
from gme_lab.linalg import TAU_TRACE, DensityMatrix
from gme_lab.states import (
    TAU_X,
    ProductFormState,
    ProductTerm,
    XFormState,
    ZeroProbabilityError,
    _locate_factor,
    product_form_submatrix,
)


class NotXFormError(ValueError):
    """Raised when a dense matrix has support off the diagonal and anti-diagonal."""


def xform_from_dense(dm: DensityMatrix) -> XFormState:
    """Extract (a, b, z) from a dense matrix, or raise :class:`NotXFormError`."""
    if any(d != 2 for d in dm.dims):
        raise ValueError("X-form extraction requires an all-qubit operator")
    d = dm.dim
    mask = np.ones((d, d), dtype=bool)
    idx = np.arange(d)
    mask[idx, idx] = False
    mask[idx, d - 1 - idx] = False
    worst = float(np.abs(dm.mat[mask]).max()) if mask.any() else 0.0
    if worst > TAU_X:
        raise NotXFormError(f"entry of magnitude {worst:.3e} off the diagonal/anti-diagonal")
    n = d // 2
    a = dm.mat[idx[:n], idx[:n]].real
    b = dm.mat[d - 1 - idx[:n], d - 1 - idx[:n]].real
    z = dm.mat[idx[:n], d - 1 - idx[:n]]
    return XFormState(len(dm.dims), a, b, z)


def hadamard_map(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """Normalized Schur product of two states on the same space.

    The Schur product of PSD matrices is PSD, so the result is a state; this
    is asserted at construction.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    prod = rho.mat * sigma.mat
    tr = float(np.trace(prod).real)
    if tr <= TAU_TRACE:
        raise ZeroTraceError(f"Schur product has trace {tr}")
    return DensityMatrix(prod / tr, rho.dims, normalized=True, state=True)


def _normalized_projection(reduced: np.ndarray) -> tuple[DensityMatrix, float]:
    prob = float(np.trace(reduced).real)
    if prob <= 1e-14:
        raise ZeroProbabilityError("projection annihilates the state")
    return DensityMatrix(reduced / prob, (3, 3, 3)), prob


def project_triangle_to_D(s: ProductFormState) -> tuple[DensityMatrix, float]:
    """Project a six-qutrit triangle state onto the twin-diagonal subspace.

    Returns the renormalized three-qutrit state on the subspace basis
    |ii>|jj>|kk> -> |i>|j>|k> together with the projection probability.
    The closed-form witness values refer to the unnormalized projection,
    i.e. to probability times the witness trace of the returned state.
    """
    if s.global_dims != (3,) * 6:
        raise ValueError("expected a six-qutrit state")
    return _normalized_projection(product_form_submatrix(s, _TRIANGLE_ROWS))


def project_wedge_to_D(s: ProductFormState) -> tuple[DensityMatrix, float]:
    """Project a wedge state onto |i>|j>|kk>; parties 1 and 2 keep their
    single qutrits, party 3 is projected onto its twin-diagonal subspace."""
    if s.global_dims != (3,) * 4:
        raise ValueError("expected a four-qutrit state")
    return _normalized_projection(product_form_submatrix(s, _WEDGE_ROWS))


def product_form_project_kron(s: ProductFormState, subsystem: int,
                              projector: np.ndarray) -> tuple[ProductFormState, float]:
    """``product_form_project`` with the projector lifted to each factor as
    ``kron(kron(I, P), I)`` and applied by two dense products.  Unvalidated."""
    proj = np.asarray(projector, dtype=complex)
    new_terms = []
    total = 0.0
    for term in s.terms:
        fi, local = _locate_factor(term, subsystem)
        f = term.factors[fi]
        before = int(np.prod(f.dims[:local], dtype=np.int64))
        after = int(np.prod(f.dims[local + 1:], dtype=np.int64))
        big = np.kron(np.kron(np.eye(before), proj), np.eye(after))
        projected = big @ f.mat @ big
        tr_new = float(np.trace(projected).real)
        q = tr_new / f.trace if f.trace > 0 else 0.0
        if term.weight * q <= 0.0 or tr_new <= TAU_TRACE:
            continue
        total += term.weight * q
        new_factor = DensityMatrix(projected / tr_new, f.dims, normalized=False,
                                   state=False)
        factors = term.factors[:fi] + (new_factor,) + term.factors[fi + 1:]
        new_terms.append(ProductTerm(term.weight * q, factors))
    if not new_terms or total <= TAU_TRACE:
        raise ZeroProbabilityError("projection annihilates the state")
    renorm = tuple(ProductTerm(t.weight / total, t.factors) for t in new_terms)
    return ProductFormState(renorm, s.global_dims), total
