"""State families: GHZ vectors, isotropic GHZ states, X-form states, and
convex sums of tensor products for exact work in high dimension.

An N-qubit operator is in X-form when its only nonzero entries sit on the
main diagonal and the main anti-diagonal of the computational basis.  Such
operators are stored compactly as three length-2^(N-1) vectors (a, b, z):
with n = 2^(N-1), D = 2^N and 0-based row index k,

    a[k] = rho[k, k]                k = 0 .. n-1   (upper diagonal half)
    b[k] = rho[D-1-k, D-1-k]                       (lower diagonal half)
    z[k] = rho[k, D-1-k]                           (anti-diagonal, upper)

so the state decomposes into n two-dimensional blocks [[a_k, z_k], [z_k*, b_k]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    TAU_HERM,
    TAU_PSD,
    TAU_TRACE,
    _check_hermitian,
    _unchecked,
    density_matrix_from_json,
    density_matrix_to_json,
    partial_trace,
)

TAU_X = 1e-12  # absolute threshold for entries that must vanish in X-form
DENSE_DIM_LIMIT = 4096  # largest dense expansion of a product-form state (256 MiB)

__all__ = [
    "ZeroProbabilityError",
    "XFormState",
    "Partition",
    "ProductTerm",
    "ProductFormState",
    "ghz_vector",
    "isotropic_ghz",
    "isotropic_p_range",
    "xform_to_dense",
    "xform_pt_spectrum",
    "product_form_tensor",
    "product_form_project",
    "product_form_partial_trace",
    "product_form_to_dense",
    "product_form_entries",
    "product_form_submatrix",
    "product_form_to_json",
    "product_form_from_json",
]


class ZeroProbabilityError(ValueError):
    """Raised when a projection annihilates a state."""


@dataclass(frozen=True, eq=False)
class XFormState:
    """Compact (a, b, z) representation of an N-qubit X-form operator."""

    n_qubits: int
    a: np.ndarray
    b: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        z = np.array(self.z, dtype=complex)
        for arr in (a, b, z):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "z", z)
        n = 2 ** (self.n_qubits - 1)
        if not (len(a) == len(b) == len(z) == n):
            raise ValueError(f"expected vectors of length {n} for {self.n_qubits} qubits")
        if not all(np.isfinite(arr).all() for arr in (a, b, z)):
            raise ValueError("X-form entries must be finite")
        if a.min() < -TAU_X or b.min() < -TAU_X:
            raise ValueError("diagonal entries must be nonnegative")
        # PSD of every 2x2 block, |z_k|^2 <= a_k b_k: the blocks' eigenvalues
        # (a+b)/2 +- hypot((a-b)/2, |z|) are the spectrum, so the smallest is
        # held to the dense PSD tolerance and xform_to_dense needs no check.
        lo = float(((a + b) / 2 - np.hypot((a - b) / 2, np.abs(z))).min())
        if not -lo <= TAU_PSD * max(a.sum() + b.sum(), 1.0):
            raise ValueError("block positivity |z|^2 <= a*b violated")

    @property
    def trace(self) -> float:
        return float(self.a.sum() + self.b.sum())


def ghz_vector(n_qubits: int) -> np.ndarray:
    """Unit vector (|0...0> + |1...1>)/sqrt(2) on N >= 2 qubits."""
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    v = np.zeros(2 ** n_qubits, dtype=complex)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return v


def isotropic_p_range(n_qubits: int) -> tuple[float, float]:
    """Admissible mixing-parameter range of the isotropic GHZ family, N >= 2."""
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    # Integer true division is correctly rounded for any N; a float divisor
    # would overflow above N = 1024.
    return (-1 / (2 ** n_qubits - 1), 1.0)


def _check_isotropic_p(n_qubits: int, p: float) -> None:
    """Raise ``ValueError`` unless p is in the admissible range up to TAU_X
    (so grid endpoints a rounding step outside pass); NaN is rejected."""
    lo, hi = isotropic_p_range(n_qubits)
    if not lo - TAU_X <= p <= hi + TAU_X:
        raise ValueError(f"p={p} outside [{lo}, {hi}] for N={n_qubits}")


def isotropic_ghz(n_qubits: int, p: float) -> XFormState:
    """Isotropic GHZ state: p-weighted GHZ projector mixed with white noise.

    The X-form parameters are a_k = b_k = (1-p)/2^N + delta_{k0} p/2 and
    z_k = delta_{k0} p/2.  The state is a valid density operator for
    p in [-1/(2^N - 1), 1].
    """
    _check_isotropic_p(n_qubits, p)
    n = 2 ** (n_qubits - 1)
    diag = np.full(n, (1 - p) / 2 ** n_qubits)
    a = diag.copy()
    a[0] += p / 2
    z = np.zeros(n, dtype=complex)
    z[0] = p / 2
    return XFormState(n_qubits, a, a.copy(), z)


def xform_to_dense(x: XFormState) -> DensityMatrix:
    """Dense 2^N-dimensional matrix of an X-form state (exact round trip)."""
    n = len(x.a)
    d = 2 * n
    upper = np.arange(n)
    lower = d - 1 - upper      # the anti-diagonal partner of each upper row
    mat = np.zeros((d, d), dtype=complex)
    mat[upper, upper] = x.a
    mat[lower, lower] = x.b
    mat[upper, lower] = x.z
    mat[lower, upper] = np.conj(x.z)
    normalized = abs(x.trace - 1.0) <= TAU_TRACE
    # XFormState checked finiteness and block positivity, the PSD check of this matrix.
    return _unchecked(mat, (2,) * x.n_qubits, normalized=normalized, state=True)


def xform_pt_spectrum(x: XFormState, subsystems) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose of an X-form operator.

    Transposing the qubits in ``subsystems`` keeps X-form: with m the bitmask
    of those qubits (qubit 0 the most significant bit), row r of the result
    carries the anti-diagonal coherence of row r ^ m and the diagonal is
    unchanged.  The spectrum is therefore that of the 2^(N-1) blocks
    [[a_r, z'_r], [z'_r*, b_r]], (a+b)/2 +- hypot((a-b)/2, |z'_r|), and no
    2^N-dimensional matrix is built.  An empty ``subsystems`` (or all
    qubits) gives the spectrum of ``x`` itself.
    """
    subs = {int(s) for s in subsystems}
    if any(not 0 <= s < x.n_qubits for s in subs):
        raise ValueError(f"subsystems {sorted(subs)} out of range for {x.n_qubits} qubits")
    mask = sum(1 << (x.n_qubits - 1 - s) for s in subs)
    abs_z = np.abs(x.z)
    # |rho[r, D-1-r]| for every row r: the lower half mirrors the upper.
    coherence = np.concatenate([abs_z, abs_z[::-1]])
    z_pt = coherence[np.arange(len(abs_z)) ^ mask]
    mean = (x.a + x.b) / 2
    radius = np.hypot((x.a - x.b) / 2, z_pt)
    return np.sort(np.concatenate([mean - radius, mean + radius]))


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of 0-based party indices covering 0..N-1."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        blocks = tuple(frozenset(int(i) for i in blk) for blk in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not blk for blk in blocks):
            raise ValueError("blocks must be nonempty")
        union: set[int] = set()
        total = 0
        for blk in blocks:
            union |= blk
            total += len(blk)
        if total != len(union):
            raise ValueError("blocks must be pairwise disjoint")
        if union != set(range(len(union))):
            raise ValueError("blocks must cover 0..N-1 exactly")

    @property
    def n_parties(self) -> int:
        return sum(len(blk) for blk in self.blocks)

    def __str__(self) -> str:
        return "|".join(",".join(str(i) for i in sorted(blk)) for blk in self.blocks)


@dataclass(frozen=True, eq=False)
class ProductTerm:
    weight: float
    factors: tuple[DensityMatrix, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for f in self.factors for d in f.dims)


@dataclass(frozen=True, eq=False)
class ProductFormState:
    """Convex sum of tensor products of small density matrices.

    Each term may group several adjacent subsystems into one factor; the
    concatenated factor dims of every term must equal ``global_dims``.  This
    represents high-dimensional states exactly without materializing them.
    No term merging or compression is attempted.
    """

    terms: tuple[ProductTerm, ...]
    global_dims: tuple[int, ...]
    normalized: bool = True

    def __post_init__(self):
        gd = tuple(int(d) for d in self.global_dims)
        object.__setattr__(self, "global_dims", gd)
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("need at least one term")
        for t in self.terms:
            # Written ``not lo <= w`` so that NaN fails the check too.
            if not -TAU_TRACE <= t.weight < math.inf:
                raise ValueError(f"term weight {t.weight} is negative or not finite")
            if t.dims != gd:
                raise ValueError(f"term dims {t.dims} do not match global dims {gd}")
        if self.normalized:
            total = sum(t.weight for t in self.terms)
            if not abs(total - 1.0) <= 1e-10:
                raise ValueError(f"weights sum to {total}, expected 1")

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def product_form_tensor(a: ProductFormState, b: ProductFormState) -> ProductFormState:
    """All pairwise products of terms; weights multiply, term counts multiply."""
    terms = tuple(
        ProductTerm(ta.weight * tb.weight, ta.factors + tb.factors)
        for ta in a.terms for tb in b.terms
    )
    return ProductFormState(terms, a.global_dims + b.global_dims,
                            normalized=a.normalized and b.normalized)


def _locate_factor(term: ProductTerm, subsystem: int) -> tuple[int, int]:
    """Return (factor index, local subsystem index) holding a global subsystem."""
    pos = 0
    for fi, f in enumerate(term.factors):
        if pos <= subsystem < pos + f.n_subsystems:
            return fi, subsystem - pos
        pos += f.n_subsystems
    raise ValueError(f"subsystem {subsystem} out of range")


def product_form_project(s: ProductFormState, subsystem: int,
                         projector: np.ndarray) -> tuple[ProductFormState, float]:
    """Apply a projector to one subsystem in every term.

    Term weights are rescaled by the post-projection trace, terms that are
    annihilated are dropped, the surviving factors and weights are
    renormalized, and the pre-normalization total probability is returned.
    """
    proj = np.asarray(projector, dtype=complex)
    scale = _check_hermitian(proj, "projector must be Hermitian")
    if not float(np.abs(proj @ proj - proj).max()) <= TAU_HERM * scale:
        raise ValueError("projector must be idempotent")
    if subsystem < 0 or subsystem >= len(s.global_dims):
        raise ValueError(f"subsystem {subsystem} out of range")
    if proj.shape != (s.global_dims[subsystem],) * 2:
        raise ValueError("projector dimension does not match the subsystem")

    new_terms = []
    total = 0.0
    for term in s.terms:
        fi, local = _locate_factor(term, subsystem)
        f = term.factors[fi]
        split = (math.prod(f.dims[:local]), f.dims[local], math.prod(f.dims[local + 1:])) * 2
        # P f P with P acting on the local axis of both the rows and the columns.
        projected = np.einsum("ij,ajbckd,kl->aibcld", proj, f.mat.reshape(split),
                              proj).reshape(f.dim, f.dim)
        tr_new = float(np.trace(projected).real)
        tr_old = f.trace
        q = tr_new / tr_old if tr_old > 0 else 0.0
        if term.weight * q <= 0.0 or tr_new <= TAU_TRACE:
            continue
        total += term.weight * q
        # f and the projector were checked; P f P is PSD when f is, and has unit trace here.
        new_factor = _unchecked(projected / tr_new, f.dims, normalized=True, state=f.state)
        factors = term.factors[:fi] + (new_factor,) + term.factors[fi + 1:]
        new_terms.append(ProductTerm(term.weight * q, factors))
    if not new_terms or total <= TAU_TRACE:
        raise ZeroProbabilityError("projection annihilates the state")
    renorm = tuple(ProductTerm(t.weight / total, t.factors) for t in new_terms)
    return ProductFormState(renorm, s.global_dims, normalized=True), total


def product_form_partial_trace(s: ProductFormState,
                               discard: set[int]) -> ProductFormState:
    """Trace out global subsystems, factor by factor."""
    discard = set(int(i) for i in discard)
    keep = [i for i in range(len(s.global_dims)) if i not in discard]
    if not keep:
        raise ValueError("cannot discard every subsystem")
    new_terms = []
    for term in s.terms:
        weight = term.weight
        factors = []
        pos = 0
        for f in term.factors:
            local_discard = [i for i in range(f.n_subsystems) if pos + i in discard]
            pos += f.n_subsystems
            if len(local_discard) == f.n_subsystems:
                weight *= f.trace
            elif local_discard:
                factors.append(partial_trace(f, local_discard))
            else:
                factors.append(f)
        new_terms.append(ProductTerm(weight, tuple(factors)))
    gd = tuple(s.global_dims[i] for i in keep)
    return ProductFormState(tuple(new_terms), gd, normalized=s.normalized)


def product_form_to_dense(s: ProductFormState) -> DensityMatrix:
    """Dense expansion sum_t w_t (f_1 x f_2 x ...); refused above
    ``DENSE_DIM_LIMIT`` before anything is allocated.

    ``normalized`` holds when the state's weights sum to 1 and every factor
    is normalized.
    """
    d = int(np.prod(s.global_dims, dtype=np.int64))
    if d > DENSE_DIM_LIMIT:
        raise ValueError(f"dense dimension {d} exceeds limit {DENSE_DIM_LIMIT}")
    out = np.zeros((d, d), dtype=complex)
    for term in s.terms:
        block = np.array([[term.weight]], dtype=complex)
        for f in term.factors:
            block = np.kron(block, f.mat)
        out += block
    normalized = s.normalized and all(f.normalized for t in s.terms for f in t.factors)
    # Every factor was checked Hermitian, and ProductFormState checked the weights.
    return _unchecked(out, s.global_dims, normalized=normalized, state=False)


def product_form_entries(s: ProductFormState) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the dense expansion whose bits are not those of +0.0:
    their ascending row-major flat indices into the ``d x d`` matrix, and
    their complex values.  Nothing of the full dimension is built.

    Each term contributes the Cartesian product of its factors' nonzero
    entries, multiplied as :func:`product_form_to_dense` multiplies them
    (weight first, then factors left to right), and the terms are summed in
    order into +0.0, which folds a -0.0 to +0.0 as the expansion's sum does.
    The values are bit-identical to the expansion's provided no partial
    product overflows: a skipped zero factor entry then stands for signed
    zeros only, never for the NaN of inf * 0.  Normalized states satisfy
    this, since their entries have modulus at most 1.
    """
    d = math.prod(s.global_dims)
    if d * d > np.iinfo(np.int64).max:
        raise ValueError(f"dense dimension {d} has more entries than int64 can index")
    flats, products = [], []
    for term in s.terms:
        rows = cols = np.zeros(1, dtype=np.int64)
        vals = np.array([term.weight], dtype=complex)
        for f in term.factors:
            entries = f.mat.reshape(-1)
            nonzero = np.flatnonzero(entries)
            r, c = np.divmod(nonzero, f.dim)
            rows = (rows[:, None] * f.dim + r).reshape(-1)
            cols = (cols[:, None] * f.dim + c).reshape(-1)
            vals = (vals[:, None] * entries[nonzero]).reshape(-1)
        flats.append(rows * d + cols)
        products.append(vals)
    indices = np.unique(np.concatenate(flats))
    values = np.zeros(indices.size, dtype=complex)
    for flat, vals in zip(flats, products):
        # A term's flat indices are distinct, so each adds once to an entry.
        values[np.searchsorted(indices, flat)] += vals
    keep = values.view(np.uint64).reshape(-1, 2).any(axis=1)
    return indices[keep], values[keep]


def product_form_submatrix(s: ProductFormState, rows) -> np.ndarray:
    """Principal submatrix ``dense[np.ix_(rows, rows)]`` of the dense expansion.

    Each entry of a term is the weight times one entry per factor, gathered
    from the factors directly, so nothing of the full dimension is built.
    Weight first, then factors left to right, then terms in order: the same
    arithmetic as :func:`product_form_to_dense`, hence bit-identical values.
    """
    rows = np.asarray(rows, dtype=np.int64)
    d = int(np.prod(s.global_dims, dtype=np.int64))
    if rows.ndim != 1 or (rows.size and not 0 <= rows.min() <= rows.max() < d):
        raise ValueError(f"rows must be a vector of indices in [0, {d})")
    out = np.zeros((rows.size, rows.size), dtype=complex)
    for term in s.terms:
        block = np.array([[term.weight]], dtype=complex)
        stride = d
        for f in term.factors:
            stride //= f.dim
            local = rows // stride % f.dim
            block = block * f.mat[np.ix_(local, local)]
        out += block
    return out


def product_form_to_json(s: ProductFormState) -> dict:
    return {
        "global_dims": list(s.global_dims),
        "terms": [
            {"weight": t.weight,
             "factors": [density_matrix_to_json(f) for f in t.factors]}
            for t in s.terms
        ],
    }


def product_form_from_json(obj: dict) -> ProductFormState:
    terms = tuple(
        ProductTerm(float(t["weight"]),
                    tuple(density_matrix_from_json(f) for f in t["factors"]))
        for t in obj["terms"]
    )
    return ProductFormState(terms, tuple(obj["global_dims"]))
