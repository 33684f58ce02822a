"""Dense complex linear algebra over multipartite Hilbert spaces.

Operators are stored as plain numpy arrays together with the ordered list of
subsystem dimensions.  The basis convention is most-significant-first: the
composite index of |i_1 ... i_N> is sum_k i_k * prod_{m>k} d_m, which is
exactly the ordering produced by ``numpy.kron``.  Every basis-index vector in
the package is built in this order by ``numpy.ravel_multi_index`` (digits
come from ``numpy.unravel_index``), and every embedding or restriction
between spaces is an index placement (``numpy.ix_``), not an isometry product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

# Package-wide tolerances.  Double precision with dense matrices up to ~1000
# dimensions leaves at least four digits of headroom against all of these.
TAU_HERM = 1e-12    # absolute deviation from Hermiticity (scaled by max entry)
TAU_TRACE = 1e-12   # deviation of the trace from 1 for normalized operators
TAU_PSD = 1e-10     # most negative eigenvalue tolerated, relative to trace


def _check_hermitian(m: np.ndarray,
                     message: str = "matrix is not Hermitian within tolerance") -> float:
    """Raise ``ValueError`` unless ``m`` is finite and Hermitian within TAU_HERM
    times its largest entry (at least 1); return that scale."""
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    # A deviation beyond the float range reads inf and fails the check below.
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.abs(m).max()))
        deviation = float(np.abs(m - m.conj().T).max())
    if not deviation <= TAU_HERM * scale:
        raise ValueError(message)
    return scale


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense Hermitian operator on an ordered tensor product of subsystems.

    ``normalized`` asserts unit trace and ``state`` asserts positive
    semidefiniteness.  Unnormalized or indefinite operators (witnesses,
    partial transposes, unnormalized projections) are first class: construct
    them with the matching flag off.  Normalization is always an explicit
    flag, never implied.

    Constructing one checks the shape against ``dims``, that every entry is
    finite, Hermiticity, and what the flags assert (the PSD check runs
    ``eigvalsh``).  This is where outside data enters, along with
    ``density_matrix_from_json``.  An operator with both flags off may carry
    non-finite entries, unchecked, since no tolerance applies to them (so a
    NaN result can still be written out).  Library results whose properties
    follow from a check that already ran (tensor products, permutations,
    partial traces and transposes, X-form and product-form expansions) are
    built by ``_unchecked`` instead, which skips these checks and the copy.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    normalized: bool = True
    state: bool = True

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        d = int(np.prod(self.dims))
        if mat.ndim != 2 or mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {self.dims}")
        if any(dim < 2 for dim in self.dims):
            raise ValueError("every subsystem dimension must be at least 2")
        if not (self.normalized or self.state):
            if np.isfinite(mat).all():
                _check_hermitian(mat)
            return
        _check_hermitian(mat)
        # Finite entries can still sum beyond the float range: the trace then
        # reads +-inf or NaN, which every check below rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            trace = self.trace
        if self.normalized and not abs(trace - 1.0) <= TAU_TRACE:
            raise ValueError(f"trace {trace} is not 1 within tolerance")
        if self.state:
            lo = float(np.linalg.eigvalsh(mat)[0])
            # The tolerance scales with the trace, which must then be finite; a
            # PSD operator has a nonnegative trace, so a negative one sets no scale.
            if not -lo <= TAU_PSD * max(trace, 1.0) < math.inf:
                raise ValueError(f"operator is not PSD: min eigenvalue {lo}, trace {trace}")

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def _unchecked(mat: np.ndarray, dims: tuple[int, ...], normalized: bool,
               state: bool) -> DensityMatrix:
    """A ``DensityMatrix`` built without its checks and without a copy.

    Only for library results whose properties follow from a check that
    already ran; each caller names that check.  ``mat`` must be a complex
    array of shape ``(prod(dims),) * 2`` and ``dims`` a tuple of ints; the
    array is frozen in place.
    """
    mat.setflags(write=False)
    dm = object.__new__(DensityMatrix)
    object.__setattr__(dm, "mat", mat)
    object.__setattr__(dm, "dims", dims)
    object.__setattr__(dm, "normalized", normalized)
    object.__setattr__(dm, "state", state)
    return dm


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; subsystem lists concatenate and traces multiply."""
    # Both factors were checked; a product of Hermitian (PSD) factors is Hermitian (PSD).
    return _unchecked(np.kron(a.mat, b.mat), a.dims + b.dims,
                      normalized=a.normalized and b.normalized,
                      state=a.state and b.state)


def _check_subsystems(dm: DensityMatrix, subsystems: Iterable[int]) -> list[int]:
    subs = sorted(set(int(s) for s in subsystems))
    for s in subs:
        if s < 0 or s >= dm.n_subsystems:
            raise ValueError(f"subsystem index {s} out of range for dims {dm.dims}")
    return subs


def partial_transpose(dm: DensityMatrix, subsystems: Iterable[int]) -> DensityMatrix:
    """Transpose the listed tensor factors.

    Hermiticity and the trace are preserved; positivity is not, so the result
    is flagged unnormalized with PSD unknown.
    """
    subs = _check_subsystems(dm, subsystems)
    n = dm.n_subsystems
    t = dm.mat.reshape(dm.dims + dm.dims)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    out = t.transpose(axes).reshape(dm.dim, dm.dim)
    # dm was checked Hermitian; transposing factors keeps an operator Hermitian.
    return _unchecked(out, dm.dims, normalized=False, state=False)


def partial_trace(dm: DensityMatrix, discard: Iterable[int]) -> DensityMatrix:
    """Trace out the listed subsystems; the total trace is preserved."""
    subs = _check_subsystems(dm, discard)
    keep = [i for i in range(dm.n_subsystems) if i not in subs]
    if not keep:
        raise ValueError("cannot discard every subsystem")
    t = dm.mat.reshape(dm.dims + dm.dims)
    dims = list(dm.dims)
    for s in reversed(subs):
        t = np.trace(t, axis1=s, axis2=s + len(dims))
        dims.pop(s)
    d = int(np.prod(dims))
    # dm was checked; a partial trace keeps Hermiticity, the trace and positivity.
    return _unchecked(t.reshape(d, d), tuple(dims),
                      normalized=dm.normalized, state=dm.state)


def permute_subsystems(dm: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Relabel subsystems so that new position i holds old subsystem perm[i].

    A pure basis change: the spectrum is invariant and applying the inverse
    permutation restores the input exactly.
    """
    perm = [int(p) for p in perm]
    n = dm.n_subsystems
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    t = dm.mat.reshape(dm.dims + dm.dims)
    t = t.transpose(perm + [n + p for p in perm])
    new_dims = tuple(dm.dims[p] for p in perm)
    # dm was checked; a basis permutation keeps every property it asserts.
    return _unchecked(t.reshape(dm.dim, dm.dim), new_dims,
                      normalized=dm.normalized, state=dm.state)


def min_eigenvalue_hermitian(m: np.ndarray) -> float:
    """Smallest eigenvalue of a finite Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    _check_hermitian(m)
    return float(np.linalg.eigvalsh(m)[0])


def density_matrix_to_json(dm: DensityMatrix) -> dict:
    """Serialize to ``{"dims": [...], "re": [[...]], "im": [[...]]}`` (row-major)."""
    return {
        "dims": list(dm.dims),
        "re": dm.mat.real.tolist(),
        "im": dm.mat.imag.tolist(),
    }


def write_entries_json(dims: Sequence[int], indices: np.ndarray, values: np.ndarray,
                       fh: TextIO) -> None:
    """Write the bytes of ``json.dump(density_matrix_to_json(dm), fh)`` for the
    operator ``dm`` on ``dims`` whose entries at the ascending, distinct
    row-major flat ``indices`` are the complex ``values`` and whose other
    entries are +0.0.

    Of each part only the given entries whose bits are not those of +0.0 are
    formatted (so -0.0, NaN and inf are), all in one ``json.dumps`` call,
    whose C encoder is far faster than the pure-Python one ``json.dump``
    uses.  Each row is the all-zero row text, built once, with those entries
    spliced in; a row without any is written as that text.  No list of the
    whole matrix is ever held.
    """
    dims = [int(d) for d in dims]
    n = math.prod(dims)
    zero_row = "[" + ", ".join(["0.0"] * n) + "]"    # entry c starts at 1 + 5c
    fh.write('{"dims": ' + json.dumps(dims))
    for key, part in (("re", values.real), ("im", values.imag)):
        keep = part.view(np.uint64) != 0
        rows, cols = np.divmod(indices[keep], n)
        # Float reprs contain no ", ", so splitting recovers one text per entry.
        texts = json.dumps(part[keep].tolist())[1:-1].split(", ")
        ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
        cols = cols.tolist()
        fh.write(f', "{key}": [')
        start = 0
        for i, end in enumerate(ends):
            if i:
                fh.write(", ")
            if start == end:
                fh.write(zero_row)
                continue
            pieces = []
            prev = 0
            for j in range(start, end):
                at = 1 + 5 * cols[j]
                pieces += (zero_row[prev:at], texts[j])
                prev = at + 3
            pieces.append(zero_row[prev:])
            fh.write("".join(pieces))
            start = end
        fh.write("]")
    fh.write("}")


def density_matrix_from_json(obj: dict, normalized: bool = True,
                             state: bool = True) -> DensityMatrix:
    mat = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
    return DensityMatrix(mat, tuple(obj["dims"]), normalized=normalized, state=state)
