"""Partition-separability of isotropic GHZ states and the constructive
biseparable decomposition of two copies of the three-qubit state.

Two copies of the three-qubit isotropic GHZ state, with the six qubits
interleaved into the order A1 B1 A2 B2 A3 B3 (copy A, copy B), decompose as

    rho(p) (x) rho(p) = (1-2p)^2 rho_diag + p(3-7p) Gamma1
                        + p(1-p) Gamma2 + 4 p^2 Sigma,

where rho_diag is diagonal and Gamma1, Gamma2, Sigma are biseparable by
construction: convex mixtures of operators each separable across one of the
three collective bipartitions

    A1B1 | A2B2A3B3,    A1B1A2B2 | A3B3,    A2B2 | A1B1A3B3.

All four coefficients and the diagonal entries are simultaneously
nonnegative exactly for 0 <= p <= (4*sqrt(3) - 3)/13, so the two-copy state
is biseparable on that interval.  The identity itself is an exact matrix
equation and is used as the verification oracle throughout.

Basis labels follow the 1-based convention m = 1 + (binary number read off
the bit string i1 i2 i3 i4 i5 i6 of A1 B1 A2 B2 A3 B3).

One entry of the tabulated embedding data is internally inconsistent and is
repaired here; the repair is determined empirically by the identity oracle
(``search_gamma1_correction``) and recorded in every verification report.
The reading of the duplication isometries behind Sigma is likewise pinned
down by the oracle; see ``_sigma_rows``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .linalg import TAU_TRACE, DensityMatrix, _unchecked
from .states import Partition, isotropic_ghz, xform_pt_spectrum, xform_to_dense

TAU_DECOMP = 1e-10  # absolute tolerance on 64x64 decomposition entries

# Single-qubit states used by the separable building blocks.
_KET0 = np.array([1, 0], dtype=complex)
_KET1 = np.array([0, 1], dtype=complex)
_PLUS = (_KET0 + _KET1) / math.sqrt(2)
_MINUS = (_KET0 - _KET1) / math.sqrt(2)
_R = (_KET0 - 1j * _KET1) / math.sqrt(2)
_L = (_KET0 + 1j * _KET1) / math.sqrt(2)

# The three collective bipartitions, as position sets over A1 B1 A2 B2 A3 B3.
CUT_A1B1 = (frozenset({0, 1}), frozenset({2, 3, 4, 5}))
CUT_A3B3 = (frozenset({0, 1, 2, 3}), frozenset({4, 5}))
CUT_A2B2 = (frozenset({2, 3}), frozenset({0, 1, 4, 5}))
ALLOWED_CUTS = (CUT_A1B1, CUT_A3B3, CUT_A2B2)


class RectangleViolationError(ValueError):
    """Raised when four basis labels do not form a valid embedding rectangle."""


class UnsupportedNError(ValueError):
    """Raised for qubit counts the two-copy decomposition does not cover."""


@dataclass(frozen=True)
class EmbeddingSpec:
    """Four distinct basis labels forming a 2x2 rectangle across one cut.

    The labels must satisfy m1 <-> (i, i'), m2 <-> (i, j'), m3 <-> (j, i'),
    m4 <-> (j, j'): restricted to one side of an allowed bipartition the bit
    strings take exactly two values i != j, and on the other side exactly two
    values i' != j'.  The bipartition is inferred from which bit positions
    vary and validated against the allowed set.
    """

    m1: int
    m2: int
    m3: int
    m4: int

    def __post_init__(self):
        ms = (self.m1, self.m2, self.m3, self.m4)
        if any(not 1 <= m <= 64 for m in ms):
            raise RectangleViolationError(f"labels {ms} must lie in 1..64")
        if len(set(ms)) != 4:
            raise RectangleViolationError(f"labels {ms} are not distinct")
        # Bit strings i1..i6, one row per label.
        b1, b2, b3, b4 = np.transpose(np.unravel_index(np.subtract(ms, 1), (2,) * 6))
        var_d = frozenset(np.flatnonzero(b1 != b2).tolist())  # i' -> j'
        var_c = frozenset(np.flatnonzero(b1 != b3).tolist())  # i -> j
        if not var_d or not var_c or var_d & var_c:
            raise RectangleViolationError(f"labels {ms} do not span a rectangle")
        # m4 flips both sets of positions: b4 = b1 ^ (b1 ^ b2) ^ (b1 ^ b3).
        if not np.array_equal(b4, b1 ^ b2 ^ b3):
            raise RectangleViolationError(f"label m4={self.m4} breaks the rectangle {ms}")
        cut = None
        for side_a, side_b in ALLOWED_CUTS:
            if var_c <= side_a and var_d <= side_b:
                cut = (side_a, side_b)
            elif var_c <= side_b and var_d <= side_a:
                cut = (side_b, side_a)
            if cut is not None:
                break
        if cut is None:
            raise RectangleViolationError(
                f"rectangle {ms} does not respect any allowed bipartition")
        object.__setattr__(self, "_cut", cut)

    @property
    def bipartition(self) -> tuple[frozenset[int], frozenset[int]]:
        """(C, D) position sets; m1->m3 varies inside C, m1->m2 inside D."""
        return self._cut  # type: ignore[attr-defined]

    @property
    def labels(self) -> tuple[int, int, int, int]:
        return (self.m1, self.m2, self.m3, self.m4)


@lru_cache(maxsize=1)
def gamma_base() -> DensityMatrix:
    """Separable two-qubit state: equal mixture of |++>, |-->, |rl>, |lr>.

    Its dense form is diag(1/4, 1/4, 1/4, 1/4) plus 1/4 on the (|00>, |11>)
    anti-diagonal corners; every other entry cancels in the mixture.
    """
    kets = [np.kron(_PLUS, _PLUS), np.kron(_MINUS, _MINUS),
            np.kron(_R, _L), np.kron(_L, _R)]
    mat = sum(np.outer(v, v.conj()) for v in kets) / 4.0
    return DensityMatrix(mat, (2, 2))


def _place(block: np.ndarray, idx) -> np.ndarray:
    """64x64 matrix holding ``block`` on the rows and columns ``idx``."""
    out = np.zeros((64, 64), dtype=complex)
    out[np.ix_(idx, idx)] = block
    return out


def _embed_raw(labels: tuple[int, int, int, int]) -> np.ndarray:
    """Image of gamma_base under |00>,|01>,|10>,|11> -> |m1>,|m2>,|m3>,|m4>.

    No rectangle validation: used for data-as-given residual checks and for
    the repair search.
    """
    return _place(gamma_base().mat, [m - 1 for m in labels])


def embed_gamma(spec: EmbeddingSpec) -> DensityMatrix:
    """Six-qubit embedding of ``gamma_base``, separable across ``spec.bipartition``."""
    return DensityMatrix(_embed_raw(spec.labels), (2,) * 6)


# Tabulated embedding labels, verbatim.  The 20th Gamma1 entry repeats an
# index and fails the rectangle condition; GAMMA1_TUPLES carries the unique
# single-index repair that makes the decomposition identity exact (the
# search in ``search_gamma1_correction`` recovers it from scratch).
GAMMA1_SUSPECT_TUPLE = (11, 12, 31, 31)
GAMMA1_REPAIRED_TUPLE = (11, 12, 31, 32)
GAMMA1_CORRECTION = "gamma(11,12,31,31) -> gamma(11,12,31,32)"

GAMMA1_TUPLES_PRINTED: tuple[tuple[int, int, int, int], ...] = (
    (2, 10, 36, 44), (2, 12, 34, 44), (33, 37, 50, 54), (3, 7, 20, 24),
    (3, 8, 19, 24), (5, 7, 45, 47), (5, 15, 37, 47), (9, 10, 29, 30),
    (9, 14, 25, 30), (18, 20, 58, 60), (18, 28, 50, 60), (41, 45, 58, 62),
    (41, 46, 57, 62), (21, 29, 55, 63), (21, 31, 53, 63), (35, 36, 55, 56),
    (35, 40, 51, 56), (6, 8, 46, 48), (6, 14, 40, 48), GAMMA1_SUSPECT_TUPLE,
    (11, 15, 28, 32), (17, 19, 57, 59), (17, 25, 51, 59), (33, 34, 53, 54),
)
GAMMA1_TUPLES: tuple[tuple[int, int, int, int], ...] = tuple(
    GAMMA1_REPAIRED_TUPLE if t == GAMMA1_SUSPECT_TUPLE else t
    for t in GAMMA1_TUPLES_PRINTED
)

GAMMA2_TUPLES: tuple[tuple[int, int, int, int], ...] = (
    (1, 2, 21, 22), (1, 5, 18, 22), (1, 6, 17, 22), (1, 3, 41, 43),
    (1, 9, 35, 43), (1, 11, 33, 43), (22, 24, 62, 64), (22, 30, 56, 64),
    (22, 32, 54, 64), (43, 44, 63, 64), (43, 47, 60, 64), (43, 48, 59, 64),
)


def _mixture_of_embeddings(tuples) -> np.ndarray:
    return sum(_embed_raw(t) for t in tuples) / len(tuples)


def _checked_mixture(tuples) -> DensityMatrix:
    """Mixture of embeddings whose every label tuple forms a rectangle."""
    for t in tuples:
        EmbeddingSpec(*t)
    return DensityMatrix(_mixture_of_embeddings(tuples), (2,) * 6)


@lru_cache(maxsize=1)
def gamma_big_1() -> DensityMatrix:
    """Equal mixture of the 24 Gamma1 embeddings (repaired label list)."""
    return _checked_mixture(GAMMA1_TUPLES)


@lru_cache(maxsize=1)
def gamma_big_2() -> DensityMatrix:
    """Equal mixture of the 12 Gamma2 embeddings."""
    return _checked_mixture(GAMMA2_TUPLES)


# Four-qubit separable state sigma: equal mixture of sixteen product states.
_SIGMA_KETS = (
    (_PLUS, _PLUS, _PLUS, _PLUS), (_PLUS, _MINUS, _PLUS, _MINUS),
    (_MINUS, _PLUS, _MINUS, _PLUS), (_MINUS, _MINUS, _MINUS, _MINUS),
    (_PLUS, _R, _PLUS, _L), (_PLUS, _L, _PLUS, _R),
    (_MINUS, _R, _MINUS, _L), (_MINUS, _L, _MINUS, _R),
    (_R, _PLUS, _L, _PLUS), (_R, _MINUS, _L, _MINUS),
    (_L, _PLUS, _R, _PLUS), (_L, _MINUS, _R, _MINUS),
    (_R, _R, _L, _L), (_R, _L, _L, _R), (_L, _R, _R, _L), (_L, _L, _R, _R),
)


@lru_cache(maxsize=1)
def sigma_base() -> DensityMatrix:
    """The four-qubit separable mixture; qubits (1,3) and (2,4) each pair
    into a copy of ``gamma_base`` (sigma equals gamma x gamma interleaved)."""
    mats = []
    for kets in _SIGMA_KETS:
        v = kets[0]
        for k in kets[1:]:
            v = np.kron(v, k)
        mats.append(np.outer(v, v.conj()))
    return DensityMatrix(sum(mats) / 16.0, (2, 2, 2, 2))


def _sigma_rows(k: int) -> np.ndarray:
    """Six-qubit basis index of each of sigma's 16 basis states, duplicated.

    sigma's qubits (q1, q2, q3, q4) land as: q1 at copy-A position k, q2 at
    copy-B position k, q3 on both remaining copy-A positions, q4 on both
    remaining copy-B positions.  The image therefore consists of basis
    states whose copy-A bits agree outside position k and likewise for
    copy B.  Duplication acts within each copy; this (rather than pairing
    the two copies position by position) is what the exact decomposition
    identity requires.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    q1, q2, q3, q4 = np.unravel_index(np.arange(16), (2,) * 4)
    bits = [q3, q4] * 3                      # A1 B1 A2 B2 A3 B3
    bits[2 * k - 2], bits[2 * k - 1] = q1, q2
    return np.ravel_multi_index(bits, (2,) * 6)


def sigma_embedded_term(k: int) -> tuple[DensityMatrix, tuple[frozenset[int], frozenset[int]]]:
    """One duplicated image of sigma and the bipartition it is separable across.

    Every pure term of sigma maps to a product of four factors: one single
    qubit in each copy at position k plus one duplicated pair per copy, so
    the image is separable across the cut isolating position k's qubit pair.
    """
    mat = _place(sigma_base().mat, _sigma_rows(k))
    cut = {1: CUT_A1B1, 2: CUT_A2B2, 3: CUT_A3B3}[k]
    return DensityMatrix(mat, (2,) * 6), cut


@lru_cache(maxsize=1)
def sigma_big() -> DensityMatrix:
    """Equal mixture of the three duplicated sigma images."""
    mat = sum(sigma_embedded_term(k)[0].mat for k in (1, 2, 3)) / 3.0
    return DensityMatrix(mat, (2,) * 6)


# Diagonal remainder: 1-based labels and the polynomial giving 64*(1-2p)^2
# times their diagonal entry.
RHO_DIAG_CLASSES: tuple[tuple[tuple[int, ...], Callable[[float], float]], ...] = (
    ((1, 22, 43, 64), lambda p: (1 - p) ** 2),
    ((2, 3, 5, 6, 9, 11, 17, 18, 21, 24, 30, 32,
      33, 35, 41, 44, 47, 48, 54, 56, 59, 60, 62, 63),
     lambda p: 1 - 10.0 / 3.0 * p + 7.0 / 3.0 * p ** 2),
    ((4, 13, 16, 23, 26, 27, 38, 39, 42, 49, 52, 61),
     lambda p: 1 - 2 * p - 13.0 / 3.0 * p ** 2),
    ((7, 8, 10, 12, 14, 15, 19, 20, 25, 28, 29, 31,
      34, 36, 37, 40, 45, 46, 50, 51, 53, 55, 57, 58),
     lambda p: 1 - 6 * p + 31.0 / 3.0 * p ** 2),
)


def _rho_diag_numerators(p: float) -> np.ndarray:
    out = np.zeros(64)
    for labels, poly in RHO_DIAG_CLASSES:
        for m in labels:
            out[m - 1] = poly(p)
    return out


def rho_diag_closed_form(p: float) -> DensityMatrix:
    """Diagonal remainder of the decomposition.

    For p != 1/2 the entries are the class polynomials divided by
    64 (1-2p)^2, a normalized diagonal state wherever all classes are
    nonnegative.  At p = 1/2 the prefactor vanishes; the limit of the
    weighted product is returned instead: the unnormalized numerator matrix
    (entries poly(1/2)/64, trace 0).  ``normalized`` follows the computed
    trace: near p = 1/2 the classes cancel and the trace drifts from 1.
    """
    scale = 64.0 if p == 0.5 else 64.0 * (1 - 2 * p) ** 2
    mat = np.diag(_rho_diag_numerators(p) / scale).astype(complex)
    normalized = abs(float(np.trace(mat).real) - 1.0) <= TAU_TRACE
    # Real and diagonal by construction, hence Hermitian; the flag is the trace check.
    return _unchecked(mat, (2,) * 6, normalized=normalized, state=False)


@dataclass(frozen=True, eq=False)
class BisepComponent:
    """One weighted component; ``separability`` is ``diagonal`` for the
    remainder and ``biseparable`` for the convex mixtures of cut-separable
    pieces (whose individual cuts are exposed by ``embed_gamma`` and
    ``sigma_embedded_term``)."""

    label: str
    weight: float
    state: DensityMatrix
    separability: str


@dataclass(frozen=True, eq=False)
class BisepDecomposition:
    """Four-component decomposition of the interleaved two-copy state."""

    p: float
    components: tuple[BisepComponent, ...]
    target: DensityMatrix
    residual_max: float
    diag_min: float
    valid: bool
    gamma1_correction: str

    @property
    def weights(self) -> dict[str, float]:
        return {c.label: c.weight for c in self.components}


# One-copy row index of copy A, bits (i1, i3, i5), and of copy B, bits
# (i2, i4, i6), for each interleaved basis index i1 i2 i3 i4 i5 i6.
_INTERLEAVED = np.unravel_index(np.arange(64), (2,) * 6)
_COPY_A = np.ravel_multi_index(_INTERLEAVED[0::2], (2,) * 3)
_COPY_B = np.ravel_multi_index(_INTERLEAVED[1::2], (2,) * 3)
_GATHER_A = np.ix_(_COPY_A, _COPY_A)
_GATHER_B = np.ix_(_COPY_B, _COPY_B)


def two_copy_target(p: float) -> DensityMatrix:
    """Two copies of the three-qubit isotropic state, interleaved to
    A1 B1 A2 B2 A3 B3.

    Each entry is gathered from the 8x8 X-form matrix r as
    r[rA, cA] * r[rB, cB], the product ``numpy.kron`` forms, so the result
    equals the permuted Kronecker square bit for bit.
    """
    one = xform_to_dense(isotropic_ghz(3, p))
    r = one.mat
    # XFormState checked the one-copy state; a product of two states is a state.
    return _unchecked(r[_GATHER_A] * r[_GATHER_B], (2,) * 6,
                      normalized=one.normalized, state=True)


def _identity_residual(p: float, diag_term: np.ndarray, g1: np.ndarray,
                       target: np.ndarray) -> float:
    """Max-norm residual of the decomposition identity at p, given the
    weighted diagonal remainder and the Gamma1 mixture."""
    total = (diag_term + p * (3 - 7 * p) * g1 + p * (1 - p) * gamma_big_2().mat
             + 4 * p * p * sigma_big().mat)
    return float(np.abs(total - target).max())


def two_copy_decomposition(p: float) -> BisepDecomposition:
    """Evaluate the decomposition at p and verify it against the target.

    ``valid`` is True when every weight and every diagonal entry is
    nonnegative (within TAU_DECOMP), i.e. when the decomposition certifies
    biseparability of the two-copy state.  The residual against the exact
    two-copy state is reported; the identity holds for every admissible p.
    """
    target = two_copy_target(p)
    diag = rho_diag_closed_form(p)
    # At p = 1/2 the (1-2p)^2 prefactor vanishes and is folded into ``diag``.
    w_diag = 1.0 if p == 0.5 else (1 - 2 * p) ** 2
    components = (
        BisepComponent("rho_diag", w_diag, diag, "diagonal"),
        BisepComponent("gamma_1", p * (3 - 7 * p), gamma_big_1(), "biseparable"),
        BisepComponent("gamma_2", p * (1 - p), gamma_big_2(), "biseparable"),
        BisepComponent("sigma", 4 * p * p, sigma_big(), "biseparable"),
    )
    residual = _identity_residual(p, w_diag * diag.mat, gamma_big_1().mat, target.mat)
    diag_min = float(np.diag(diag.mat).real.min())
    valid = all(c.weight >= -TAU_DECOMP for c in components) and diag_min >= -TAU_DECOMP
    return BisepDecomposition(p, components, target, residual, diag_min,
                              valid, GAMMA1_CORRECTION)


def two_copy_residual(p: float, gamma1_tuples=GAMMA1_TUPLES) -> float:
    """Max-norm residual of the identity for an arbitrary Gamma1 label list.

    Labels are taken as data with no rectangle validation, so the verbatim
    tabulated list can be checked as-is.
    """
    return _identity_residual(p, np.diag(_rho_diag_numerators(p) / 64.0),
                              _mixture_of_embeddings(gamma1_tuples),
                              two_copy_target(p).mat)


def search_gamma1_correction(p_check: float = 0.1,
                             tol: float = TAU_DECOMP) -> list[tuple[int, int, int, int]]:
    """Find every single-index repair of the broken Gamma1 tuple.

    Tries all substitutions of one label of the suspect tuple by 1..64,
    keeps candidates that form a valid embedding rectangle, and returns
    those driving the identity residual below ``tol``.  Exactly one survives.
    """
    found = []
    for pos, value in itertools.product(range(4), range(1, 65)):
        # Only the suspect tuple itself repeats, and it is no rectangle.
        cand = GAMMA1_SUSPECT_TUPLE[:pos] + (value,) + GAMMA1_SUSPECT_TUPLE[pos + 1:]
        try:
            EmbeddingSpec(*cand)
        except RectangleViolationError:
            continue
        tuples = tuple(cand if t == GAMMA1_SUSPECT_TUPLE else t
                       for t in GAMMA1_TUPLES_PRINTED)
        if two_copy_residual(p_check, tuples) <= tol:
            found.append(cand)
    return found


def bisep_validity_interval() -> tuple[float, float]:
    """Exact parameter interval on which the decomposition is valid.

    Intersection of the weight conditions p(3-7p) >= 0 and p(1-p) >= 0
    (the squares (1-2p)^2 and 4p^2 are always nonnegative) with the four
    diagonal-class conditions: (1-p)^2 and 1-6p+31/3 p^2 are nonnegative
    everywhere, 1-10/3 p+7/3 p^2 is nonnegative for p <= 3/7 (or p >= 1),
    and 1-2p-13/3 p^2 is nonnegative between the roots (-3 +- 4 sqrt(3))/13
    of 13 p^2 + 6 p - 3.
    """
    root_lo = (-3 - 4 * math.sqrt(3)) / 13
    root_hi = (-3 + 4 * math.sqrt(3)) / 13
    lo = max(0.0, root_lo)           # p >= 0 from both weight conditions
    hi = min(3.0 / 7.0, 1.0, root_hi)
    return lo, hi


def all_bipartitions(n_qubits: int) -> list[Partition]:
    """All 2^(N-1) - 1 bipartitions of N parties, each listed once."""
    parties = set(range(n_qubits))
    cuts = []
    # Every bipartition has exactly one side not containing party 0.
    rest = sorted(parties - {0})
    for r in range(1, n_qubits):
        for side in itertools.combinations(rest, r):
            block = frozenset(side)
            cuts.append(Partition((block, frozenset(parties - block))))
    return cuts


def pt_min_eig_isotropic(n_qubits: int, p: float, cut: Partition) -> float:
    """Minimum eigenvalue of the partial transpose across a bipartition.

    Negative exactly when p exceeds the partition-separability threshold
    1/(1 + 2^(N-1)); by the permutation symmetry of the state the sign does
    not depend on the chosen cut.  Computed blockwise from the X-form by
    ``xform_pt_spectrum``.
    """
    if len(cut.blocks) != 2 or cut.n_parties != n_qubits:
        raise ValueError("cut must be a bipartition of all parties")
    return float(xform_pt_spectrum(isotropic_ghz(n_qubits, p), cut.blocks[0])[0])
