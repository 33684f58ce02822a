"""GME activation from undistillable (PPT) entanglement.

The construction chains three stages:

1.  A one-parameter family of two-qutrit states that are entangled yet PPT,
    built from the coherent rank-one part (|00>+|11>+|22>)(<00|+<11|+<22|)
    plus diagonal noise p on {01, 12, 20} and 1/p on {02, 10, 21},
    normalized by N_p = 3 (1 + p + 1/p).

2.  "Triangle" arrangements of three such pair states among three parties:
    party 1 holds one qutrit of the y-pair and one of the x-pair, party 2
    one of the x-pair and one of the z-pair, party 3 one of the z-pair and
    one of the y-pair.  Projecting each party onto its twin-diagonal qutrit
    subspace |ii> and applying a fixed three-qutrit witness W3 detects GME
    for suitable parameters; the witness expectation value has the closed
    form 3 (x y + z/x + y z - 1) / (N_x N_y N_z) on the unnormalized
    projection.  A two-pair "wedge" variant works the same way with closed
    form 3 (x + y + x y - 1) / (N_x N_y).

3.  A nine-subsystem biseparable source state from which three parties
    holding three copies can cut out a triangle by local projections,
    proving that GME can be activated from states whose every bipartition
    is PPT (hence undistillable).

Each subsystem of the source state has dimension 4: a flag direction |0>
plus three levels carrying an embedded qutrit.  Parameters are tied to the
party pair sharing them: x to parties {1,2}, y to {1,3}, z to {2,3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DensityMatrix, _unchecked, permute_subsystems, tensor
from .states import (
    ProductFormState,
    ProductTerm,
    product_form_partial_trace,
    product_form_project,
    product_form_submatrix,
    product_form_tensor,
)

__all__ = [
    "NonPositiveParameterError",
    "qutrit_ppt_normalization",
    "qutrit_ppt_state",
    "triangle_state",
    "TRIANGLE_SUBSYSTEMS",
    "TRIANGLE_PARTY_SUBSYSTEMS",
    "witness_w3",
    "witness_trace_triangle",
    "witness_trace_triangle_dense",
    "wedge_state",
    "witness_trace_wedge",
    "witness_trace_wedge_dense",
    "FLAG_DIM",
    "uncorrelated_party_state",
    "biseparable_source_state",
    "simulate_locc_triangle",
    "LoccTriangleResult",
]


class NonPositiveParameterError(ValueError):
    """Raised when a pair-state parameter is not strictly positive and finite,
    or overflows the pair normalization."""


def qutrit_ppt_normalization(p: float) -> float:
    """Normalization N_p = 3 (1 + p + 1/p) of the PPT pair family.

    Raises for p that is not positive and finite, and for p so small or so
    large that 1/p or N_p overflows (a subnormal p, or p near the float limit).
    """
    if not 0 < p < math.inf:
        raise NonPositiveParameterError(
            f"parameter must be positive and finite, got {p}")
    norm = 3.0 * (1.0 + p + 1.0 / p)
    if not math.isfinite(norm):
        raise NonPositiveParameterError(
            f"parameter {p} makes 1/p or the normalization overflow")
    return norm


def qutrit_ppt_state(p: float) -> DensityMatrix:
    """Two-qutrit PPT entangled state with parameter p > 0.

    The partial transpose has the threefold-degenerate spectrum
    {0, 1/N_p, (p + 1/p)/N_p} and is therefore positive for every p.
    """
    norm = qutrit_ppt_normalization(p)
    a, b = np.unravel_index(np.arange(9), (3, 3))
    # Noise p on |01>, |12>, |20> and 1/p on |02>, |10>, |21>, then v v^T
    # with v = |00> + |11> + |22>.
    mat = np.diag(np.array([0.0, p, 1.0 / p])[(b - a) % 3]).astype(complex)
    twins = np.flatnonzero(a == b)
    mat[np.ix_(twins, twins)] = 1.0
    # qutrit_ppt_normalization checked p > 0 and N_p finite: v v^T plus a
    # nonnegative diagonal, over its trace N_p, is a real unit-trace state.
    return _unchecked(mat / norm, (3, 3), normalized=True, state=True)


# Qutrit order of the dense triangle state and which party holds what.
TRIANGLE_SUBSYSTEMS = ("A2", "A3", "B1", "B3", "C1", "C2")
TRIANGLE_PARTY_SUBSYSTEMS = {1: (2, 4), 2: (0, 5), 3: (1, 3)}


def triangle_state(x: float, y: float, z: float) -> ProductFormState:
    """Product of three PPT pair states arranged in a triangle.

    Subsystem order (A2, A3, B1, B3, C1, C2); party 1 holds (B1, C1),
    party 2 holds (A2, C2), party 3 holds (A3, B3).  The pair shared by
    parties 2 and 3 occupies (A2, A3) and carries parameter z, the pair of
    parties 1 and 3 occupies (B1, B3) with parameter y, and the pair of
    parties 1 and 2 occupies (C1, C2) with parameter x.  This assignment of
    the parameters to the pairs is the one under which the closed-form
    witness expressions below hold.
    """
    factors = (qutrit_ppt_state(z), qutrit_ppt_state(y), qutrit_ppt_state(x))
    return ProductFormState((ProductTerm(1.0, factors),), (3,) * 6)


# Dense-expansion index of |ii>_{B1 C1} |jj>_{A2 C2} |kk>_{A3 B3}, listed in
# the subspace order |i>|j>|k>: (A2, A3, B1, B3, C1, C2) = (j, k, i, k, i, j).
_I, _J, _K = np.unravel_index(np.arange(27), (3, 3, 3))
_TRIANGLE_ROWS = np.ravel_multi_index((_J, _K, _I, _K, _I, _J), (3,) * 6)


_W3_DIAGONAL = (
    (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 1),
    (1, 1, 2), (1, 2, 2), (2, 0, 0), (2, 1, 2), (2, 2, 0), (2, 2, 2),
)


@lru_cache(maxsize=1)
def witness_w3() -> DensityMatrix:
    """Three-qutrit GME witness: twelve diagonal projectors minus the
    coherences among |000>, |111>, |222>.  Negative expectation values
    certify GME; the operator has trace 12 and is not positive."""
    mat = np.zeros((27, 27), dtype=complex)
    ghz = np.ravel_multi_index((np.arange(3),) * 3, (3, 3, 3))  # 000, 111, 222
    mat[np.ix_(ghz, ghz)] = -1.0   # its diagonal is overwritten below
    diag = np.ravel_multi_index(np.transpose(_W3_DIAGONAL), (3, 3, 3))
    mat[diag, diag] = 1.0
    return DensityMatrix(mat, (3, 3, 3), normalized=False, state=False)


def witness_trace_triangle(x: float, y: float, z: float) -> float:
    """Closed form 3 (x y + z/x + y z - 1) / (N_x N_y N_z).

    Equals the witness trace of the unnormalized twin-diagonal projection of
    ``triangle_state(x, y, z)``; negative values certify GME of the triangle.
    """
    x, y, z = float(x), float(y), float(z)  # overflow to inf without a warning
    nx, ny, nz = (qutrit_ppt_normalization(v) for v in (x, y, z))
    norms = nx * ny * nz
    if norms < math.inf:  # finite norms bound every term of the sum by norms / 9
        return 3.0 * (x * y + z / x + y * z - 1.0) / norms
    # The same sum as products of per-pair ratios, each at most 1/3.
    return 3.0 * ((x / nx) * (y / ny) / nz + (z / nz) / (x * nx) / ny
                  + (y / ny) * (z / nz) / nx - (1.0 / nx) * (1.0 / ny) / nz)


def witness_trace_triangle_dense(x: float, y: float, z: float) -> float:
    """Witness trace of the unnormalized projection, from the 27x27
    twin-diagonal submatrix gathered from the pair-state entries."""
    reduced = product_form_submatrix(triangle_state(x, y, z), _TRIANGLE_ROWS)
    return float(np.trace(witness_w3().mat @ reduced).real)


def wedge_state(x: float, y: float) -> ProductFormState:
    """Two PPT pairs sharing party 3: parameter x on (A2, A3), y on (B1, B3).

    Subsystem order (A2, A3, B1, B3); party 1 holds B1, party 2 holds A2,
    party 3 holds (A3, B3).
    """
    factors = (qutrit_ppt_state(x), qutrit_ppt_state(y))
    return ProductFormState((ProductTerm(1.0, factors),), (3,) * 4)


# Dense-expansion index of |i>_{B1} |j>_{A2} |kk>_{A3 B3}, listed in the
# subspace order |i>|j>|k>: (A2, A3, B1, B3) = (j, k, i, k).
_WEDGE_ROWS = np.ravel_multi_index((_J, _K, _I, _K), (3,) * 4)


def witness_trace_wedge(x: float, y: float) -> float:
    """Closed form 3 (x + y + x y - 1) / (N_x N_y) for the projected wedge."""
    x, y = float(x), float(y)  # overflow to inf without a warning
    nx, ny = qutrit_ppt_normalization(x), qutrit_ppt_normalization(y)
    norms = nx * ny
    if norms < math.inf:  # finite norms bound every term of the sum by norms / 9
        return 3.0 * (x + y + x * y - 1.0) / norms
    # The same sum as products of per-pair ratios, each at most 1/3.
    return 3.0 * ((x / nx) / ny + (y / ny) / nx + (x / nx) * (y / ny) - (1.0 / nx) / ny)


def witness_trace_wedge_dense(x: float, y: float) -> float:
    """Witness trace of the unnormalized wedge projection, from the 27x27
    submatrix gathered from the pair-state entries."""
    reduced = product_form_submatrix(wedge_state(x, y), _WEDGE_ROWS)
    return float(np.trace(witness_w3().mat @ reduced).real)


# --- biseparable source state and the three-copy protocol ------------------

FLAG_DIM = 4  # one flag direction |0> plus three embedded qutrit levels


def _qutrit_rows(n: int) -> np.ndarray:
    """Carrier index of every n-qutrit basis state: qutrit level l sits on
    level l+1 of its dim-4 carrier."""
    levels = np.unravel_index(np.arange(3 ** n), (3,) * n)
    return np.ravel_multi_index(tuple(lv + 1 for lv in levels), (FLAG_DIM,) * n)


def _embed_qutrit_pair(pair: DensityMatrix) -> DensityMatrix:
    """Lift a two-qutrit state onto levels 1..3 of two dim-4 carriers."""
    rows = _qutrit_rows(2)
    mat = np.zeros((FLAG_DIM ** 2,) * 2, dtype=complex)
    mat[np.ix_(rows, rows)] = pair.mat
    # pair was checked; placing it on a principal block keeps every property it asserts.
    return _unchecked(mat, (FLAG_DIM, FLAG_DIM),
                      normalized=pair.normalized, state=pair.state)


@lru_cache(maxsize=1)
def _flag_dm() -> DensityMatrix:
    mat = np.zeros((FLAG_DIM, FLAG_DIM), dtype=complex)
    mat[0, 0] = 1.0
    return DensityMatrix(mat, (FLAG_DIM,))


@lru_cache(maxsize=1)
def uncorrelated_party_state() -> DensityMatrix:
    """State of the lone party in each source term: maximally mixed on the
    three non-flag levels, hence exactly orthogonal to the flag direction."""
    mat = np.diag([0.0, 1 / 3, 1 / 3, 1 / 3]).astype(complex)
    return DensityMatrix(mat, (FLAG_DIM,))


def biseparable_source_state(p1: float, p2: float, p3: float,
                             x: float, y: float, z: float) -> ProductFormState:
    """Nine-subsystem three-party state, biseparable and PPT across every cut.

    Each party m in {1,2,3} holds three dim-4 subsystems, one per slot
    n in {1,2,3}; the global order is slot-major:
    (A1^(1), A2^(1), A3^(1), A1^(2), ..., A3^(3)).  The term with weight p_i
    puts the lone-party state on A_i^(i), a PPT pair on the other two
    slot-i subsystems, and the flag |0><0| everywhere else, so each term
    leaves party i uncorrelated and the mixture is biseparable by
    construction.  Pair parameters follow the party-pair convention of
    ``triangle_state``: x for parties {1,2}, y for {1,3}, z for {2,3}.
    Terms with zero weight are omitted.
    """
    probs = (p1, p2, p3)
    if not all(0 <= pi < math.inf for pi in probs) or abs(sum(probs) - 1.0) > 1e-12:
        raise ValueError(
            f"probabilities {probs} must be finite, nonnegative and sum to 1")
    unc = uncorrelated_party_state()
    flag = _flag_dm()
    pair_param = {1: z, 2: y, 3: x}  # term i carries the pair missing party i
    flags3 = (flag, flag, flag)
    terms = []
    for i, weight in zip((1, 2, 3), probs):
        if weight == 0.0:
            continue
        pair = _embed_qutrit_pair(qutrit_ppt_state(pair_param[i]))
        if i == 1:
            block = (unc, pair)               # A1 | pair on (A2, A3)
        elif i == 2:
            # pair on (A1, A3) with the lone party in between
            arranged = permute_subsystems(tensor(pair, unc), (0, 2, 1))
            block = (arranged,)
        else:
            block = (pair, unc)               # pair on (A1, A2) | A3
        factors = flags3 * (i - 1) + block + flags3 * (3 - i)
        terms.append(ProductTerm(weight, factors))
    return ProductFormState(tuple(terms), (FLAG_DIM,) * 9)


@dataclass(frozen=True, eq=False)
class LoccTriangleResult:
    """Outcome of the three-copy protocol."""

    state: ProductFormState            # six qutrits, triangle subsystem order
    step_probabilities: tuple[float, float, float]
    probability: float


# Flag-orthogonal projector used by the protocol.
_NOT_FLAG = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)

# Subsystem A_m^(n) of copy c sits at (c, n, m) of the slot-major joint
# state.  Copy c projects A_c^(c) and keeps the other two carriers of slot c.
_COPY, _SLOT, _PARTY = np.unravel_index(np.arange(27), (3, 3, 3))
_PROJECTED = np.flatnonzero((_SLOT == _COPY) & (_PARTY == _COPY)).tolist()
_KEPT = np.flatnonzero((_SLOT == _COPY) & (_PARTY != _COPY)).tolist()


def _restrict_carriers_to_qutrits(s: ProductFormState) -> ProductFormState:
    """Drop the unpopulated flag direction of every dim-4 carrier."""
    new_terms = []
    for term in s.terms:
        factors = []
        for f in term.factors:
            rows = _qutrit_rows(f.n_subsystems)
            reduced = f.mat[np.ix_(rows, rows)]
            # The flag-level diagonal itself: a trace difference would carry
            # the rounding of two sums, too large to test absolutely at scale.
            leak = float(np.abs(np.delete(f.mat.diagonal(), rows)).sum())
            if leak > 1e-12:
                raise ValueError(f"carrier has {leak:.2e} weight on the flag direction")
            # f was checked and the leak check keeps its trace: a principal
            # submatrix of a Hermitian (PSD) matrix is Hermitian (PSD).
            factors.append(_unchecked(reduced, (3,) * f.n_subsystems,
                                      normalized=f.normalized, state=f.state))
        new_terms.append(ProductTerm(term.weight, tuple(factors)))
    return ProductFormState(tuple(new_terms), (3,) * len(s.global_dims),
                            normalized=s.normalized)


def simulate_locc_triangle(
        copies: tuple[ProductFormState, ProductFormState, ProductFormState],
) -> LoccTriangleResult:
    """Run the three-copy reduction to a PPT-triangle state, exactly.

    Copy 1 projects its lone-party subsystem A1^(1) onto the complement of
    the flag, copy 2 projects A2^(2), copy 3 projects A3^(3); every term in
    which the projected subsystem is flagged is annihilated, so exactly one
    term per copy survives.  All remaining subsystems except the six pair
    carriers are discarded, and the carriers are restricted to their qutrit
    levels.  The result equals ``triangle_state(x, y, z)`` of the source
    parameters; the projections succeed with probabilities (p1, p2, p3),
    deterministically within each surviving term.
    """
    if len(copies) != 3:
        raise ValueError("need exactly three copies")
    for c in copies:
        if c.global_dims != (FLAG_DIM,) * 9:
            raise ValueError("copies must be nine-subsystem source states")
    joint = product_form_tensor(product_form_tensor(copies[0], copies[1]), copies[2])
    steps = []
    for idx in _PROJECTED:
        joint, prob = product_form_project(joint, idx, _NOT_FLAG)
        steps.append(prob)
    discard = set(range(27)) - set(_KEPT)
    reduced = product_form_partial_trace(joint, discard)
    state = _restrict_carriers_to_qutrits(reduced)
    total = steps[0] * steps[1] * steps[2]
    return LoccTriangleResult(state, (steps[0], steps[1], steps[2]), total)
