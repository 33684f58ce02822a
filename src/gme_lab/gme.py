"""Genuine-multipartite-entanglement detection for X-form states and the
copy-activation thresholds of the isotropic GHZ family.

The GM concurrence of an X-form operator with blocks (a, b, z) is

    C_GM = 2 * max(0, max_i |z_i| - sum_{j != i} sqrt(a_j b_j)),

positive values certify GME.  Componentwise (Schur) multiplication of two
X-form states is an SLOCC-implementable map, so iterating it over k copies
of a biseparable state and finding positive GM concurrence proves that the
k copies jointly carry GME.  For the isotropic GHZ family this yields the
closed-form k-copy activation threshold

    p_gme(N, k) = r / (2^(N-1) + r),   r = (2^(N-1) - 1)^(1/k),

which decreases strictly in k (for N >= 3) toward the partition-separability
bound 1/(1 + 2^(N-1)).  For N = 2 all of these coincide at 1/3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import TAU_TRACE
from .states import XFormState, _check_isotropic_p

__all__ = [
    "ZeroTraceError",
    "ThresholdReport",
    "ActivationReport",
    "gm_concurrence_xform",
    "gm_concurrence_isotropic",
    "single_copy_threshold",
    "k_copy_threshold",
    "partition_separability_threshold",
    "iterated_hadamard",
    "activation_classification",
]


class ZeroTraceError(ValueError):
    """Raised when a Schur product has vanishing trace and cannot be normalized."""


@dataclass(frozen=True)
class ThresholdReport:
    """A named threshold value of the isotropic GHZ family.

    ``kind`` is one of ``single_copy``, ``k_copy``, ``partition_separability``;
    ``k`` is None for the partition-separability bound.
    """

    n_qubits: int
    k: int | None
    p_threshold: float
    kind: str
    note: str | None = None


@dataclass(frozen=True)
class ActivationReport:
    """Outcome of scanning copy counts 1..k_max for GME activation."""

    n_qubits: int
    p: float
    k_max: int
    copies: int | None          # smallest k with p > p_gme(N, k), if any
    partition_separable: bool   # p <= partition-separability bound

    @property
    def detected(self) -> bool:
        return self.copies is not None


def gm_concurrence_xform(x: XFormState) -> float:
    """GM concurrence of an X-form state; positive values certify GME."""
    roots = np.sqrt(np.clip(x.a * x.b, 0.0, None))
    total = roots.sum()
    best = float((np.abs(x.z) - (total - roots)).max())
    return 2.0 * max(0.0, best)


def gm_concurrence_isotropic(n_qubits: int, p: float) -> float:
    """Closed form max(0, |p| - (1-p)(1 - 2^(1-N))) for the isotropic family.

    p must lie in the admissible range, up to the slack
    :func:`isotropic_ghz` allows; NaN is rejected.  N must be at least 2.
    """
    _check_isotropic_p(n_qubits, p)
    return max(0.0, abs(p) - (1 - p) * (1 - 2.0 ** (1 - n_qubits)))


def single_copy_threshold(n_qubits: int) -> ThresholdReport:
    """GME threshold of a single copy: (2^(N-1) - 1) / (2^N - 1), the k = 1
    value of :func:`k_copy_threshold`."""
    value = k_copy_threshold(n_qubits, 1).p_threshold
    return ThresholdReport(n_qubits, 1, value, "single_copy")


def k_copy_threshold(n_qubits: int, k: int) -> ThresholdReport:
    """Activation threshold for k copies under the iterated Schur-product map."""
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    if k < 1:
        raise ValueError("need at least 1 copy")
    half = 2 ** (n_qubits - 1)
    if k == 1:
        # Exact integer division: the single-copy value for every N.
        value = (half - 1) / (2 * half - 1)
    elif n_qubits - 1 < sys.float_info.max_exp:
        root = (half - 1) ** (1.0 / k)
        value = root / (half + root)
    else:
        # half - 1 overflows a float; value = t / (1 + t) with t = root / half
        # taken in log space (t underflows to 0 long before it could overflow).
        t = math.exp(math.log(half - 1) / k - (n_qubits - 1) * math.log(2))
        value = t / (1 + t)
    note = "k=1 value equals the single-copy threshold" if k == 1 else None
    return ThresholdReport(n_qubits, k, value, "k_copy", note=note)


def partition_separability_threshold(n_qubits: int) -> ThresholdReport:
    """Bound 1/(1 + 2^(N-1)) below which the isotropic state is
    separable with respect to every bipartition (and hence never activatable)."""
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    value = 1 / (1 + 2 ** (n_qubits - 1))   # exact integer division, any N
    return ThresholdReport(n_qubits, None, value, "partition_separability")


def iterated_hadamard(x: XFormState, k: int) -> XFormState:
    """Result of merging k copies of an X-form state with the Schur-product map.

    On X-form data the map reduces to componentwise k-th powers of (a, b, z)
    followed by renormalization; k = 1 returns the input unchanged.
    """
    if k < 1:
        raise ValueError("need at least 1 copy")
    if k == 1:
        return x
    a = x.a ** k
    b = x.b ** k
    z = x.z ** k
    norm = float(a.sum() + b.sum())
    if norm <= TAU_TRACE:
        raise ZeroTraceError("all componentwise powers vanish")
    return XFormState(x.n_qubits, a / norm, b / norm, z / norm)


def activation_classification(n_qubits: int, p: float, k_max: int) -> ActivationReport:
    """Smallest copy count k <= k_max with p strictly above the k-copy threshold.

    This is an upper bound on the number of copies needed.  Values at or
    below the partition-separability bound are flagged: no number of copies
    can activate them.  Threshold comparisons are strict with no tolerance
    band; callers probing near a threshold must bring their own margin.
    p must lie in the admissible range up to the slack :func:`isotropic_ghz`
    allows; NaN is rejected.
    """
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    _check_isotropic_p(n_qubits, p)
    part_sep = p <= partition_separability_threshold(n_qubits).p_threshold
    copies = None
    for k in range(1, k_max + 1):
        if p > k_copy_threshold(n_qubits, k).p_threshold:
            copies = k
            break
    return ActivationReport(n_qubits, p, k_max, copies, part_sep)
