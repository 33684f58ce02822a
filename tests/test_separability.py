"""Tests for the two-copy biseparable decomposition and PPT analysis."""

import itertools
import math

import numpy as np
import pytest

from gme_lab.gme import k_copy_threshold
from gme_lab.linalg import (min_eigenvalue_hermitian, partial_transpose,
                             permute_subsystems, tensor)
from gme_lab.separability import (
    ALLOWED_CUTS,
    GAMMA1_CORRECTION,
    GAMMA1_REPAIRED_TUPLE,
    GAMMA1_SUSPECT_TUPLE,
    GAMMA1_TUPLES,
    GAMMA1_TUPLES_PRINTED,
    GAMMA2_TUPLES,
    EmbeddingSpec,
    RectangleViolationError,
    all_bipartitions,
    bisep_validity_interval,
    embed_gamma,
    gamma_base,
    gamma_big_1,
    gamma_big_2,
    ppt_crit,
    pt_min_eig_isotropic,
    rho_diag_closed_form,
    search_gamma1_correction,
    sigma_base,
    sigma_big,
    sigma_embedded_term,
    two_copy_decomposition,
    two_copy_residual,
    two_copy_target,
)
from gme_lab.states import Partition, isotropic_ghz, xform_to_dense


# ------------------------------------------------------------- gamma base

def test_gamma_diagonal_uniform():
    g = gamma_base()
    assert np.allclose(np.diag(g.mat), 0.25)


def test_gamma_corner_entries():
    # summing the four product projectors leaves 1/4 on the |00><11| corner
    # and cancels every other off-diagonal entry
    g = gamma_base().mat
    assert np.isclose(g[0, 3], 0.25)
    assert np.isclose(g[3, 0], 0.25)
    off = g - np.diag(np.diag(g))
    off[0, 3] = off[3, 0] = 0
    assert np.abs(off).max() < 1e-15


def test_gamma_is_ppt():
    pt = partial_transpose(gamma_base(), {0})
    assert min_eigenvalue_hermitian(pt.mat) >= -1e-12


# -------------------------------------------------------------- embeddings

def test_embedding_example_entries():
    emb = embed_gamma(EmbeddingSpec(1, 2, 21, 22)).mat
    quarter_positions = [(0, 0), (1, 1), (20, 20), (21, 21), (0, 21), (21, 0)]
    for r, c in quarter_positions:
        assert np.isclose(emb[r, c], 0.25)
    mask = np.ones((64, 64), dtype=bool)
    for r, c in quarter_positions:
        mask[r, c] = False
    assert np.abs(emb[mask]).max() < 1e-15


def test_embedding_trace_and_rank():
    emb = embed_gamma(EmbeddingSpec(2, 10, 36, 44))
    assert np.isclose(emb.trace, 1.0)
    assert np.linalg.matrix_rank(emb.mat, tol=1e-10) <= 4


def test_embedding_bipartition_inference():
    spec = EmbeddingSpec(1, 2, 21, 22)
    assert set(spec.bipartition) == {frozenset({0, 1, 2, 3}), frozenset({4, 5})}
    spec2 = EmbeddingSpec(2, 10, 36, 44)
    assert set(spec2.bipartition) == {frozenset({2, 3}), frozenset({0, 1, 4, 5})}


def test_suspect_tuple_rejected():
    with pytest.raises(RectangleViolationError):
        EmbeddingSpec(*GAMMA1_SUSPECT_TUPLE)


def test_non_rectangle_rejected():
    with pytest.raises(RectangleViolationError):
        EmbeddingSpec(1, 2, 3, 4)  # all variation within one block


def test_repaired_tuple_valid():
    spec = EmbeddingSpec(*GAMMA1_REPAIRED_TUPLE)
    assert set(spec.bipartition) == {frozenset({0, 1, 2, 3}), frozenset({4, 5})}


def test_every_listed_tuple_forms_a_rectangle():
    for t in GAMMA1_TUPLES + GAMMA2_TUPLES:
        EmbeddingSpec(*t)


# ------------------------------------------------------- mixture operators

def test_gamma1_trace_and_empty_first_label():
    g1 = gamma_big_1()
    assert np.isclose(g1.trace, 1.0)
    assert g1.mat[0, 0] == 0  # label m=1 appears in no tuple of the list


def test_gamma2_contains_first_embedding():
    # three tuples share the corner pair (1, 22), each contributing 1/4 / 12
    g2 = gamma_big_2()
    assert np.isclose(g2.trace, 1.0)
    assert np.isclose(g2.mat[0, 21], 3 * 0.25 / 12)


def test_separability_audit_gamma_embeddings():
    # every embedded piece is PPT across the bipartition it was built for
    for t in GAMMA1_TUPLES + GAMMA2_TUPLES:
        spec = EmbeddingSpec(*t)
        emb = embed_gamma(spec)
        side = spec.bipartition[0]
        pt = partial_transpose(emb, side)
        assert min_eigenvalue_hermitian(pt.mat) >= -1e-12, t


@pytest.mark.parametrize("build,tuples", [(gamma_big_1, GAMMA1_TUPLES),
                                          (gamma_big_2, GAMMA2_TUPLES)])
def test_gamma_mixture_equals_validated_oracle_exactly(build, tuples):
    oracle = sum(embed_gamma(EmbeddingSpec(*t)).mat for t in tuples) / len(tuples)
    assert build().mat.tobytes() == oracle.tobytes()  # values and sign bits


def count_constructions(monkeypatch):
    """Count eigvalsh calls and EmbeddingSpec constructions from here on."""
    counts = {"eigvalsh": 0, "EmbeddingSpec": 0}
    eigvalsh = np.linalg.eigvalsh
    spec_post_init = EmbeddingSpec.__post_init__

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_post_init(self):
        counts["EmbeddingSpec"] += 1
        spec_post_init(self)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(EmbeddingSpec, "__post_init__", counting_post_init)
    return counts


def test_gamma_labels_checked_once_on_first_build(monkeypatch):
    gamma_big_1.cache_clear()
    gamma_big_2.cache_clear()
    counts = count_constructions(monkeypatch)
    g1, g2 = gamma_big_1(), gamma_big_2()
    # each label tuple passes EmbeddingSpec once; each mixture one PSD check
    once = {"eigvalsh": 2, "EmbeddingSpec": len(GAMMA1_TUPLES + GAMMA2_TUPLES)}
    assert counts == once
    assert gamma_big_1() is g1 and gamma_big_2() is g2
    assert counts == once


def test_decomposition_after_warm_up_builds_no_constant_operator(monkeypatch):
    two_copy_decomposition(0.1)
    counts = count_constructions(monkeypatch)
    dec = two_copy_decomposition(0.2)
    # the target is gathered from the X-form, which was checked blockwise
    assert counts["eigvalsh"] == 0
    assert counts["EmbeddingSpec"] == 0
    assert dec.residual_max <= 1e-10


# ------------------------------------------------------------------ sigma

def test_sigma_base_diagonal_uniform():
    s = sigma_base()
    assert np.isclose(s.trace, 1.0)
    assert np.allclose(np.diag(s.mat), 1 / 16)


def test_sigma_base_fully_separable_hence_ppt():
    s = sigma_base()
    for subs in ({0}, {1}, {0, 1}, {0, 2}, {0, 1, 2}):
        pt = partial_transpose(s, subs)
        assert min_eigenvalue_hermitian(pt.mat) >= -1e-12


@pytest.mark.parametrize("k,same_a,same_b", [
    (1, (2, 4), (3, 5)),  # copy-A bits at A2, A3 agree; copy-B bits at B2, B3
    (2, (0, 4), (1, 5)),
    (3, (0, 2), (1, 3)),
])
def test_sigma_term_support_pattern(k, same_a, same_b):
    # the duplication acts within each copy: outside the kept position the
    # copy-A bits (and the copy-B bits) of every supported basis state agree
    term, _ = sigma_embedded_term(k)
    nz = np.argwhere(np.abs(term.mat) > 1e-14)
    for idx in set(nz[:, 0]) | set(nz[:, 1]):
        bits = [(idx >> (5 - pos)) & 1 for pos in range(6)]
        assert bits[same_a[0]] == bits[same_a[1]]
        assert bits[same_b[0]] == bits[same_b[1]]


def sigma_isometry(k):
    """64x16 0/1 isometry V with V sigma V^dagger the k-th duplicated image:
    q1 at copy-A position k, q2 at copy-B position k, q3 on both remaining
    copy-A positions, q4 on both remaining copy-B positions."""
    V = np.zeros((64, 16), dtype=complex)
    others = [i for i in range(3) if i != k - 1]
    for a1, b1, a2, b2, a3, b3 in itertools.product(range(2), repeat=6):
        a, b = (a1, a2, a3), (b1, b2, b3)
        if a[others[0]] != a[others[1]] or b[others[0]] != b[others[1]]:
            continue
        six = ((((a1 * 2 + b1) * 2 + a2) * 2 + b2) * 2 + a3) * 2 + b3
        four = ((a[k - 1] * 2 + b[k - 1]) * 2 + a[others[0]]) * 2 + b[others[0]]
        V[six, four] = 1.0
    return V


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sigma_term_equals_dense_isometry_oracle_exactly(k):
    V = sigma_isometry(k)
    oracle = V @ sigma_base().mat @ V.conj().T
    assert sigma_embedded_term(k)[0].mat.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("k", [0, 4])
def test_sigma_term_rejects_other_positions(k):
    with pytest.raises(ValueError):
        sigma_embedded_term(k)


def test_sigma_terms_separable_across_declared_cuts():
    for k in (1, 2, 3):
        term, cut = sigma_embedded_term(k)
        assert np.isclose(term.trace, 1.0)
        assert cut in ALLOWED_CUTS
        pt = partial_transpose(term, cut[0])
        assert min_eigenvalue_hermitian(pt.mat) >= -1e-12


def test_sigma_big_diagonal_formula():
    # diagonal = (1/48) * sum_k [copy-A bits agree off k][copy-B bits agree off k]
    big = sigma_big()
    assert np.isclose(big.trace, 1.0)
    diag = np.diag(big.mat).real
    for idx in range(64):
        bits = [(idx >> (5 - pos)) & 1 for pos in range(6)]
        a = bits[0], bits[2], bits[4]
        b = bits[1], bits[3], bits[5]
        expected = sum(
            (a[o1] == a[o2]) and (b[o1] == b[o2])
            for o1, o2 in ((1, 2), (0, 2), (0, 1))) / 48
        assert np.isclose(diag[idx], expected)


# ------------------------------------------------------- diagonal remainder

def test_rho_diag_entries():
    assert np.isclose(np.diag(rho_diag_closed_form(0.0).mat)[0].real, 1 / 64)
    # label m=4 belongs to the 1 - 2p - 13/3 p^2 class
    val = np.diag(rho_diag_closed_form(0.2).mat)[3].real
    assert np.isclose(val, (1 - 0.4 - 13 / 3 * 0.04) / (64 * 0.36))
    assert np.isclose(val, 0.0185185185, atol=1e-9)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.25])
def test_rho_diag_normalized(p):
    dm = rho_diag_closed_form(p)
    assert np.isclose(dm.trace, 1.0, atol=1e-12)
    assert dm.normalized


def test_rho_diag_limit_convention_at_half():
    dm = rho_diag_closed_form(0.5)
    assert not dm.normalized
    assert np.isclose(dm.trace, 0.0, atol=1e-14)  # numerator classes cancel
    assert np.isclose(np.diag(dm.mat)[0].real, 0.25 / 64)


# ------------------------------------------------------------ decomposition

def test_decomposition_identity_on_grid():
    for p in np.linspace(0.0, 0.3, 13):
        dec = two_copy_decomposition(p)
        assert dec.residual_max <= 1e-10
        assert dec.valid


def test_decomposition_weights():
    dec = two_copy_decomposition(0.2)
    w = dec.weights
    assert np.isclose(w["rho_diag"], 0.36)
    assert np.isclose(w["gamma_1"], 0.2 * (3 - 1.4))
    assert np.isclose(w["gamma_2"], 0.16)
    assert np.isclose(w["sigma"], 0.16)
    assert np.isclose(sum(w.values()), 1.0)
    assert dec.gamma1_correction == GAMMA1_CORRECTION


def test_decomposition_invalid_beyond_boundary():
    dec = two_copy_decomposition(0.35)
    assert dec.residual_max <= 1e-10  # the identity still holds
    assert not dec.valid              # the 12-label diagonal class went negative
    assert dec.diag_min < 0


def test_decomposition_identity_at_half():
    dec = two_copy_decomposition(0.5)
    assert dec.residual_max <= 1e-10
    assert not dec.valid


@pytest.mark.parametrize("p", [
    0.499, 0.4999, 0.4999999, 0.5 - 1e-12, float(np.nextafter(0.5, 0)),
    float(np.nextafter(0.5, 1)), 0.5000001, 0.50001])
def test_decomposition_identity_near_half(p):
    # the diagonal classes cancel in the trace of rho_diag near p = 1/2; the
    # remainder is then flagged unnormalized rather than rejected
    dec = two_copy_decomposition(p)
    assert dec.residual_max <= 1e-10
    assert not dec.valid


def test_printed_gamma1_fails_the_identity():
    assert two_copy_residual(0.1, GAMMA1_TUPLES_PRINTED) > 1e-4
    assert two_copy_residual(0.1, GAMMA1_TUPLES) <= 1e-12


def test_correction_search_is_unique():
    found = search_gamma1_correction()
    assert found == [GAMMA1_REPAIRED_TUPLE]


def test_target_is_the_interleaved_two_copy_state():
    t = two_copy_target(0.25)
    assert t.dims == (2,) * 6
    assert np.isclose(t.trace, 1.0)
    assert np.isclose(t.mat[0, 63].real, 0.015625)  # (p/2)^2 corner pair


def interleaved_two_copy_oracle(p):
    """rho (x) rho by Kronecker product, permuted to A1 B1 A2 B2 A3 B3."""
    one = xform_to_dense(isotropic_ghz(3, p))
    return permute_subsystems(tensor(one, one), (0, 3, 1, 4, 2, 5))


def test_gathered_target_equals_kron_permute_oracle_exactly():
    end = (4 * math.sqrt(3) - 3) / 13
    grid = [*np.linspace(-1 / 7, 1.0, 201), math.nextafter(0.5, 0), 0.5,
            math.nextafter(0.5, 1), math.nextafter(end, 0), end, math.nextafter(end, 1)]
    for p in grid:
        got, want = two_copy_target(p), interleaved_two_copy_oracle(p)
        assert got.mat.tobytes() == want.mat.tobytes(), p  # values and sign bits
        assert (got.dims, got.normalized, got.state) == (want.dims, want.normalized, want.state)


# -------------------------------------------------------- validity interval

def test_interval_upper_endpoint_closed_form():
    lo, hi = bisep_validity_interval()
    assert abs(hi - (-3 + 4 * np.sqrt(3)) / 13) <= 1e-12


def test_interval_matches_two_copy_threshold():
    _, hi = bisep_validity_interval()
    assert abs(hi - k_copy_threshold(3, 2).p_threshold) <= 1e-12


def test_interval_lower_endpoint_is_zero():
    # the gamma_1 weight p(3-7p) is negative for p < 0, so validity cannot
    # extend below zero even though the diagonal classes would allow it
    lo, _ = bisep_validity_interval()
    assert lo == 0.0
    assert two_copy_decomposition(-0.05).weights["gamma_1"] < 0
    assert not two_copy_decomposition(-0.05).valid


def test_second_class_polynomial_sign():
    poly = lambda p: 1 - 10 / 3 * p + 7 / 3 * p ** 2
    assert np.isclose(poly(3 / 7), 0.0, atol=1e-15)
    for p in np.linspace(0, 3 / 7, 20):
        assert poly(p) >= -1e-15
    assert poly(0.6) < 0 and poly(1.0) >= -1e-15


def test_validity_flag_changes_across_interval_edge():
    _, hi = bisep_validity_interval()
    assert two_copy_decomposition(hi - 1e-6).valid
    assert not two_copy_decomposition(hi + 1e-6).valid


# ------------------------------------------------------------- PPT criterion

def test_ppt_crit_values():
    assert np.isclose(ppt_crit(3), 0.2, atol=1e-15)
    assert np.isclose(ppt_crit(2), 1 / 3, atol=1e-15)
    assert np.isclose(ppt_crit(4), 1 / 9, atol=1e-15)


def test_pt_min_eig_boundary():
    cut = Partition((frozenset({0}), frozenset({1, 2})))
    assert abs(pt_min_eig_isotropic(3, 0.2, cut)) < 1e-12


def test_pt_min_eig_signs():
    cut = Partition((frozenset({0}), frozenset({1, 2})))
    assert pt_min_eig_isotropic(3, 0.5, cut) < 0
    cut4 = Partition((frozenset({0, 1}), frozenset({2, 3})))
    assert pt_min_eig_isotropic(4, 0.05, cut4) >= -1e-10


def test_all_bipartitions_counts():
    assert len(all_bipartitions(3)) == 3
    assert len(all_bipartitions(4)) == 7
    assert len(all_bipartitions(5)) == 15


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pt_sign_is_cut_independent(n):
    crit = ppt_crit(n)
    for p in (crit - 0.05, crit + 0.05, 0.6):
        signs = {pt_min_eig_isotropic(n, p, cut) < -1e-12
                 for cut in all_bipartitions(n)}
        assert len(signs) == 1


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
def test_analytic_eigenvalue_in_pt_spectrum(n, p):
    from gme_lab.states import isotropic_ghz, xform_to_dense

    expected = (1 - p) / 2 ** n - p / 2
    dense = xform_to_dense(isotropic_ghz(n, p))
    for cut in all_bipartitions(n):
        pt = partial_transpose(dense, cut.blocks[0])
        spectrum = np.linalg.eigvalsh(pt.mat)
        assert np.abs(spectrum - expected).min() < 1e-10


def test_pt_min_eig_requires_bipartition():
    with pytest.raises(ValueError):
        pt_min_eig_isotropic(3, 0.2, Partition((frozenset({0}), frozenset({1}),
                                                frozenset({2}))))
