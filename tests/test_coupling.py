"""Coupling-invariant algebra: boundary matrix, branch weights, critical surface."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import (
    Branch,
    CouplingParams,
    Criticality,
    InvalidParametersError,
    SingularFormulaError,
    branch_mus,
    canonicalize,
    classify,
    critical_alpha,
    derive,
    mirror,
    mu_beta_zero,
)

SQRT2 = math.sqrt(2.0)

finite_reals = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
gammas = st.builds(complex, finite_reals, finite_reals)


# ---------------------------------------------------------------------------
# frozen reference points


def test_derive_simple_point():
    d = derive(CouplingParams(1.0, 1.0))
    assert d.omega == (5.0, -3.0, 0.0, 0.0)
    assert d.sigma_eigs == (8.0, 2.0)
    assert d.mu1 == pytest.approx(SQRT2, rel=1e-15)
    assert d.mu2 == pytest.approx(SQRT2 / 4.0, rel=1e-15)
    assert not d.degenerate


def test_derive_complex_gamma_point():
    # (alpha, beta, gamma) = (1, 2, 1+2i): |gamma|^2 = 5
    d = derive(CouplingParams(1.0, 2.0, 1.0 + 2.0j))
    assert d.omega == (11.0, 3.0, 8.0, 4.0)
    r = math.sqrt(9.0 + 64.0 + 16.0)
    assert d.sigma_eig_plus == pytest.approx(11.0 + r, rel=1e-15)
    assert d.sigma_eig_minus == pytest.approx(11.0 - r, rel=1e-14)
    assert d.mu1 == pytest.approx(4.0 * SQRT2 / (11.0 - r), rel=1e-14)
    assert d.mu2 == pytest.approx(4.0 * SQRT2 / (11.0 + r), rel=1e-14)


def test_degenerate_point_single_weight():
    # gamma = 0 and alpha*beta = 4 collapse the two branches into one.
    d = derive(CouplingParams(2.0, 2.0))
    assert d.degenerate
    assert d.sigma_eig_plus == pytest.approx(8.0)
    assert d.sigma_eig_minus == pytest.approx(8.0)
    assert d.mu1 == pytest.approx(d.mu2)
    assert d.mu1 == pytest.approx(SQRT2 / 2.0, rel=1e-15)


def test_alpha_zero_divergence_marker():
    d = derive(CouplingParams(0.0, 1.0))
    assert d.mu1 == math.inf
    assert d.mu2 == pytest.approx(2.0 * SQRT2 / d.sigma_eig_plus)


def test_beta_zero_has_no_matrix_branches():
    d = derive(CouplingParams(1.0, 0.0))
    assert d.mu1 is None and d.mu2 is None
    assert mu_beta_zero(1.0) == pytest.approx(SQRT2, rel=1e-15)
    assert mu_beta_zero(1.0, 2.0j) == pytest.approx(8.0 / (2.0 * SQRT2), rel=1e-15)
    assert mu_beta_zero(-1.0) == pytest.approx(-SQRT2, rel=1e-15)


def test_mu_beta_zero_rejects_pure_gamma():
    with pytest.raises(InvalidParametersError):
        mu_beta_zero(0.0, 1.0j)


# ---------------------------------------------------------------------------
# the boundary matrix against the generic eigensolver


@settings(max_examples=150, deadline=None)
@given(finite_reals, finite_reals, gammas)
def test_sigma_eigensystem_matches_lapack(alpha, beta, gamma):
    d = derive(CouplingParams(alpha, beta, gamma))
    sigma = d.sigma
    assert np.allclose(sigma, sigma.conj().T)
    eigs = np.linalg.eigvalsh(sigma)
    scale = 1.0 + np.max(np.abs(eigs))
    assert abs(eigs[0] - d.sigma_eig_minus) <= 1e-12 * scale
    assert abs(eigs[1] - d.sigma_eig_plus) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(finite_reals, finite_reals, gammas)
def test_k_vectors_are_unit_eigenvectors(alpha, beta, gamma):
    d = derive(CouplingParams(alpha, beta, gamma))
    scale = abs(d.sigma_eig_plus) + 4.0
    assert abs(np.linalg.norm(d.k1) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(d.k2) - 1.0) <= 1e-12
    if d.degenerate:
        # any orthonormal basis is an eigenbasis there
        assert abs(np.vdot(d.k1, d.k2)) <= 1e-12
        return
    r1 = d.sigma @ d.k1 - d.sigma_eig_minus * d.k1
    r2 = d.sigma @ d.k2 - d.sigma_eig_plus * d.k2
    assert np.max(np.abs(r1)) <= 1e-10 * scale
    assert np.max(np.abs(r2)) <= 1e-10 * scale


@settings(max_examples=150, deadline=None)
@given(finite_reals, finite_reals, gammas)
def test_weight_eigenvalue_products(alpha, beta, gamma):
    # mu1 * (omega0 - r) = mu2 * (omega0 + r) = 2*sqrt(2)*beta whenever the
    # respective eigenvalue is nonzero, even for tiny alpha*beta.
    d = derive(CouplingParams(alpha, beta, gamma))
    if beta == 0.0:
        return
    target = 2.0 * SQRT2 * beta
    if alpha != 0.0 and d.sigma_eig_minus != 0.0 and math.isfinite(d.mu1):
        assert d.mu1 * d.sigma_eig_minus == pytest.approx(target, rel=1e-12)
    if d.sigma_eig_plus != 0.0:
        assert d.mu2 * d.sigma_eig_plus == pytest.approx(target, rel=1e-12)


def test_weight_products_survive_tiny_alpha_beta():
    d = derive(CouplingParams(1e-13, 1.0))
    assert d.mu1 * d.sigma_eig_minus == pytest.approx(2.0 * SQRT2, rel=1e-12)
    # the naive omega0 - r subtraction would have lost ~13 digits here
    assert d.sigma_eig_minus == pytest.approx(16e-13 / d.sigma_eig_plus, rel=1e-12)


# ---------------------------------------------------------------------------
# sign structure of the weights


@pytest.mark.parametrize("alpha", [-3.0, -1.0, -0.1])
@pytest.mark.parametrize("beta", [0.5, 2.0])
@pytest.mark.parametrize("gamma", [0.0, 1.0 + 0.5j])
def test_negative_alpha_splits_weights(alpha, beta, gamma):
    d = derive(CouplingParams(alpha, beta, gamma))
    assert d.mu1 < 0.0 < d.mu2


@pytest.mark.parametrize("alpha", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("beta", [0.5, 2.0])
@pytest.mark.parametrize("gamma", [0.0, 1.0 + 0.5j])
def test_positive_alpha_orders_weights(alpha, beta, gamma):
    d = derive(CouplingParams(alpha, beta, gamma))
    assert d.mu1 >= d.mu2 > 0.0


# ---------------------------------------------------------------------------
# mirror symmetry and canonical orientation


def test_mirror_is_involution():
    p = CouplingParams(1.3, -0.7, 0.2 - 0.4j)
    assert mirror(mirror(p)) == p
    q = mirror(p)
    assert (q.alpha, q.beta, q.gamma) == (-1.3, 0.7, 0.2 - 0.4j)
    assert q.mirrored


def test_canonicalize_orientation_rule():
    p = CouplingParams(1.0, -2.0)
    c = canonicalize(p)
    assert c.beta == 2.0 and c.alpha == -1.0
    assert canonicalize(c) == c
    # at beta = 0 the mirror reduces to an alpha flip, so alpha >= 0 wins
    q = canonicalize(CouplingParams(-1.0, 0.0))
    assert q.alpha == 1.0 and q.beta == 0.0 and q.mirrored
    assert canonicalize(CouplingParams(1.0, 0.0)) == CouplingParams(1.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(finite_reals, finite_reals, gammas)
def test_branch_mus_mirror_invariant(alpha, beta, gamma):
    p = CouplingParams(alpha, beta, gamma)
    if alpha == 0.0 and beta == 0.0 and gamma != 0.0:
        return
    assert branch_mus(p) == branch_mus(mirror(p))


# ---------------------------------------------------------------------------
# branch enumeration


def test_branch_mus_regular_point():
    mus = branch_mus(CouplingParams(1.0, 1.0))
    assert [b for b, _ in mus] == [Branch.ONE, Branch.TWO]
    assert mus[0][1] == pytest.approx(SQRT2)
    assert mus[1][1] == pytest.approx(SQRT2 / 4.0)


def test_branch_mus_beta_zero():
    mus = branch_mus(CouplingParams(2.0, 0.0, 1.0j))
    assert len(mus) == 1
    assert mus[0][0] is Branch.BETA_ZERO
    assert mus[0][1] == pytest.approx(5.0 / (4.0 * SQRT2), rel=1e-15)


def test_branch_mus_free_case_empty():
    assert branch_mus(CouplingParams(0.0, 0.0)) == ()
    assert classify(CouplingParams(0.0, 0.0)) == ()


def test_branch_mus_rejects_pure_gamma():
    with pytest.raises(InvalidParametersError):
        branch_mus(CouplingParams(0.0, 0.0, 0.5j))


# ---------------------------------------------------------------------------
# classification


def test_classify_regular_point():
    one, two = classify(CouplingParams(1.0, 1.0))
    assert one.branch is Branch.ONE and one.kind is Criticality.SUBCRITICAL
    assert two.branch is Branch.TWO and two.kind is Criticality.SUPERCRITICAL


def test_classify_exact_critical_point():
    # beta = 1, gamma = 0: mu1 = sqrt(2)/alpha, so alpha = sqrt(2) is critical
    one, _ = classify(CouplingParams(SQRT2, 1.0))
    assert one.kind is Criticality.CRITICAL
    assert one.mu == 1.0


def test_classify_alpha_zero_divergent():
    one, two = classify(CouplingParams(0.0, 1.0))
    assert one.kind is Criticality.NONPOSITIVE_OR_DIVERGENT
    assert math.isinf(one.mu)
    assert two.kind is Criticality.SUPERCRITICAL


def test_classify_beta_zero_sign_blind():
    # mirrored orientation: the alpha sign alone cannot change the spectrum
    (only,) = classify(CouplingParams(-1.0, 0.0))
    assert only.kind is Criticality.SUBCRITICAL
    assert only.mu == pytest.approx(SQRT2, rel=1e-15)
    assert classify(CouplingParams(-1.0, 0.0)) == classify(CouplingParams(1.0, 0.0))


def test_classify_tolerance_band():
    p = CouplingParams(SQRT2 * (1.0 - 1e-12), 1.0)
    assert classify(p, tol=1e-10)[0].kind is Criticality.CRITICAL
    assert classify(p, tol=1e-14)[0].kind is Criticality.SUBCRITICAL
    with pytest.raises(InvalidParametersError):
        classify(p, tol=-1.0)


def test_classify_rejects_nonfinite_tol():
    # a nan tol fails every comparison, so mu = 1 came out Supercritical
    p = CouplingParams(SQRT2, 0.0)
    for tol in (math.nan, math.inf):
        with pytest.raises(InvalidParametersError):
            classify(p, tol=tol)


# ---------------------------------------------------------------------------
# critical surface


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 2.0 * SQRT2, 5.0])
def test_critical_alpha_gamma_zero_is_sqrt2(beta):
    assert critical_alpha(beta) == pytest.approx(SQRT2, abs=1e-12)


@pytest.mark.parametrize(
    "beta,gamma",
    [(0.5, 1.0), (1.0, 0.3 + 0.4j), (2.0, 1.0j), (4.0, 0.8 - 0.2j)],
)
def test_critical_alpha_lands_on_weight_one(beta, gamma):
    alpha_c = critical_alpha(beta, gamma)
    mus = [mu for _, mu in branch_mus(CouplingParams(alpha_c, beta, gamma))]
    assert min(abs(mu - 1.0) for mu in mus) <= 1e-12


def test_critical_alpha_beta_zero_inverts_weight():
    alpha_c = critical_alpha(0.0, 1.0 + 1.0j)
    assert mu_beta_zero(alpha_c, 1.0 + 1.0j) == pytest.approx(1.0, rel=1e-14)


def test_critical_alpha_singular_line():
    with pytest.raises(SingularFormulaError):
        critical_alpha(2.0 * SQRT2, 0.1j)
    with pytest.raises(InvalidParametersError):
        critical_alpha(-1.0)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_require_finite_entries():
    with pytest.raises(InvalidParametersError):
        CouplingParams(math.nan, 0.0)
    with pytest.raises(InvalidParametersError):
        CouplingParams(0.0, math.inf)
    with pytest.raises(InvalidParametersError):
        CouplingParams(0.0, 0.0, complex(0.0, math.nan))


def test_gamma_abs2():
    assert CouplingParams(0.0, 0.0, 3.0 + 4.0j).gamma_abs2 == pytest.approx(25.0)
