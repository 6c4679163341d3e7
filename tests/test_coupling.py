"""Coupling-invariant algebra: boundary matrix, branch weights, critical surface."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from speclab import coupling, hamiltonian

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
    assert (d.sigma_eig_plus, d.sigma_eig_minus) == (8.0, 2.0)
    assert d.mu1 == pytest.approx(SQRT2, rel=1e-15)
    assert d.mu2 == pytest.approx(SQRT2 / 4.0, rel=1e-15)
    assert not _is_degenerate(d.omega)
    assert not _is_one_sided_pair(_k_vectors(d))


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
    assert _is_degenerate(d.omega)
    assert _is_one_sided_pair(_k_vectors(d))
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


def test_one_abs2_formula():
    # |gamma|^2 is re*re + im*im everywhere; abs(gamma) * abs(gamma)
    # differs from it in the last bit for about half of all gammas
    rng = np.random.default_rng(5)
    differ = 0
    for re, im in rng.standard_normal((200, 2)):
        gamma = complex(re, im)
        g2 = re * re + im * im
        differ += abs(gamma) * abs(gamma) != g2
        assert CouplingParams(1.0, 0.5, gamma).gamma_abs2 == g2
        assert mu_beta_zero(0.7, gamma) == (4.0 + g2) / (2.0 * SQRT2 * 0.7)
        # one formula for every beta, sqrt(2) + |gamma|^2 / (2 sqrt(2) - beta):
        # it replaced (4 + g2) / (2 sqrt(2)) at beta = 0 and a numerator
        # that cancels as beta -> 0, and moves their last bits
        assert critical_alpha(0.0, gamma) == SQRT2 + g2 / (2.0 * SQRT2)
        assert critical_alpha(1.3, gamma) == SQRT2 + g2 / (2.0 * SQRT2 - 1.3)
    assert differ > 50


def test_mu_beta_zero_rejects_pure_gamma():
    with pytest.raises(InvalidParametersError):
        mu_beta_zero(0.0, 1.0j)


def test_mu_beta_zero_rejects_an_infinite_alpha():
    with pytest.raises(InvalidParametersError) as info:
        mu_beta_zero(math.inf)
    assert str(info.value) == "alpha and |gamma|^2 must be finite"


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"the weights read numpy.{name}")


def _numpy_blocked(code: str, *args: str) -> str:
    """The stdout of ``code`` run with ``args`` in a new Python process that
    imports this speclab and refuses numpy (``tests/numpy_blocked.py``)."""
    src = str(pathlib.Path(coupling.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runner = str(pathlib.Path(__file__).with_name("numpy_blocked.py"))
    return subprocess.run([sys.executable, runner, code, *args], capture_output=True,
                          text=True, env=env, check=True).stdout


# the weights of the point (alpha, beta, gamma) that argv[1:] spells
_WEIGHTS = """
import sys
from speclab.coupling import CouplingParams, branch_mus, classify, derive
p = CouplingParams(float(sys.argv[1]), float(sys.argv[2]), complex(sys.argv[3]))
print(repr((derive(p), branch_mus(p), classify(p))))
"""


@pytest.mark.parametrize("alpha, beta, gamma", [
    (0.8, 1.5, 0.3 - 0.7j),  # beta != 0 with a complex gamma
    (1.3, 0.0, 0.5j),  # beta = 0
    (0.0, 1.0, 0.0),  # alpha = 0: the inf marker
    (2.0, 2.0, 0.0),  # alpha*beta = 4, gamma = 0: Sigma is a multiple of I
])
def test_weights_touch_no_numpy(monkeypatch, alpha, beta, gamma):
    # every classify, mu and surface query of a sweep reads the weights, so
    # they stay scalar arithmetic: an interpreter that refuses numpy gives
    # them bit for bit (repr round-trips every float)
    p = CouplingParams(alpha, beta, gamma)
    expected = repr((derive(p), branch_mus(p), classify(p)))
    got = _numpy_blocked(_WEIGHTS, repr(alpha), repr(beta), repr(complex(gamma)))
    assert got == expected + "\n"
    # the form bound's constant reads the weights and no numpy either
    c = hamiltonian.lower_bound_constant(p)
    monkeypatch.setattr(hamiltonian, "np", _NoNumpy())
    assert hamiltonian.lower_bound_constant(p) == c


# ---------------------------------------------------------------------------
# the boundary matrix against the generic eigensolver


def _sigma(omega):
    """Sigma = omega0 I + omega1 sigma_x + omega2 sigma_y + omega3 sigma_z."""
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1]))
    return sum(w * pauli for w, pauli in zip(omega, paulis))


def _is_degenerate(omega):
    """Sigma is a multiple of I: gamma = 0 and alpha*beta = 4."""
    return not any(omega[1:])


def _k_vectors(d):
    """Sigma's unit eigenvectors (k1, k2) for omega0 - r and omega0 + r,
    read off the boundary values of the saturating trials at delta = 1."""
    trials = (hamiltonian.saturating_trial(1.0, b, d) for b in (Branch.ONE, Branch.TWO))
    return tuple(np.array([t.modes[0].upper, t.modes[0].lower]) for t in trials)


def _is_one_sided_pair(ks):
    return all(np.array_equal(k, e) for k, e in zip(ks, np.eye(2, dtype=complex)))


@settings(max_examples=150, deadline=None)
@given(finite_reals, finite_reals, gammas)
def test_sigma_eigensystem_matches_lapack(alpha, beta, gamma):
    d = derive(CouplingParams(alpha, beta, gamma))
    sigma = _sigma(d.omega)
    assert np.allclose(sigma, sigma.conj().T)
    eigs = np.linalg.eigvalsh(sigma)
    scale = 1.0 + np.max(np.abs(eigs))
    assert abs(eigs[0] - d.sigma_eig_minus) <= 1e-12 * scale
    assert abs(eigs[1] - d.sigma_eig_plus) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(finite_reals, finite_reals, gammas)
# Sigma diagonal with omega3 < 0 but not degenerate: the pair is (e1, e2)
@example(3.75, 1.0, -0.5)
# near-degenerate: r = 8e-12 against the eigenvalues 8 +- r
@example(2.0, 2.0, 2e-12j)
def test_k_vectors_are_unit_eigenvectors(alpha, beta, gamma):
    # the trials that carry them need beta != 0
    assume(beta != 0.0)
    d = derive(CouplingParams(alpha, beta, gamma))
    k1, k2 = _k_vectors(d)
    scale = abs(d.sigma_eig_plus) + 4.0
    assert abs(np.linalg.norm(k1) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(k2) - 1.0) <= 1e-12
    assert abs(np.vdot(k1, k2)) <= 1e-12
    if d.omega[1] == d.omega[2] == 0.0 and d.omega[3] <= 0.0:
        # Sigma diagonal with its smaller entry first
        assert _is_one_sided_pair((k1, k2))
    sigma = _sigma(d.omega)
    r1 = sigma @ k1 - d.sigma_eig_minus * k1
    r2 = sigma @ k2 - d.sigma_eig_plus * k2
    assert np.max(np.abs(r1)) <= 1e-10 * scale
    assert np.max(np.abs(r2)) <= 1e-10 * scale


@pytest.mark.parametrize("alpha, beta, gamma", [
    # r is about 9.5e153 and 1.2e154: the squared norm 2r(r + |omega3|)
    # overflowed, with a RuntimeWarning, and the k vectors were zeros
    (6.896562338143908e16, 1.374706910959462e137, 0j),
    (-1e150, 1.2e4, 1e70 + 2e70j),
    (-1e150, 1.2e4, -1e70 + 2e70j),
])
def test_k_vectors_are_unit_where_their_squared_norm_overflows(alpha, beta, gamma):
    d = derive(CouplingParams(alpha, beta, gamma))
    k1, k2 = _k_vectors(d)
    assert not _is_degenerate(d.omega)
    assert not _is_one_sided_pair((k1, k2))
    for k in (k1, k2):
        assert abs(math.hypot(abs(k[0]), abs(k[1])) - 1.0) <= 1e-15
    assert abs(np.vdot(k1, k2)) <= 1e-15
    # Sigma and its eigenvalues on the scale of the larger one
    scale = max(abs(d.sigma_eig_plus), abs(d.sigma_eig_minus))
    sigma = _sigma(d.omega) / scale
    r1 = sigma @ k1 - d.sigma_eig_minus / scale * k1
    r2 = sigma @ k2 - d.sigma_eig_plus / scale * k2
    assert np.max(np.abs(r1)) <= 1e-15 and np.max(np.abs(r2)) <= 1e-15


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


def test_canonicalize_orientation_rule():
    p = CouplingParams(1.0, -2.0)
    c = canonicalize(p)
    assert c.beta == 2.0 and c.alpha == -1.0
    assert canonicalize(c) == c
    # at beta = 0 the mirror reduces to an alpha flip, so alpha >= 0 wins
    q = canonicalize(CouplingParams(-1.0, 0.0))
    # the mirror flipped both signs: beta = 0.0 became -0.0
    assert (q.alpha, q.beta, math.copysign(1.0, q.beta)) == (1.0, 0.0, -1.0)
    assert canonicalize(CouplingParams(1.0, 0.0)) == CouplingParams(1.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(finite_reals, finite_reals, gammas)
def test_branch_mus_mirror_invariant(alpha, beta, gamma):
    p = CouplingParams(alpha, beta, gamma)
    if alpha == 0.0 and beta == 0.0 and gamma != 0.0:
        return
    try:
        mus = branch_mus(p)
    except InvalidParametersError:
        # a weight leaves double range, at subnormal alpha for example:
        # the mirror point must be rejected as well
        with pytest.raises(InvalidParametersError):
            branch_mus(mirror(p))
        return
    assert mus == branch_mus(mirror(p))


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


def test_branch_mus_rejects_weights_out_of_range():
    # at subnormal alpha mu1 overflows to inf, which would pass for the
    # alpha = 0 divergence marker
    for alpha in (2.2e-311, -2.2e-311):
        with pytest.raises(InvalidParametersError, match="leaves double range"):
            branch_mus(CouplingParams(alpha, 1.0))
    with pytest.raises(InvalidParametersError, match="leaves double range"):
        branch_mus(CouplingParams(2.2e-311, 0.0))
    mus = branch_mus(CouplingParams(0.0, 1.0))
    assert mus[0] == (Branch.ONE, math.inf) and math.isfinite(mus[1][1])


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
    [(0.5, 1.0), (1.0, 0.3 + 0.4j), (2.0, 1.0j), (4.0, 0.8 - 0.2j),
     # where the numerator (...)/beta cancelled: wrong in the 9th digit at
     # 1e-8, weight 1.022 at 1e-15, sqrt(2) and weight 1.0625 at 1e-300
     (1e-8, 0.5), (1e-15, 0.5), (1e-300, 0.5)],
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
