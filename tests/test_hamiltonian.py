"""Strip-model forms and spectrum.

The quadratic-form implementation (mode-coupled boundary sums) is checked
against brute-force 2-D quadrature of the defining integrals: piecewise
Gauss-Legendre along the axis tensored with Gauss-Hermite across the strip.
Eigenvalue location is checked against a dense-LAPACK bisection that never
touches the Sturm machinery.
"""

import math
import warnings

import numpy as np
import pytest

from speclab import (
    Beta0ConstraintError,
    Branch,
    CouplingParams,
    InvalidParametersError,
    ModeTrialFunction,
    NonConvergenceError,
    NoSubcriticalBranchError,
    SpectralFamily,
    THRESHOLD,
    TrialMode,
    build,
    count_asymptotics_curve,
    count_below_epsilon,
    derive,
    discrete2_check,
    evaluate_forms,
    h_eigenvalues_below_threshold,
    hermite_eval,
    lower_bound_constant,
    mirror,
    random_trial,
    saturating_trial,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# quadrature helpers (test-local oracles)

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(48)
_GH_FLAT = _GH_WEIGHTS * np.exp(_GH_NODES * _GH_NODES)  # integrates plain dy
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gl_half_line(f, breaks=(0.0, 1e-2, 1e-1, 1.0, 10.0, 100.0, 500.0)):
    """Integrate f over (0, inf) by piecewise Gauss-Legendre panels."""
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(_GL_WEIGHTS @ f(x))
    return total


def chi_prime(n: int, y: np.ndarray) -> np.ndarray:
    # d/dy chi_n = sqrt(2n) chi_{n-1} - y chi_n
    out = -y * hermite_eval(n, y)
    if n > 0:
        out = out + math.sqrt(2.0 * n) * hermite_eval(n - 1, y)
    return out


def _strip_integrals(trial: ModeTrialFunction):
    """(norm_sq, a0) by brute-force 2-D quadrature of the defining integrals."""
    ys = _GH_NODES
    chis = {m.n: hermite_eval(m.n, ys) for m in trial.modes}
    dchis = {m.n: chi_prime(m.n, ys) for m in trial.modes}

    norm = 0.0
    a0 = 0.0
    for sign in (+1, -1):

        def dens(xs: np.ndarray) -> np.ndarray:
            psi = np.zeros((xs.size, ys.size), dtype=complex)
            dpsi_x = np.zeros_like(psi)
            dpsi_y = np.zeros_like(psi)
            for m in trial.modes:
                amp = m.upper if sign > 0 else m.lower
                prof = amp * np.exp(-m.decay * xs)[:, None]
                psi += prof * chis[m.n][None, :]
                dpsi_x += -sign * m.decay * prof * chis[m.n][None, :]
                dpsi_y += prof * dchis[m.n][None, :]
            n_y = _GH_FLAT @ (np.abs(psi) ** 2).T
            e_y = _GH_FLAT @ (
                np.abs(dpsi_x) ** 2
                + 0.5 * np.abs(dpsi_y) ** 2
                + 0.5 * (ys**2)[None, :] * np.abs(psi) ** 2
            ).T
            return np.stack([n_y, e_y])

        def norm_dens(xs):
            return dens(xs)[0]

        def energy_dens(xs):
            return dens(xs)[1]

        norm += gl_half_line(norm_dens)
        a0 += gl_half_line(energy_dens)
    return norm, a0


def boundary_sum_oracle(trial: ModeTrialFunction, p: CouplingParams) -> float:
    """The y-weighted boundary integral evaluated by Gauss-Hermite."""
    ys = _GH_NODES
    fp = np.zeros_like(ys, dtype=complex)
    fm = np.zeros_like(ys, dtype=complex)
    for m in trial.modes:
        chi = hermite_eval(m.n, ys)
        fp = fp + m.f_plus * chi
        fm = fm + m.f_minus * chi
    if p.beta != 0.0:
        s = p.alpha * p.beta + abs(p.gamma) ** 2
        dens = ys * (
            np.abs(fm) ** 2
            + 0.25 * s * np.abs(fp) ** 2
            + np.real(p.gamma * np.conj(fp) * fm)
        )
        return float(_GH_FLAT @ dens) / p.beta
    dens = 0.25 * p.alpha * ys * np.abs(fp) ** 2
    return float(_GH_FLAT @ dens)


# ---------------------------------------------------------------------------
# transverse modes


def test_hermite_ground_state_frozen():
    assert hermite_eval(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-15)
    assert hermite_eval(1, 0.0) == pytest.approx(0.0, abs=1e-16)


def test_hermite_orthonormal():
    ys, ws = np.polynomial.hermite.hermgauss(40)
    flat = ws * np.exp(ys * ys)
    table = np.array([hermite_eval(n, ys) for n in range(16)])
    gram = (table * flat) @ table.T
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12


def test_hermite_satisfies_oscillator_equation():
    # 1/2 (-chi'' + y^2 chi) = (n + 1/2) chi, second derivative by stencil
    h = 1e-3
    ys = np.array([-2.3, -0.7, 0.4, 1.9])
    for n in (0, 1, 5, 12):
        chi = hermite_eval(n, ys)
        d2 = (
            -hermite_eval(n, ys + 2 * h)
            + 16 * hermite_eval(n, ys + h)
            - 30 * chi
            + 16 * hermite_eval(n, ys - h)
            - hermite_eval(n, ys - 2 * h)
        ) / (12 * h * h)
        lhs = 0.5 * (-d2 + ys * ys * chi)
        assert np.max(np.abs(lhs - (n + 0.5) * chi)) < 1e-6


def test_hermite_multiplication_recurrence():
    # y chi_n = sqrt((n+1)/2) chi_{n+1} + sqrt(n/2) chi_{n-1}: the identity
    # behind the nearest-neighbour structure of the boundary sum
    ys, ws = np.polynomial.hermite.hermgauss(40)
    flat = ws * np.exp(ys * ys)
    for n in range(10):
        for m in range(12):
            val = float(flat @ (hermite_eval(m, ys) * ys * hermite_eval(n, ys)))
            want = 0.0
            if m == n + 1:
                want = math.sqrt((n + 1) / 2.0)
            elif m == n - 1:
                want = math.sqrt(n / 2.0)
            assert val == pytest.approx(want, abs=1e-12)


def test_hermite_rejects_negative_index():
    with pytest.raises(InvalidParametersError):
        hermite_eval(-1, 0.0)


# ---------------------------------------------------------------------------
# trial functions


def test_trial_mode_norms_match_quadrature():
    m = TrialMode(n=3, upper=1.0 - 2.0j, lower=0.5j, decay=1.7)
    trial = ModeTrialFunction((m,))
    norm, _ = _strip_integrals(trial)
    assert m.norm_sq == pytest.approx(norm, rel=1e-10)
    assert trial.norm_sq() == pytest.approx(norm, rel=1e-10)
    assert m.f_plus == 1.0 - 1.5j
    assert m.f_minus == 1.0 - 2.5j


def test_trial_mode_validation():
    with pytest.raises(InvalidParametersError):
        TrialMode(n=-1, upper=1.0, lower=0.0, decay=1.0)
    with pytest.raises(InvalidParametersError):
        TrialMode(n=0, upper=1.0, lower=0.0, decay=0.0)
    with pytest.raises(InvalidParametersError):
        ModeTrialFunction(())
    with pytest.raises(InvalidParametersError):
        ModeTrialFunction(
            (
                TrialMode(n=1, upper=1.0, lower=0.0, decay=1.0),
                TrialMode(n=1, upper=0.0, lower=1.0, decay=2.0),
            )
        )


def test_boundary_vector_and_evaluate():
    trial = ModeTrialFunction(
        (
            TrialMode(n=0, upper=2.0, lower=1.0j, decay=1.0),
            TrialMode(n=2, upper=-1.0, lower=0.5, decay=3.0),
        )
    )
    assert np.array_equal(trial.boundary_vector(0), [2.0, 1.0j])
    assert np.array_equal(trial.boundary_vector(1), [0.0, 0.0])
    assert trial.max_index == 2
    ys = np.array([-1.0, 0.0, 2.0])
    vals = trial.evaluate(0.0, ys)
    want = 2.0 * hermite_eval(0, ys) + (-1.0) * hermite_eval(2, ys)
    assert np.allclose(vals, want, rtol=1e-14)
    left = trial.evaluate(-2.0, 0.0)
    want_left = 1.0j * math.exp(-2.0) * hermite_eval(0, 0.0) + 0.5 * math.exp(
        -6.0
    ) * hermite_eval(2, 0.0)
    assert complex(left) == pytest.approx(want_left, rel=1e-14)


def test_random_trial_reproducible_and_in_range():
    a = random_trial(np.random.default_rng(99))
    b = random_trial(np.random.default_rng(99))
    assert a == b
    for _ in range(50):
        t = random_trial(np.random.default_rng(_))
        assert 1 <= len(t.modes) <= 5
        assert all(0 <= m.n <= 12 for m in t.modes)
        assert all(0.1 <= m.decay <= 10.0 for m in t.modes)
        assert len({m.n for m in t.modes}) == len(t.modes)


def test_random_trial_beta_zero_constraint():
    gamma = 0.4 - 0.3j
    t = random_trial(np.random.default_rng(5), beta_zero_gamma=gamma)
    for m in t.modes:
        assert m.f_minus == pytest.approx(-0.5 * gamma.conjugate() * m.f_plus, rel=1e-12)


# ---------------------------------------------------------------------------
# forms against brute-force quadrature

FORM_POINTS = [
    CouplingParams(1.0, 1.0),
    CouplingParams(0.7, 2.0, 0.3 + 0.4j),
    CouplingParams(-1.5, 1.0, 0.2j),
    CouplingParams(2.0, -3.0, 1.0 + 1.0j),
    CouplingParams(0.5, 0.3, -0.7 - 0.2j),
]


@pytest.mark.parametrize("params", FORM_POINTS)
def test_forms_match_quadrature(params):
    rng = np.random.default_rng(2024)
    for _ in range(8):
        trial = random_trial(rng, max_mode=9)
        fv = evaluate_forms(trial, params)
        norm, a0 = _strip_integrals(trial)
        b = boundary_sum_oracle(trial, params)
        scale = abs(a0) + abs(b) + 1.0
        assert abs(fv.a0 - a0) <= 1e-10 * scale
        assert abs(fv.b_sum - b) <= 1e-10 * scale
        assert abs(fv.norm_sq - norm) <= 1e-10 * scale
        assert fv.full == pytest.approx(fv.a0 + fv.b_sum, rel=1e-15)


def test_forms_beta_zero_match_quadrature():
    params = CouplingParams(1.3, 0.0, 0.5 + 0.25j)
    rng = np.random.default_rng(77)
    for _ in range(8):
        trial = random_trial(rng, max_mode=9, beta_zero_gamma=params.gamma)
        fv = evaluate_forms(trial, params)
        norm, a0 = _strip_integrals(trial)
        b = boundary_sum_oracle(trial, params)
        scale = abs(a0) + abs(b) + 1.0
        assert abs(fv.a0 - a0) <= 1e-10 * scale
        assert abs(fv.b_sum - b) <= 1e-10 * scale
        assert abs(fv.norm_sq - norm) <= 1e-10 * scale


def test_forms_beta_zero_rejects_unconstrained_trial():
    trial = ModeTrialFunction(
        (
            TrialMode(n=0, upper=1.0, lower=0.3, decay=1.0),
            TrialMode(n=1, upper=0.2, lower=-0.9, decay=2.0),
        )
    )
    with pytest.raises(Beta0ConstraintError):
        evaluate_forms(trial, CouplingParams(1.0, 0.0, 1.0))


def test_forms_no_adjacent_modes_no_boundary_term():
    trial = ModeTrialFunction(
        (
            TrialMode(n=0, upper=1.0, lower=0.5j, decay=0.7),
            TrialMode(n=5, upper=-2.0, lower=1.0, decay=2.0),
        )
    )
    fv = evaluate_forms(trial, CouplingParams(1.2, 0.8, 0.3 - 1.0j))
    assert fv.b_sum == 0.0


# ---------------------------------------------------------------------------
# lower bound constant and the saturating trial


def test_lower_bound_constant_frozen():
    assert lower_bound_constant(CouplingParams(1.0, 4.0)) == pytest.approx(
        1.0 - 1.0 / SQRT2, rel=1e-14
    )
    assert lower_bound_constant(CouplingParams(1.0, 1.0)) == pytest.approx(
        1.0 - 2.0 * SQRT2, rel=1e-14
    )
    assert lower_bound_constant(CouplingParams(0.5, 0.0, 0.2 + 0.1j)) == pytest.approx(
        1.0 - 0.5 / SQRT2, rel=1e-14
    )
    # mirror pair maps to the same canonical representative
    assert lower_bound_constant(CouplingParams(-1.0, -4.0)) == lower_bound_constant(
        CouplingParams(1.0, 4.0)
    )


def test_saturating_trial_trace_equality():
    derived = derive(CouplingParams(1.0, 4.0, 0.5))
    for branch in (Branch.ONE, Branch.TWO):
        for delta in (0.2, 1.0 / SQRT2, 3.0):
            trial = saturating_trial(delta, branch, derived)
            (m,) = trial.modes
            lhs = delta * m.weight

            def deriv_sq(xs, amp=m.upper, d=m.decay):
                return abs(amp) ** 2 * d * d * np.exp(-2.0 * d * xs)

            def val_sq(xs, amp=m.upper, d=m.decay):
                return abs(amp) ** 2 * np.exp(-2.0 * d * xs)

            rhs = gl_half_line(deriv_sq) + delta**2 * gl_half_line(val_sq)

            def deriv_sq_l(xs, amp=m.lower, d=m.decay):
                return abs(amp) ** 2 * d * d * np.exp(-2.0 * d * xs)

            def val_sq_l(xs, amp=m.lower, d=m.decay):
                return abs(amp) ** 2 * np.exp(-2.0 * d * xs)

            rhs += gl_half_line(deriv_sq_l) + delta**2 * gl_half_line(val_sq_l)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_saturating_trial_uses_unit_eigenvector():
    derived = derive(CouplingParams(0.8, 1.5, 0.3 - 0.7j))
    trial = saturating_trial(0.5, 1, derived)
    (m,) = trial.modes
    vec = np.array([m.upper, m.lower]) * math.sqrt(0.5)
    assert np.allclose(vec, derived.k1, rtol=1e-14)
    trial2 = saturating_trial(0.5, "Branch2", derived)
    (m2,) = trial2.modes
    vec2 = np.array([m2.upper, m2.lower]) * math.sqrt(0.5)
    assert np.allclose(vec2, derived.k2, rtol=1e-14)


def test_saturating_trial_validation():
    derived = derive(CouplingParams(1.0, 1.0))
    with pytest.raises(InvalidParametersError):
        saturating_trial(0.0, 1, derived)
    with pytest.raises(InvalidParametersError):
        saturating_trial(1.0, 3, derived)
    with pytest.raises(InvalidParametersError):
        saturating_trial(1.0, 1, derive(CouplingParams(1.0, 0.0)))


def test_form_lower_bound_monte_carlo_smoke():
    params = CouplingParams(1.0, 4.0)
    c = lower_bound_constant(params)
    assert c > 0.0
    rng = np.random.default_rng(31)
    for _ in range(200):
        trial = random_trial(rng)
        fv = evaluate_forms(trial, params)
        assert fv.full >= 0.5 * c * fv.norm_sq


# ---------------------------------------------------------------------------
# eigenvalues below the threshold, against a dense-LAPACK bisection


def lapack_eigenvalues_below_threshold(mu: float, size: int = 300) -> list[float]:
    """Brute-force reference: negative-eigenvalue count of the dense spectral
    matrix jumps exactly at the H-eigenvalues."""

    def neg_count(lam: float) -> int:
        t = build(SpectralFamily(lam=lam, mu=mu), size)
        return int(np.sum(np.linalg.eigvalsh(t.to_dense()) < 0.0))

    lam_lo, lam_hi = THRESHOLD - 10.0, THRESHOLD - 1e-9
    c_lo, c_hi = neg_count(lam_lo), neg_count(lam_hi)
    roots = []
    for k in range(c_lo, c_hi):
        lo, hi = lam_lo, lam_hi
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            if neg_count(mid) <= k:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def test_h_spectrum_single_eigenvalue_frozen():
    res = h_eigenvalues_below_threshold(CouplingParams(1.0, 1.0))
    assert res.count == 1
    assert res.branches == (Branch.ONE,)
    assert res.branch_mus[0] == pytest.approx(SQRT2, rel=1e-15)
    assert res.eigenvalues[0] == pytest.approx(0.47541226430548, abs=1e-9)
    assert res.method_agreement < 1e-8
    assert res.truncation_size >= 2048


def test_h_spectrum_matches_dense_bisection():
    res = h_eigenvalues_below_threshold(CouplingParams(1.0, 1.0))
    dense = lapack_eigenvalues_below_threshold(SQRT2)
    assert len(dense) == res.count == 1
    assert res.eigenvalues[0] == pytest.approx(dense[0], abs=1e-8)


def test_h_spectrum_two_eigenvalues():
    res = h_eigenvalues_below_threshold(CouplingParams(1.4, 1.0))
    assert res.count == 2
    assert res.per_branch_counts == (2,)
    assert res.eigenvalues[0] == pytest.approx(0.185120201115851, abs=1e-8)
    assert res.eigenvalues[1] == pytest.approx(0.410341818022376, abs=1e-8)
    dense = lapack_eigenvalues_below_threshold(res.branch_mus[0])
    assert np.allclose(res.eigenvalues, dense, atol=1e-8)


def test_h_spectrum_beta_zero_branch():
    res = h_eigenvalues_below_threshold(CouplingParams(1.0, 0.0))
    assert res.branches == (Branch.BETA_ZERO,)
    assert res.count == 1
    assert res.eigenvalues[0] == pytest.approx(0.47541226430548, abs=1e-9)


def test_h_spectrum_free_case_empty():
    res = h_eigenvalues_below_threshold(CouplingParams(0.0, 0.0))
    assert res.count == 0
    assert res.branches == ()
    assert res.method_agreement == 0.0


def test_h_spectrum_requires_subcritical_branch():
    with pytest.raises(NoSubcriticalBranchError):
        h_eigenvalues_below_threshold(CouplingParams(3.0, 1.0))


def test_h_spectrum_mirror_invariant():
    a = h_eigenvalues_below_threshold(CouplingParams(1.4, 1.0))
    b = h_eigenvalues_below_threshold(CouplingParams(-1.4, -1.0))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert a.branch_mus == b.branch_mus


def test_h_spectrum_window_validation():
    with pytest.raises(InvalidParametersError):
        h_eigenvalues_below_threshold(CouplingParams(1.0, 1.0), lambda_min=0.6)


def test_h_spectrum_tol_validation():
    # a tol that no bracket can reach used to bisect or double forever
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParametersError):
            h_eigenvalues_below_threshold(CouplingParams(1.0, 1.0), tol=tol)
        with pytest.raises(InvalidParametersError):
            discrete2_check(CouplingParams(1.0, 1.0), tol=tol)


def test_h_spectrum_cap_exhaustion_raises():
    with pytest.raises(NonConvergenceError):
        h_eigenvalues_below_threshold(CouplingParams(1.0, 1.0), size_cap=2048)


def test_h_spectrum_refine_off():
    res = h_eigenvalues_below_threshold(CouplingParams(1.0, 1.0), refine=False)
    assert res.method_agreement == 0.0
    assert res.count == 1


# ---------------------------------------------------------------------------
# counting operators


def test_count_below_epsilon_tracks_spectrum():
    p = CouplingParams(1.0, 1.0)
    lam = 0.47541226430548
    # the level 1/2 - eps sits below the sole eigenvalue for the larger eps
    # and above it for the smaller one
    assert count_below_epsilon(p, THRESHOLD - lam + 1e-3) == 0
    assert count_below_epsilon(p, THRESHOLD - lam - 1e-3) == 1
    # monotone: shrinking eps can only reveal more spectrum
    eps_grid = [0.3, 0.1, 0.03, 0.01]
    counts = [count_below_epsilon(p, e) for e in eps_grid]
    assert counts == sorted(counts)


def test_count_below_epsilon_no_subcritical_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert count_below_epsilon(CouplingParams(3.0, 1.0), 0.1) == 0
        assert count_below_epsilon(CouplingParams(0.0, 0.0), 0.1) == 0
    assert len(caught) == 2


def test_count_below_epsilon_validates_epsilon():
    with pytest.raises(InvalidParametersError):
        count_below_epsilon(CouplingParams(1.0, 1.0), 0.0)


def test_discrete2_check_frozen_points():
    rep = discrete2_check(CouplingParams(1.0, 1.0))
    assert (rep.lhs, rep.bound) == (1, 1)
    assert rep.ok
    rep2 = discrete2_check(CouplingParams(1.4, 1.0))
    assert rep2.lhs == 2
    assert abs(rep2.lhs - rep2.rhs) <= rep2.bound


def test_asymptotics_frozen_first_point():
    (row,) = count_asymptotics_curve([1.02])
    assert row.counted == 1
    assert row.predicted == pytest.approx(1.0 / (4.0 * SQRT2 * math.sqrt(0.02)), rel=1e-14)
    assert row.ratio == pytest.approx(row.counted / row.predicted, rel=1e-14)


def test_asymptotics_requires_supercritical_mu():
    with pytest.raises(InvalidParametersError):
        count_asymptotics_curve([1.0])
    with pytest.raises(InvalidParametersError):
        count_asymptotics_curve([0.5])
