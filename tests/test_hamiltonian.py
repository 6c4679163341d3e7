"""Strip-model forms and spectrum.

The quadratic-form implementation (mode-coupled boundary sums) is checked
against brute-force 2-D quadrature of the defining integrals: piecewise
Gauss-Legendre along the axis tensored with Gauss-Hermite across the strip.
Eigenvalue location is checked against a dense-LAPACK bisection that never
touches the Sturm machinery.
"""

import cmath
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclab.coupling as coupling
import speclab.hamiltonian as hamiltonian
import speclab.jacobi_ops as jacobi_ops
import speclab.tridiag as tridiag
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
    coupling_weights,
    counts_for_diagonals,
    count_below_epsilon,
    derive,
    discrete2_check,
    evaluate_forms,
    h_eigenvalues_below_threshold,
    hermite_eval,
    lower_bound_constant,
    mirror,
    random_forms,
    random_trial,
    saturating_trial,
)
from speclab.cli import run
from speclab.coupling import _eigenvectors
from speclab.recurrence import _weight_rows

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


def test_trial_max_index():
    trial = ModeTrialFunction(
        (
            TrialMode(n=0, upper=2.0, lower=1.0j, decay=1.0),
            TrialMode(n=2, upper=-1.0, lower=0.5, decay=3.0),
        )
    )
    assert trial.max_index == 2


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


def _rows(draw) -> list[ModeTrialFunction]:
    """The trial functions of a ``_draw_trials`` draw, one per row."""
    present, upper, lower, decay, _ = draw
    return [
        ModeTrialFunction(tuple(
            TrialMode(n=int(n), upper=upper[i, n], lower=lower[i, n], decay=decay[i, n])
            for n in np.flatnonzero(present[i])
        ))
        for i in range(len(present))
    ]


@pytest.mark.parametrize("gamma", [None, 0.4 - 0.3j])
def test_random_trial_is_one_trial_of_the_draw(gamma):
    for seed in range(20):
        draw = hamiltonian._draw_trials(np.random.default_rng(seed), 1, gamma)
        assert random_trial(np.random.default_rng(seed), beta_zero_gamma=gamma) == _rows(draw)[0]


def test_drawn_trials_keep_their_distributions():
    # 1-5 distinct modes of 0..12, each count equally likely; log-uniform
    # decays in [0.1, 10]; complex standard-normal boundary values
    trials = 20000
    present, upper, lower, decay, _ = hamiltonian._draw_trials(np.random.default_rng(3), trials, None)
    counts = np.bincount(present.sum(axis=1), minlength=6)
    assert counts[0] == 0
    assert np.all(np.abs(counts[1:] / trials - 0.2) < 0.015)
    # every index is equally likely: 3 modes of 13 on average
    assert np.all(np.abs(present.mean(axis=0) - 3.0 / 13.0) < 0.015)
    logs = np.log(decay[present])
    assert logs.min() >= math.log(0.1) and logs.max() <= math.log(10.0)
    assert abs(logs.mean()) < 0.03
    assert abs(logs.var() - (2.0 * math.log(10.0)) ** 2 / 12.0) < 0.03
    for z in (upper[present], lower[present]):
        for part in (z.real, z.imag):
            assert abs(part.mean()) < 0.02 and abs(part.var() - 1.0) < 0.03
    assert not upper[~present].any() and not lower[~present].any()


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
        trial = random_trial(rng)
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
        trial = random_trial(rng, beta_zero_gamma=params.gamma)
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


@pytest.mark.parametrize("log_gamma", range(-12, 13, 2))
def test_forms_beta_zero_accepts_projected_trials_at_any_gamma(log_gamma):
    # splitting f_plus into (upper, lower) loses it to rounding once |gamma|
    # is large; the check used to reject such trials from |gamma| ~ 1e7 on
    rng = np.random.default_rng(log_gamma + 100)
    for phase in (0.0, 0.7, 2.5):
        gamma = 10.0**log_gamma * complex(math.cos(phase), math.sin(phase))
        params = CouplingParams(1.0, 0.0, gamma)
        for _ in range(40):
            trial = random_trial(rng, beta_zero_gamma=gamma)
            assert math.isfinite(evaluate_forms(trial, params).full)


@pytest.mark.parametrize("gamma", [1e3, 1e8, -3e5 + 4e5j])
def test_forms_beta_zero_rejects_unprojected_trial_at_large_gamma(gamma):
    rng = np.random.default_rng(9)
    for _ in range(10):
        with pytest.raises(Beta0ConstraintError):
            evaluate_forms(random_trial(rng), CouplingParams(1.0, 0.0, gamma))


@pytest.mark.parametrize("seed", [0, 3])
def test_forms_reject_boundary_form_out_of_range(seed):
    # omega0 ~ 1e308 is finite, but times O(1) mode products it overflowed:
    # b_sum came back -inf (seed 0) or nan (seed 3) with no error
    trial = random_trial(np.random.default_rng(seed))
    with pytest.raises(InvalidParametersError, match="not finite"):
        evaluate_forms(trial, CouplingParams(1e300, 1e8))
    with pytest.raises(InvalidParametersError, match="not finite"):
        random_forms(CouplingParams(1e300, 1e8), np.random.default_rng(seed), 50)


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
# forms of many trials as arrays

ARRAY_POINTS = [
    CouplingParams(1.0, 0.0),
    CouplingParams(0.8, 0.0, 0.3 - 0.4j),
    CouplingParams(-1.2, 0.0, 2.0 + 1.0j),
    CouplingParams(1.0, 4.0),
    CouplingParams(1.1, 3.5, -0.25 + 0.35j),
    CouplingParams(-1.5, 1.0, 0.2j),
    CouplingParams(2.0, -3.0, 1.0 + 1.0j),
]


@pytest.mark.parametrize("params", ARRAY_POINTS)
def test_random_forms_match_evaluate_forms_trial_by_trial(params):
    gamma = params.gamma if params.beta == 0.0 else None
    draw = hamiltonian._draw_trials(np.random.default_rng(11), 400, gamma)
    forms = random_forms(params, np.random.default_rng(11), 400)
    for i, trial in enumerate(_rows(draw)):
        ref = evaluate_forms(trial, params)
        bound = 1e-14 * (abs(ref.a0) + abs(ref.b_sum))
        assert abs(forms.a0[i] - ref.a0) <= bound
        assert abs(forms.b_sum[i] - ref.b_sum) <= bound
        assert abs(forms.norm_sq[i] - ref.norm_sq) <= bound


@pytest.mark.parametrize("gamma", [1e16, -6e15 + 8e15j, 1e17j])
def test_random_forms_beta_zero_at_huge_gamma(gamma):
    # upper + lower holds f_plus only to within rounding of |f_minus|, which
    # is about |gamma|/2 |f_plus|: at |gamma| = 1e16 the scalar path's f_plus
    # is off by about a quarter of itself
    params = CouplingParams(0.9, 0.0, gamma)
    _, _, _, decay, f_plus = hamiltonian._draw_trials(np.random.default_rng(4), 300, gamma)
    forms = random_forms(params, np.random.default_rng(4), 300)
    half_gamma = 0.5 * complex(gamma).conjugate()
    for i in range(300):
        fp = [complex(x) for x in f_plus[i]]
        d = [float(x) for x in decay[i]]
        a0 = math.fsum(
            0.5 * (abs(fp[n]) ** 2 + abs(half_gamma * fp[n]) ** 2)
            * (0.5 * d[n] + (n + 0.5) / (2.0 * d[n]))
            for n in range(13)
        )
        terms = [math.sqrt(n) / (2.0 * SQRT2) * params.alpha
                 * (fp[n].conjugate() * fp[n - 1]).real for n in range(1, 13)]
        assert abs(forms.a0[i] - a0) <= 1e-12 * a0
        assert abs(forms.b_sum[i] - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))


def test_evaluate_forms_never_derives(monkeypatch):
    # the boundary form reads Sigma's Pauli coefficients, not its eigensystem
    def no_derive(*args, **kwargs):
        raise AssertionError("evaluate_forms called derive")

    monkeypatch.setattr(coupling, "derive", no_derive)
    monkeypatch.setattr(hamiltonian, "derive", no_derive)
    rng = np.random.default_rng(8)
    for params in (CouplingParams(0.7, 2.0, 0.3 + 0.4j), CouplingParams(1.3, 0.0, 0.5j)):
        gamma = params.gamma if params.beta == 0.0 else None
        trial = random_trial(rng, beta_zero_gamma=gamma)
        assert math.isfinite(evaluate_forms(trial, params).b_sum)


def test_forms_beta_independent_on_beta_zero_domain():
    # on f_minus = -conj(gamma)/2 * f_plus the beta != 0 boundary form is
    # (alpha/4) * sum sqrt(2n) Re(conj(f_{+,n}) f_{+,n-1}) whatever beta is
    rng = np.random.default_rng(404)
    for _ in range(100):
        alpha = rng.uniform(-2.0, 2.0)
        gamma = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        trial = random_trial(rng, beta_zero_gamma=gamma)
        weight = sum(m.weight for m in trial.modes)
        want = evaluate_forms(trial, CouplingParams(alpha, 0.0, gamma)).b_sum
        for beta in (1e-3, 0.5, 3.0, -2.0):
            got = evaluate_forms(trial, CouplingParams(alpha, beta, gamma)).b_sum
            scale = 1.0 + (4.0 + abs(gamma) ** 2 + abs(alpha * beta)) / abs(beta)
            assert abs(got - want) <= 1e-13 * weight * scale, (alpha, beta, gamma)


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
    k1, k2 = _eigenvectors(derived.omega)
    trial = saturating_trial(0.5, 1, derived)
    (m,) = trial.modes
    vec = np.array([m.upper, m.lower]) * math.sqrt(0.5)
    assert np.allclose(vec, k1, rtol=1e-14)
    trial2 = saturating_trial(0.5, "Branch2", derived)
    (m2,) = trial2.modes
    vec2 = np.array([m2.upper, m2.lower]) * math.sqrt(0.5)
    assert np.allclose(vec2, k2, rtol=1e-14)


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
# the spectral Jacobi family is the form's pencil on one branch


def _form_pencil(mu: float, lam: float, size: int):
    """The form matrix A and norm matrix G of a branch of weight mu, on the
    trials sum_n f_n K exp(-delta_n |x|) chi_n(y), K the branch's unit
    eigenvector of Sigma and delta_n = sqrt(n + 1/2 - lam): A's diagonal
    a_n = delta_n/2 + (n + 1/2)/(2 delta_n) and couplings sqrt(n)/(2 mu)
    between modes n - 1 and n, G's diagonal g_n = 1/(2 delta_n)."""
    n = np.arange(size, dtype=float)
    delta = np.sqrt(n + 0.5 - lam)
    return delta / 2.0 + (n + 0.5) / (2.0 * delta), 1.0 / (2.0 * delta), np.sqrt(n[1:]) / (2.0 * mu)


@pytest.mark.parametrize("mu, lam", [(1.0005, 0.4859), (1.5, -0.3), (3.2, 0.1), (7.1, -3.0),
                                     (0.6, 0.25)])
def test_spectral_family_is_the_form_pencil(mu, lam):
    # 2 mu D (A - lam G) D with D = diag((n + 1/2)^(1/4)) is the truncation
    # of the spectral family at lam, so its counts count the form's pencil
    a, g, couplings = _form_pencil(mu, lam, 300)
    d = (np.arange(300) + 0.5) ** 0.25
    t = build(SpectralFamily(lam, mu), 300)
    np.testing.assert_allclose(t.diag, 2.0 * mu * d * d * (a - lam * g), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(t.offdiag, 2.0 * mu * d[1:] * d[:-1] * couplings,
                               rtol=1e-14, atol=0.0)


def test_forms_give_the_pencil_coefficients():
    # evaluate_forms on unit trials of one branch: mode n alone gives a_n
    # and g_n, modes n - 1 and n together add both couplings, 2 sqrt(n)/(2 mu)
    p, lam = CouplingParams(0.8, 1.5, 0.3 - 0.7j), -0.4
    d = derive(p)
    for k, mu in zip(_eigenvectors(d.omega), (d.mu1, d.mu2)):
        a, g, couplings = _form_pencil(mu, lam, 8)
        modes = [TrialMode(n, k[0], k[1], math.sqrt(n + 0.5 - lam)) for n in range(8)]
        for n in (1, 2, 7):
            alone = evaluate_forms(ModeTrialFunction((modes[n],)), p)
            assert alone.a0 == pytest.approx(a[n], rel=1e-14)
            assert alone.norm_sq == pytest.approx(g[n], rel=1e-14)
            assert alone.b_sum == 0.0
            pair = evaluate_forms(ModeTrialFunction((modes[n - 1], modes[n])), p)
            assert pair.a0 == pytest.approx(a[n - 1] + a[n], rel=1e-14)
            assert pair.norm_sq == pytest.approx(g[n - 1] + g[n], rel=1e-14)
            assert pair.b_sum == pytest.approx(2.0 * couplings[n - 1], rel=1e-13)


@pytest.mark.parametrize("params", [
    CouplingParams(1.0, 1.0),
    CouplingParams(1.4, 1.0),
    CouplingParams(SQRT2 / 1.005, 0.0),
], ids=["one-root", "two-roots", "three-roots"])
def test_h_spectrum_roots_are_min_max_limits_of_the_form(params):
    # the Ritz values of the form's pencil A v = E G v on one branch's
    # trials at lam_ref, from dense eigvalsh of G^(-1/2) A G^(-1/2), which
    # shares no code with the counts, are upper bounds on the branch's
    # eigenvalues (min-max): at lam_ref = e_j the j-th lies in
    # [e_j - tol, e_j + 1e-11] at N = 512, and no such trial space holds
    # more Ritz values below 1/2 than the branch has eigenvalues
    res = h_eigenvalues_below_threshold(params)
    (mu,) = res.branch_mus
    for j, e in enumerate(res.eigenvalues):
        a, g, couplings = _form_pencil(mu, e, 512)
        s = 1.0 / np.sqrt(g)
        off = couplings * s[1:] * s[:-1]
        ritz = np.linalg.eigvalsh(np.diag(a * s * s) + np.diag(off, 1) + np.diag(off, -1))
        assert e - 1e-10 <= ritz[j] <= e + 1e-11
        assert np.count_nonzero(ritz < THRESHOLD) <= res.per_branch_counts[0]


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


def _window(params, lambda_min=None):
    """The search window h_eigenvalues_below_threshold uses."""
    if lambda_min is None:
        lambda_min = THRESHOLD - 10.0
        c = lower_bound_constant(params)
        if c > 0.0:
            lambda_min = max(lambda_min, 0.5 * c)
    return lambda_min, THRESHOLD - hamiltonian._WINDOW_MARGIN


def _truncation_counter(mu, size):
    """Counts below 0 of the size-row spectral truncation, one per lambda."""
    offdiag = coupling_weights(np.arange(1, size))

    def counts_at(lams):
        # 64 lambdas at a time keeps the (64, size) diagonals small
        return np.concatenate([
            counts_for_diagonals(_weight_rows(mu, lams[i : i + 64, None], size), offdiag)
            for i in range(0, lams.size, 64)
        ])

    return counts_at


def _full_bisection(mu, window, tol, size):
    """The eigenvalue list of a bisection of the size-row truncation."""
    counts_at = _truncation_counter(mu, size)
    c_lo, c_hi = counts_at(np.array(window))
    lows, highs = tridiag._bisect(counts_at, *window, np.arange(c_lo, c_hi), tol)
    return 0.5 * (lows + highs)


def _assert_certified(res, window, tol, size=4096):
    """Every eigenvalue x of ``res`` is count-certified on the independent
    size-row truncations: with N the count summed over the branches and
    j the root's index counted from the window's lower end,
    N(x - tol/2) = j and N(x + tol/2) = j + 1."""
    counters = [_truncation_counter(mu, size) for mu in res.branch_mus]

    def total(lams):
        return sum(counter(lams) for counter in counters)

    x = res.eigenvalues
    js = total(np.array([window[0]]))[0] + np.arange(x.size)
    assert total(x - 0.5 * tol).tolist() == js.tolist()
    assert total(x + 0.5 * tol).tolist() == (js + 1).tolist()


def test_h_spectrum_single_eigenvalue_frozen():
    res = h_eigenvalues_below_threshold(CouplingParams(1.0, 1.0))
    assert res.count == 1
    assert res.branches == (Branch.ONE,)
    assert res.branch_mus[0] == pytest.approx(SQRT2, rel=1e-15)
    assert res.eigenvalues[0] == pytest.approx(0.47541226430548, abs=1e-9)
    assert res.method_agreement < 1e-8
    # every count is certified within the first 64 rows at mu = sqrt(2)
    assert res.truncation_size == 64
    window = _window(CouplingParams(1.0, 1.0))
    _assert_certified(res, window, 1e-10)
    full = _full_bisection(res.branch_mus[0], window, 1e-10, 4096)
    assert np.abs(res.eigenvalues - full).max() <= 1e-10


def _recording_search(monkeypatch):
    """Record the levels of every spectral count, the depth of every real
    secular set-up and the (low, high, x) of every polish of h-spectrum's
    search: the Anderson-Bjorck steps it runs to tol/16, not those the
    cross-check runs to 1e-14."""
    record = {"walks": [], "depths": [], "polishes": []}
    spectral_counts = hamiltonian.spectral_counts
    real_secular = hamiltonian._real_secular
    illinois = hamiltonian._illinois

    def counting(mu, lams, *, cap):
        record["walks"].append(np.array(lams, dtype=float).tolist())
        return spectral_counts(mu, lams, cap=cap)

    def setting_up(mu, n):
        record["depths"].append(n)
        return real_secular(mu, n)

    def polishing(f, lo, flo, hi, fhi, xtol):
        x = illinois(f, lo, flo, hi, fhi, xtol)
        if xtol != 1e-14:
            record["polishes"].append((lo, hi, x))
        return x

    monkeypatch.setattr(hamiltonian, "spectral_counts", counting)
    monkeypatch.setattr(hamiltonian, "_real_secular", setting_up)
    monkeypatch.setattr(hamiltonian, "_illinois", polishing)
    return record


def _assert_polished_alone(mu, polishes):
    """Every polished bracket holds one root of the 4096-row truncation."""
    counts_at = _truncation_counter(mu, 4096)
    for lo, hi, _ in polishes:
        c_lo, c_hi = counts_at(np.array([lo, hi]))
        assert c_hi - c_lo == 1


def _missed(res, polishes):
    """Whether no polished x is within tol/2 of an eigenvalue of ``res``."""
    return all(x is None or np.abs(res.eigenvalues - x).min() > 0.5e-10 for *_, x in polishes)


@pytest.mark.parametrize("wrong", ["shifted", "flat", "stalled"])
def test_h_spectrum_bisects_where_the_polish_fails(wrong, monkeypatch):
    # a secular function whose root is 1e-6 off gives polished roots that
    # their counts reject; a flat one gives no sign change to polish;
    # steps that do not converge give no polished root.  Each way every
    # target is polished at most once, alone in its bracket, then halved,
    # and every root is certified.
    params = CouplingParams(1.4, 1.0)
    depth = 300
    real_secular = hamiltonian._real_secular

    def polish_is_wrong(mu, n):
        f = real_secular(mu, n)
        if n != depth or wrong == "stalled":
            return f
        return (lambda lam: 1.0) if wrong == "flat" else (lambda lam: f(lam - 1e-6))

    monkeypatch.setattr(hamiltonian, "_polish_depth", lambda mu, top: depth)
    monkeypatch.setattr(hamiltonian, "_real_secular", polish_is_wrong)
    if wrong == "stalled":
        # the steps run out in the polish and in the cross-check alike
        monkeypatch.setattr(hamiltonian, "_illinois", lambda *args: None)
    record = _recording_search(monkeypatch)
    res = h_eigenvalues_below_threshold(params)
    assert res.count == 2
    polishes = record["polishes"]
    assert len(polishes) == (0 if wrong == "flat" else 2)
    _assert_polished_alone(res.branch_mus[0], polishes)
    assert _missed(res, polishes)
    if wrong == "stalled":
        assert res.method_agreement == math.inf
    else:
        assert res.method_agreement < 1e-8
    window = _window(params)
    _assert_certified(res, window, 1e-10)
    full = _full_bisection(res.branch_mus[0], window, 1e-10, 4096)
    assert np.abs(res.eigenvalues - full).max() <= 1e-10


def test_h_spectrum_certifies_a_lone_root_in_one_walk(monkeypatch):
    # the root is polished on the whole window, and the one walk counts the
    # window ends and x -+ tol/2 together; the answer keeps its bits
    record = _recording_search(monkeypatch)
    params = CouplingParams(1.0, 1.0)
    res = h_eigenvalues_below_threshold(params)
    window = _window(params)
    assert len(record["walks"]) == 1 and record["walks"][0][:2] == list(window)
    assert len(record["walks"][0]) == 4
    assert [polish[:2] for polish in record["polishes"]] == [window]
    # the polish's sweep and the cross-check's
    assert record["depths"] == [hamiltonian._polish_depth(res.branch_mus[0], window[1]),
                                hamiltonian._SECULAR_DEPTH]
    assert float(res.eigenvalues[0]).hex() == "0x1.e6d278fd53dddp-2"
    assert res.method_agreement == 0.0
    assert res.truncation_size == 64


@pytest.mark.parametrize("mu_minus_1, roots", [(5e-3, 3), (1.5e-3, 5)])
def test_h_spectrum_keeps_the_speculative_root_of_an_odd_branch(mu_minus_1, roots, monkeypatch):
    # an odd number of roots shows as a sign change across the window: the
    # root polished there is certified by the first walk and splits the
    # window, and each other root is polished once its bracket holds it
    # alone
    record = _recording_search(monkeypatch)
    params = CouplingParams(SQRT2 / (1.0 + mu_minus_1), 0.0)
    res = h_eigenvalues_below_threshold(params)
    assert res.per_branch_counts == (roots,)
    (lo, hi, x), *rest = record["polishes"]
    h = 0.5e-10
    assert (lo, hi) == _window(params) and record["walks"][0][2:] == [x - h, x + h]
    assert 0.5 * ((x - h) + (x + h)) in res.eigenvalues
    assert len(rest) == roots - 1
    _assert_polished_alone(res.branch_mus[0], rest)
    assert record["depths"].count(hamiltonian._SECULAR_DEPTH) == 1
    assert len(record["depths"]) == 2
    _assert_certified(res, _window(params), 1e-10)


@pytest.mark.parametrize("mu_minus_1, roots", [(2.5e-3, 4), (5.4e-4, 8)])
def test_h_spectrum_polishes_only_lone_brackets_of_an_even_branch(mu_minus_1, roots, monkeypatch):
    # an even number of roots shows no sign change across the window, so
    # the first walk counts its ends alone; no bracket that holds two or
    # more roots is polished, as 8 roots at mu - 1 = 5.4e-4 are in the
    # benchmark's spectrum queries
    record = _recording_search(monkeypatch)
    params = CouplingParams(SQRT2 / (1.0 + mu_minus_1), 0.0)
    res = h_eigenvalues_below_threshold(params)
    assert res.per_branch_counts == (roots,)
    assert record["walks"][0] == list(_window(params))
    assert len(record["polishes"]) == roots
    _assert_polished_alone(res.branch_mus[0], record["polishes"])
    _assert_certified(res, _window(params), 1e-10)


def test_h_spectrum_bisects_where_the_speculative_root_is_off(monkeypatch):
    # at an odd count a secular function whose roots sit 1e-6 off gives a
    # speculative root, 1e-6 above root 0, whose counts at x -+ tol/2
    # isolate none.  Root 0's bracket below it then holds no sign change to
    # polish; roots 1 and 2 are polished once each, alone in their
    # brackets, and missed again.  Every root is halved from the brackets
    # those counts leave, and certified
    params = CouplingParams(SQRT2 / 1.005, 0.0)
    depth = 300
    real_secular = hamiltonian._real_secular

    def shifted(mu, n):
        f = real_secular(mu, n)
        return (lambda lam: f(lam - 1e-6)) if n == depth else f

    monkeypatch.setattr(hamiltonian, "_polish_depth", lambda mu, top: depth)
    monkeypatch.setattr(hamiltonian, "_real_secular", shifted)
    record = _recording_search(monkeypatch)
    res = h_eigenvalues_below_threshold(params)
    assert res.count == 3
    window = _window(params)
    # the first walk held x -+ tol/2 and certified no root there
    assert len(record["walks"][0]) == 4
    (lo, hi, _), *rest = record["polishes"]
    assert (lo, hi) == window and len(rest) == 2
    _assert_polished_alone(res.branch_mus[0], rest)
    assert _missed(res, record["polishes"])
    assert res.method_agreement < 1e-8
    _assert_certified(res, window, 1e-10)
    full = _full_bisection(res.branch_mus[0], window, 1e-10, 4096)
    assert np.abs(res.eigenvalues - full).max() <= 1e-10


@pytest.mark.parametrize("params", [
    CouplingParams(1.0, 1.0),
    CouplingParams(1.4, 1.0),
    CouplingParams(SQRT2 / 1.005, 0.0),
], ids=["one-root", "two-roots", "three-roots"])
def test_h_spectrum_ends_where_every_polish_stops_at_its_clamp(params, monkeypatch):
    # steps that return their clamp point low + tol/16 put x - tol/2 below
    # the bracket and certify nothing: each target is polished at most
    # once more, then halved, so the search still ends within the rounds
    # of a bisection of the window and three more
    monkeypatch.setattr(hamiltonian, "_illinois", lambda f, lo, flo, hi, fhi, xtol: lo + xtol)
    record = _recording_search(monkeypatch)
    window = _window(params)
    walks = math.ceil(math.log2((window[1] - window[0]) / 1e-10)) + 3
    counting = hamiltonian.spectral_counts

    def bounded(mu, lams, *, cap):
        assert len(record["walks"]) < walks, "the search did not end"
        return counting(mu, lams, cap=cap)

    monkeypatch.setattr(hamiltonian, "spectral_counts", bounded)
    res = h_eigenvalues_below_threshold(params)
    _assert_certified(res, window, 1e-10)


def _alpha_for_mu(mu, beta, gamma):
    """alpha at which the larger branch weight of (alpha, beta >= 0, gamma)
    is mu.  beta = 0: mu = (4 + |gamma|^2) / (2 sqrt2 alpha).  beta > 0:
    the smaller boundary-matrix eigenvalue E = omega0 - r equals
    2 sqrt2 beta / mu (< 8 here), which for s = alpha beta gives
    s + |g|^2 = (E^2 - 8E - 16 |g|^2) / (2 (E - 8))."""
    g2 = abs(gamma) ** 2
    if beta == 0.0:
        return (4.0 + g2) / (2.0 * SQRT2 * mu)
    e = 2.0 * SQRT2 * beta / mu
    return ((e * e - 8.0 * e - 16.0 * g2) / (2.0 * (e - 8.0)) - g2) / beta


@settings(max_examples=25, deadline=None)
@given(
    log_mu_minus_1=st.floats(math.log10(2e-3), math.log10(5.0)),
    beta=st.one_of(st.just(0.0), st.floats(0.3, 2.5)),
    gamma_abs=st.floats(0.0, 1.2),
    gamma_arg=st.floats(-math.pi, math.pi),
    epsilon=st.floats(1e-3, 1.0),
)
def test_spectral_commands_at_valid_points(log_mu_minus_1, beta, gamma_abs, gamma_arg,
                                           epsilon):
    # points with a subcritical weight no nearer 1 than the cross-check
    # resolves: every command exits 0 with finite output, and every
    # h-spectrum eigenvalue is count-certified
    mu = 1.0 + 10.0**log_mu_minus_1
    gamma = cmath.rect(gamma_abs, gamma_arg)
    params = CouplingParams(_alpha_for_mu(mu, beta, gamma), beta, gamma)
    coupling = [f"--alpha={params.alpha!r}", f"--beta={beta!r}",
                f"--gamma-re={gamma.real!r}", f"--gamma-im={gamma.imag!r}"]
    for argv in (["h-spectrum", *coupling], ["count", *coupling, f"--epsilon={epsilon!r}"],
                 ["discrete2-check", *coupling]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run(argv)
        assert rc == 0, argv
        text = out.getvalue()
        json.loads(text)
        # the CLI prints a number that is not finite as a quoted string
        assert not any(s in text for s in ('"inf"', '"-inf"', '"nan"', "Infinity", "NaN")), argv
    res = h_eigenvalues_below_threshold(params)
    assert max(res.branch_mus) == pytest.approx(mu, rel=1e-12)
    _assert_certified(res, _window(params), 1e-10)


@pytest.mark.parametrize("mu_minus_1", [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
def test_h_spectrum_equals_full_bisection_bitwise(mu_minus_1, monkeypatch):
    # h-spectrum equals a bisection of the 65536-row truncation: every
    # count it took equals that truncation's count at the same lambda, so
    # such a bisection takes the same decisions and ends in the same list
    params = CouplingParams(SQRT2 / (1.0 + mu_minus_1), 0.0)
    taken = []
    spectral_counts = hamiltonian.spectral_counts

    def recording(mu, lams, *, cap):
        counts, rows = spectral_counts(mu, lams, cap=cap)
        taken.append((np.array(lams, dtype=float), counts))
        return counts, rows

    monkeypatch.setattr(hamiltonian, "spectral_counts", recording)
    for tol in (1e-6, 1e-10, 1e-12):
        for lambda_min in (None, 0.25):
            res = h_eigenvalues_below_threshold(params, lambda_min=lambda_min, tol=tol)
            assert res.count >= 1
    lams, first = np.unique(np.concatenate([lam for lam, _ in taken]), return_index=True)
    counts = np.concatenate([c for _, c in taken])[first]
    assert np.array_equal(counts, _truncation_counter(res.branch_mus[0], 2**16)(lams))


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


def test_h_spectrum_cap_exhaustion_raises():
    # at mu - 1 = 1e-3 the counts next to the roots need more than 512
    # rows; a cap is a block end, and at row 600 every count is certified
    params = CouplingParams(SQRT2 / 1.001, 0.0)
    with pytest.raises(NonConvergenceError, match="row cap 512"):
        h_eigenvalues_below_threshold(params, size_cap=512)
    assert h_eigenvalues_below_threshold(params, size_cap=600).truncation_size == 600


def test_h_spectrum_size_cap_validation():
    for cap in (0, -4, 1):
        with pytest.raises(InvalidParametersError):
            h_eigenvalues_below_threshold(CouplingParams(1.0, 1.0), size_cap=cap)
        with pytest.raises(InvalidParametersError):
            discrete2_check(CouplingParams(1.0, 1.0), size_cap=cap)


@pytest.mark.parametrize("cap", [jacobi_ops.ROW_CAP + 1, 4 * jacobi_ops.ROW_CAP])
def test_size_cap_above_row_cap_is_rejected(cap):
    # the certificates' rounding argument holds up to 2^20 rows; a larger
    # cap walked past it and certified the count
    params = CouplingParams(1.0, 1.0)
    calls = [
        lambda: h_eigenvalues_below_threshold(params, size_cap=cap),
        lambda: discrete2_check(params, size_cap=cap),
        lambda: count_below_epsilon(params, 1e-3, size_cap=cap),
        lambda: count_asymptotics_curve([1.0000001], size_cap=cap),
    ]
    for call in calls:
        with pytest.raises(InvalidParametersError, match="1048576"):
            call()


def _record_rows(monkeypatch) -> list[int]:
    """The row every block a spectral count walks ends at."""
    stops: list[int] = []
    weight_rows = jacobi_ops._weight_rows

    def recording(mu, lams, stop, start=0):
        stops.append(stop)
        return weight_rows(mu, lams, stop, start)

    monkeypatch.setattr(jacobi_ops, "_weight_rows", recording)
    return stops


def test_h_spectrum_never_factors_above_cap(monkeypatch):
    stops = _record_rows(monkeypatch)
    params = CouplingParams(SQRT2 / 1.001, 0.0)
    with pytest.raises(NonConvergenceError):
        h_eigenvalues_below_threshold(params, size_cap=500)
    assert max(stops) == 500
    stops.clear()
    res = h_eigenvalues_below_threshold(params)
    assert max(stops) == res.truncation_size == 1024


def _bisect_secular(mu, lam, lam_floor, size=256):
    """The secular root by plain bisection of the first sign change found
    around ``lam``, for comparison with the Illinois polish."""

    f = hamiltonian._real_secular(mu, size)
    half = 1e-9
    while half <= 1e-3:
        lo = max(lam - half, lam_floor)
        hi = min(lam + half, THRESHOLD - 1e-12)
        flo, fhi = f(lo), f(hi)
        if flo * fhi < 0.0:
            while hi - lo >= 1e-14:
                mid = 0.5 * (lo + hi)
                if flo * f(mid) < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, f(mid)
            return 0.5 * (lo + hi)
        half *= 4.0
    return None


def test_illinois_bisects_when_the_secant_leaves_the_bracket():
    # an end value of inf makes the secant point nan: the step takes the
    # midpoint, and the secant steps after it find the root.  The midpoint
    # replaces the end of value inf, so the Anderson-Bjorck factor
    # 1 - f(x)/inf = 1 is not in (0, 1), and the value at the end kept is
    # halved instead: the next secant point is 0.5 - 0.2 * 0.5 / 0.35, not
    # the root 0.3 that the unscaled value would give
    xs = []

    def f(x):
        xs.append(x)
        return x - 0.3

    root = hamiltonian._illinois(f, 0.0, -0.3, 1.0, math.inf, 1e-12)
    assert xs[0] == 0.5
    assert xs[1] == pytest.approx(0.5 - 0.2 * 0.5 / (0.2 + 0.15), rel=1e-15)
    assert abs(root - 0.3) <= 1e-12


@pytest.mark.parametrize("f, root", [
    (lambda x: x**3 - 2.0, 2.0 ** (1.0 / 3.0)),
    (lambda x: math.exp(x) - 2.0, math.log(2.0)),
    # flat away from the root, where secant steps crawl
    (lambda x: math.tanh(40.0 * (x - 0.3)), 0.3),
], ids=["cube", "exp", "tanh"])
@pytest.mark.parametrize("lo, hi", [(-1.0, 3.0), (0.25, 1.3), (0.29, 3.0)])
@pytest.mark.parametrize("xtol", [1e-4, 1e-9, 1e-14])
def test_illinois_converges_on_curved_functions(f, root, lo, hi, xtol):
    x = hamiltonian._illinois(f, lo, f(lo), hi, f(hi), xtol)
    assert abs(x - root) <= xtol


def test_illinois_says_when_its_steps_run_out():
    # secant steps on a triple root crawl: after 80 steps the midpoint of
    # the bracket held was 1.65, 1.35e14 xtol from the root 0.3
    evals = []

    def f(x):
        evals.append(x)
        return (x - 0.3) ** 3

    assert hamiltonian._illinois(f, -2.0, f(-2.0), 3.0, f(3.0), 1e-14) is None
    assert len(evals) == 82


def test_refine_secular_illinois_matches_bisection():
    evals = []
    roots = 0
    for mu in (1.003, 1.01, 1.05, 1.1, 1.3, SQRT2, 2.2, 2.7, 11.0):
        window = (THRESHOLD - 10.0, THRESHOLD - 1e-9)
        f = hamiltonian._real_secular(mu, hamiltonian._SECULAR_DEPTH)

        def counted(lam, f=f):
            evals[-1] += 1
            return f(lam)

        for lam in _full_bisection(mu, window, 1e-10, 2048):
            expected = _bisect_secular(mu, float(lam), window[0])
            evals.append(0)
            root = hamiltonian._refine_secular(mu, float(lam), window[0], counted)
            assert root is not None and expected is not None
            assert abs(root - expected) <= 1e-14
            assert evals[-1] <= 10
            roots += 1
    assert roots >= 10


def _recording(monkeypatch, name):
    """Replace hamiltonian's ``name`` by a wrapper that records the
    arguments and result of every call; returns the record."""
    calls = []
    func = getattr(hamiltonian, name)

    def recording(*args):
        result = func(*args)
        calls.append((*args, result))
        return result

    monkeypatch.setattr(hamiltonian, name, recording)
    return calls


# mu2 - 1 = 1e-3 puts six roots on branch 2, the top one with no sign
# change at the cross-check depth; branch 1 (mu1 = 2.02) has one root
_NEAR_CRITICAL_BRANCH_2 = CouplingParams(0.7, 8.0 * 1.001 / (2.0 * SQRT2))


def test_cross_check_stops_at_the_first_root_without_a_sign_change(monkeypatch):
    calls = _recording(monkeypatch, "_refine_secular")
    res = h_eigenvalues_below_threshold(_NEAR_CRITICAL_BRANCH_2)
    assert res.branch_mus[1] == pytest.approx(1.001, rel=1e-12)
    assert res.per_branch_counts == (1, 6)
    assert res.method_agreement == math.inf
    # branch 1's root, then branch 2's top root, which has no sign change
    assert [root is None for *_, root in calls] == [False, True]
    assert [mu for mu, *_ in calls] == list(res.branch_mus)
    assert calls[1][1] == max(res.eigenvalues[res.eigenvalues != calls[0][1]])


@pytest.mark.parametrize("params", [
    CouplingParams(1.0, 1.0),
    CouplingParams(1.4, 1.0),
    CouplingParams(0.7, 3.0),
    CouplingParams(SQRT2 / 1.0012, 0.0),
    _NEAR_CRITICAL_BRANCH_2,
], ids=["one-root", "two-roots", "two-branches", "near-critical", "near-critical-miss"])
def test_cross_check_agreement_equals_every_root_checked(params, monkeypatch):
    calls = _recording(monkeypatch, "_secular_agreement")
    res = h_eigenvalues_below_threshold(params)
    (mus, per_branch, lam_floor, agreement), = calls
    # every root of every branch, from the bottom up, none skipped
    reference = 0.0
    for mu, eigs in zip(mus, per_branch):
        f = hamiltonian._real_secular(mu, hamiltonian._SECULAR_DEPTH)
        for lam in eigs:
            root = hamiltonian._refine_secular(mu, float(lam), lam_floor, f)
            reference = max(reference, math.inf if root is None else abs(root - float(lam)))
    assert res.method_agreement == agreement == reference
    assert sum(e.size for e in per_branch) == res.count


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


def test_count_below_epsilon_no_subcritical_raises():
    # as h-spectrum and discrete2-check do: it warned and gave 0
    with pytest.raises(NoSubcriticalBranchError, match="no branch of .* has weight mu > 1"):
        count_below_epsilon(CouplingParams(3.0, 1.0), 0.1)
    # the free case has no branch, and nothing below the threshold
    assert count_below_epsilon(CouplingParams(0.0, 0.0), 0.1) == 0


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


# beta = 0 points with mu - 1 from 1e-4 to 10, and three beta > 0 points:
# two eigenvalues on one branch, two subcritical branches, and a benchmark
# point with mu - 1 = 3.1e-4 and ten eigenvalues
COUNT_POINTS = [
    *(CouplingParams(SQRT2 / (1.0 + d), 0.0) for d in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)),
    CouplingParams(1.4, 1.0),
    CouplingParams(
        0.9849444704872194, 4.600715716066205,
        complex(0.19667971884217206, 0.6538845826401847),
    ),
    CouplingParams(
        2.9012878830297506, 2.2781640533844145,
        complex(-0.03550290383030817, 0.9047505208524667),
    ),
]


@pytest.mark.parametrize("params", COUNT_POINTS, ids=range(len(COUNT_POINTS)))
def test_discrete2_count_equals_located_count(params):
    rep = discrete2_check(params)
    res = h_eigenvalues_below_threshold(params)
    assert rep.lhs == res.count
    assert rep.branch_mus == res.branch_mus
    assert rep.bound == (1 if len(res.branch_mus) == 1 else 2)


def test_discrete2_check_counts_without_bisection(monkeypatch):
    def no_bisection(*args, **kwargs):
        raise AssertionError("discrete2_check bisected")

    monkeypatch.setattr(tridiag, "_bisect", no_bisection)
    rep = discrete2_check(COUNT_POINTS[-1])
    assert (rep.lhs, rep.rhs) == (10, 9)


def test_discrete2_check_cap_exhaustion_raises():
    # at mu - 1 = 3.1e-4 the window end next to the threshold has
    # K = ceil(mu^2 lam / (mu^2 - 1) - 1/2) = 803
    with pytest.raises(NonConvergenceError, match="row cap 800"):
        discrete2_check(COUNT_POINTS[-1], size_cap=800)


def test_discrete2_check_never_counts_above_cap(monkeypatch):
    stops = _record_rows(monkeypatch)
    assert discrete2_check(COUNT_POINTS[-1]).lhs == 10
    assert max(stops) == 1024
    stops.clear()
    with pytest.raises(NonConvergenceError):
        discrete2_check(COUNT_POINTS[-1], size_cap=800)
    assert max(stops) == 800


def test_discrete2_check_without_eigenvalues_to_count():
    with pytest.raises(NoSubcriticalBranchError):
        discrete2_check(CouplingParams(3.0, 1.0))
    rep = discrete2_check(CouplingParams(0.0, 0.0))
    assert (rep.lhs, rep.rhs, rep.bound, rep.ok, rep.branch_mus) == (0, 0, 1, True, ())


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
