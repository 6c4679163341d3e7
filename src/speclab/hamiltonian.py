"""Quadratic forms and point spectrum of the coupled half-plane operator.

The operator acts on functions of (x, y) as -d2/dx2 + (y^2 - d2/dy2)/2 away
from the line x = 0, with the four-parameter boundary coupling from
:mod:`speclab.coupling` matching the two sides.  Expanding in transverse
oscillator modes chi_n(y) turns a trial function into a family of half-line
profiles; this module works entirely in that mode picture:

* ``evaluate_forms`` computes the kinetic-plus-oscillator part ``a0`` in
  closed form for exponential mode profiles A_n e^(-delta_n x), and the
  boundary part ``b_sum`` as one sum of nearest-neighbour mode couplings,
  sum_n sqrt(n)/(2 sqrt 2) Re(conj(u_n)^T K u_{n-1}) / s, read from the
  Pauli coefficients of one matrix: (K, s) = (Sigma, beta), or
  (alpha (I + sigma_x), 1) at beta = 0.
* ``random_forms`` gives the same three forms for many random trial
  functions at once, drawn as (trials, modes) arrays and summed by rows;
  ``evaluate_forms`` is its scalar reference.
* ``lower_bound_constant`` gives the constant c with
  ``full >= (c / 2) * norm_sq`` whenever c > 0.
* ``saturating_trial`` builds the single-mode trial that turns the
  half-line trace inequality delta*|psi(0)|^2 <= integral(|psi'|^2 +
  delta^2 |psi|^2) into an equality.
* ``h_eigenvalues_below_threshold`` locates all eigenvalues below the
  continuum threshold 1/2 on certified Sturm counts of the infinite
  spectral Jacobi family (:func:`speclab.jacobi_ops.spectral_counts`).
  Each branch sets up one secular function (the boundary-row residual of
  the recurrence's minimal solution, read from one backward sweep of its
  ratios: at real lam the Sturm count of the reversed truncation, in the
  counts' one pivot loop and pivmin rule), at a depth from the window
  top, and searches in one loop on one bracket rule: each root's bracket
  runs between the nearest points counted on either side of its jump.
  Where the function changes sign across the window, one root is
  polished there by Anderson-Bjorck steps before any count, and the
  branch's first count takes the window ends and that root -+ tol/2
  together: a lone root costs that one walk.  Each later walk counts a
  root -+ tol/2 polished by the same steps in every bracket that holds
  its root alone, with the certified roots divided out, and the midpoint
  of every other bracket wider than tol.
  Every root is cross-checked against the secular function at a fixed
  depth, set up once per branch, its sign change polished by the same
  steps, each branch's roots from the top down until the first one that
  has none.
* ``count_below_epsilon``, ``discrete2_check`` and
  ``count_asymptotics_curve`` compare that eigenvalue count against
  certified counts of the counting Jacobi operators
  (:func:`speclab.jacobi_ops.certified_count`).  The bound check needs no
  eigenvalues: it counts them at the ends of the same window,
  c(lam_hi) - c(lam_lo) per branch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .coupling import (
    Branch,
    CouplingDerived,
    CouplingParams,
    _abs2,
    _eigenvectors,
    _omegas,
    branch_mus,
    canonicalize,
    derive,
)
from .errors import (
    Beta0ConstraintError,
    InvalidParametersError,
    NoSubcriticalBranchError,
)
from .jacobi_ops import (
    ROW_CAP,
    CountingFamily,
    CountingLimitFamily,
    _turn_factor,
    certified_count,
    spectral_counts,
)
from .recurrence import _real_secular
from .tridiag import _check_tol

__all__ = [
    "THRESHOLD",
    "hermite_eval",
    "TrialMode",
    "ModeTrialFunction",
    "random_trial",
    "FormValues",
    "evaluate_forms",
    "random_forms",
    "lower_bound_constant",
    "saturating_trial",
    "HSpectrumResult",
    "h_eigenvalues_below_threshold",
    "count_below_epsilon",
    "Discrete2Report",
    "discrete2_check",
    "AsymptoticsRow",
    "count_asymptotics_curve",
]

THRESHOLD = 0.5

_SQRT2 = math.sqrt(2.0)
# The eigenvalue search stops this far below the threshold: the spectral
# diagonal involves sqrt(n + 1/2 - lambda), which loses meaning at 1/2.
_WINDOW_MARGIN = 1e-9
# Depth of the backward recurrence behind the secular cross-check of
# h-spectrum's eigenvalues.
_SECULAR_DEPTH = 256
# Random trial functions use the oscillator modes 0.._MAX_MODE.
_MAX_MODE = 12


# ---------------------------------------------------------------------------
# transverse oscillator modes


def hermite_eval(n: int, y: np.ndarray | float) -> np.ndarray:
    """L^2-normalised oscillator eigenfunction chi_n evaluated pointwise.

    chi_0(y) = pi**(-1/4) exp(-y^2/2) and the upward recurrence
    sqrt(n+1) chi_{n+1} = sqrt(2) y chi_n - sqrt(n) chi_{n-1}.
    """
    if n < 0:
        raise InvalidParametersError(f"mode index must be >= 0, got {n}")
    ys = np.asarray(y, dtype=float)
    prev = np.zeros_like(ys)
    cur = math.pi ** (-0.25) * np.exp(-0.5 * ys * ys)
    for k in range(n):
        nxt = (np.sqrt(2.0) * ys * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
        prev, cur = cur, nxt
    return cur


# ---------------------------------------------------------------------------
# trial functions


@dataclass(frozen=True)
class TrialMode:
    """One transverse mode of a trial function.

    The profile along the axis is ``upper * exp(-decay * x)`` for x > 0 and
    ``lower * exp(decay * x)`` for x < 0, multiplied by chi_n(y).
    """

    n: int
    upper: complex
    lower: complex
    decay: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidParametersError(f"mode index must be >= 0, got {self.n}")
        d = float(self.decay)
        if not (math.isfinite(d) and d > 0.0):
            raise InvalidParametersError(f"decay rate must be positive, got {d}")
        object.__setattr__(self, "upper", complex(self.upper))
        object.__setattr__(self, "lower", complex(self.lower))
        object.__setattr__(self, "decay", d)

    @property
    def weight(self) -> float:
        """|upper|^2 + |lower|^2, the combined boundary intensity."""
        u, v = abs(self.upper), abs(self.lower)
        return u * u + v * v

    @property
    def norm_sq(self) -> float:
        return self.weight / (2.0 * self.decay)

    @property
    def f_plus(self) -> complex:
        return self.upper + self.lower

    @property
    def f_minus(self) -> complex:
        return self.upper - self.lower


@dataclass(frozen=True)
class ModeTrialFunction:
    """Finite mode sum Psi(x, y) = sum_n psi_n(x) chi_n(y)."""

    modes: tuple[TrialMode, ...]
    _by_index: dict[int, TrialMode] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        if not modes:
            raise InvalidParametersError("a trial function needs at least one mode")
        by_index: dict[int, TrialMode] = {}
        for m in modes:
            if m.n in by_index:
                raise InvalidParametersError(f"duplicate mode index {m.n}")
            by_index[m.n] = m
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "_by_index", by_index)

    @property
    def max_index(self) -> int:
        return max(m.n for m in self.modes)

    def mode(self, n: int) -> TrialMode | None:
        return self._by_index.get(n)

    def norm_sq(self) -> float:
        return sum(m.norm_sq for m in self.modes)


def _draw_trials(
    rng: np.random.Generator,
    count: int,
    beta_zero_gamma: complex | None,
) -> tuple[np.ndarray, ...]:
    """``count`` random trial functions as (count, _MAX_MODE + 1) arrays.

    Returns ``(present, upper, lower, decay, f_plus)``: row i holds trial
    i, column n its mode n.  Each trial has 1-5 distinct modes of
    0.._MAX_MODE, drawn uniformly; ``upper`` and ``lower`` are zero on the
    modes it lacks, so those carry no weight.  ``f_plus`` is upper + lower
    as drawn, before the beta = 0 projection rounds it.
    """
    shape = (count, _MAX_MODE + 1)
    n_modes = rng.integers(1, 6, size=count)
    # the ranks of uniform keys are a uniform permutation of each row
    rank = rng.random(shape).argsort(axis=1).argsort(axis=1)
    present = rank < n_modes[:, None]
    decay = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=shape))
    z = rng.standard_normal((4, *shape))
    upper = np.where(present, z[0] + 1j * z[1], 0.0)
    lower = np.where(present, z[2] + 1j * z[3], 0.0)
    f_plus = upper + lower
    if beta_zero_gamma is not None:
        f_minus = -0.5 * complex(beta_zero_gamma).conjugate() * f_plus
        upper = 0.5 * (f_plus + f_minus)
        lower = 0.5 * (f_plus - f_minus)
    return present, upper, lower, decay, f_plus


def random_trial(
    rng: np.random.Generator,
    *,
    beta_zero_gamma: complex | None = None,
) -> ModeTrialFunction:
    """Draw a random trial function for Monte-Carlo form checks.

    Mode indices are sampled without replacement from 0.._MAX_MODE (12),
    decay rates log-uniformly from [0.1, 10], boundary values as complex
    standard normals.  When ``beta_zero_gamma`` is given the boundary values
    are projected onto the constraint f_minus = -conj(gamma)/2 * f_plus that
    the beta = 0 form domain imposes.  This is one trial of the draw that
    :func:`random_forms` makes.
    """
    present, upper, lower, decay, _ = _draw_trials(rng, 1, beta_zero_gamma)
    return ModeTrialFunction(tuple(
        TrialMode(n=int(n), upper=complex(upper[0, n]), lower=complex(lower[0, n]),
                  decay=float(decay[0, n]))
        for n in np.flatnonzero(present[0])
    ))


# ---------------------------------------------------------------------------
# quadratic forms


@dataclass(frozen=True)
class FormValues:
    """Pieces of the sesquilinear form: floats for one trial function
    (:func:`evaluate_forms`), or arrays with one entry per trial function
    (:func:`random_forms`)."""

    a0: float | np.ndarray
    b_sum: float | np.ndarray
    norm_sq: float | np.ndarray

    @property
    def full(self) -> float:
        return self.a0 + self.b_sum


def _a0_value(trial: ModeTrialFunction) -> float:
    # integral over both half-lines of |psi_n'|^2 + (n + 1/2) |psi_n|^2
    # for psi_n = A e^(-delta x): delta^2/(2 delta) + (n + 1/2)/(2 delta).
    total = 0.0
    for m in trial.modes:
        total += m.weight * (0.5 * m.decay + (m.n + 0.5) / (2.0 * m.decay))
    return total


_BETA0_CONSTRAINT_TOL = 1e-10


def evaluate_forms(trial: ModeTrialFunction, params: CouplingParams) -> FormValues:
    """Evaluate a0, the boundary sum, and the norm for one trial function.

    The boundary sum couples neighbouring modes through one Hermitian
    matrix K = k0*I + k1*sigma_x + k2*sigma_y + k3*sigma_z:

        b_sum = (1/s) * sum_{n>=1} sqrt(n)/(2 sqrt(2))
                * Re( conj(u_n)^T K u_{n-1} ),

    with u_n = (psi_n(0+), psi_n(0-)).  For beta != 0, K is the coupling
    matrix Sigma, with coefficients (omega0, omega1, omega2, omega3), and
    s = beta.  For beta = 0 the form domain forces f_minus = -conj(gamma)/2
    * f_plus on every mode, K = alpha*(I + sigma_x) and s = 1, so that
    Re(conj(u_n)^T K u_{n-1}) = alpha * Re(conj(f_{+,n}) f_{+,n-1}).
    """
    p = params if isinstance(params, CouplingParams) else CouplingParams(*params)
    a0 = _a0_value(trial)
    norm_sq = trial.norm_sq()

    if p.beta == 0.0:
        half_gamma = 0.5 * complex(p.gamma).conjugate()
        for m in trial.modes:
            defect = abs(m.f_minus + half_gamma * m.f_plus)
            # f_plus and f_minus are formed from (upper, lower), each to
            # within rounding of |upper| + |lower|, so that is all the
            # constraint can hold to, whatever the size of gamma
            bound = (1.0 + abs(half_gamma)) * (abs(m.upper) + abs(m.lower))
            if defect > _BETA0_CONSTRAINT_TOL * bound:
                raise Beta0ConstraintError(
                    "beta = 0 trial functions must satisfy "
                    "f_minus = -conj(gamma)/2 * f_plus on every mode; "
                    f"mode {m.n} violates it by {defect:.3e}"
                )
        (k0, k1, k2, k3), s = (p.alpha, p.alpha, 0.0, 0.0), 1.0
    else:
        (k0, k1, k2, k3), s = _omegas(p), p.beta

    b_sum = 0.0
    for n in range(1, trial.max_index + 1):
        cur, prev = trial.mode(n), trial.mode(n - 1)
        if cur is None or prev is None:
            continue
        # Re(conj(u_n)^T K u_{n-1}) expanded on I, sigma_x, sigma_y, sigma_z
        a, b = cur.upper.conjugate(), cur.lower.conjugate()
        ac, bd = a * prev.upper, b * prev.lower
        ad, bc = a * prev.lower, b * prev.upper
        re_k = (k0 * (ac + bd).real + k1 * (ad + bc).real
                + k2 * (ad - bc).imag + k3 * (ac - bd).real)
        b_sum += math.sqrt(n) / (2.0 * _SQRT2) * re_k
    b_sum /= s
    if not math.isfinite(b_sum):
        raise InvalidParametersError(
            f"the boundary form at {p} is not finite in double precision"
        )
    return FormValues(a0=a0, b_sum=b_sum, norm_sq=norm_sq)


def random_forms(
    params: CouplingParams, rng: np.random.Generator, trials: int
) -> FormValues:
    """a0, b_sum and norm_sq of ``trials`` random trial functions, as arrays.

    The trials are those of :func:`random_trial`, projected onto the
    beta = 0 constraint when params.beta = 0, drawn together as
    (trials, modes) arrays.  Each form is a row sum over the modes, with
    the terms of :func:`evaluate_forms`, which stays the scalar reference.
    At beta = 0 the forms are taken from the drawn f_plus, with
    f_minus = -conj(gamma)/2 * f_plus: ``upper + lower`` would give f_plus
    back only to within rounding of |f_minus|, which is all noise once
    |gamma| >= 1e16.
    """
    beta_zero_gamma = params.gamma if params.beta == 0.0 else None
    _, upper, lower, decay, f_plus = _draw_trials(rng, trials, beta_zero_gamma)
    n = np.arange(_MAX_MODE + 1)
    # sums that overflow are reported below, or by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        if beta_zero_gamma is None:
            weight = _abs2(upper) + _abs2(lower)
            # Re(conj(u_n)^T Sigma u_{n-1}) expanded on I, sigma_x, sigma_y, sigma_z
            (k0, k1, k2, k3), s = _omegas(params), params.beta
            a, b = upper[:, 1:].conjugate(), lower[:, 1:].conjugate()
            ac, bd = a * upper[:, :-1], b * lower[:, :-1]
            ad, bc = a * lower[:, :-1], b * upper[:, :-1]
            re_k = (k0 * (ac + bd).real + k1 * (ad + bc).real
                    + k2 * (ad - bc).imag + k3 * (ac - bd).real)
        else:
            # |upper|^2 + |lower|^2 = (|f_plus|^2 + |f_minus|^2) / 2, and
            # Re(conj(u_n)^T alpha (I + sigma_x) u_{n-1})
            #     = alpha Re(conj(f_{+,n}) f_{+,n-1})
            weight = 0.5 * (1.0 + _abs2(0.5 * beta_zero_gamma)) * _abs2(f_plus)
            s = 1.0
            re_k = params.alpha * (f_plus[:, 1:].conjugate() * f_plus[:, :-1]).real
        a0 = (weight * (0.5 * decay + (n + 0.5) / (2.0 * decay))).sum(axis=1)
        norm_sq = (weight / (2.0 * decay)).sum(axis=1)
        b_sum = (np.sqrt(n[1:]) / (2.0 * _SQRT2) * re_k).sum(axis=1) / s
    if not np.isfinite(b_sum).all():
        raise InvalidParametersError(
            f"the boundary form at {params} is not finite in double precision"
        )
    return FormValues(a0=a0, b_sum=b_sum, norm_sq=norm_sq)


def lower_bound_constant(params: CouplingParams) -> float:
    """Constant c in the lower bound full >= (c/2) * norm_sq.

    The bound is informative only when c > 0; callers must check the sign.
    """
    p = canonicalize(params)
    if p.beta == 0.0:
        return 1.0 - p.alpha / _SQRT2
    # |omega0| + r, the Sigma eigenvalue of larger magnitude
    d = derive(p)
    top = d.sigma_eig_plus if d.omega[0] >= 0.0 else -d.sigma_eig_minus
    return 1.0 - top / (2.0 * _SQRT2 * p.beta)


def saturating_trial(
    delta: float, branch: int | Branch, derived: CouplingDerived
) -> ModeTrialFunction:
    """Single-mode trial aligned with one eigenvector of the coupling matrix.

    Boundary values are K/sqrt(delta) for the chosen unit eigenvector K, so
    the half-line trace inequality is saturated and the boundary values
    scale as delta**(-1/2).
    """
    d = float(delta)
    if not (math.isfinite(d) and d > 0.0):
        raise InvalidParametersError(f"decay rate must be positive, got {delta}")
    if derived.params.beta == 0.0:
        raise InvalidParametersError(
            "saturating trials use the coupling-matrix eigenvectors, which "
            "require beta != 0"
        )
    key = branch if isinstance(branch, Branch) else str(branch)
    if key in (Branch.ONE, "1", "Branch1"):
        k = _eigenvectors(derived.omega)[0]
    elif key in (Branch.TWO, "2", "Branch2"):
        k = _eigenvectors(derived.omega)[1]
    else:
        raise InvalidParametersError(f"branch must be 1 or 2, got {branch!r}")
    scale = 1.0 / math.sqrt(d)
    return ModeTrialFunction(
        (TrialMode(n=0, upper=k[0] * scale, lower=k[1] * scale, decay=d),)
    )


# ---------------------------------------------------------------------------
# eigenvalues below the threshold


@dataclass(frozen=True)
class HSpectrumResult:
    """Eigenvalues below 1/2 together with the search metadata."""

    branches: tuple[Branch, ...]
    branch_mus: tuple[float, ...]
    eigenvalues: np.ndarray
    per_branch_counts: tuple[int, ...]
    truncation_size: int
    method_agreement: float

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)


def _illinois(f, lo: float, flo: float, hi: float, fhi: float, xtol: float) -> float | None:
    """A zero of ``f`` in [lo, hi], where f(lo) = flo and f(hi) = fhi have
    opposite signs, located to about ``xtol`` / 2.

    Anderson-Bjorck steps (BIT 13, 1973), the Illinois rule of Dowell &
    Jarratt (BIT 11, 1971) with a better factor: each step evaluates f at
    the secant point x of the bracket ends and keeps the sign change.
    When x replaces the end that the step before replaced (or either end,
    at the first step), the value at the other end is scaled by
    1 - f(x)/f(old), with f(old) the value x replaced, or by 1/2 where that
    factor is not in (0, 1): an old value of inf, or a step that did not
    shrink |f|.  The midpoint is taken whenever the secant point leaves
    the bracket, and every point stays at least ``xtol`` / 2 from either
    end.

    Returns the first of: a secant point less than ``xtol`` / 2 from the
    point evaluated last, without evaluating it (a step that short comes
    where the steps converge faster than linearly, so the point it
    reaches is nearer the root than the step is long); a point where f is
    exactly 0; the midpoint of the bracket once it is under ``xtol`` or
    down to ulps.  Returns None where none of these comes within 80 steps.
    """
    last = 0  # the end evaluated last: -1 hi, 1 lo, 0 neither yet
    for _ in range(80):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo <= x <= hi:
            x = 0.5 * (lo + hi)
        elif last and abs(x - (hi if last < 0 else lo)) < 0.5 * xtol:
            return x
        x = min(max(x, lo + 0.5 * xtol), hi - 0.5 * xtol)
        if not lo < x < hi:
            # the bracket is down to ulps
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            if last <= 0:
                m = 1.0 - fx / fhi
                flo *= m if 0.0 < m < 1.0 else 0.5
            hi, fhi = x, fx
            last = -1
        else:
            if last >= 0:
                m = 1.0 - fx / flo
                fhi *= m if 0.0 < m < 1.0 else 0.5
            lo, flo = x, fx
            last = 1
        if hi - lo < xtol:
            break
    else:
        return None
    return 0.5 * (lo + hi)


def _refine_secular(mu: float, lam: float, lam_floor: float, f) -> float | None:
    """Nearest zero of the real secular function around ``lam``.

    ``f`` is the function at depth ``_SECULAR_DEPTH`` for ``mu``.  The
    first sign change in brackets of half-width 1e-9, 4e-9, ... around
    ``lam`` is polished by the Anderson-Bjorck steps of :func:`_illinois`
    to a secant point less than 5e-15 from the point evaluated before it,
    or the midpoint of a bracket under 1e-14.
    Returns None when no sign change shows up within a 1e-3 neighbourhood,
    or when the steps do not converge, which callers treat as a method
    disagreement.
    """
    ceiling = THRESHOLD - 1e-12
    half = 1e-9
    while half <= 1e-3:
        lo = max(lam - half, lam_floor)
        hi = min(lam + half, ceiling)
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi < 0.0:
            return _illinois(f, lo, flo, hi, fhi, 1e-14)
        half *= 4.0
    return None


def _secular_agreement(mus: list[float], per_branch: list[np.ndarray],
                       lam_floor: float) -> float:
    """The largest distance of an eigenvalue from its zero of the secular
    function at depth ``_SECULAR_DEPTH`` (:func:`_refine_secular`), or inf
    once one has none.

    Each branch with eigenvalues sets that function up once, for all of
    them.  Its eigenvalues are checked from the top down: a root the
    fixed depth misses is one nearest 1/2, whose turning row lies deepest,
    and after the first miss no other check can change the inf.
    """
    agreement = 0.0
    for mu, eigs in zip(mus, per_branch):
        if not eigs.size:
            continue
        f = _real_secular(mu, _SECULAR_DEPTH)
        for lam in reversed(eigs.tolist()):
            root = _refine_secular(mu, lam, lam_floor, f)
            if root is None:
                return math.inf
            agreement = max(agreement, abs(root - lam))
    return agreement


def _polish_depth(mu: float, top: float) -> int:
    """Depth of the secular function that polishes the roots below ``top``,
    the top of a branch's search window.

    Row k of the recurrence, with x = k + 1/2 and d(k), d(k+1) about x,
    has local ratios C_{k+1}/C_k solving r^2 + 2 m_k r + 1 = 0, where
    m_k = |w_k| / (2x) = mu sqrt(1 - lam/x).  Past the turning row
    T = mu^2 lam / (mu^2 - 1), where m_k = 1, the two solutions separate,
    the minimal one falling against the dominant one by e^(-2 arccosh m_k)
    per row, and m_k rises towards mu.  Miller's sweep from rho = 0 at the
    buffer top m (at real lam the reversed truncation's Sturm count, a
    pivot within pivmin of 0 clamped to -pivmin) errs in rho_0 by about
    the ratio of the two solutions over the rows it sweeps (Gautschi, SIAM
    Review 9, 1967), so 20 / arccosh mu rows past T at the full rate make
    that error e^(-40).  Nearer T the rate is lower
    (m_k^2 - 1 = (mu^2 - 1)(1 - T/x)), which matters next to the threshold
    of a near-critical mu.  The buffer above the depth makes up for most
    of it: against a sweep four times as deep (its sign taken for C_n = 1,
    as the minimal solution alternates past T), the value kept every bit
    for mu - 1 from 3e-3 to 3 and moved by at most 1.4e-10 down to 1e-5.
    A depth that fell short would only cost a halving: each polished root
    is certified by its counts.
    """
    return math.ceil(max(top, 0.0) * _turn_factor(mu) + 20.0 / math.acosh(mu))


def _branch_roots(f, counts_at, window: tuple[float, float], tol: float) -> np.ndarray:
    """The eigenvalues of one branch in ``window``, each the midpoint of a
    final bracket, from its secular function ``f`` and its counts.

    The branch keeps every point it has counted.  Target k's bracket runs
    from the highest point counted at or below k to the lowest counted
    above it.  Each round counts, in one walk, the points the open
    brackets ask for:

    * x -+ h, h = tol/2, for a root x polished by Anderson-Bjorck steps
      (:func:`_illinois`, to a secant point less than tol/32 from the
      point evaluated before it, or the midpoint of a bracket under
      tol/16) on f with every certified root divided out.  The window is
      polished before any count, and its x -+ h are counted with its
      ends, which for a lone root is the whole search.  After that a
      bracket is polished only where its end counts show its target
      alone, and each target at most once.  count(x - h) <= k <
      count(x + h) makes (x - h, x + h) the bracket of target k and
      certifies x.  Dividing x out keeps the steps from crawling where f
      is next to 0, at the ends x -+ h of the brackets beside it; no
      bracket holds x, so the quotient has no pole in any.
    * the midpoint of every other bracket wider than ``tol``, once for a
      bracket shared by several targets.

    A target is done when its bracket is within ``tol``, is (x - h, x + h)
    for a polished x (which may round to an ulp wider), or has a midpoint
    that rounds to one of its ends.  A target whose polish misses is
    halved to ``tol``, so every root is count-certified: the counts are
    the judge, and the polish only sets how few of them a root costs.
    """
    h = 0.5 * tol
    values: dict[float, float] = {}  # f, memoised: brackets share their ends
    certified: list[float] = []
    polished: dict[tuple[float, float], float] = {}  # (x - h, x + h): x
    tried: set[int] = set()  # the targets polished alone

    def deflated(lam: float) -> float:
        value = values.get(lam)
        if value is None:
            value = values[lam] = f(lam)
        for x in certified:
            value /= lam - x
        return value

    def polish(low: float, high: float) -> list[float]:
        flo, fhi = deflated(low), deflated(high)
        x = _illinois(deflated, low, flo, high, fhi, 0.125 * h) if flo * fhi < 0.0 else None
        if x is None:
            return []
        polished[x - h, x + h] = x
        return [x - h, x + h]

    lo, hi = window
    # f changes sign at each root: across a window holding an odd number
    asked = [lo, hi, *polish(lo, hi)]
    counted: dict[float, int] = {}
    while asked:
        counted.update(zip(asked, counts_at(np.array(asked)).tolist()))
        # counts are nondecreasing in lambda, so for each k = count(lo) ..
        # count(hi) - 1 the k-th jump lies between the last point counted
        # at or below k and the next
        points = sorted(counted)
        counts = [counted[lam] for lam in points]
        ks = range(counted[lo], counted[hi])
        brackets = [(points[j - 1], points[j]) for j in (bisect_right(counts, k) for k in ks)]
        certified[:] = [x for b, x in polished.items() if b in brackets]
        asked = []
        for k, (low, high) in zip(ks, brackets):
            mid = 0.5 * low + 0.5 * high
            if high - low <= tol or (low, high) in polished or not low < mid < high:
                continue
            if k not in tried and counted[low] == k and counted[high] == k + 1:
                tried.add(k)
                near = polish(low, high)
                if near:
                    asked += near
                    continue
            # a bracket shared by several targets asks once
            if mid not in asked:
                asked.append(mid)
    return np.array([0.5 * (low + high) for low, high in brackets])


def _subcritical(p: CouplingParams) -> list[tuple[Branch, float]]:
    """The branches (branch, mu) of the canonical parameters p with mu > 1,
    less the alpha = 0 marker: none in the free case, which has no branch.
    Branches none of which has mu > 1 raise ``NoSubcriticalBranchError``."""
    mus = branch_mus(p)
    subcritical = [(br, mu) for br, mu in mus if math.isfinite(mu) and mu > 1.0]
    if mus and not subcritical:
        raise NoSubcriticalBranchError(
            f"no branch of {p} has weight mu > 1; there are no eigenvalues "
            "below the threshold to locate"
        )
    return subcritical


def _branches_and_window(
    params: CouplingParams, lambda_min: float | None
) -> tuple[list[tuple[Branch, float]], tuple[float, float] | None]:
    """The subcritical branches (branch, mu) of the canonical parameters
    and the search window (lam_lo, lam_hi) below the threshold.

    The free case gives no branch and no window, and branches none of
    which is subcritical raise, as :func:`_subcritical` says.  The
    window's lower end defaults to 1/2 - 10, tightened to c/2 whenever the
    form lower-bound constant c is positive, but no higher than its upper
    end, ``_WINDOW_MARGIN`` below 1/2: there the window is empty.
    """
    p = canonicalize(params)
    subcritical = _subcritical(p)
    if not subcritical:
        return [], None
    lam_hi = THRESHOLD - _WINDOW_MARGIN
    if lambda_min is None:
        lambda_min = THRESHOLD - 10.0
        c = lower_bound_constant(p)
        if c > 0.0:
            # a bound at or above the window top proves the window empty
            lambda_min = min(max(lambda_min, 0.5 * c), lam_hi)
    elif not float(lambda_min) < lam_hi:
        raise InvalidParametersError(
            f"lambda_min = {float(lambda_min)} does not leave a search window below 1/2"
        )
    return subcritical, (float(lambda_min), lam_hi)


def h_eigenvalues_below_threshold(
    params: CouplingParams,
    lambda_min: float | None = None,
    tol: float = 1e-10,
    *,
    size_cap: int = ROW_CAP,
) -> HSpectrumResult:
    """Locate every eigenvalue below the continuum threshold 1/2.

    Eigenvalues on the branch with weight mu sit exactly where the Sturm
    count at level 0 of the spectral Jacobi family jumps as a function of
    lambda.  The search window is (lambda_min, 1/2); when ``lambda_min`` is
    omitted it defaults to 1/2 - 10, tightened to c/2 whenever the form
    lower-bound constant c is positive, and no higher than the window top
    1/2 - 1e-9: a c/2 above it proves the window empty.

    Each branch sets up one secular function, at a depth from mu and the
    window top (:func:`_polish_depth`), and searches with it in rounds of
    one batched count each (:func:`_branch_roots`).  Where it changes
    sign across the window, safeguarded Anderson-Bjorck steps
    (:func:`_illinois`) polish one root x on the whole window, stopping
    at a secant step under tol/32, and the first count takes the window
    ends and x -+ tol/2 together: a count jump between x -+ tol/2
    certifies that root, and a lone root needs no other count.  After
    that, each round polishes once, by the same steps with the certified
    roots divided out, every bracket whose end counts show its root
    alone, and counts its x -+ tol/2; every other bracket wider than
    ``tol`` is halved, a bracket shared by several roots once.  A root
    whose polish finds no sign change, or whose counts at x -+ tol/2
    miss it, is halved on from the bracket those counts leave, so every
    root lies in a bracket within ``tol`` (to an ulp) whose end counts
    enclose it; the eigenvalue is its midpoint.

    Every count is the certified count of the infinite operator, walked
    to at most ``size_cap`` rows; a count not certified by then raises
    ``NonConvergenceError``.  ``truncation_size`` is the most rows any of
    these counts walked.

    Each root is cross-checked against the secular function of the
    half-line recurrence at depth ``_SECULAR_DEPTH``, set up once per
    branch, its sign change polished by the same steps;
    ``method_agreement`` reports the largest discrepancy (0 when there is
    nothing to check), or inf where a root shows no sign change.  Each
    branch's roots are checked from the top of the window down, and the
    check stops at the first that shows none (:func:`_secular_agreement`).
    """
    tol = _check_tol(tol)
    subcritical, window = _branches_and_window(params, lambda_min)
    per_branch: list[np.ndarray] = []
    max_size = 0
    for _, mu in subcritical:

        def counts_at(lams: np.ndarray, mu: float = mu) -> np.ndarray:
            nonlocal max_size
            counts, rows = spectral_counts(mu, lams, cap=size_cap)
            max_size = max(max_size, rows)
            return counts

        f = _real_secular(mu, _polish_depth(mu, window[1]))
        per_branch.append(_branch_roots(f, counts_at, window, tol))

    mus = [mu for _, mu in subcritical]
    # no window: the free case, with no branch and nothing to check
    agreement = _secular_agreement(mus, per_branch, window[0]) if window else 0.0
    merged = np.sort(np.concatenate(per_branch)) if per_branch else np.zeros(0)
    return HSpectrumResult(
        branches=tuple(br for br, _ in subcritical),
        branch_mus=tuple(mus),
        eigenvalues=merged,
        per_branch_counts=tuple(int(e.size) for e in per_branch),
        truncation_size=max_size,
        method_agreement=agreement,
    )


# ---------------------------------------------------------------------------
# eigenvalue counting via the counting operators


def count_below_epsilon(
    params: CouplingParams,
    epsilon: float,
    *,
    size_cap: int = ROW_CAP,
) -> int:
    """Number of eigenvalues below 1/2 - epsilon predicted by the counting
    operator: the sum over subcritical branches of the eigenvalues of the
    epsilon-regularised counting matrix exceeding the branch weight, 0 in
    the free case; no subcritical branch raises (:func:`_subcritical`)."""
    p = canonicalize(params)
    family = CountingFamily(epsilon)  # validates epsilon > 0
    return sum(certified_count(family, mu, cap=size_cap)[0] for _, mu in _subcritical(p))


@dataclass(frozen=True)
class Discrete2Report:
    """Comparison of the located eigenvalue count with the counting limit."""

    lhs: int
    rhs: int
    bound: int
    branch_mus: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.bound


def discrete2_check(
    params: CouplingParams,
    *,
    size_cap: int = ROW_CAP,
) -> Discrete2Report:
    """Check |#eigenvalues below 1/2  -  sum_j N+(mu_j)| <= bound.

    The left-hand side needs no eigenvalues, only their number: per
    subcritical branch it is c_hi - c_lo, the certified counts at the ends
    of the window ``h_eigenvalues_below_threshold`` searches, from one
    batch.  The right-hand side counts eigenvalues of the limiting
    counting operator above each subcritical branch weight; the bound is
    1 when a single branch is subcritical and 2 when both are.  No count
    walks more than ``size_cap`` rows.
    """
    subcritical, window = _branches_and_window(params, None)
    mus = tuple(mu for _, mu in subcritical)
    lhs = 0
    for mu in mus:
        (c_lo, c_hi), _ = spectral_counts(mu, window, cap=size_cap)
        lhs += int(c_hi - c_lo)
    rhs = sum(certified_count(CountingLimitFamily(), mu, cap=size_cap)[0] for mu in mus)
    bound = 1 if len(mus) <= 1 else 2
    return Discrete2Report(lhs=lhs, rhs=rhs, bound=bound, branch_mus=mus)


@dataclass(frozen=True)
class AsymptoticsRow:
    mu: float
    counted: int
    predicted: float

    @property
    def ratio(self) -> float:
        return self.counted / self.predicted if self.predicted else math.inf


def count_asymptotics_curve(
    mu_values: tuple[float, ...] | list[float],
    *,
    size_cap: int = ROW_CAP,
) -> tuple[AsymptoticsRow, ...]:
    """Certified counting-limit counts against the near-critical law
    1 / (4 sqrt(2) sqrt(mu - 1)) for each mu in ``mu_values`` (all > 1)."""
    family = CountingLimitFamily()
    rows = []
    for mu_raw in mu_values:
        mu = float(mu_raw)
        if not (math.isfinite(mu) and mu > 1.0):
            raise InvalidParametersError(
                f"the counting asymptotics need mu > 1, got {mu}"
            )
        counted, _ = certified_count(family, mu, cap=size_cap)
        predicted = 1.0 / (4.0 * _SQRT2 * math.sqrt(mu - 1.0))
        rows.append(AsymptoticsRow(mu=mu, counted=counted, predicted=predicted))
    return tuple(rows)
