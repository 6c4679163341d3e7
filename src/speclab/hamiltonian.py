"""Quadratic forms and point spectrum of the coupled half-plane operator.

The operator acts on functions of (x, y) as -d2/dx2 + (y^2 - d2/dy2)/2 away
from the line x = 0, with the four-parameter boundary coupling from
:mod:`speclab.coupling` matching the two sides.  Expanding in transverse
oscillator modes chi_n(y) turns a trial function into a family of half-line
profiles; this module works entirely in that mode picture:

* ``evaluate_forms`` computes the kinetic-plus-oscillator part ``a0`` in
  closed form for exponential mode profiles A_n e^(-delta_n x), and the
  boundary part ``b_sum`` as a sum of nearest-neighbour mode couplings.
* ``lower_bound_constant`` gives the constant c with
  ``full >= (c / 2) * norm_sq`` whenever c > 0.
* ``saturating_trial`` builds the single-mode trial that turns the
  half-line trace inequality delta*|psi(0)|^2 <= integral(|psi'|^2 +
  delta^2 |psi|^2) into an equality.
* ``h_eigenvalues_below_threshold`` locates all eigenvalues below the
  continuum threshold 1/2 by Sturm-count bisection on the spectral Jacobi
  family, doubling the truncation until the list stabilises, and
  cross-checks every root against the secular function of the three-term
  recurrence.
* ``count_below_epsilon``, ``discrete2_check`` and
  ``count_asymptotics_curve`` compare that eigenvalue count against the
  counting Jacobi operators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coupling import (
    Branch,
    CouplingDerived,
    CouplingParams,
    branch_mus,
    canonicalize,
    derive,
)
from .errors import (
    Beta0ConstraintError,
    InvalidParametersError,
    NonConvergenceError,
    NoSubcriticalBranchError,
)
from .jacobi_ops import (
    DOUBLING_CAP,
    DOUBLING_START,
    CountingFamily,
    CountingLimitFamily,
    spectral_diagonals,
    stable_count,
)
from .recurrence import coupling_weights, secular_function
from .tridiag import _bisect, _check_tol, counts_for_diagonals

__all__ = [
    "THRESHOLD",
    "hermite_eval",
    "TrialMode",
    "ModeTrialFunction",
    "random_trial",
    "FormValues",
    "evaluate_forms",
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
        return abs(self.upper) ** 2 + abs(self.lower) ** 2

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

    def boundary_vector(self, n: int) -> np.ndarray:
        """(psi_n(0+), psi_n(0-)) as a length-2 complex vector."""
        m = self._by_index.get(n)
        if m is None:
            return np.zeros(2, dtype=complex)
        return np.array([m.upper, m.lower], dtype=complex)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pointwise values on a broadcastable (x, y) grid; for plotting."""
        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        total = np.zeros(np.broadcast(xs, ys).shape, dtype=complex)
        for m in self.modes:
            profile = np.where(
                xs >= 0.0,
                m.upper * np.exp(-m.decay * np.clip(xs, 0.0, None)),
                m.lower * np.exp(m.decay * np.clip(xs, None, 0.0)),
            )
            total = total + profile * hermite_eval(m.n, ys)
        return total


def random_trial(
    rng: np.random.Generator,
    *,
    max_mode: int = 12,
    decay_range: tuple[float, float] = (0.1, 10.0),
    beta_zero_gamma: complex | None = None,
) -> ModeTrialFunction:
    """Draw a random trial function for Monte-Carlo form checks.

    Mode indices are sampled without replacement from 0..max_mode, decay
    rates log-uniformly from ``decay_range``, boundary values as complex
    standard normals.  When ``beta_zero_gamma`` is given the boundary values
    are projected onto the constraint f_minus = -conj(gamma)/2 * f_plus that
    the beta = 0 form domain imposes.
    """
    n_modes = int(rng.integers(1, 6))
    indices = rng.choice(max_mode + 1, size=n_modes, replace=False)
    lo, hi = decay_range
    modes = []
    for idx in sorted(int(i) for i in indices):
        decay = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        if beta_zero_gamma is not None:
            f_plus = a + b
            f_minus = -0.5 * complex(beta_zero_gamma).conjugate() * f_plus
            a = 0.5 * (f_plus + f_minus)
            b = 0.5 * (f_plus - f_minus)
        modes.append(TrialMode(n=idx, upper=a, lower=b, decay=decay))
    return ModeTrialFunction(tuple(modes))


# ---------------------------------------------------------------------------
# quadratic forms


@dataclass(frozen=True)
class FormValues:
    """Pieces of the sesquilinear form evaluated on one trial function."""

    a0: float
    b_sum: float
    norm_sq: float

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

    For beta != 0 the boundary sum couples neighbouring modes through the
    Hermitian coupling matrix:

        b_sum = (1/beta) * sum_{n>=1} sqrt(n)/(2 sqrt(2))
                * Re( conj(u_n)^T Sigma u_{n-1} ),

    with u_n = (psi_n(0+), psi_n(0-)).  For beta = 0 the form domain forces
    f_minus = -conj(gamma)/2 * f_plus on every mode, and the sum collapses to

        b_sum = (alpha/4) * sum_{n>=1} sqrt(2 n) Re( conj(f_{+,n}) f_{+,n-1} ).
    """
    p = params if isinstance(params, CouplingParams) else CouplingParams(*params)
    a0 = _a0_value(trial)
    norm_sq = trial.norm_sq()

    if p.beta == 0.0:
        scale = max(1.0, max((abs(m.f_plus) + abs(m.f_minus)) for m in trial.modes))
        for m in trial.modes:
            defect = abs(m.f_minus + 0.5 * complex(p.gamma).conjugate() * m.f_plus)
            if defect > _BETA0_CONSTRAINT_TOL * scale:
                raise Beta0ConstraintError(
                    "beta = 0 trial functions must satisfy "
                    "f_minus = -conj(gamma)/2 * f_plus on every mode; "
                    f"mode {m.n} violates it by {defect:.3e}"
                )
        b_sum = 0.0
        for n in range(1, trial.max_index + 1):
            cur = trial.mode(n)
            prev = trial.mode(n - 1)
            if cur is None or prev is None:
                continue
            b_sum += (
                0.25
                * p.alpha
                * math.sqrt(2.0 * n)
                * (cur.f_plus.conjugate() * prev.f_plus).real
            )
        return FormValues(a0=a0, b_sum=b_sum, norm_sq=norm_sq)

    sigma = derive(p).sigma
    b_sum = 0.0
    for n in range(1, trial.max_index + 1):
        u_cur = trial.boundary_vector(n)
        u_prev = trial.boundary_vector(n - 1)
        if not (u_cur.any() and u_prev.any()):
            continue
        coupling = complex(np.conj(u_cur) @ (sigma @ u_prev))
        b_sum += math.sqrt(float(n)) / (2.0 * _SQRT2) * coupling.real
    return FormValues(a0=a0, b_sum=b_sum / p.beta, norm_sq=norm_sq)


def lower_bound_constant(params: CouplingParams) -> float:
    """Constant c in the lower bound full >= (c/2) * norm_sq.

    The bound is informative only when c > 0; callers must check the sign.
    """
    p = canonicalize(params)
    if p.beta == 0.0:
        return 1.0 - p.alpha / _SQRT2
    d = derive(p)
    omega0 = d.omega[0]
    r = math.sqrt(d.omega[1] ** 2 + d.omega[2] ** 2 + d.omega[3] ** 2)
    return 1.0 - (abs(omega0) + r) / (2.0 * _SQRT2 * p.beta)


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
        k = derived.k1
    elif key in (Branch.TWO, "2", "Branch2"):
        k = derived.k2
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

    params: CouplingParams
    branches: tuple[Branch, ...]
    branch_mus: tuple[float, ...]
    eigenvalues: np.ndarray
    per_branch_counts: tuple[int, ...]
    truncation_size: int
    tol: float
    method_agreement: float

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)


def _branch_eigenvalues(
    mu: float, lam_lo: float, lam_hi: float, tol: float, size: int
) -> np.ndarray:
    """All lambda in (lam_lo, lam_hi] where the Sturm count of the size-N
    spectral truncation jumps, found by vectorised bisection."""
    offdiag = coupling_weights(np.arange(1, size))

    def counts_at(lams: np.ndarray) -> np.ndarray:
        diags = spectral_diagonals(mu, lams, size)
        return counts_for_diagonals(diags, offdiag, 0.0)

    # counts are nondecreasing in lambda, so the k-th jump is bisected
    # for each k = c_lo .. c_hi - 1
    c_lo, c_hi = counts_at(np.array([lam_lo, lam_hi]))
    return _bisect(counts_at, lam_lo, lam_hi, np.arange(c_lo, c_hi), tol)


def _refine_secular(
    mu: float, lam: float, lam_floor: float, *, size: int = 256
) -> float | None:
    """Nearest zero of the real secular function around ``lam``.

    Returns None when no sign change shows up within a 1e-3 neighbourhood,
    which callers treat as a method disagreement.
    """
    ceiling = THRESHOLD - 1e-12

    def f(x: float) -> float:
        return secular_function(mu, x, size).real

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
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    return mid
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                if hi - lo < 1e-14:
                    break
            return 0.5 * (lo + hi)
        half *= 4.0
    return None


def h_eigenvalues_below_threshold(
    params: CouplingParams,
    lambda_min: float | None = None,
    tol: float = 1e-10,
    *,
    size_cap: int = DOUBLING_CAP,
    refine: bool = True,
) -> HSpectrumResult:
    """Locate every eigenvalue below the continuum threshold 1/2.

    Eigenvalues on the branch with weight mu sit exactly where the Sturm
    count at level 0 of the spectral Jacobi family jumps as a function of
    lambda.  The search window is (lambda_min, 1/2); when ``lambda_min`` is
    omitted it defaults to 1/2 - 10, tightened to c/2 whenever the form
    lower-bound constant c is positive.  The truncation size doubles from
    ``DOUBLING_START`` until the eigenvalue list is reproduced to ``tol``.

    With ``refine`` each root is cross-checked against the secular function
    of the half-line recurrence; ``method_agreement`` reports the largest
    discrepancy (0 when there is nothing to check).
    """
    tol = _check_tol(tol)
    p = canonicalize(params)
    mus = branch_mus(p)
    if not mus:
        return HSpectrumResult(
            params=p,
            branches=(),
            branch_mus=(),
            eigenvalues=np.zeros(0, dtype=float),
            per_branch_counts=(),
            truncation_size=0,
            tol=tol,
            method_agreement=0.0,
        )
    subcritical = [
        (br, mu) for br, mu in mus if mu is not None and math.isfinite(mu) and mu > 1.0
    ]
    if not subcritical:
        raise NoSubcriticalBranchError(
            f"no branch of {p} has weight mu > 1; there are no eigenvalues "
            "below the threshold to locate"
        )

    if lambda_min is None:
        lambda_min = THRESHOLD - 10.0
        c = lower_bound_constant(p)
        if c > 0.0:
            lambda_min = max(lambda_min, 0.5 * c)
    lam_lo = float(lambda_min)
    lam_hi = THRESHOLD - _WINDOW_MARGIN
    if not (lam_lo < lam_hi):
        raise InvalidParametersError(
            f"lambda_min = {lam_lo} does not leave a search window below 1/2"
        )

    per_branch: list[np.ndarray] = []
    max_size = 0
    for _, mu in subcritical:
        size = DOUBLING_START
        prev: np.ndarray | None = None
        while True:
            eigs = _branch_eigenvalues(mu, lam_lo, lam_hi, tol, size)
            if prev is not None and prev.size == eigs.size:
                if eigs.size == 0 or np.max(np.abs(eigs - prev)) <= tol:
                    break
            if size >= size_cap:
                raise NonConvergenceError(
                    f"eigenvalue list for mu = {mu} did not stabilise by "
                    f"truncation size {size_cap}"
                )
            prev = eigs
            size *= 2
        per_branch.append(eigs)
        max_size = max(max_size, size)

    agreement = 0.0
    if refine:
        for (_, mu), eigs in zip(subcritical, per_branch):
            for lam in eigs:
                root = _refine_secular(mu, float(lam), lam_lo)
                if root is None:
                    agreement = math.inf
                else:
                    agreement = max(agreement, abs(root - float(lam)))

    merged = np.sort(np.concatenate(per_branch)) if per_branch else np.zeros(0)
    return HSpectrumResult(
        params=p,
        branches=tuple(br for br, _ in subcritical),
        branch_mus=tuple(mu for _, mu in subcritical),
        eigenvalues=merged,
        per_branch_counts=tuple(int(e.size) for e in per_branch),
        truncation_size=max_size,
        tol=tol,
        method_agreement=agreement,
    )


# ---------------------------------------------------------------------------
# eigenvalue counting via the counting operators


def count_below_epsilon(
    params: CouplingParams,
    epsilon: float,
    *,
    size_cap: int = DOUBLING_CAP,
) -> int:
    """Number of eigenvalues below 1/2 - epsilon predicted by the counting
    operator: the sum over subcritical branches of the eigenvalues of the
    epsilon-regularised counting matrix exceeding the branch weight."""
    p = canonicalize(params)
    family = CountingFamily(epsilon)  # validates epsilon > 0
    mus = branch_mus(p)
    subcritical = [
        mu for _, mu in mus if mu is not None and math.isfinite(mu) and mu > 1.0
    ]
    if not subcritical:
        warnings.warn(
            "no subcritical branch: the count below the threshold is 0",
            stacklevel=2,
        )
        return 0
    total = 0
    for mu in subcritical:
        total += stable_count(family, mu, side="above", cap=size_cap).count
    return total


@dataclass(frozen=True)
class Discrete2Report:
    """Comparison of the located eigenvalue count with the counting limit."""

    params: CouplingParams
    lhs: int
    rhs: int
    bound: int
    branch_mus: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.bound


def discrete2_check(
    params: CouplingParams,
    tol: float = 1e-10,
    *,
    size_cap: int = DOUBLING_CAP,
) -> Discrete2Report:
    """Check |#eigenvalues below 1/2  -  sum_j N+(mu_j)| <= bound.

    The right-hand side counts eigenvalues of the limiting counting matrix
    above each subcritical branch weight; the bound is 1 when a single
    branch is subcritical and 2 when both are.
    """
    result = h_eigenvalues_below_threshold(
        params, tol=tol, refine=False, size_cap=size_cap
    )
    family = CountingLimitFamily()
    rhs = 0
    for mu in result.branch_mus:
        rhs += stable_count(family, mu, side="above", cap=size_cap).count
    bound = 1 if len(result.branch_mus) <= 1 else 2
    return Discrete2Report(
        params=result.params,
        lhs=result.count,
        rhs=rhs,
        bound=bound,
        branch_mus=result.branch_mus,
    )


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
    size_cap: int = DOUBLING_CAP,
) -> tuple[AsymptoticsRow, ...]:
    """Stabilised counting-limit counts against the near-critical law
    1 / (4 sqrt(2) sqrt(mu - 1)) for each mu in ``mu_values`` (all > 1)."""
    family = CountingLimitFamily()
    rows = []
    for mu_raw in mu_values:
        mu = float(mu_raw)
        if not (math.isfinite(mu) and mu > 1.0):
            raise InvalidParametersError(
                f"the counting asymptotics need mu > 1, got {mu}"
            )
        counted = stable_count(family, mu, side="above", cap=size_cap).count
        predicted = 1.0 / (4.0 * _SQRT2 * math.sqrt(mu - 1.0))
        rows.append(AsymptoticsRow(mu=mu, counted=counted, predicted=predicted))
    return tuple(rows)
