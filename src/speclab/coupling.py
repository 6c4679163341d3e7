"""Coupling algebra for the four-parameter contact interaction.

The interaction on the line x = 0 is parametrised by two reals (alpha,
beta) and one complex (gamma).  Everything downstream is controlled by
four derived reals

    omega0 = 4 + alpha*beta + |gamma|^2
    omega1 = alpha*beta + |gamma|^2 - 4
    omega2 = 4 Im gamma
    omega3 = 4 Re gamma

and the Hermitian boundary matrix

    Sigma = [[omega0 + omega3, omega1 - i*omega2],
             [omega1 + i*omega2, omega0 - omega3]]
          = omega0*I + omega1*sigma_x + omega2*sigma_y + omega3*sigma_z,

whose eigenvalues are omega0 +/- r with r = sqrt(omega1^2 + omega2^2
+ omega3^2).  For beta != 0 each Sigma eigenvalue defines a coupling
strength

    mu_j = 2*sqrt(2)*beta / (omega0 -+ r),

and for beta = 0 a single strength mu = (4 + |gamma|^2) / (2*sqrt(2)*alpha)
takes over.  A branch is subcritical (discrete spectrum below the
oscillator threshold 1/2 possible) when mu > 1 and supercritical when
0 < mu < 1; mu = 1 is the transition.

``derive`` gives Sigma's eigenvalues and the weights, which is all that
classification, the form bound and the spectral search read.  This module
is that scalar algebra alone and imports no numpy; Sigma's eigenvectors
have one reader, :func:`speclab.hamiltonian.saturating_trial`, which takes
them from ``numpy.linalg.eigh``.

The map (alpha, beta) -> (-alpha, -beta) leaves the model invariant, so
all classification work happens in the canonical orientation beta >= 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidParametersError, SingularFormulaError

__all__ = [
    "Branch",
    "Criticality",
    "CouplingParams",
    "CouplingDerived",
    "TransitionClass",
    "mirror",
    "canonicalize",
    "derive",
    "mu_beta_zero",
    "critical_alpha",
    "branch_mus",
    "classify",
]

_SQRT2 = math.sqrt(2.0)


class Branch(enum.Enum):
    """Which root of the boundary matrix a coupling strength belongs to."""

    ONE = "Branch1"
    TWO = "Branch2"
    BETA_ZERO = "BetaZero"


class Criticality(enum.Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"
    NONPOSITIVE_OR_DIVERGENT = "NonpositiveOrDivergent"


@dataclass(frozen=True)
class CouplingParams:
    """Raw interaction parameters."""

    alpha: float
    beta: float
    gamma: complex = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        if not (
            math.isfinite(self.alpha)
            and math.isfinite(self.beta)
            and math.isfinite(self.gamma_abs2)
        ):
            raise InvalidParametersError(
                f"coupling parameters must be finite, with |gamma|^2 too, got "
                f"alpha={self.alpha}, beta={self.beta}, gamma={self.gamma}"
            )

    @property
    def gamma_abs2(self) -> float:
        return _abs2(self.gamma)


def _abs2(gamma: complex) -> float:
    # the package's one |gamma|^2; squares by multiplication: float ** 2
    # raises OverflowError where they overflow, and so does abs(gamma), so
    # callers check this is finite first
    return gamma.real * gamma.real + gamma.imag * gamma.imag


@dataclass(frozen=True)
class CouplingDerived:
    """Sigma's coefficients, its eigenvalues omega0 +- r and the branch
    weights of one parameter point.

    The Sigma eigenvalue nearer 0, omega0 - r or omega0 + r as omega0 >= 0
    or < 0, is computed from the other through the cancellation-free
    identity (omega0 - r)(omega0 + r) = 16*alpha*beta, so the products
    mu1*(omega0 - r) and mu2*(omega0 + r) reproduce 2*sqrt(2)*beta to
    machine precision even for tiny or large negative alpha*beta.

    ``mu1``/``mu2`` are ``None`` when beta = 0 (the branch structure is
    different there, see :func:`mu_beta_zero`); ``mu1`` is ``math.inf``
    when alpha = 0, an explicit divergence marker.  At subnormal alpha the
    division can overflow ``mu1`` to inf as well; :func:`branch_mus` tells
    the two apart and rejects the overflow.  An omega or Sigma eigenvalue
    that is not finite raises ``InvalidParametersError``.
    """

    params: CouplingParams
    omega: tuple[float, float, float, float]
    sigma_eig_plus: float
    sigma_eig_minus: float
    mu1: float | None
    mu2: float | None


@dataclass(frozen=True)
class TransitionClass:
    branch: Branch
    kind: Criticality
    mu: float


def mirror(params: CouplingParams) -> CouplingParams:
    """Flip the signs of (alpha, beta); an involution on parameter space."""
    return CouplingParams(alpha=-params.alpha, beta=-params.beta, gamma=params.gamma)


def canonicalize(params: CouplingParams) -> CouplingParams:
    """Return the mirror-equivalent representative with beta >= 0.

    When beta == 0 the mirror map reduces to flipping alpha alone, so the
    canonical representative additionally has alpha >= 0 there; spectral
    data is unchanged either way.
    """
    if params.beta < 0.0 or (params.beta == 0.0 and params.alpha < 0.0):
        return mirror(params)
    return params


def _omegas(params: CouplingParams) -> tuple[float, float, float, float]:
    """(omega0, omega1, omega2, omega3): Sigma's coefficients on I, sigma_x,
    sigma_y and sigma_z."""
    ab, g2, gamma = params.alpha * params.beta, params.gamma_abs2, params.gamma
    omegas = (4.0 + ab + g2, ab + g2 - 4.0, 4.0 * gamma.imag, 4.0 * gamma.real)
    if not all(map(math.isfinite, omegas)):
        raise InvalidParametersError(f"the boundary matrix of {params} overflows")
    return omegas


def derive(params: CouplingParams) -> CouplingDerived:
    """Compute the Sigma eigenvalues and the mu strengths."""
    alpha, beta = params.alpha, params.beta
    omega0, omega1, omega2, omega3 = _omegas(params)
    r = math.sqrt(omega1 * omega1 + omega2 * omega2 + omega3 * omega3)

    # omega0^2 - r^2 == 16*alpha*beta exactly, which sidesteps the
    # catastrophic cancellation of omega0 - r near alpha*beta = 0, and of
    # omega0 + r for alpha*beta far below -4, where it can round to 0.
    if omega0 >= 0.0:
        eig_plus = omega0 + r
        eig_minus = 16.0 * alpha * beta / eig_plus
    else:
        eig_minus = omega0 - r
        eig_plus = 16.0 * alpha * beta / eig_minus
    if not (math.isfinite(eig_plus) and math.isfinite(eig_minus)):
        raise InvalidParametersError(f"the boundary matrix of {params} overflows")

    if beta == 0.0:
        mu1: float | None = None
        mu2: float | None = None
    elif alpha == 0.0:
        mu1 = math.inf
        mu2 = 2.0 * _SQRT2 * beta / eig_plus
    else:
        if eig_minus != 0.0:
            mu1 = 2.0 * _SQRT2 * beta / eig_minus
        else:
            # subnormal alpha*beta underflowed the product identity; use
            # the algebraically identical route through eig_plus instead
            mu1 = _SQRT2 * eig_plus / (8.0 * alpha)
        mu2 = 2.0 * _SQRT2 * beta / eig_plus

    return CouplingDerived(
        params=params,
        omega=(omega0, omega1, omega2, omega3),
        sigma_eig_plus=eig_plus,
        sigma_eig_minus=eig_minus,
        mu1=mu1,
        mu2=mu2,
    )


def mu_beta_zero(alpha: float, gamma: complex = 0.0) -> float:
    """Coupling strength of the single branch present at beta = 0."""
    alpha = float(alpha)
    g2 = _abs2(complex(gamma))
    if not (math.isfinite(alpha) and math.isfinite(g2)):
        raise InvalidParametersError("alpha and |gamma|^2 must be finite")
    if alpha == 0.0:
        raise InvalidParametersError(
            "beta = 0 requires alpha != 0; the purely off-diagonal "
            "interaction (alpha = beta = 0, gamma != 0) is rejected"
        )
    return (4.0 + g2) / (2.0 * _SQRT2 * alpha)


def critical_alpha(beta: float, gamma: complex = 0.0) -> float:
    """The alpha at which the relevant branch crosses mu = 1.

    alpha_c = sqrt(2) + |gamma|^2/(2 sqrt(2) - beta) for every beta >= 0:
    beta times it is the closed-form section's numerator, which cancels as
    beta -> 0, and at beta = 0 it inverts :func:`mu_beta_zero`.  It is
    singular at beta = 2*sqrt(2) unless gamma = 0, where it is sqrt(2).
    """
    beta = float(beta)
    gamma = complex(gamma)
    if beta < 0.0:
        raise InvalidParametersError(
            "critical_alpha expects the canonical orientation beta >= 0"
        )
    g2 = _abs2(gamma)
    if not math.isfinite(g2):
        raise InvalidParametersError(f"|gamma|^2 must be finite, got gamma={gamma}")
    rest = 2.0 * _SQRT2 - beta
    if rest == 0.0 and g2 != 0.0:
        raise SingularFormulaError(
            "critical alpha has no finite value at beta = 2*sqrt(2) with gamma != 0"
        )
    alpha_c = _SQRT2 + g2 / rest if g2 else _SQRT2
    if not (math.isfinite(alpha_c) and math.isfinite(beta)):
        raise InvalidParametersError(
            f"the critical alpha at beta={beta}, gamma={gamma} overflows"
        )
    return alpha_c


def branch_mus(params: CouplingParams) -> tuple[tuple[Branch, float], ...]:
    """Canonical branch list as (branch, mu) pairs.

    beta != 0 yields both Sigma branches (mu1 is the ``inf`` marker when
    alpha = 0), beta = 0 with alpha != 0 yields the single reduced branch,
    and the free case alpha = beta = 0, gamma = 0 yields no branches at
    all.  A weight that overflows (other than the marker) or underflows to
    0 raises ``InvalidParametersError``: it would pass for the marker or
    for a supercritical branch.
    """
    p = canonicalize(params)
    if p.beta != 0.0:
        d = derive(p)
        pairs = ((Branch.ONE, d.mu1), (Branch.TWO, d.mu2))
    elif p.alpha != 0.0:
        pairs = ((Branch.BETA_ZERO, mu_beta_zero(p.alpha, p.gamma)),)
    elif p.gamma != 0.0:
        raise InvalidParametersError(
            "alpha = beta = 0 with gamma != 0 is not an admissible interaction"
        )
    else:
        return ()
    for branch, mu in pairs:
        marker = branch is Branch.ONE and p.alpha == 0.0
        if not marker and (mu == 0.0 or not math.isfinite(mu)):
            raise InvalidParametersError(
                f"the {branch.value} weight of {params} leaves double range: {mu}"
            )
    return pairs


def classify(params: CouplingParams, tol: float = 1e-10) -> tuple[TransitionClass, ...]:
    """Classify every branch of the (canonicalized) parameter point."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParametersError(f"tol must be finite and nonnegative, got {tol}")
    out = []
    for branch, mu in branch_mus(params):
        if math.isinf(mu) or mu <= 0.0:
            kind = Criticality.NONPOSITIVE_OR_DIVERGENT
        elif abs(mu - 1.0) <= tol:
            kind = Criticality.CRITICAL
        elif mu > 1.0:
            kind = Criticality.SUBCRITICAL
        else:
            kind = Criticality.SUPERCRITICAL
        out.append(TransitionClass(branch=branch, kind=kind, mu=mu))
    return tuple(out)
