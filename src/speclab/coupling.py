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

whose eigenvalues are omega0 +/- r with r = sqrt(omega1^2 + omega2^2
+ omega3^2).  For beta != 0 each Sigma eigenvalue defines a coupling
strength

    mu_j = 2*sqrt(2)*beta / (omega0 -+ r),

and for beta = 0 a single strength mu = (4 + |gamma|^2) / (2*sqrt(2)*alpha)
takes over.  A branch is subcritical (discrete spectrum below the
oscillator threshold 1/2 possible) when mu > 1 and supercritical when
0 < mu < 1; mu = 1 is the transition.

The map (alpha, beta) -> (-alpha, -beta) leaves the model invariant, so
all classification work happens in the canonical orientation beta >= 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

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

# Relative scale below which the Sigma eigenvalue gap counts as zero and
# the eigenbasis degenerates to the one-sided pair.
_DEGENERATE_GAP = 1e-12


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
    """Raw interaction parameters plus the mirror-orientation flag."""

    alpha: float
    beta: float
    gamma: complex = 0.0
    mirrored: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        if not (
            math.isfinite(self.alpha)
            and math.isfinite(self.beta)
            and math.isfinite(self.gamma.real)
            and math.isfinite(self.gamma.imag)
        ):
            raise InvalidParametersError(
                f"coupling parameters must be finite, got alpha={self.alpha}, "
                f"beta={self.beta}, gamma={self.gamma}"
            )

    @property
    def gamma_abs2(self) -> float:
        return self.gamma.real**2 + self.gamma.imag**2


@dataclass(frozen=True)
class CouplingDerived:
    """Derived boundary data for one parameter point.

    ``sigma_eig_minus`` is computed through the cancellation-free identity
    omega0 - r = 16*alpha*beta / (omega0 + r), so the products
    mu1*(omega0 - r) and mu2*(omega0 + r) reproduce 2*sqrt(2)*beta to
    machine precision even for tiny alpha*beta.

    ``mu1``/``mu2`` are ``None`` when beta = 0 (the branch structure is
    different there, see :func:`mu_beta_zero`); ``mu1`` is ``math.inf``
    exactly when alpha = 0, an explicit divergence marker that is never
    the result of a floating-point division.
    """

    params: CouplingParams
    omega: tuple[float, float, float, float]
    sigma: np.ndarray = field(repr=False)
    sigma_eig_plus: float
    sigma_eig_minus: float
    k1: np.ndarray = field(repr=False)
    k2: np.ndarray = field(repr=False)
    mu1: float | None
    mu2: float | None
    degenerate: bool

    @property
    def sigma_eigs(self) -> tuple[float, float]:
        return (self.sigma_eig_plus, self.sigma_eig_minus)


@dataclass(frozen=True)
class TransitionClass:
    branch: Branch
    kind: Criticality
    mu: float


def mirror(params: CouplingParams) -> CouplingParams:
    """Flip the signs of (alpha, beta); an involution on parameter space."""
    return CouplingParams(
        alpha=-params.alpha,
        beta=-params.beta,
        gamma=params.gamma,
        mirrored=not params.mirrored,
    )


def canonicalize(params: CouplingParams) -> CouplingParams:
    """Return the mirror-equivalent representative with beta >= 0.

    When beta == 0 the mirror map reduces to flipping alpha alone, so the
    canonical representative additionally has alpha >= 0 there; spectral
    data is unchanged either way.
    """
    if params.beta < 0.0 or (params.beta == 0.0 and params.alpha < 0.0):
        return mirror(params)
    return params


def _phase_canonical(vec: np.ndarray) -> np.ndarray:
    """Rotate a unit vector so its largest component is real positive."""
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if pivot == 0.0:
        return vec
    return vec * (abs(pivot) / pivot)


def derive(params: CouplingParams) -> CouplingDerived:
    """Compute the boundary matrix, its eigenpairs and the mu strengths."""
    alpha, beta = params.alpha, params.beta
    g2 = params.gamma_abs2
    omega0 = 4.0 + alpha * beta + g2
    omega1 = alpha * beta + g2 - 4.0
    omega2 = 4.0 * params.gamma.imag
    omega3 = 4.0 * params.gamma.real
    r = math.sqrt(omega1 * omega1 + omega2 * omega2 + omega3 * omega3)

    sigma = np.array(
        [
            [omega0 + omega3, omega1 - 1j * omega2],
            [omega1 + 1j * omega2, omega0 - omega3],
        ],
        dtype=complex,
    )
    eig_plus = omega0 + r
    # omega0^2 - r^2 == 16*alpha*beta exactly, which sidesteps the
    # catastrophic cancellation of omega0 - r near alpha*beta = 0.
    eig_minus = 16.0 * alpha * beta / eig_plus

    degenerate = r <= _DEGENERATE_GAP * (abs(omega0) + 4.0)
    if degenerate:
        # gamma = 0 and alpha*beta = 4: Sigma is a multiple of the
        # identity and any basis works; use the one-sided pair.
        k1 = np.array([1.0, 0.0], dtype=complex)
        k2 = np.array([0.0, 1.0], dtype=complex)
    else:
        # Two equivalent null-vector formulas exist per eigenvalue; pick the
        # one whose squared norm is 2r(r + |omega3|), which never vanishes
        # for r > 0 (the other degenerates when Sigma is diagonal).
        if omega3 >= 0.0:
            k1 = np.array([omega1 - 1j * omega2, -(omega3 + r)], dtype=complex)
            k2 = np.array([omega3 + r, omega1 + 1j * omega2], dtype=complex)
        else:
            k1 = np.array([omega3 - r, omega1 + 1j * omega2], dtype=complex)
            k2 = np.array([omega1 - 1j * omega2, r - omega3], dtype=complex)
        k1 = _phase_canonical(k1 / np.linalg.norm(k1))
        k2 = _phase_canonical(k2 / np.linalg.norm(k2))

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
        sigma=sigma,
        sigma_eig_plus=eig_plus,
        sigma_eig_minus=eig_minus,
        k1=k1,
        k2=k2,
        mu1=mu1,
        mu2=mu2,
        degenerate=degenerate,
    )


def mu_beta_zero(alpha: float, gamma: complex = 0.0) -> float:
    """Coupling strength of the single branch present at beta = 0."""
    alpha = float(alpha)
    gamma = complex(gamma)
    if not (math.isfinite(alpha) and math.isfinite(gamma.real) and math.isfinite(gamma.imag)):
        raise InvalidParametersError("alpha and gamma must be finite")
    if alpha == 0.0:
        raise InvalidParametersError(
            "beta = 0 requires alpha != 0; the purely off-diagonal "
            "interaction (alpha = beta = 0, gamma != 0) is rejected"
        )
    return (4.0 + abs(gamma) ** 2) / (2.0 * _SQRT2 * alpha)


def critical_alpha(beta: float, gamma: complex = 0.0) -> float:
    """The alpha at which the relevant branch crosses mu = 1.

    For beta > 0 this is the closed-form section of the critical surface;
    at beta = 0 it degenerates to the inversion of :func:`mu_beta_zero`.
    The formula is singular at beta = 2*sqrt(2) unless gamma = 0.
    """
    beta = float(beta)
    gamma = complex(gamma)
    if beta < 0.0:
        raise InvalidParametersError(
            "critical_alpha expects the canonical orientation beta >= 0"
        )
    g2 = abs(gamma) ** 2
    if beta == 0.0:
        return (4.0 + g2) / (2.0 * _SQRT2)
    rest = 2.0 * _SQRT2 - beta
    if rest == 0.0:
        if g2 != 0.0:
            raise SingularFormulaError(
                "critical alpha has no finite value at beta = 2*sqrt(2) "
                "with gamma != 0"
            )
        gamma_term = 0.0
    else:
        gamma_term = 2.0 * _SQRT2 * g2 / rest
    # -(g2 - 4) - sqrt(2)*(2*sqrt(2) - beta) == -g2 + sqrt(2)*beta, and the
    # right-hand form returns sqrt(2) exactly when gamma = 0
    return (gamma_term - g2 + _SQRT2 * beta) / beta


def branch_mus(params: CouplingParams) -> tuple[tuple[Branch, float], ...]:
    """Canonical branch list as (branch, mu) pairs.

    beta != 0 yields both Sigma branches (mu1 may be the ``inf`` marker),
    beta = 0 with alpha != 0 yields the single reduced branch, and the
    free case alpha = beta = 0, gamma = 0 yields no branches at all.
    """
    p = canonicalize(params)
    if p.beta == 0.0:
        if p.alpha == 0.0:
            if p.gamma != 0.0:
                raise InvalidParametersError(
                    "alpha = beta = 0 with gamma != 0 is not an admissible "
                    "interaction"
                )
            return ()
        return ((Branch.BETA_ZERO, mu_beta_zero(p.alpha, p.gamma)),)
    d = derive(p)
    assert d.mu1 is not None and d.mu2 is not None
    return ((Branch.ONE, d.mu1), (Branch.TWO, d.mu2))


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
