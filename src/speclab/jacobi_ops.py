"""Truncations of the Jacobi operators attached to the mode lattice.

Four families, all real symmetric tridiagonal in the mode index n:

* reference      diag 2*mu*(n + 1/2), coupling d(n) = sqrt(n)(n^2-1/4)^(1/4);
                 the operator whose spectral character switches at mu = 1.
* spectral       diag 2*mu*sqrt(n + 1/2)*zeta_n(lam) for real lam < 1/2;
                 its negative-eigenvalue count tracks spectrum below lam.
* counting       zero diagonal, coupling sqrt(n) / (2 (n+eps)^(1/4)
                 (n-1+eps)^(1/4)); the eps-regularised counting operator.
* counting-limit zero diagonal on modes n >= 1, coupling
                 1 / (2 (1 - 1/n)^(1/4)); the eps -> 0 limit on the
                 subspace with the zeroth mode removed.

Truncation sizes double from 2048 until integer counts stabilise, with
a hard cap of 2^20.  Every count here is one call of the package's one
Sturm count, :func:`speclab.tridiag.counts_for_diagonals`, on a
truncation's diagonal (``t.diag[None, :]``) at one level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import BranchCutError, InvalidParametersError, NonConvergenceError
from .recurrence import coupling_weights, zeta_array
from .tridiag import TridiagonalMatrix, counts_for_diagonals, smallest_eigenvalue

__all__ = [
    "DOUBLING_START",
    "DOUBLING_CAP",
    "ReferenceFamily",
    "SpectralFamily",
    "CountingFamily",
    "CountingLimitFamily",
    "JacobiFamily",
    "family_label",
    "build",
    "spectral_diagonals",
    "count_relative",
    "StableCount",
    "stable_count",
    "compact_difference_tail",
    "TransitionScanReport",
    "transition_scan",
]

DOUBLING_START = 2048
DOUBLING_CAP = 2**20


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not math.isfinite(mu):
        raise InvalidParametersError("mu must be finite")
    return mu


def _check_real_lam(lam) -> float:
    lam = complex(lam)
    if lam.imag != 0.0:
        raise InvalidParametersError(
            "spectral truncations require a real spectral parameter so the "
            "matrix stays real symmetric"
        )
    if not math.isfinite(lam.real):
        raise InvalidParametersError("lam must be finite")
    if lam.real >= 0.5:
        raise BranchCutError(
            f"lam = {lam.real} is not below the threshold 1/2; the lowest "
            "branch cut starts there"
        )
    return lam.real


@dataclass(frozen=True)
class ReferenceFamily:
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _check_mu(self.mu))


@dataclass(frozen=True)
class SpectralFamily:
    lam: float
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _check_real_lam(self.lam))
        object.__setattr__(self, "mu", _check_mu(self.mu))


@dataclass(frozen=True)
class CountingFamily:
    epsilon: float

    def __post_init__(self) -> None:
        eps = float(self.epsilon)
        if not (math.isfinite(eps) and eps > 0.0):
            raise InvalidParametersError(
                f"epsilon must be positive, got {eps}: the counting operator "
                "is undefined at epsilon <= 0 because j1,0 = ∞ there"
            )
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class CountingLimitFamily:
    pass


JacobiFamily = Union[ReferenceFamily, SpectralFamily, CountingFamily, CountingLimitFamily]

_LABELS = {
    ReferenceFamily: "reference",
    SpectralFamily: "spectral",
    CountingFamily: "counting",
    CountingLimitFamily: "counting-limit",
}


def family_label(family: JacobiFamily) -> str:
    return _LABELS[type(family)]


def build(family: JacobiFamily, n: int) -> TridiagonalMatrix:
    """Size-n truncation of the requested family."""
    if n < 2:
        raise InvalidParametersError("truncation size must be at least 2")
    if isinstance(family, ReferenceFamily):
        modes = np.arange(n)
        diag = 2.0 * family.mu * (modes + 0.5)
        off = coupling_weights(np.arange(1, n))
    elif isinstance(family, SpectralFamily):
        modes = np.arange(n)
        zs = zeta_array(modes, family.lam).real
        diag = 2.0 * family.mu * np.sqrt(modes + 0.5) * zs
        off = coupling_weights(np.arange(1, n))
    elif isinstance(family, CountingFamily):
        eps = family.epsilon
        k = np.arange(1, n, dtype=np.float64)
        off = np.sqrt(k) / (2.0 * (k + eps) ** 0.25 * (k - 1.0 + eps) ** 0.25)
        diag = np.zeros(n)
    elif isinstance(family, CountingLimitFamily):
        # modes 1..n; couplings live on pairs (k-1, k) for k = 2..n
        k = np.arange(2, n + 1, dtype=np.float64)
        off = 1.0 / (2.0 * (1.0 - 1.0 / k) ** 0.25)
        diag = np.zeros(n)
    else:
        raise InvalidParametersError(f"unknown family {family!r}")
    return TridiagonalMatrix(diag=diag, offdiag=off)


def spectral_diagonals(mu: float, lams: np.ndarray, n: int) -> np.ndarray:
    """Diagonals of the spectral family for a batch of lam values, (k, n)."""
    mu = _check_mu(mu)
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    if lams.size and float(np.max(lams)) >= 0.5:
        raise BranchCutError("all lam values must be below 1/2")
    modes = np.arange(n) + 0.5
    return 2.0 * mu * np.sqrt(modes)[None, :] * np.sqrt(modes[None, :] - lams[:, None])


def count_relative(family: JacobiFamily, level: float, n: int, side: str = "above") -> int:
    """Number of truncation eigenvalues above (or below) ``level``."""
    if side not in ("above", "below"):
        raise InvalidParametersError("side must be 'above' or 'below'")
    t = build(family, n)
    below = int(counts_for_diagonals(t.diag[None, :], t.offdiag, level)[0])
    return below if side == "below" else t.size - below


@dataclass(frozen=True)
class StableCount:
    count: int
    size: int
    history: tuple[tuple[int, int], ...] = field(repr=False)


def stable_count(
    family: JacobiFamily,
    level: float,
    side: str = "above",
    *,
    start: int = DOUBLING_START,
    cap: int = DOUBLING_CAP,
    confirm: int = 2,
) -> StableCount:
    """Truncation count once ``confirm`` consecutive doublings agree.

    Doubles the size from ``start``; raises once the cap is passed
    without the count settling.
    """
    if start < 2 or cap < start:
        raise InvalidParametersError("need 2 <= start <= cap")
    if confirm < 1:
        raise InvalidParametersError("confirm must be >= 1")
    history: list[tuple[int, int]] = []
    size = start
    streak = 0
    last: int | None = None
    while size <= cap:
        count = count_relative(family, level, size, side)
        history.append((size, count))
        if last is not None and count == last:
            streak += 1
            if streak >= confirm:
                return StableCount(count=count, size=size, history=tuple(history))
        else:
            streak = 0
        last = count
        size *= 2
    raise NonConvergenceError(
        f"count did not stabilise below the size cap {cap}: history {history}"
    )


def compact_difference_tail(lam: float, mu: float, n: int) -> float:
    """Max over the tail [n/2, n) of |spectral diag - (reference diag - mu*lam)|.

    The difference decays like mu*lam^2 / (4 n), witnessing that the two
    operators differ by a compact perturbation plus the constant shift.
    """
    lam = _check_real_lam(lam)
    mu = _check_mu(mu)
    if n < 4:
        raise InvalidParametersError("tail needs n >= 4")
    k = np.arange(n // 2, n) + 0.5
    spectral = 2.0 * mu * np.sqrt(k) * np.sqrt(k - lam)
    shifted = 2.0 * mu * k - mu * lam
    return float(np.max(np.abs(spectral - shifted)))


@dataclass(frozen=True)
class TransitionScanReport:
    mu: float
    sizes: tuple[int, ...]
    window: tuple[float, float]
    smallest: np.ndarray = field(repr=False)
    window_counts: np.ndarray = field(repr=False)


def transition_scan(
    mu: float,
    sizes,
    window: tuple[float, float],
    tol: float = 1e-10,
) -> TransitionScanReport:
    """Smallest eigenvalue and window count of the reference family per size.

    Subcritical mu > 1 keeps the smallest eigenvalue pinned above mu - 1
    at every truncation; supercritical mu < 1 lets it dive and fills any
    fixed window with states as the size grows.
    """
    mu = _check_mu(mu)
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 2 for s in sizes):
        raise InvalidParametersError("sizes must all be >= 2")
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParametersError("window must be finite with lo < hi")
    smallest = np.empty(len(sizes))
    counts = np.empty(len(sizes), dtype=np.int64)
    family = ReferenceFamily(mu)
    for i, size in enumerate(sizes):
        t = build(family, size)
        smallest[i] = smallest_eigenvalue(t, tol)
        c_lo, c_hi = (
            counts_for_diagonals(t.diag[None, :], t.offdiag, x)[0] for x in (lo, hi)
        )
        counts[i] = c_hi - c_lo
    return TransitionScanReport(
        mu=mu, sizes=sizes, window=(lo, hi), smallest=smallest, window_counts=counts
    )
