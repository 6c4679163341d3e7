"""Truncations and certified counts of the Jacobi operators attached to
the mode lattice.

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

:func:`build` gives a fixed truncation.  :func:`spectral_counts` (below 0,
mu > 1) and :func:`certified_count` (counting families, above a level
mu > 1, counted as the eigenvalues below -mu of the zero-diagonal
operator) count eigenvalues of the infinite operator: they walk its rows
in blocks through :func:`speclab.tridiag.counts_for_diagonals`, the one
Sturm count, carrying the last pivot row, and stop each count at the
first block end where a certificate shows that no later row can change
it, never past a caller's cap, which is at most ``ROW_CAP`` rows.  Each
block is as long as all the rows before it.  A spectral walk's first
block ends at row 64; a counting walk's ends 64 rows past its coupling
row, the first row whose coupling admits the certificate.  That row has
a closed form in mu; the walk tests only the couplings of the few rows
that its rounding leaves open, before it computes a pivot.  Both walks'
pivots are nearly all positive, which the scalar pivot loop settles
with one comparison each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import BranchCutError, InvalidParametersError, NonConvergenceError
from .recurrence import _check_mu, _lattice_rows, _weights_overflow
from .tridiag import TridiagonalMatrix, counts_for_diagonals, smallest_eigenvalue

__all__ = [
    "ROW_CAP",
    "ReferenceFamily",
    "SpectralFamily",
    "CountingFamily",
    "CountingLimitFamily",
    "JacobiFamily",
    "build",
    "spectral_diagonals",
    "spectral_counts",
    "certified_count",
    "TransitionScanReport",
    "transition_scan",
]

# The most rows a certified count walks, unless its caller sets fewer.
ROW_CAP = 2**20
# Rows a spectral walk takes before its first certificate check, and a
# counting walk past its coupling row; every later block is as long as
# all the rows before it.
_FIRST_BLOCK = 64
# Relative margin of every certificate comparison.
_MARGIN = 1e-12
# Relative widening of 1/c^2, 32 eps, that brackets the coupling row
# between the closed-form rows for c (1 + 16 eps) and c (1 - 16 eps).
_ROW_SLACK = 2.0**-47


def _check_real_lam(lam) -> float:
    lam = complex(lam)
    if lam.imag != 0.0:
        raise InvalidParametersError(
            "spectral truncations require a real spectral parameter so the "
            "matrix stays real symmetric"
        )
    return float(_check_lams(lam.real)[0])


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


def _couplings(family: JacobiFamily, start: int, stop: int) -> np.ndarray:
    """The coupling joining row k - 1 to row k, for k = start .. stop - 1;
    0 for row 0; the recurrence's read-only d(k) for reference and spectral."""
    if isinstance(family, (ReferenceFamily, SpectralFamily)):
        return _lattice_rows(stop)[0][start:]
    k = np.arange(max(start, 1), stop, dtype=np.float64)
    if isinstance(family, CountingFamily):
        eps = family.epsilon
        off = np.sqrt(k) / (2.0 * (k + eps) ** 0.25 * (k - 1.0 + eps) ** 0.25)
    elif isinstance(family, CountingLimitFamily):
        # row k is mode k + 1
        off = 1.0 / (2.0 * (1.0 - 1.0 / (k + 1.0)) ** 0.25)
    else:
        raise InvalidParametersError(f"unknown family {family!r}")
    return np.concatenate(([0.0], off)) if start == 0 else off


def build(family: JacobiFamily, n: int) -> TridiagonalMatrix:
    """Size-n truncation of the requested family."""
    if n < 2:
        raise InvalidParametersError("truncation size must be at least 2")
    off = _couplings(family, 0, n)[1:].copy()
    if isinstance(family, ReferenceFamily):
        _check_diagonals(family.mu, 0.0, n)
        diag = 2.0 * family.mu * (np.arange(n) + 0.5)
    elif isinstance(family, SpectralFamily):
        diag = _spectral_diagonals(family.mu, np.array([family.lam]), 0, n)[0]
    else:
        diag = np.zeros(n)
    return TridiagonalMatrix(diag=diag, offdiag=off)


def _turn_factor(mu: float) -> float:
    """mu^2 / (mu^2 - 1) for mu > 1, to a few ulps: mu - 1 is exact up to
    mu = 2, and no finite mu overflows."""
    return mu / (mu - 1.0) * (mu / (mu + 1.0))


def _check_lams(lams) -> np.ndarray:
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    if not np.isfinite(lams).all():
        raise InvalidParametersError("lam must be finite")
    if lams.size and float(np.max(lams)) >= 0.5:
        raise BranchCutError(
            f"lam = {float(np.max(lams))} is not below the threshold 1/2; the "
            "lowest branch cut starts there"
        )
    return lams


def spectral_diagonals(mu: float, lams: np.ndarray, n: int) -> np.ndarray:
    """Diagonals of the spectral family for a batch of lam values, (k, n)."""
    if n < 0:
        raise InvalidParametersError(f"the number of rows must be nonnegative, got {n}")
    return _spectral_diagonals(_check_mu(mu), _check_lams(lams), 0, n)


def _check_diagonals(mu: float, lam: float, stop: int) -> None:
    """Raise where an entry of rows k < stop, at most the recurrence's |w_k|
    at lam, may overflow: checked before numpy forms it, which would warn."""
    if stop > 0 and _weights_overflow(mu, complex(lam), stop - 1):
        raise InvalidParametersError(f"mu = {mu} makes a diagonal entry overflow at lam = {lam}")


def _spectral_diagonals(mu: float, lams: np.ndarray, start: int, stop: int) -> np.ndarray:
    """2 mu sqrt(k + 1/2) sqrt(k + 1/2 - lam), the recurrence's w_k, for
    start <= k < stop, one row per lam; the least lam bounds every entry."""
    if lams.size:
        _check_diagonals(mu, float(lams.min()), stop)
    modes = np.arange(start, stop) + 0.5
    return 2.0 * mu * _lattice_rows(stop)[1][start:] * np.sqrt(modes - lams[:, None])


def _check_cap(cap: int) -> None:
    if not 2 <= cap <= ROW_CAP:
        # the rounding argument of _walk holds up to ROW_CAP rows
        raise InvalidParametersError(f"row cap must lie in [2, {ROW_CAP}], got {cap}")


def _walk(k: int, couplings: Callable, diagonals: Callable, level: float,
          certified: Callable, cap: int, what: str,
          first: int = _FIRST_BLOCK) -> tuple[np.ndarray, int]:
    """Counts below ``level`` of k infinite matrices sharing their
    couplings, and the most rows any of them walked.

    ``couplings(start, stop)`` gives the couplings of rows start .. stop - 1
    as ``_couplings`` does, and ``diagonals(cols, start, stop)`` those rows
    of the diagonals of the matrices ``cols``.  The first block ends at
    row ``first``, and every later one is as long as all the rows before
    it, up to ``cap`` (checked by the caller, at most ``ROW_CAP``); after
    each block, ``certified(cols, last, stop, couplings)`` says, from each
    matrix's last pivot and the block's couplings, with the one joining it
    to row ``stop`` last, which counts no later row can change.  Those
    stop; one still open at ``cap`` rows raises ``NonConvergenceError``
    naming ``what``.

    Rounding.  The certificates hold for the computed pivots, which the
    counts read.  Write the spectral invariant as q_k >= (1 - t) d(k+1).
    An exact step takes t to at most t d(k)/d(k+1).  Rounding a step adds
    a few ulps of the terms it sums, about 20 eps to t at most: where
    a_k < 2 (d(k) + d(k+1)) they are under 7 (k+1) against d(k+1) >
    0.9 (k+1), elsewhere the slack a_k - d(k) - d(k+1) > a_k/2 absorbs
    them.  So within 2^20 rows t < 1e-8, and every later pivot keeps its
    sign at least half its bound away from 0, far outside the pivmin
    clamp (eps times the block's largest entries).  At level -mu, a pivot
    q = s mu/2 with s >= 1 is followed by an exact pivot at least
    (2 - 4B/mu^2) mu/2 > (1 + 1e-12) mu/2, as certification asks
    4B < (1 - 1e-12) mu^2; rounding moves it by a few ulps of mu, far
    less, so no computed pivot leaves q >= mu/2.  Comparisons keep a
    1e-12 relative margin.  The spectral bound K is computed to a few
    ulps and raised by that margin, so it is never below the exact bound;
    from row K on, k - d(k) >= 1/(16 k) leaves a_k - d(k) - d(k+1) >
    1/(8 (k + 1)) > 1e-7 up to 2^20 rows, which the few ulps of 2k + 1 by
    which the computed entries may err cannot close.
    """
    counts = np.zeros(k, dtype=np.int64)
    cols = np.arange(k)
    last = np.array([math.inf] * k)
    start, stop = 0, min(first, cap)
    while cols.size:
        # with the coupling that joins the block to the next row
        joins = couplings(start, stop + 1)
        counts[cols] += counts_for_diagonals(
            diagonals(cols, start, stop), joins[:-1], level, carry=last
        )
        done = certified(cols, last, stop, joins)
        cols, last = cols[~done], last[~done]
        if cols.size and stop == cap:
            raise NonConvergenceError(f"{what} is not certified within the row cap {cap}")
        start, stop = stop, min(2 * stop, cap)
    return counts, start


def spectral_counts(mu: float, lams, *, cap: int = ROW_CAP) -> tuple[np.ndarray, int]:
    """Eigenvalues below 0 of the infinite spectral operator at each lam
    (mu > 1), and the most rows any of these counts walked.

    Certificate.  The pivots are the forward solution's ratios,
    q_k = -d(k+1) C_{k+1} / C_k.  The diagonal is
    a_k = 2 mu sqrt(k + 1/2) sqrt(k + 1/2 - lam), and d(k) <= k, so
    d(k) + d(k+1) <= 2k + 1 <= a_k exactly when
    mu^2 (k + 1/2)(k + 1/2 - lam) >= (k + 1/2)^2, that is when
    (mu^2 - 1)(k + 1/2) >= mu^2 lam.  With lam+ = max(lam, 0) that holds
    for every k >= K = max(0, ceil(mu^2 lam+ / (mu^2 - 1) - 1/2)).  Once
    q_{i-1} >= d(i) at a row i >= K, each later pivot is
    q_k = a_k - d(k)^2 / q_{k-1} >= a_k - d(k) >= d(k+1) > 0, so no
    truncation past row i counts another negative pivot.  Next to the
    threshold the bound is tight: a_{K-1} < d(K-1) + d(K) there.
    """
    mu = _check_mu(mu)
    if not mu > 1.0:
        # below 0 lie infinitely many eigenvalues at mu <= 1
        raise InvalidParametersError(f"certified spectral counts need mu > 1, got {mu}")
    lams = _check_lams(lams)
    _check_cap(cap)
    # K, or -0 where lam <= 0 and K = 0
    first = np.ceil(np.maximum(lams, 0.0) * (_turn_factor(mu) * (1.0 + _MARGIN)) - 0.5)

    def certified(cols, last, stop, couplings):
        return (stop >= first[cols]) & (last >= couplings[-1] * (1.0 + _MARGIN))

    return _walk(
        lams.size,
        lambda start, stop: _lattice_rows(stop)[0][start:],
        lambda cols, start, stop: _spectral_diagonals(mu, lams[cols], start, stop),
        0.0,
        certified,
        cap,
        f"the spectral count for mu = {mu}",
    )


def _admits(b: np.ndarray, level: float) -> np.ndarray:
    """Whether each coupling b admits the counting certificate at
    ``level``: 4 max(1/4, b^2) / mu^2 < 1 - 1e-12, divided step by step so
    that no finite level overflows."""
    return 1.0 - 4.0 * np.maximum(0.25, b * b) / level / level > _MARGIN


def _row_bound(family: CountingFamily | CountingLimitFamily, g: float) -> float:
    """k+ such that the exact couplings of rows k >= 1 have
    4 max(1/4, b_k^2) < c exactly when k > k+, for c > 0 with 1/c^2 = g;
    inf where no row does."""
    a = 1.0 - g
    if not a > 0.0:
        return math.inf
    if isinstance(family, CountingLimitFamily):
        # 4 b_k^2 = (1 - 1/(k + 1))^(-1/2) < c: k + 1 > 1/a
        return g / a
    eps = family.epsilon
    if eps >= 1.0:
        # 4 b_k^2 <= 1 < c on every row
        return 0.0
    # 4 b_k^2 = k / sqrt((k + eps)(k - 1 + eps)) < c: the larger root of
    # a k^2 + (2 eps - 1) k + eps (eps - 1), whose other root is negative
    b = 2.0 * eps - 1.0
    root = math.sqrt(b * b + 4.0 * a * (eps * (1.0 - eps)))
    return (root - b) / (2.0 * a) if b <= 0.0 else 2.0 * (eps * (1.0 - eps)) / (root + b)


def _coupling_row(family: CountingFamily | CountingLimitFamily, level: float, cap: int,
                  couplings: Callable) -> int | None:
    """The coupling row: the first row r in [1, cap] whose computed
    coupling admits the counting certificate at ``level``, or None.

    ``couplings(start, stop)`` gives rows start .. stop - 1 as
    ``_couplings`` does; it is asked once, for the rows between the ends
    of r's bracket and the ``_FIRST_BLOCK`` rows past it.
    """
    inv = 1.0 / level
    inv_c = inv * inv / (1.0 - _MARGIN)
    # the closed-form rows for c (1 + 16 eps) and c (1 - 16 eps) bracket r
    lo, hi = (max(1, math.floor(min(_row_bound(family, inv_c * inv_c * t), cap)) + 1)
              for t in (1.0 - _ROW_SLACK, 1.0 + _ROW_SLACK))
    hi = min(hi, cap)
    if lo > hi:
        return None
    hits = np.flatnonzero(_admits(couplings(lo, min(hi + _FIRST_BLOCK, cap) + 1)[: hi + 1 - lo], level))
    return lo + int(hits[0]) if hits.size else None


def certified_count(
    family: CountingFamily | CountingLimitFamily, level: float, *, cap: int = ROW_CAP
) -> tuple[int, int]:
    """Eigenvalues above ``level`` (> 1) of a counting family's infinite
    operator, and the rows walked to certify the count.

    Certificate.  The diagonal is zero, so T and -T are similar through
    diag((-1)^k), and the eigenvalues above mu are those below -mu: the
    count is the negative pivots of the walk at level -mu, whose pivots
    run q_k = mu - b_k^2 / q_{k-1}, each the exact negation of the pivot
    at level mu.  b_k^2 only decreases while it is above 1/4 and never
    rises back above it, so B = max(1/4, b^2), with b the coupling that
    joins the rows walked to the next row, bounds every later b^2.  When
    4B < mu^2, the half-line q >= mu/2 maps into itself, since
    mu - B / (mu/2) > mu/2: once the last pivot is in it, every later
    pivot is positive and the count is final.  Every radius between the
    roots (mu -+ sqrt(mu^2 - 4B)) / 2 gives an invariant half-line; mu/2
    is the middle one.  The pivots settle at the outer root of the last
    b^2, which a relative margin cannot separate from the outer root of B
    once mu^2 is large against B.

    Rounding.  The computed b_k^2 need not decrease: at epsilon = 1/2,
    b_k^2 = 1/(4 sqrt(1 - 1/(4 k^2))) falls by about 1/(16 k^3) a row,
    under the rounding of each b_k^2 from about row 2^16 on, where the
    computed values start to rise by an ulp now and then.  Each is within
    a few ulps of the exact value, so a later computed b^2 exceeds the
    computed B by at most 8 eps relative.  Certification asks
    4B < (1 - 1e-12) mu^2, so every later computed 4 b^2 stays below
    (1 - 1e-12)(1 + 8 eps) mu^2 < mu^2, and the pivot bound below keeps
    all but a few ulps of its 1e-12 margin.  The same few ulps, with
    those of the certificate's divisions, keep the coupling row's
    bracket: a computed coupling admits where the exact one has
    4 max(1/4, b^2) < c (1 + t) with |t| < 16 eps, c = (1 - 1e-12) mu^2.

    Schedule.  No certificate holds at a block end before the coupling
    row r, the first row r >= 1 with 4 max(1/4, b_r^2) < c, about
    1/(4 (mu - 1)) near critical.  Its exact couplings have a closed form:
    rows k >= 1 satisfy 4 max(1/4, b_k^2) < c exactly when c > 1 and, for
    the counting limit, k + 1 > 1/(1 - 1/c^2), or, for counting(epsilon),
    k lies past the larger root of
    (1 - 1/c^2) k^2 + (2 epsilon - 1) k + epsilon (epsilon - 1), both
    written in 1/c^2 so that no finite level overflows.  The closed-form
    rows for c (1 + 16 eps) and c (1 - 16 eps) bracket r: no row before
    the first admits, and the second does.  Only the bracket's couplings
    are tested, and the first that admits is r; the bracket is usually 1
    to 3 rows, wider where the couplings are flat, as at epsilon near
    1/2 with r past about 2^16.  The first block ends ``_FIRST_BLOCK``
    rows past r, or at the cap where no row up to it admits; its
    couplings are computed with the bracket's, once.  A walk whose pivots
    have not settled there goes on in blocks that double.  The rows
    returned are where the walk stopped.
    """
    if not isinstance(family, (CountingFamily, CountingLimitFamily)):
        raise InvalidParametersError(f"no certified count for {family!r}")
    level = float(level)
    if not (math.isfinite(level) and level > 1.0):
        # above a level <= 1 lie infinitely many eigenvalues
        raise InvalidParametersError(f"certified counts need a level above 1, got {level}")
    _check_cap(cap)
    joins = np.zeros(0)

    def couplings(start: int, stop: int) -> np.ndarray:
        # each coupling is computed once, for the coupling row and the walk
        nonlocal joins
        if joins.size < stop:
            joins = np.concatenate((joins, _couplings(family, joins.size, stop)))
        return joins[start:stop]

    r = _coupling_row(family, level, cap, couplings)

    def certified(cols, last, stop, couplings):
        if not _admits(couplings[-1], level):
            return np.zeros(cols.size, dtype=bool)
        return last >= 0.5 * level * (1.0 + _MARGIN)

    below, rows = _walk(
        1,
        couplings,
        lambda cols, start, stop: np.zeros((1, stop - start)),
        -level,
        certified,
        cap,
        f"the count above {level} of {family!r}",
        cap if r is None else r + _FIRST_BLOCK,
    )
    return int(below[0]), rows


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
