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
mu > 1) count eigenvalues of the infinite operator: they walk rows in
blocks through :func:`speclab.tridiag.counts_for_diagonals`, the one
Sturm count, carrying the last pivot row, and stop each count at the
first block end where a certificate shows that no later row can change
it, never past a caller's cap, which is at most ``ROW_CAP`` rows.  Each
block is as long as all the rows before it.

The spectral walk takes the operator's rows; its first block ends at row
64.  A counting operator J has a zero diagonal, so it is bipartite, and
its eigenvalues above mu are those below -1 of -(B/mu)^T (B/mu), with B
the block that joins its even rows to its odd ones: a tridiagonal matrix
on J's odd rows, one for every two rows of J, which the counting walk
takes, counting odd row 0, the one row that reads the coupling b_1 that
grows without bound as epsilon -> 0, on its own.  A last pivot
q >= 1/4 certifies its count once the squared couplings past it, over
mu^2, are below 1/4.  Its rows and cap are rows of J, and its first
block ends 64 rows of J past its coupling row, the first row whose
coupling admits the certificate, placed by its closed form in mu; the
certificate alone decides where a walk stops.  Both walks' pivots are
nearly all positive, which the scalar pivot loop settles with one
comparison each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import ROW_CAP, BranchCutError, InvalidParametersError, NonConvergenceError
from .recurrence import _check_mu, _check_weights, _lattice, _weight_rows
from .tridiag import TridiagonalMatrix, counts_for_diagonals, smallest_eigenvalue

__all__ = [
    "ROW_CAP",
    "ReferenceFamily",
    "SpectralFamily",
    "CountingFamily",
    "CountingLimitFamily",
    "JacobiFamily",
    "build",
    "spectral_counts",
    "certified_count",
    "TransitionScanReport",
    "transition_scan",
]

# Rows a spectral walk takes before its first certificate check, and rows
# of J a counting walk takes past its coupling row; every later block is
# as long as all the rows before it.
_FIRST_BLOCK = 64
# Relative margin of every certificate comparison.
_MARGIN = 1e-12


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
        return _lattice(stop, "d")[0][start:stop]
    k = np.arange(max(start, 1), stop, dtype=np.float64)
    if isinstance(family, CountingFamily):
        # one quarter power per row: (k - 1 + eps)^(1/4) is the previous
        # row's (k + eps)^(1/4), since k - 1 is exact
        t = (np.arange(max(start, 1) - 1, stop, dtype=np.float64) + family.epsilon) ** 0.25
        off = np.sqrt(k) / (2.0 * t[1:] * t[:-1])
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
        # the exact 2 mu (k + 1/2), the weights w_k at lam = 0
        _check_weights(family.mu, 0.0, n)
        diag = 2.0 * family.mu * _lattice(n, "half")[0][:n]
    elif isinstance(family, SpectralFamily):
        diag = _weight_rows(family.mu, family.lam, n)
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


def _check_cap(cap: int) -> None:
    if not 2 <= cap <= ROW_CAP:
        # the rounding argument of _walk holds up to ROW_CAP rows
        raise InvalidParametersError(f"row cap must lie in [2, {ROW_CAP}], got {cap}")


def _walk(k: int, rows: Callable, level: float, certified: Callable, cap: int,
          unsettled: str, first: int = _FIRST_BLOCK) -> tuple[list[int], int]:
    """Counts below ``level`` of k infinite matrices, and the most rows any
    of them walked.

    ``rows(cols, start, stop)`` gives rows start .. stop - 1 of the
    matrices ``cols`` as pieces, in order, each a pair (diagonals,
    couplings) whose couplings join each row to the one before it, and
    ``edge``, the value past those rows that the certificate reads.  Each
    piece is counted in a call of its own, so each takes its own pivmin.
    The first block ends at row ``first``, and every later one is as long
    as all the rows before it, up to ``cap`` (checked by the caller); after
    each block, ``certified(cols, last, stop, edge)`` says, from each
    matrix's last pivot, which counts no later row can change, as a list
    of bools.  Those stop; one still open at ``cap`` rows raises
    ``NonConvergenceError`` with the message ``unsettled``.  The open
    columns ``cols`` and the counts are lists, which cost less than
    arrays at the few levels a walk counts; ``last`` is the array the
    counts carry.

    Rounding of the spectral walk.  The certificate holds for the
    computed pivots, which the counts read.  Write the invariant as
    q_k >= (1 - t) d(k+1).  An exact step takes t to at most
    t d(k)/d(k+1).  Rounding a step adds a few ulps of the terms it sums,
    about 20 eps to t at most: where a_k < 2 (d(k) + d(k+1)) they are
    under 7 (k+1) against d(k+1) > 0.9 (k+1), elsewhere the slack
    a_k - d(k) - d(k+1) > a_k/2 absorbs them.  So within 2^20 rows
    t < 1e-8, and every later pivot keeps its sign at least half its
    bound away from 0, far outside the pivmin clamp (eps times the
    block's largest entries).  Comparisons keep a 1e-12 relative margin.
    The bound K is computed to a few ulps and raised by that margin, so it
    is never below the exact bound; from row K on, k - d(k) >= 1/(16 k)
    leaves a_k - d(k) - d(k+1) > 1/(8 (k + 1)) > 1e-7 up to 2^20 rows,
    which the few ulps of 2k + 1 by which the computed entries may err
    cannot close.  The counting walk's argument is
    :func:`certified_count`'s.
    """
    counts = [0] * k
    cols = list(range(k))
    last = np.array([math.inf] * k)
    start, stop = 0, min(first, cap)
    while cols:
        pieces, edge = rows(cols, start, stop)
        for diagonals, couplings in pieces:
            piece = counts_for_diagonals(diagonals, couplings, level, carry=last)
            for j, c in zip(cols, piece.tolist()):
                counts[j] += c
        open_ = [i for i, done in enumerate(certified(cols, last, stop, edge)) if not done]
        cols, last = [cols[i] for i in open_], last[open_]
        if cols and stop == cap:
            raise NonConvergenceError(unsettled)
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
    # K, 0 where lam <= 0
    factor = _turn_factor(mu) * (1.0 + _MARGIN)
    first = [math.ceil(max(lam, 0.0) * factor - 0.5) for lam in lams.tolist()]
    family = ReferenceFamily(mu)  # whose couplings are the spectral family's

    def rows(cols, start, stop):
        # with the coupling that joins the block to the next row
        joins = _couplings(family, start, stop + 1)
        return [(_weight_rows(mu, lams[cols][:, None], stop, start), joins[:-1])], joins[-1]

    def certified(cols, last, stop, coupling):
        bound = coupling * (1.0 + _MARGIN)
        return [stop >= first[j] and q >= bound for j, q in zip(cols, last.tolist())]

    counts, rows_walked = _walk(
        lams.size,
        rows,
        0.0,
        certified,
        cap,
        f"the spectral count for mu = {mu} is not certified within the row cap {cap}",
    )
    return np.array(counts), rows_walked


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


def _coupling_row(family: CountingFamily | CountingLimitFamily, level: float, cap: int) -> int:
    """The coupling row: the first row r >= 1 whose coupling admits the
    counting certificate at ``level``, from its closed form; cap + 1 where
    no row up to ``cap`` does."""
    inv = 1.0 / level
    inv_c = inv * inv / (1.0 - _MARGIN)
    return max(1, math.floor(min(_row_bound(family, inv_c * inv_c), cap)) + 1)


def certified_count(
    family: CountingFamily | CountingLimitFamily, level: float, *, cap: int = ROW_CAP
) -> tuple[int, int]:
    """Eigenvalues above ``level`` (> 1) of a counting family's infinite
    operator J, and the rows of J walked to certify the count.

    Odd rows.  The diagonal is zero, so J is bipartite: ordered even rows
    first, J = [[0, B], [B^T, 0]], whose eigenvalues are plus and minus
    the singular values of B, and zeros (Golub & Kahan, 1965).  The
    eigenvalues above mu are therefore the eigenvalues below -1 of
    -(B/mu)^T (B/mu), a tridiagonal matrix on the odd rows of J: with
    x_k = (b_k / mu)^2, odd row i (row 2i + 1 of J) has the diagonal
    -(x_{2i+1} + x_{2i+2}) and is joined to odd row i - 1 by
    (b_{2i} / mu)(b_{2i+1} / mu).  s odd rows are exactly the truncation
    of J to its first 2s + 1 rows; at an even cap 2s the last odd row
    drops x_{2s}, which makes them exactly the truncation to 2s rows.
    The walk's pivots run q_i = 1 - x_{2i+1} - x_{2i+2} - x_{2i} x_{2i+1} / q_{i-1},
    one for every two rows of J.  Dividing each b_k by mu before squaring
    keeps every entry finite at every finite level and epsilon.

    Certificate.  b_k^2 only decreases while it is above 1/4 and never
    rises back above it, so after s odd rows B = max(1/(4 mu^2), x_{2s})
    bounds every x_k a later row reads.  When 4B < 1, the half-line
    q >= 1/4 maps into itself, since 1 - 2B - 4B^2 >= 1/4 for B <= 1/4:
    once the last pivot is in it, every later pivot is positive and the
    count is final.  1/4 lies between the two fixed points
    (1 - 2x -+ sqrt(1 - 4x)) / 2 of the step at every x < 1/4, and the
    pivots settle at the outer one, so the certificate holds soon after
    B admits it.  At an even cap the certificate reads the pivot the row
    would have with x_{2s}, q - x_{2s}; where it is at least 1/4, the
    truncations to 2s and 2s + 1 rows count alike.

    Rounding.  The computed x_k need not decrease: at epsilon = 1/2,
    b_k^2 = 1/(4 sqrt(1 - 1/(4 k^2))) falls by about 1/(16 k^3) a row,
    under the rounding of each b_k^2 from about row 2^16 on, where the
    computed values start to rise by an ulp now and then.  Each is within
    a few ulps of the exact value, so a later computed x exceeds the
    computed x_{2s} by at most 20 eps relative.  Certification asks
    max(1/mu^2, 4 x_{2s}) < 1 - 1e-12, so every later computed 4x stays
    below 1 - 0.99e-12, and from a pivot q >= (1 + 1e-12)/4 an exact step
    gives at least (1 + 4.9e-12)/4.  Rounding the step moves it by a few
    ulps of 1, far less, so no computed pivot leaves
    q >= (1 + 1e-12)/4, and every such pivot lies far outside the pivmin
    clamp, eps times the largest entries of its piece.

    Row 0.  Odd row 0 alone reads x_1, and b_1 = 1/(2 (epsilon
    (1 + epsilon))^(1/4)) grows without bound as epsilon -> 0.  A pivmin
    taken over rows that include it exceeds every later pivot, which the
    clamp would then count.  So odd row 0 is a piece of its own, counted
    before the rest of the first block.

    Schedule.  No certificate holds at a block end before the coupling
    row r, the first row r >= 1 with 4 max(1/4, b_r^2) < c,
    c = (1 - 1e-12) mu^2, about 1/(4 (mu - 1)) near critical.  Its exact
    couplings have a closed form: rows k >= 1 satisfy
    4 max(1/4, b_k^2) < c exactly when c > 1 and, for the counting limit,
    k + 1 > 1/(1 - 1/c^2), or, for counting(epsilon), k lies past the
    larger root of (1 - 1/c^2) k^2 + (2 epsilon - 1) k + epsilon (epsilon - 1),
    both written in 1/c^2 so that no finite level overflows.  The first
    block ends ``_FIRST_BLOCK`` rows of J past the closed-form r, at the
    first odd row count 2s + 1 >= r + ``_FIRST_BLOCK``, or at the cap
    where no row up to it admits, and a walk whose pivots have not
    settled there goes on in blocks of odd rows that double.  r only
    places the first block: at every block end the certificate decides
    from the computed x_{2s} and the last pivot, so a rounding that moves
    r by a row moves no count.  The rows returned are where the walk
    stopped, in rows of J: 2s + 1 for s odd rows, or an even cap.
    """
    if not isinstance(family, (CountingFamily, CountingLimitFamily)):
        raise InvalidParametersError(f"no certified count for {family!r}")
    level = float(level)
    if not (math.isfinite(level) and level > 1.0):
        # above a level <= 1 lie infinitely many eigenvalues
        raise InvalidParametersError(f"certified counts need a level above 1, got {level}")
    _check_cap(cap)

    def rows(cols, start, stop):
        # b_k / mu for k = 2 start .. 2 stop
        c = _couplings(family, 2 * start, 2 * stop + 1) / level
        x = c * c
        diagonal = -(x[1::2] + x[2::2])
        if 2 * stop == cap:
            # the truncation to 2s rows has no row 2s below odd row s - 1
            diagonal[-1] = -x[-2]
        coupling = c[:-1:2] * c[1::2]
        if start == 0 and stop > 1:  # odd row 0 on its own
            return [(diagonal[None, :1], coupling[:1]), (diagonal[None, 1:], coupling[1:])], x[-1]
        return [(diagonal[None, :], coupling)], x[-1]

    def certified(cols, last, stop, x):
        # 4 max(1/(4 mu^2), x_2s) < 1 - 1e-12
        if not 1.0 - max(1.0 / level / level, 4.0 * x) > _MARGIN:
            return [False]
        q = float(last[0])
        if 2 * stop == cap:
            q -= x
        return [q >= 0.25 * (1.0 + _MARGIN)]

    below, odd_rows = _walk(
        1,
        rows,
        -1.0,
        certified,
        cap // 2,
        f"the count above {level} of {family!r} is not certified within the row cap {cap}",
        (_coupling_row(family, level, cap) + _FIRST_BLOCK) // 2,
    )
    return below[0], min(2 * odd_rows + 1, cap)


@dataclass(frozen=True)
class TransitionScanReport:
    mu: float
    sizes: tuple[int, ...]
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
    return TransitionScanReport(mu=mu, sizes=sizes, smallest=smallest, window_counts=counts)
