"""Symmetric tridiagonal eigenvalue counting and windowed bisection.

The core primitive is the Sturm pivot count: the number of negative
pivots of the shifted LDL^T factorisation of T - level*I equals the
number of eigenvalues strictly below ``level``.  ``counts_for_diagonals``
is the one count: it takes k diagonals sharing one offdiagonal, so a
batch of levels on one matrix is a batch of shifted diagonals.  Pivots
within pivmin of zero (one rule, ``_pivmin_rule``) are replaced by
-pivmin so the count never divides by zero, at the cost of an ulp-scale
ambiguity for levels that collide with an eigenvalue of a leading
principal submatrix.  Each matrix of a batch has its own pivmin, from
its own diagonal, so its count does not depend on the other matrices
counted with it.  The scalar pivot loop, ``_count_scalar``, is the only
one: ``recurrence.secular_function``'s real sweep is a count in it.  One
comparison settles a pivot above pivmin, as nearly all pivots of the
package's long counts are.
Counts are exact integers; every eigenvalue in the package is then
bracketed by the one bisection on a count, ``_bisect``, which can also
stop once each root is alone in its bracket, for a polish whose result
the counts certify.

A matrix whose largest |entry| or |level| L lies outside [1, 2^500),
and is not 0, is counted in its normal form, scaled exactly by the power
of two that brings L into [1, 2).  With L in [1, 2^500), pivmin is eps to
2 eps times max|d| + 2 max|e| + |level|, and by the rounding argument of
Kahan (1966, "Accurate eigenvalues of a symmetric tri-diagonal matrix")
and Demmel, Dhillon & Ren (ETNA 3, 1995) the count is exact for a matrix
within a few ulps of each coupling and a few eps*L of each shifted
diagonal entry (2 pivmin where a pivot is clamped); no e^2 or e^2/q
overflows.

``dense_eigen_oracle`` is the deliberately independent cross-check: it
densifies the matrix and calls LAPACK's symmetric eigensolver, sharing
no code with the pivot recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParametersError, SizeExceededError

__all__ = [
    "TridiagonalMatrix",
    "EigenvalueReport",
    "DENSE_ORACLE_MAX_SIZE",
    "counts_for_diagonals",
    "eigenvalues_in_window",
    "smallest_eigenvalue",
    "dense_eigen_oracle",
]

_EPS = float(np.finfo(np.float64).eps)

# Batches narrower than this run faster as plain Python loops than as
# per-row numpy calls.
_SCALAR_BATCH_LIMIT = 8

# Rows of pivots the column kernel computes between two checks for pivots
# that need the pivmin clamp.
_ROW_BLOCK = 64

DENSE_ORACLE_MAX_SIZE = 1024


@dataclass(frozen=True, eq=False)
class TridiagonalMatrix:
    """Real symmetric tridiagonal matrix stored as two arrays."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.diag, dtype=np.float64)
        e = np.asarray(self.offdiag, dtype=np.float64)
        if d.ndim != 1 or d.size < 1:
            raise InvalidParametersError("diag must be a 1-D array of size >= 1")
        if e.ndim != 1 or e.size != d.size - 1:
            raise InvalidParametersError(
                f"offdiag must have size {d.size - 1}, got {e.size}"
            )
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise InvalidParametersError("matrix entries must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def size(self) -> int:
        return int(self.diag.size)

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        if self.size > 1:
            idx = np.arange(self.size - 1)
            a[idx, idx + 1] = self.offdiag
            a[idx + 1, idx] = self.offdiag
        return a

    def gershgorin_bounds(self) -> tuple[float, float]:
        radius = np.zeros(self.size)
        if self.size > 1:
            radius[:-1] += np.abs(self.offdiag)
            radius[1:] += np.abs(self.offdiag)
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))


@dataclass(frozen=True)
class EigenvalueReport:
    """Eigenvalues found in a half-open window [lo, hi)."""

    eigenvalues: np.ndarray = field(repr=False)
    count_below_lo: int
    count_below_hi: int

    @property
    def count(self) -> int:
        return int(self.count_below_hi - self.count_below_lo)


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParametersError(f"tol must be finite and positive, got {tol}")
    return tol


def _pivmin_rule(top: float, off: float, level: float) -> float:
    """eps*(top + 2*off + |level| + 1), the pivmin of a matrix with largest
    |diagonal entry| ``top`` and |coupling| ``off`` at ``level``: its pivots
    no larger in magnitude are clamped to -pivmin."""
    pivmin = _EPS * (top + 2.0 * off + abs(level) + 1.0)
    if pivmin == math.inf:
        # the sum of finite terms may overflow; eps times each cannot
        pivmin = _EPS * top + 2.0 * (_EPS * off) + _EPS * abs(level) + _EPS
    return pivmin


def _largest(diags: np.ndarray, offdiag: np.ndarray) -> tuple[list[float], float]:
    """The largest |entry| of each row of the (k, n) ``diags``, and of ``offdiag``."""
    # max(max x, -min x) rather than max|x|: np.abs would copy a (k, n) batch
    off = max(float(offdiag.max(initial=0.0)), -float(offdiag.min(initial=0.0)))
    highs = diags.max(1, initial=0.0).tolist()
    lows = diags.min(1, initial=0.0).tolist()
    return [max(hi, -lo) for hi, lo in zip(highs, lows)], off


def _count_scalar(rows: memoryview, off2: memoryview, pivmin: float, q: float) -> tuple[int, float]:
    """Negative pivots of one matrix's rows, shifted by the level, and the
    last pivot, continuing from the pivot ``q`` of the row before them (inf
    before row 0, where the coupling is 0 and 0/inf = 0).

    One comparison settles a pivot above pivmin, the common case in every
    hot count (counting walks below -1, spectral walks below 0, the real
    secular sweep); a second settles one below -pivmin, and only the band
    [-pivmin, pivmin] is left, whose pivots are clamped to -pivmin and
    counted.  A nan pivot is neither.
    """
    count = 0
    floor = -pivmin
    for d, o in zip(rows, off2):
        q = d - o / q
        if q > pivmin:
            continue
        if q < floor:
            count += 1
        elif q <= pivmin:
            count += 1
            q = floor
    return count, q


def _pivot_rows(rows: np.ndarray, off2: list, prev: np.ndarray, out: np.ndarray, pivmin: np.ndarray | None = None) -> None:
    """Pivots of ``rows`` into ``out``, continuing from the pivot row ``prev``.

    With ``pivmin`` each pivot is clamped as in ``_count_scalar``; without
    it the recurrence runs unclamped.
    """
    for row, o, q in zip(rows, off2, out):
        np.divide(o, prev, out=q)
        np.subtract(row, q, out=q)
        if pivmin is not None:
            np.copyto(q, -pivmin, where=np.abs(q) <= pivmin)
        prev = q


def _counts_columns(diag_rows: np.ndarray, off2: np.ndarray, pivmin: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Negative-pivot counts for the (n, k) array of shifted diagonals,
    column j clamped at its own ``pivmin[j]``, continuing from the pivot
    row ``prev``, which is overwritten with the last pivot row.

    Rows run in blocks of ``_ROW_BLOCK``, first without the pivmin clamp.
    Up to the first pivot within pivmin of zero both recurrences compute
    the same values, so only a block holding such a pivot is run again
    with the clamp.  That leaves two numpy calls per row in the common case.
    """
    n, k = diag_rows.shape
    block = np.empty((min(n, _ROW_BLOCK), k))
    counts = np.zeros(k, dtype=np.int64)
    off2_list = off2.tolist()
    for start in range(0, n, _ROW_BLOCK):
        rows = diag_rows[start : start + _ROW_BLOCK]
        couplings = off2_list[start : start + _ROW_BLOCK]
        q = block[: rows.shape[0]]
        # a zero pivot makes inf and nan here; that block is redone below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _pivot_rows(rows, couplings, prev, q)
        if np.any(np.abs(q) <= pivmin):
            _pivot_rows(rows, couplings, prev, q, pivmin)
        counts += np.count_nonzero(q < 0.0, axis=0)
        prev[:] = q[-1]
    return counts


def counts_for_diagonals(
    diags: np.ndarray, offdiag: np.ndarray, level: float = 0.0, *, carry: np.ndarray | None = None
) -> np.ndarray:
    """Counts below ``level`` for a batch of matrices sharing one offdiagonal.

    ``diags`` has shape (k, n): k diagonals over a common coupling array.
    This is the package's only Sturm count.  One matrix at one level is
    ``t.diag[None, :]`` with ``level``; one matrix at k levels is
    ``(t.diag[:, None] - levels).T`` with level 0.  Batches wider than
    ``_SCALAR_BATCH_LIMIT`` run in the column kernel, which reads
    ``diags.T`` row by row, without a copy when it is C-contiguous as in
    that form.

    ``carry`` continues the count of k matrices over their next n rows:
    it holds each matrix's last pivot so far (inf before its first row)
    and is overwritten with the last pivot of these rows.  ``offdiag``
    then has n entries, the first joining the rows before to these.
    Each call takes its pivmin from the rows it is given.

    A matrix whose largest |entry| or |level| lies outside [1, 2^500), and
    is not 0, is counted in its normal form (module docstring), its carry
    scaled alike.  An infinite or nan entry or level raises
    ``InvalidParametersError``.
    """
    diags = np.asarray(diags, dtype=np.float64)
    offdiag = np.asarray(offdiag, dtype=np.float64)
    level = float(level)
    joins = offdiag.size if carry is not None else offdiag.size + 1
    if diags.ndim != 2 or diags.shape[1] != joins:
        raise InvalidParametersError(
            "diags must be (k, n) with offdiag of size n-1, or n with a carry"
        )
    tops, off = _largest(diags, offdiag)
    pivmin = [_pivmin_rule(top, off, level) for top in tops]
    # a nan or infinite entry or level makes a pivmin nan or infinite
    if not all(map(math.isfinite, pivmin)):
        raise InvalidParametersError("entries and level must be finite")
    reach = max(off, abs(level))
    if reach < 1.0 or max([reach, *tops]) >= 2.0**500:
        # the exponent of each matrix's normal form, 0 where it is its own
        peaks = (max(top, reach) for top in tops)
        exps = np.array([math.frexp(p)[1] - 1 if p and not 1.0 <= p < 2.0**500 else 0 for p in peaks])
        if exps.any():
            counts = np.empty(exps.size, dtype=np.int64)
            with np.errstate(over="ignore"):  # a carry past the float range reads inf
                for e in np.unique(exps).tolist():
                    j = np.flatnonzero(exps == e)
                    part = None if carry is None else np.ldexp(carry[j], -e)
                    scaled = np.ldexp(diags[j], -e), np.ldexp(offdiag, -e), math.ldexp(level, -e)
                    counts[j] = counts_for_diagonals(*scaled, carry=part)
                    if carry is not None:  # one below it keeps its sign, as the least subnormal
                        carry[j] = np.copysign(np.maximum(np.abs(np.ldexp(part, e)), 5e-324), part)
            return counts
    off2 = offdiag * offdiag
    if level:  # entries and level below 2^500: no shifted entry overflows
        diags = diags - level
    if carry is None:
        # 0/inf = 0, so the first pivot is the first diagonal
        off2 = np.concatenate(([0.0], off2))
        carry = np.full(diags.shape[0], np.inf)
    if diags.shape[0] <= _SCALAR_BATCH_LIMIT:
        # memoryviews hand the loop Python floats without building lists
        off2_view = memoryview(off2)
        counts = np.empty(diags.shape[0], dtype=np.int64)
        for j, (row, p, q) in enumerate(zip(diags, pivmin, carry.tolist())):
            counts[j], carry[j] = _count_scalar(memoryview(row), off2_view, p, q)
        return counts
    return _counts_columns(np.ascontiguousarray(diags.T), off2, np.array(pivmin), carry)


def _bisect(
    count_at, lo, hi, ks: np.ndarray, tol: float, *, ends: tuple[int, int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Where a nondecreasing integer count first exceeds each target in ``ks``.

    ``count_at`` maps an array of points to their counts, and
    count(lo) <= k < count(hi) must hold for every target k; ``lo`` and
    ``hi`` are points, or arrays with one bracket per target.  Each bracket
    is halved until it is within ``tol``; only brackets still wider than
    ``tol`` are counted again.  A bracket whose midpoint rounds to one of
    its ends can shrink no further and is not counted again either, so a
    ``tol`` below the ulp scale costs no extra counts; at most
    ceil(log2((hi - lo) / tol)) + 3 halvings run.

    With ``ends``, the counts (count(lo), count(hi)), the count at each
    bracket end is tracked, and a bracket also stops as soon as its target
    is alone in it: count(low) = k and count(high) = k + 1.

    Returns the final brackets ``(lows, highs)``; every point counted for
    target k lies at or below lows[k] or at or above highs[k].
    """
    lows = np.array(np.broadcast_to(lo, ks.shape), dtype=np.float64)
    highs = np.array(np.broadcast_to(hi, ks.shape), dtype=np.float64)
    if ends is not None:
        end_lows = np.full(ks.shape, ends[0])
        end_highs = np.full(ks.shape, ends[1])
    width = float(np.max(highs - lows, initial=tol))
    max_iter = max(1, math.ceil(math.log2(width) - math.log2(tol))) + 3
    for _ in range(max_iter):
        # halves first: lows + highs may overflow
        mids = 0.5 * lows + 0.5 * highs
        # a midpoint on an end would only count that end again
        open_ = (highs - lows > tol) & (mids != lows) & (mids != highs)
        if ends is not None:
            open_ &= (end_lows != ks) | (end_highs != ks + 1)
        active = np.flatnonzero(open_)
        if active.size == 0:
            break
        mids = mids[active]
        counts = count_at(mids)
        go_left = counts > ks[active]
        highs[active[go_left]] = mids[go_left]
        lows[active[~go_left]] = mids[~go_left]
        if ends is not None:
            end_highs[active[go_left]] = counts[go_left]
            end_lows[active[~go_left]] = counts[~go_left]
    return lows, highs


def eigenvalues_in_window(
    t: TridiagonalMatrix,
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> EigenvalueReport:
    """All eigenvalues in [lo, hi), each bisected to within ``tol``."""
    lo, hi = float(lo), float(hi)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise InvalidParametersError(
            "window must be finite with lo < hi and a finite width"
        )
    tol = _check_tol(tol)
    count_lo, count_hi = (
        int(counts_for_diagonals(t.diag[None, :], t.offdiag, level)[0])
        for level in (lo, hi)
    )
    lows, highs = _bisect(
        lambda levels: counts_for_diagonals((t.diag[:, None] - levels).T, t.offdiag),
        lo,
        hi,
        np.arange(count_lo, count_hi),
        tol,
    )
    return EigenvalueReport(
        eigenvalues=0.5 * lows + 0.5 * highs,
        count_below_lo=count_lo,
        count_below_hi=count_hi,
    )


def smallest_eigenvalue(t: TridiagonalMatrix, tol: float = 1e-10) -> float:
    """Lowest eigenvalue, bisected between the Gershgorin bounds."""
    tol = _check_tol(tol)
    with np.errstate(over="ignore"):  # a bound past the float range reads +-inf
        lo, hi = t.gershgorin_bounds()
    # the count's pivmin at hi, taken in the normal form of a matrix whose
    # largest |entry| or |hi| is below 1, so that it is relative to its scale
    (top,), off = _largest(t.diag[None, :], t.offdiag)
    peak = max(top, off, abs(hi))
    e = math.frexp(peak)[1] - 1 if 0.0 < peak < 1.0 else 0
    pivmin = math.ldexp(_pivmin_rule(math.ldexp(top, -e), math.ldexp(off, -e), math.ldexp(hi, -e)), e)
    hi = hi + max(tol, pivmin)
    if not math.isfinite(hi - lo):
        raise InvalidParametersError("the Gershgorin bounds must have a finite width")
    lows, highs = _bisect(
        lambda levels: counts_for_diagonals(t.diag[None, :], t.offdiag, levels[0]),
        lo,
        hi,
        np.zeros(1, dtype=np.int64),
        tol,
    )
    return float(0.5 * lows[0] + 0.5 * highs[0])


def dense_eigen_oracle(t: TridiagonalMatrix) -> np.ndarray:
    """All eigenvalues via dense LAPACK, ascending; independent of Sturm code."""
    if t.size > DENSE_ORACLE_MAX_SIZE:
        raise SizeExceededError(
            f"dense oracle limited to size {DENSE_ORACLE_MAX_SIZE}, got {t.size}"
        )
    return np.linalg.eigvalsh(t.to_dense())
