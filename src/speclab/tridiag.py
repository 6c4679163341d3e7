"""Symmetric tridiagonal eigenvalue counting and windowed bisection.

The core primitive is the Sturm pivot count: the number of negative
pivots of the shifted LDL^T factorisation of T - level*I equals the
number of eigenvalues strictly below ``level``.  ``counts_for_diagonals``
is the one count: it takes k diagonals sharing one offdiagonal, so a
batch of levels on one matrix is a batch of shifted diagonals.  Pivots
within pivmin = eps*(max|diag| + 2*max|offdiag| + |level| + 1) of zero
are replaced by -pivmin so the count never divides by zero, at the cost
of an ulp-scale ambiguity for levels that collide with an eigenvalue of
a leading principal submatrix.  Counts are exact integers; every
eigenvalue in the package is then localised by the one bisection on a
count, ``_bisect``.

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

    window: tuple[float, float]
    eigenvalues: np.ndarray = field(repr=False)
    count_below_lo: int
    count_below_hi: int
    size: int
    tol: float

    @property
    def count(self) -> int:
        return int(self.count_below_hi - self.count_below_lo)


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParametersError(f"tol must be finite and positive, got {tol}")
    return tol


def _max_abs(x: np.ndarray) -> float:
    # max(max x, -min x) rather than max|x|: np.abs would copy a (k, n) batch
    return max(float(np.max(x, initial=0.0)), -float(np.min(x, initial=0.0)))


def _pivmin(diags: np.ndarray, offdiag: np.ndarray, level: float) -> float:
    """Pivots no larger than this in magnitude are clamped to its negative."""
    return _EPS * (_max_abs(diags) + 2.0 * _max_abs(offdiag) + abs(level) + 1.0)


def _count_scalar(diag: list, off2: list, shift: float, pivmin: float) -> int:
    q = diag[0] - shift
    if -pivmin <= q <= pivmin:
        q = -pivmin
    count = 1 if q < 0.0 else 0
    for i in range(1, len(diag)):
        q = diag[i] - shift - off2[i - 1] / q
        if -pivmin <= q <= pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def _pivot_rows(rows: np.ndarray, off2: list, prev: np.ndarray, out: np.ndarray, pivmin: float | None = None) -> None:
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


def _counts_columns(diag_rows: np.ndarray, off2: np.ndarray, pivmin: float) -> np.ndarray:
    """Negative-pivot counts for the (n, k) array of shifted diagonals.

    Rows run in blocks of ``_ROW_BLOCK``, first without the pivmin clamp.
    Up to the first pivot within pivmin of zero both recurrences compute
    the same values, so only a block holding such a pivot is run again
    with the clamp.  That leaves two numpy calls per row in the common case.
    """
    n, k = diag_rows.shape
    block = np.empty((min(n, _ROW_BLOCK), k))
    counts = np.zeros(k, dtype=np.int64)
    # 0/inf = 0, so the first pivot is the first diagonal
    prev = np.full(k, np.inf)
    off2_list = [0.0, *off2.tolist()]
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
        prev = q[-1].copy()
    return counts


def counts_for_diagonals(diags: np.ndarray, offdiag: np.ndarray, level: float = 0.0) -> np.ndarray:
    """Counts below ``level`` for a batch of matrices sharing one offdiagonal.

    ``diags`` has shape (k, n): k diagonals over a common coupling array.
    This is the package's only Sturm count.  One matrix at one level is
    ``t.diag[None, :]`` with ``level``; one matrix at k levels is
    ``(t.diag[:, None] - levels).T`` with level 0.  Batches wider than
    ``_SCALAR_BATCH_LIMIT`` run in the column kernel, which reads
    ``diags.T`` row by row, without a copy when it is C-contiguous as in
    that form.
    """
    diags = np.asarray(diags, dtype=np.float64)
    offdiag = np.asarray(offdiag, dtype=np.float64)
    level = float(level)
    if diags.ndim != 2 or diags.shape[1] != offdiag.size + 1:
        raise InvalidParametersError("diags must be (k, n) with offdiag of size n-1")
    pivmin = _pivmin(diags, offdiag, level)
    # a nan or infinite entry or level makes pivmin nan or infinite
    if not math.isfinite(pivmin):
        raise InvalidParametersError("entries and level must be finite")
    off2 = offdiag * offdiag
    if diags.shape[0] <= _SCALAR_BATCH_LIMIT:
        off2_list = off2.tolist()
        return np.array(
            [_count_scalar(row, off2_list, level, pivmin) for row in diags.tolist()],
            dtype=np.int64,
        )
    rows = np.ascontiguousarray(diags.T)
    if level:
        rows = rows - level
    return _counts_columns(rows, off2, pivmin)


def _bisect(count_at, lo: float, hi: float, ks: np.ndarray, tol: float) -> np.ndarray:
    """Where a nondecreasing integer count first exceeds each target in ``ks``.

    ``count_at`` maps an array of points to their counts, and
    count(lo) <= k < count(hi) must hold for every target k.  Each bracket
    is halved until it is within ``tol``; only brackets still wider than
    ``tol`` are counted again.  Brackets stop shrinking at ulp scale, so at
    most ceil(log2((hi - lo) / tol)) + 3 halvings run.  Returns the bracket
    midpoints.
    """
    lows = np.full(ks.size, lo)
    highs = np.full(ks.size, hi)
    max_iter = max(1, math.ceil(math.log2(hi - lo) - math.log2(tol))) + 3
    for _ in range(max_iter):
        active = np.flatnonzero(highs - lows > tol)
        if active.size == 0:
            break
        mids = 0.5 * (lows[active] + highs[active])
        go_left = count_at(mids) > ks[active]
        highs[active[go_left]] = mids[go_left]
        lows[active[~go_left]] = mids[~go_left]
    return 0.5 * (lows + highs)


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
    eigenvalues = _bisect(
        lambda levels: counts_for_diagonals((t.diag[:, None] - levels).T, t.offdiag),
        lo,
        hi,
        np.arange(count_lo, count_hi),
        tol,
    )
    return EigenvalueReport(
        window=(lo, hi),
        eigenvalues=eigenvalues,
        count_below_lo=count_lo,
        count_below_hi=count_hi,
        size=t.size,
        tol=tol,
    )


def smallest_eigenvalue(t: TridiagonalMatrix, tol: float = 1e-10) -> float:
    """Lowest eigenvalue, bisected between the Gershgorin bounds."""
    tol = _check_tol(tol)
    lo, hi = t.gershgorin_bounds()
    hi = hi + max(tol, _pivmin(t.diag, t.offdiag, hi))
    found = _bisect(
        lambda levels: counts_for_diagonals(t.diag[None, :], t.offdiag, levels[0]),
        lo,
        hi,
        np.zeros(1, dtype=np.int64),
        tol,
    )
    return float(found[0])


def dense_eigen_oracle(t: TridiagonalMatrix) -> np.ndarray:
    """All eigenvalues via dense LAPACK, ascending; independent of Sturm code."""
    if t.size > DENSE_ORACLE_MAX_SIZE:
        raise SizeExceededError(
            f"dense oracle limited to size {DENSE_ORACLE_MAX_SIZE}, got {t.size}"
        )
    return np.linalg.eigvalsh(t.to_dense())
