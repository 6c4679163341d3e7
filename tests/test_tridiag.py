"""Sturm-count engine versus the dense LAPACK route.

Every counting and bisection primitive is checked against
numpy.linalg.eigvalsh on matrices small enough for the dense path; probe
levels are taken at midpoints between dense eigenvalues (or outside the
spectrum) so both methods count the same unambiguous set.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speclab import tridiag
from speclab import (
    DENSE_ORACLE_MAX_SIZE,
    CountingLimitFamily,
    InvalidParametersError,
    SizeExceededError,
    TridiagonalMatrix,
    build,
    counts_for_diagonals,
    dense_eigen_oracle,
    eigenvalues_in_window,
    smallest_eigenvalue,
)


_EPS = float(np.finfo(np.float64).eps)


def random_matrix(rng: np.random.Generator, n: int, scale: float = 3.0) -> TridiagonalMatrix:
    return TridiagonalMatrix(
        diag=rng.normal(0.0, scale, size=n),
        offdiag=rng.normal(0.0, scale, size=n - 1) if n > 1 else np.zeros(0),
    )


def count_below(t: TridiagonalMatrix, level: float) -> int:
    return int(counts_for_diagonals(t.diag[None, :], t.offdiag, level)[0])


def counts_at_levels(t: TridiagonalMatrix, levels) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.float64)
    return counts_for_diagonals(t.diag - levels[:, None], t.offdiag)


def safe_levels(eigs: np.ndarray) -> np.ndarray:
    """Midpoints between distinct eigenvalues plus probes outside the spectrum."""
    pts = [eigs[0] - 1.0, eigs[-1] + 1.0]
    for a, b in zip(eigs[:-1], eigs[1:]):
        if b - a > 1e-7:
            pts.append(0.5 * (a + b))
    return np.asarray(pts)


# ---------------------------------------------------------------------------
# construction and invariants


def test_matrix_validation():
    with pytest.raises(InvalidParametersError):
        TridiagonalMatrix(diag=np.zeros(3), offdiag=np.zeros(3))
    with pytest.raises(InvalidParametersError):
        TridiagonalMatrix(diag=np.array([1.0, math.nan]), offdiag=np.zeros(1))
    with pytest.raises(InvalidParametersError):
        TridiagonalMatrix(diag=np.zeros((2, 2)), offdiag=np.zeros(1))
    t = TridiagonalMatrix(diag=np.array([2.0]), offdiag=np.zeros(0))
    assert t.size == 1


def test_to_dense_layout():
    t = TridiagonalMatrix(diag=np.array([1.0, 2.0, 3.0]), offdiag=np.array([4.0, 5.0]))
    a = t.to_dense()
    assert np.array_equal(a, a.T)
    assert a[0, 1] == 4.0 and a[1, 2] == 5.0 and a[0, 2] == 0.0


def test_gershgorin_contains_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = random_matrix(rng, int(rng.integers(1, 40)))
        lo, hi = t.gershgorin_bounds()
        eigs = np.linalg.eigvalsh(t.to_dense())
        assert lo <= eigs[0] and eigs[-1] <= hi


# ---------------------------------------------------------------------------
# counting


def test_count_matches_dense_on_random_batch():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        t = random_matrix(rng, n)
        eigs = np.linalg.eigvalsh(t.to_dense())
        for level in safe_levels(eigs):
            assert count_below(t, level) == int(np.sum(eigs < level))


def test_count_level_hit_convention():
    # a zero pivot is clamped to a negative value, so a level that exactly
    # hits an eigenvalue counts it as "below"
    t = TridiagonalMatrix(diag=np.array([0.0, 1.0, 2.0]), offdiag=np.zeros(2))
    assert count_below(t, 1.0) == 2
    assert count_below(t, 1.0 + 1e-9) == 2
    assert count_below(t, 1.0 - 1e-9) == 1


def test_counts_batch_equals_scalar_both_paths():
    rng = np.random.default_rng(3)
    t = random_matrix(rng, 40)
    few = rng.normal(0.0, 4.0, size=5)     # scalar fallback path
    many = rng.normal(0.0, 4.0, size=30)   # vectorised column path
    for levels in (few, many):
        batch = counts_at_levels(t, levels)
        scalar = np.array([count_below(t, l) for l in levels])
        assert np.array_equal(batch, scalar)
    assert counts_at_levels(t, []).size == 0
    with pytest.raises(InvalidParametersError):
        counts_at_levels(t, [math.inf])
    with pytest.raises(InvalidParametersError):
        count_below(t, math.inf)


def test_counts_for_diagonals_matches_per_row():
    rng = np.random.default_rng(11)
    off = rng.normal(0.0, 2.0, size=29)
    for k in (3, tridiag._SCALAR_BATCH_LIMIT + 1):  # scalar and column paths
        diags = rng.normal(0.0, 3.0, size=(k, 30))
        got = counts_for_diagonals(diags, off, level=0.4)
        want = np.array(
            [
                count_below(TridiagonalMatrix(diag=row, offdiag=off), 0.4)
                for row in diags
            ]
        )
        assert np.array_equal(got, want)
    with pytest.raises(InvalidParametersError):
        counts_for_diagonals(np.zeros((2, 5)), np.zeros(3))


# two batches the scalar loop takes, and one the column kernel takes
@pytest.mark.parametrize("k", [3, 12, tridiag._SCALAR_BATCH_LIMIT + 1])
def test_counts_continue_across_blocks(k):
    # a count carried from block to block through its last pivot row is
    # the count of the whole matrix, and the carry ends at its last pivot
    rng = np.random.default_rng(k)
    n, level = 300, 0.4
    diags = rng.normal(0.0, 3.0, size=(k, n))
    off = rng.normal(0.0, 2.0, size=n - 1)
    joins = np.concatenate(([0.0], off))
    carry = np.full(k, np.inf)
    total = np.zeros(k, dtype=np.int64)
    for a, b in ((0, 64), (64, 65), (65, 200), (200, n)):
        total += counts_for_diagonals(diags[:, a:b], joins[a:b], level, carry=carry)
    assert total.tolist() == counts_for_diagonals(diags, off, level).tolist()
    for row, last in zip(diags, carry):
        q = math.inf
        for d, o in zip(row.tolist(), joins.tolist()):
            q = d - level - o * o / q
        assert last == q
    with pytest.raises(InvalidParametersError):
        counts_for_diagonals(diags[:, :5], off[:4], level, carry=carry)


def test_column_counts_match_scalar_counts_at_zero_pivots():
    # integer entries at integer levels hit exact zero pivots, so the
    # column kernel must take its clamped path in some row blocks
    rng = np.random.default_rng(12)
    levels = np.arange(-4.0, 5.0, 0.5)
    for _ in range(20):
        t = TridiagonalMatrix(
            diag=rng.integers(-2, 3, size=200).astype(float),
            offdiag=rng.integers(-1, 2, size=199).astype(float),
        )
        want = np.array([count_below(t, level) for level in levels])
        assert np.array_equal(counts_at_levels(t, levels), want)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=-300, max_value=300), min_size=1, max_size=32),
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batch_count_equals_count_alone(exponents, n, level, seed):
    # rows of very different scales in one batch, on the scalar path for up
    # to 16 rows and the column kernel beyond: each row's pivmin is its own
    rng = np.random.default_rng(seed)
    scales = 10.0 ** np.array(exponents, dtype=float)
    diags = rng.normal(0.0, 1.0, size=(len(exponents), n)) * scales[:, None]
    off = rng.normal(0.0, 1.0, size=n - 1)
    alone = [int(counts_for_diagonals(row[None, :], off, level)[0]) for row in diags]
    assert counts_for_diagonals(diags, off, level).tolist() == alone


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_count_monotone_in_level(n, l1, l2, seed):
    t = random_matrix(np.random.default_rng(seed), n)
    lo, hi = min(l1, l2), max(l1, l2)
    c_lo, c_hi = count_below(t, lo), count_below(t, hi)
    assert 0 <= c_lo <= c_hi <= n


def _count_scalar_frozen(diag, off2, shift, pivmin, q):
    """The scalar pivot loop as it was before the rows were shifted in
    numpy and the pivots tested below -pivmin first: the reference for
    the bits of the count and the carried pivot."""
    count = 0
    for d, o in zip(diag, off2):
        q = d - shift - o / q
        if -pivmin <= q <= pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count, q


def _outcome(count_loop, *args):
    """A pivot loop's count and the bytes of its last pivot, nan payloads
    and zero signs included, or the exception it raised."""
    try:
        count, q = count_loop(*args)
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return count, struct.pack("<d", q)


_TINY = 5e-324
_MIN_NORMAL = 2.2250738585072014e-308


@st.composite
def _pivot_loops(draw):
    """Rows, squared couplings, a level, a pivmin and a carry that hit the
    edges of the pivmin band: with a coupling of 0 a pivot is its shifted
    diagonal entry, which may be +-pivmin, inside the band or one ulp
    outside it, a zero of either sign, subnormal, infinite or nan."""
    pivmin = draw(st.sampled_from([_EPS, 3.0 * _EPS, _MIN_NORMAL, 1.0, 1e300])
                  | st.floats(min_value=_TINY, max_value=1e308))
    edges = [pivmin, -pivmin, 0.5 * pivmin, -0.5 * pivmin,
             math.nextafter(pivmin, math.inf), math.nextafter(pivmin, 0.0),
             math.nextafter(-pivmin, -math.inf), math.nextafter(-pivmin, 0.0),
             0.0, -0.0, _TINY, -_TINY, _MIN_NORMAL, -_MIN_NORMAL,
             math.inf, -math.inf, math.nan]
    n = draw(st.integers(min_value=1, max_value=12))
    diag = draw(st.lists(st.sampled_from(edges) | st.floats(), min_size=n, max_size=n))
    off2 = draw(st.lists(
        st.sampled_from([0.0, 0.0, _TINY, pivmin * pivmin, 1.0, math.inf, math.nan])
        | st.floats(min_value=0.0), min_size=n, max_size=n))
    # a level of 0 leaves the rows on a diagonal entry exactly
    level = draw(st.sampled_from([0.0, 0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan])
                 | st.floats())
    q = draw(st.just(math.inf) | st.sampled_from(edges) | st.floats())
    return diag, off2, level, pivmin, q


@settings(max_examples=1000, deadline=None)
@given(_pivot_loops())
def test_scalar_count_keeps_the_bits_of_the_frozen_loop(case):
    diag, off2, level, pivmin, q = case
    with np.errstate(invalid="ignore", over="ignore"):
        # the rows shifted by the level, as counts_for_diagonals does in
        # numpy.  It rejects an inf or nan entry or level before the shift,
        # where inf - inf would be invalid, and shifts only entries and
        # levels below 2^500 in magnitude, which cannot overflow
        rows = np.array(diag) - level if level else np.array(diag)
    # the loop reads both through memoryviews, as counts_for_diagonals does
    assert _outcome(tridiag._count_scalar, memoryview(rows), memoryview(np.array(off2)),
                    pivmin, q) == _outcome(_count_scalar_frozen, diag, off2, level, pivmin, q)


def _pivmin_frozen(top, off, level):
    return _EPS * (top + 2.0 * off + abs(level) + 1.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, allow_infinity=False),
       st.floats(min_value=0.0, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_pivmin_keeps_its_bits_where_its_sum_is_finite(top, off, level):
    (largest,), coupling = tridiag._largest(np.array([[top, -0.5 * top]]), np.array([-off, 0.5 * off]))
    got = tridiag._pivmin_rule(largest, coupling, level)
    want = _pivmin_frozen(top, off, level)
    if math.isfinite(want):
        assert got.hex() == want.hex()
    else:
        # eps times the sum of finite terms, each added on its own
        assert math.isfinite(got) and got >= _EPS * max(top, off, abs(level))


# one matrix, a batch the scalar loop takes, and one the column kernel takes
@pytest.mark.parametrize("k", [1, 12, tridiag._SCALAR_BATCH_LIMIT + 1])
def test_counts_where_the_pivmin_sum_overflows(k):
    # eps (max|d| + 2 max|e| + |level| + 1) overflowed to inf, so these
    # finite matrices at finite levels raised "entries and level must be
    # finite".  They are counted in their normal form, scaled by 2^-1023,
    # where the level lies far beyond every eigenvalue
    diags = np.full((k, 8), 7.5e307)
    off = np.ones(7)
    assert counts_for_diagonals(diags, off, -1.7e308).tolist() == [0] * k
    assert counts_for_diagonals(-diags, off, 1.7e308).tolist() == [8] * k


# one matrix, a batch the scalar loop takes, and one the column kernel takes
@pytest.mark.parametrize("k", [1, 12, tridiag._SCALAR_BATCH_LIMIT + 1])
@pytest.mark.parametrize("level", [1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308])
def test_counts_at_extreme_levels_never_warn(k, level):
    rng = np.random.default_rng(k)
    diags = 1e308 * rng.uniform(-1.0, 1.0, size=(k, 40))
    off = rng.uniform(-1e150, 1e150, size=39)
    counts = counts_for_diagonals(diags, off, level)
    alone = [int(counts_for_diagonals(row[None, :], off, level)[0]) for row in diags]
    assert counts.tolist() == alone
    # far above or below every eigenvalue: all or none of them
    if abs(level) == 1.7976931348623157e308:
        assert counts.tolist() == [40 if level > 0 else 0] * k


def test_window_with_couplings_whose_squares_overflow():
    # (1e200)^2 overflowed with a RuntimeWarning and the count read 0
    t = TridiagonalMatrix(np.zeros(3), np.array([1e200, 1e200]))
    report = eigenvalues_in_window(t, -1e201, 1e201)
    assert report.count == 3
    assert report.eigenvalues[[0, 2]] == pytest.approx([-math.sqrt(2.0) * 1e200, math.sqrt(2.0) * 1e200])


# entries on a 1/8 grid: no scaling by a power of two rounds them
_grid_entries = st.integers(min_value=-64, max_value=64).map(lambda i: i / 8.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
           st.lists(_grid_entries, min_size=n, max_size=n),
           st.lists(_grid_entries, min_size=n - 1, max_size=n - 1))),
       _grid_entries, st.one_of(st.integers(min_value=0, max_value=1000),
                                st.integers(min_value=-1000, max_value=-1)),
       st.integers(min_value=1, max_value=7))
def test_counts_do_not_change_under_power_of_two_scaling(entries, x, k, split):
    # (2^k T, 2^k x) counts as (T, x), in both kernels and across a carry,
    # wherever x keeps clear of the eigenvalues of every leading principal
    # submatrix, so that no pivot comes near the pivmin band of either
    diag, off = (np.array(v) for v in entries)
    n = diag.size
    t = TridiagonalMatrix(diag, off)
    for i in range(1, n + 1):
        eigs = np.linalg.eigvalsh(t.to_dense()[:i, :i])
        assume(np.min(np.abs(eigs - x)) > 1e-6)
    want = int(np.sum(np.linalg.eigvalsh(t.to_dense()) < x))
    scale = 2.0**k
    for rows in (1, tridiag._SCALAR_BATCH_LIMIT + 1):  # scalar and column kernels
        diags = np.tile(diag * scale, (rows, 1))
        assert counts_for_diagonals(diags, off * scale, x * scale).tolist() == [want] * rows
        # the same count in two calls, the pivot carried between them
        split = min(split, n)
        joins = np.concatenate(([0.0], off)) * scale
        carry = np.full(rows, np.inf)
        total = counts_for_diagonals(diags[:, :split], joins[:split], x * scale, carry=carry)
        total += counts_for_diagonals(diags[:, split:], joins[split:], x * scale, carry=carry)
        assert total.tolist() == [want] * rows


# one matrix, a batch the scalar loop takes, and one the column kernel takes
@pytest.mark.parametrize("k", [1, 12, tridiag._SCALAR_BATCH_LIMIT + 1])
@pytest.mark.parametrize("s", [1e-16, 1e-200, 1e-300])
def test_counts_of_a_tiny_matrix(s, k):
    # the absolute eps in pivmin exceeded every pivot, which were all
    # clamped and counted: [3, 3, 3]
    diags = np.zeros((k, 3))
    counts = [counts_for_diagonals(diags, np.array([s, s]), x).tolist() for x in (-s, s / 2, 2 * s)]
    assert counts == [[1] * k, [2] * k, [3] * k]


def test_window_and_smallest_eigenvalue_of_a_tiny_matrix():
    # the window counted 0 and the smallest eigenvalue read -2.0e-200
    t = TridiagonalMatrix(np.zeros(3), np.array([1e-200, 1e-200]))
    report = eigenvalues_in_window(t, -1e-199, 1e-199, tol=1e-210)
    assert report.count == 3
    assert report.eigenvalues == pytest.approx([-math.sqrt(2.0) * 1e-200, 0.0, math.sqrt(2.0) * 1e-200],
                                               abs=1e-210)
    assert smallest_eigenvalue(t, tol=1e-210) == pytest.approx(-math.sqrt(2.0) * 1e-200, abs=1e-210)


@pytest.mark.parametrize("s", [1e-16, 1e-200, 1e-300])
def test_smallest_eigenvalue_of_a_tiny_matrix_bisects_from_its_own_scale(monkeypatch, s):
    # the bracket was padded by eps, not eps times the matrix's scale:
    # 646 count levels at s = 1e-200, against 36 at s = 1
    levels = []
    depth = [0]
    count = tridiag.counts_for_diagonals

    def recording(diags, offdiag, level=0.0, *, carry=None):
        # a normal-form count calls itself once on its scaled image
        levels.extend([level] * (depth[0] == 0))
        depth[0] += 1
        try:
            return count(diags, offdiag, level, carry=carry)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(tridiag, "counts_for_diagonals", recording)
    for scale in (1.0, s):
        levels.clear()
        t = TridiagonalMatrix(np.zeros(3), np.array([scale, scale]))
        got = smallest_eigenvalue(t, tol=scale * 1e-10)
        assert got == pytest.approx(-math.sqrt(2.0) * scale, abs=scale * 1e-10)
        if scale == 1.0:
            assert len(levels) == 36
        else:
            assert len(levels) <= 36 + 3


@pytest.mark.parametrize("k", [1, 12])
@pytest.mark.parametrize("e", [-900, 900])
def test_counts_at_the_ends_of_the_float_range_match_dense(e, k):
    # eigenvalues at least 0.1 apart, probed midway between them, so that
    # no pivot comes near the pivmin band at either scale
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        t = random_matrix(rng, n, scale=1.0)
        eigs = np.linalg.eigvalsh(t.to_dense())
        if np.min(np.diff(eigs)) < 0.1:
            continue
        diag, off, scale = t.diag * 2.0**e, t.offdiag * 2.0**e, 2.0**e
        for x in safe_levels(eigs):
            want = int(np.sum(eigs < x))
            assert counts_for_diagonals(np.tile(diag, (k, 1)), off, x * scale).tolist() == [want] * k
        report = eigenvalues_in_window(TridiagonalMatrix(diag, off), (eigs[0] - 1.0) * scale,
                                       (eigs[-1] + 1.0) * scale, tol=1e-12 * scale)
        assert report.eigenvalues == pytest.approx(eigs * scale, rel=0.0, abs=1e-9 * scale)


@pytest.mark.parametrize("k", [1, 12])
def test_counts_of_a_zero_matrix(k):
    # no normal form: every pivot is 0, clamped to -pivmin and counted
    assert counts_for_diagonals(np.zeros((k, 4)), np.zeros(3)).tolist() == [4] * k
    carry = np.full(k, np.inf)
    assert counts_for_diagonals(np.zeros((k, 4)), np.zeros(4), carry=carry).tolist() == [4] * k
    assert carry.tolist() == [-_EPS] * k


@pytest.mark.parametrize("k", [1, 12])
@pytest.mark.parametrize("s", [2.0**-1060, -(2.0**-1074), 2.0**-1000])
def test_counts_carried_across_subnormal_rows(s, k):
    # the last pivot, -pivmin in the normal form, rounded to -0.0 when it
    # was scaled back, and the scalar kernel divided by it
    diags, off = np.full((k, 4), s), np.full(3, abs(s))
    want = counts_for_diagonals(diags, off).tolist()
    carry = np.full(k, np.inf)
    total = counts_for_diagonals(diags[:, :2], np.array([0.0, abs(s)]), carry=carry)
    assert np.all(carry != 0.0)
    total += counts_for_diagonals(diags[:, 2:], off[1:], carry=carry)
    assert total.tolist() == want


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("k", [1, 12])
def test_counts_reject_an_infinite_or_nan_entry_or_level(bad, k):
    diags, off = np.zeros((k, 4)), np.ones(3)
    # a matrix that would be counted in its normal form, with tiny entries
    tiny = np.full((k, 4), 1e-300)
    for args in ((diags, off, bad),
                 (np.where(np.arange(4) == 2, bad, diags), off, 0.0),
                 (diags, np.array([1.0, bad, 1.0]), 0.0),
                 (np.where(np.arange(4) == 2, bad, tiny), 1e-300 * off, 0.0),
                 (tiny, 1e-300 * off, bad)):
        with pytest.raises(InvalidParametersError, match="entries and level must be finite"):
            counts_for_diagonals(*args)


# ---------------------------------------------------------------------------
# window extraction and extremal eigenvalue


def test_window_eigenvalues_match_dense():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(5, 45))
        t = random_matrix(rng, n)
        eigs = np.linalg.eigvalsh(t.to_dense())
        mids = safe_levels(eigs)
        lo, hi = float(mids[0]), float(mids[-1])
        report = eigenvalues_in_window(t, lo, hi, tol=1e-12)
        want = eigs[(eigs > lo) & (eigs < hi)]
        assert report.count == want.size == report.eigenvalues.size
        if want.size:
            assert np.max(np.abs(report.eigenvalues - want)) < 1e-9


def test_window_subrange():
    t = TridiagonalMatrix(
        diag=np.array([0.0, 1.0, 2.0, 3.0]), offdiag=np.full(3, 0.3)
    )
    eigs = np.linalg.eigvalsh(t.to_dense())
    report = eigenvalues_in_window(t, float(eigs[1]) - 0.01, float(eigs[2]) + 0.01)
    assert report.count == 2
    assert report.count_below_hi - report.count_below_lo == 2
    assert np.allclose(report.eigenvalues, eigs[1:3], atol=1e-9)


def test_window_validation():
    t = TridiagonalMatrix(diag=np.zeros(3), offdiag=np.ones(2))
    with pytest.raises(InvalidParametersError):
        eigenvalues_in_window(t, 1.0, -1.0)
    # the width overflows, which would overflow the bisection's iteration cap
    with pytest.raises(InvalidParametersError):
        eigenvalues_in_window(t, -1e308, 1e308)


def test_smallest_eigenvalue_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(25):
        t = random_matrix(rng, int(rng.integers(2, 60)))
        want = float(np.linalg.eigvalsh(t.to_dense())[0])
        assert smallest_eigenvalue(t, tol=1e-11) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("diag, off", [([1e308, -1e308], [1e308]), ([1.5e308, 0.0], [1e308])])
def test_smallest_eigenvalue_where_a_gershgorin_bound_overflows(diag, off):
    # gershgorin_bounds warned of the overflow, and the bisection's
    # iteration cap raised "cannot convert float infinity to integer"
    t = TridiagonalMatrix(np.array(diag), np.array(off))
    with pytest.raises(InvalidParametersError, match="Gershgorin"):
        smallest_eigenvalue(t)


def test_bisection_ends_below_ulp_scale_tol():
    # no bracket narrows below one ulp, so a tol under it must end on the
    # iteration cap rather than loop forever
    t = TridiagonalMatrix(diag=np.array([1.0, 2.0, 3.0]), offdiag=np.array([0.5, 0.25]))
    want = float(np.linalg.eigvalsh(t.to_dense())[0])
    assert smallest_eigenvalue(t, tol=1e-300) == pytest.approx(want, abs=1e-14)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParametersError):
            smallest_eigenvalue(t, tol=tol)


def test_bisection_below_ulp_scale_counts_no_more(monkeypatch):
    # a bracket whose midpoint rounds to an end was counted again until the
    # iteration cap: 3005 count calls here at tol 1e-300, 176 at 1e-16
    t = build(CountingLimitFamily(), 256)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return counts_for_diagonals(*args, **kwargs)

    monkeypatch.setattr(tridiag, "counts_for_diagonals", counting)
    near_ulp = eigenvalues_in_window(t, -2.0, 2.0, tol=1e-16)
    at_ulp = len(calls)
    below_ulp = eigenvalues_in_window(t, -2.0, 2.0, tol=1e-300)
    assert len(calls) - at_ulp <= 1.25 * at_ulp
    assert below_ulp.count == near_ulp.count > 0
    # each 1e-16 bracket holds the root that the finer bisection finds
    np.testing.assert_allclose(below_ulp.eigenvalues, near_ulp.eigenvalues,
                               rtol=4 * _EPS, atol=1e-16)


def test_bisection_of_a_window_whose_ends_sum_past_the_float_range():
    # the window's width is finite, but lo + hi overflowed in every
    # midpoint, which took them as 0.5 * (lows + highs)
    t = TridiagonalMatrix(np.array([1.5e308, 1.6e308]), np.array([0.0]))
    report = eigenvalues_in_window(t, 1.4e308, 1.7e308, tol=1e300)
    assert report.count == 2
    np.testing.assert_allclose(report.eigenvalues, [1.5e308, 1.6e308], atol=1e300, rtol=0)
    assert abs(smallest_eigenvalue(t, tol=1e300) - 1.5e308) <= 1e300


# ---------------------------------------------------------------------------
# dense oracle guard


def test_dense_oracle_sorted_and_guarded():
    rng = np.random.default_rng(23)
    t = random_matrix(rng, 20)
    eigs = dense_eigen_oracle(t)
    assert np.all(np.diff(eigs) >= 0.0)
    assert DENSE_ORACLE_MAX_SIZE == 1024
    big = TridiagonalMatrix(diag=np.zeros(1025), offdiag=np.zeros(1024))
    with pytest.raises(SizeExceededError):
        dense_eigen_oracle(big)
