"""Sturm-count engine versus the dense LAPACK route.

Every counting and bisection primitive is checked against
numpy.linalg.eigvalsh on matrices small enough for the dense path; probe
levels are taken at midpoints between dense eigenvalues (or outside the
spectrum) so both methods count the same unambiguous set.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import (
    DENSE_ORACLE_MAX_SIZE,
    InvalidParametersError,
    SizeExceededError,
    TridiagonalMatrix,
    counts_for_diagonals,
    dense_eigen_oracle,
    eigenvalues_in_window,
    smallest_eigenvalue,
)


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
    for k in (3, 12):  # scalar and column paths
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


def test_bisection_ends_below_ulp_scale_tol():
    # no bracket narrows below one ulp, so a tol under it must end on the
    # iteration cap rather than loop forever
    t = TridiagonalMatrix(diag=np.array([1.0, 2.0, 3.0]), offdiag=np.array([0.5, 0.25]))
    want = float(np.linalg.eigvalsh(t.to_dense())[0])
    assert smallest_eigenvalue(t, tol=1e-300) == pytest.approx(want, abs=1e-14)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParametersError):
            smallest_eigenvalue(t, tol=tol)


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
