"""Jacobi operator families: builders, stabilised counts, and the
truncation-transition scan."""

import math

import numpy as np
import pytest

from speclab import jacobi_ops
from speclab import (
    BranchCutError,
    CountingFamily,
    CountingLimitFamily,
    InvalidParametersError,
    NonConvergenceError,
    ReferenceFamily,
    SpectralFamily,
    build,
    compact_difference_tail,
    count_relative,
    counts_for_diagonals,
    spectral_diagonals,
    stable_count,
    transition_scan,
)


# ---------------------------------------------------------------------------
# builders


def test_reference_entries_frozen():
    t = build(ReferenceFamily(1.0), 6)
    assert np.array_equal(t.diag, [1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
    assert t.offdiag[0] == pytest.approx(0.9306048591020996, rel=1e-15)
    assert t.offdiag[1] == pytest.approx(1.9679896712654303, rel=1e-15)
    t2 = build(ReferenceFamily(2.5), 4)
    assert np.allclose(t2.diag, [2.5, 7.5, 12.5, 17.5], rtol=1e-15)
    assert np.array_equal(t2.offdiag, t.offdiag[:3])


def test_spectral_at_lam_zero_equals_reference():
    ref = build(ReferenceFamily(1.7), 40)
    spec = build(SpectralFamily(lam=0.0, mu=1.7), 40)
    assert np.allclose(spec.diag, ref.diag, rtol=1e-14)
    assert np.array_equal(spec.offdiag, ref.offdiag)


def test_spectral_diag_formula():
    t = build(SpectralFamily(lam=0.3, mu=2.0), 5)
    k = np.arange(5) + 0.5
    assert np.allclose(t.diag, 2.0 * 2.0 * np.sqrt(k) * np.sqrt(k - 0.3), rtol=1e-14)


def test_spectral_requires_real_lam_below_threshold():
    with pytest.raises(BranchCutError):
        SpectralFamily(lam=0.5, mu=1.0)
    with pytest.raises(BranchCutError):
        SpectralFamily(lam=0.7, mu=1.0)
    with pytest.raises(InvalidParametersError):
        SpectralFamily(lam=0.1j, mu=1.0)


def test_counting_entries_frozen():
    t = build(CountingFamily(1.0), 5)
    assert np.all(t.diag == 0.0)
    assert t.offdiag[0] == pytest.approx(0.42044820762685725, rel=1e-14)
    k = np.arange(1, 5, dtype=float)
    want = np.sqrt(k) / (2.0 * (k + 1.0) ** 0.25 * (k - 1.0 + 1.0) ** 0.25)
    assert np.allclose(t.offdiag, want, rtol=1e-14)


def test_counting_rejects_nonpositive_epsilon():
    for eps in (0.0, -1.0):
        with pytest.raises(InvalidParametersError, match="j1,0"):
            CountingFamily(eps)


def test_counting_limit_entries_frozen():
    t = build(CountingLimitFamily(), 6)
    assert np.all(t.diag == 0.0)
    # first coupling pairs modes 1 and 2: 1 / (2 * (1 - 1/2)^(1/4))
    assert t.offdiag[0] == pytest.approx(0.5946035575013605, rel=1e-14)
    assert np.all(np.diff(t.offdiag) < 0.0)  # decreasing towards the limit 1/2
    assert t.offdiag[-1] > 0.5


def test_build_validation():
    with pytest.raises(InvalidParametersError):
        build(ReferenceFamily(1.0), 1)
    with pytest.raises(InvalidParametersError):
        ReferenceFamily(math.nan)
    with pytest.raises(InvalidParametersError):
        build("nonsense", 8)


def test_spectral_diagonals_match_builder():
    lams = np.array([-1.0, 0.0, 0.3, 0.49])
    diags = spectral_diagonals(1.3, lams, 24)
    assert diags.shape == (4, 24)
    for row, lam in zip(diags, lams):
        want = build(SpectralFamily(lam=float(lam), mu=1.3), 24).diag
        assert np.allclose(row, want, rtol=1e-14)
    with pytest.raises(BranchCutError):
        spectral_diagonals(1.0, np.array([0.6]), 8)


# ---------------------------------------------------------------------------
# counting helpers


def test_count_relative_sides_partition():
    fam = CountingFamily(1.0)
    n = 64
    level = 0.45
    above = count_relative(fam, level, n)
    t = build(fam, n)
    below = counts_for_diagonals(t.diag[None, :], t.offdiag, level)[0]
    assert 0 < above < n
    assert above + below == n


def test_counting_spectrum_symmetric():
    # zero diagonal makes the spectrum symmetric about 0
    fam = CountingFamily(0.7)
    t = build(fam, 80)
    for level in (0.3, 0.8, 1.1):
        above = 80 - counts_for_diagonals(t.diag[None, :], t.offdiag, level)[0]
        below = counts_for_diagonals(t.diag[None, :], t.offdiag, -level)[0]
        assert above == below


def test_stable_count_doubles_until_confirmed():
    res = stable_count(CountingLimitFamily(), 1.02)
    assert res.count == 1
    sizes = [s for s, _ in res.history]
    assert sizes == [2048 * 2**i for i in range(len(sizes))]
    assert res.size == sizes[-1]
    assert [c for _, c in res.history][-3:] == [res.count] * 3


def test_stable_count_validation():
    for cap in (1, 0, -4):
        with pytest.raises(InvalidParametersError, match="size cap"):
            stable_count(CountingLimitFamily(), 1.02, cap=cap)


def _record_sizes(monkeypatch) -> list[int]:
    """Sizes ``stable_count`` asks counts at; every count is 1."""
    sizes: list[int] = []

    def fake(family, level, n):
        sizes.append(n)
        return 1

    monkeypatch.setattr(jacobi_ops, "count_relative", fake)
    return sizes


def test_stable_count_raises_at_cap(monkeypatch):
    # a cap below the start is the only size tried, and one count can
    # never be confirmed
    sizes = _record_sizes(monkeypatch)
    with pytest.raises(NonConvergenceError, match="size cap 1024"):
        stable_count(CountingLimitFamily(), 1.02, cap=1024)
    assert sizes == [1024]


def test_stable_count_never_passes_the_cap(monkeypatch):
    # 8192 would confirm the count, but it is above the cap
    sizes = _record_sizes(monkeypatch)
    with pytest.raises(NonConvergenceError, match="size cap 5000"):
        stable_count(CountingLimitFamily(), 1.02, cap=5000)
    assert sizes == [2048, 4096]


def test_stable_count_diverging_sequence_hits_cap():
    # supercritical reference truncations keep spilling eigenvalues below
    # any fixed level, so the count above it never settles
    with pytest.raises(NonConvergenceError):
        stable_count(ReferenceFamily(0.5), -1.0, cap=8192)


# ---------------------------------------------------------------------------
# compactness of the spectral-vs-reference difference


def test_compact_difference_tail_decay_rate():
    lam, mu = 0.3, 1.3
    n = 4096
    tail = compact_difference_tail(lam, mu, n)
    # the difference behaves like mu*lam^2/(4k) at k ~ n/2
    assert tail * 2.0 * n / (mu * lam * lam) == pytest.approx(1.0, rel=0.05)
    assert compact_difference_tail(lam, mu, 2 * n) < tail
    with pytest.raises(InvalidParametersError):
        compact_difference_tail(0.3, 1.0, 3)


# ---------------------------------------------------------------------------
# transition scan


def test_transition_scan_subcritical_pinned():
    report = transition_scan(1.5, (64, 128, 256), (-5.0, 5.0))
    assert report.sizes == (64, 128, 256)
    assert np.all(report.smallest > 0.5)  # never below mu - 1
    assert report.window == (-5.0, 5.0)


def test_transition_scan_supercritical_dives():
    report = transition_scan(0.5, (64, 128, 256, 512), (-5.0, 5.0))
    assert np.all(np.diff(report.smallest) < 0.0)
    assert np.all(np.diff(report.window_counts) > 0)


def test_transition_scan_critical_one_sided():
    neg = transition_scan(1.0, (256, 512), (-1.0, -1e-3))
    assert np.all(neg.window_counts == 0)
    pos = transition_scan(1.0, (256, 512), (1e-3, 1.0))
    assert pos.window_counts[1] > pos.window_counts[0] > 0


def test_transition_scan_validation():
    with pytest.raises(InvalidParametersError):
        transition_scan(1.0, (), (-1.0, 1.0))
    with pytest.raises(InvalidParametersError):
        transition_scan(1.0, (1,), (-1.0, 1.0))
    with pytest.raises(InvalidParametersError):
        transition_scan(1.0, (64,), (2.0, -2.0))
