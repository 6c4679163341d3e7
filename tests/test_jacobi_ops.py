"""Jacobi operator families: builders, certified counts, and the
truncation-transition scan."""

import functools
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speclab import jacobi_ops, recurrence
from speclab import (
    BranchCutError,
    CountingFamily,
    CountingLimitFamily,
    InvalidParametersError,
    NonConvergenceError,
    ROW_CAP,
    ReferenceFamily,
    SpectralFamily,
    build,
    certified_count,
    coupling_weights,
    counts_for_diagonals,
    iterate_forward,
    spectral_counts,
    spectral_diagonals,
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
    assert spectral_diagonals(1.3, lams, 0).shape == (4, 0)
    # the rows are slices of the kept lattice, so a negative n must not
    # reach them
    with pytest.raises(InvalidParametersError, match="nonnegative"):
        spectral_diagonals(1.3, lams, -3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spectral_lams_must_be_finite(bad):
    # a nan lam gave a row of nan diagonals without an error
    with pytest.raises(InvalidParametersError, match="lam must be finite"):
        spectral_diagonals(2.0, [bad], 4)
    with pytest.raises(InvalidParametersError, match="lam must be finite"):
        spectral_diagonals(2.0, [0.3, bad], 4)
    with pytest.raises(InvalidParametersError, match="lam must be finite"):
        spectral_counts(2.0, [bad])
    with pytest.raises(InvalidParametersError, match="lam must be finite"):
        SpectralFamily(lam=bad, mu=1.0)


@pytest.mark.parametrize("call", [
    # 2 mu sqrt(k + 1/2) zeta_k overflowed with a RuntimeWarning, and then
    # "matrix entries must be finite" or "entries and level must be finite"
    lambda: build(SpectralFamily(lam=-7.5e246, mu=5.85e268), 2),
    lambda: build(ReferenceFamily(1.697841037416877e307), 20),
    lambda: build(ReferenceFamily(-1e308), 2),
    lambda: spectral_diagonals(1e300, [0.3, -1e300], 4),
    lambda: spectral_counts(8.580895109854729e226, [-7.582129790305882e268, 0.3]),
], ids=["spectral", "reference", "reference-negative-mu", "diagonals", "counts"])
def test_diagonals_that_would_overflow_name_mu_and_lam(call):
    with pytest.raises(InvalidParametersError, match=r"mu = \S+ makes a diagonal entry overflow at lam = "):
        call()


def test_large_diagonals_below_the_bound_are_built():
    t = build(ReferenceFamily(1.697841037416877e307), 2)
    assert np.isfinite(t.diag).all() and t.diag[1] == 3.0 * 1.697841037416877e307
    assert np.isfinite(spectral_diagonals(1e300, [-1e10, 0.3], 64)).all()


def _lattice_block(start, stop):
    """d(k) for start <= k < stop by the public formula, d(0) = 0."""
    d = coupling_weights(np.arange(max(start, 1), stop))
    return np.concatenate(([0.0], d)) if start == 0 else d


def test_reference_and_spectral_couplings_are_the_lattice_rows(monkeypatch):
    # both families read d(k) from the recurrence's kept rows, which a deep
    # recurrence grows; blocks read before the growth keep their values
    monkeypatch.setattr(recurrence, "_LATTICE", [np.zeros(0), np.zeros(0)])
    blocks = ((0, 64), (64, 129), (128, 300), (1000, 2049))
    families = (ReferenceFamily(1.3), SpectralFamily(0.3, 1.3))
    before = []
    for grown in (False, True):
        if grown:
            iterate_forward(1.5, 0.3, 1.0, 100_000)
            assert recurrence._LATTICE[0].size == 100_001
        for family in families:
            for start, stop in blocks:
                off = jacobi_ops._couplings(family, start, stop)
                assert np.shares_memory(off, recurrence._LATTICE[0])
                assert not off.flags.writeable
                assert off.tobytes() == _lattice_block(start, stop).tobytes()
                before.append((off, off.copy()))
    assert all(a.tobytes() == b.tobytes() for a, b in before)


def test_build_copies_the_lattice_rows():
    for family in (ReferenceFamily(1.3), SpectralFamily(0.3, 1.3)):
        t = build(family, 300)
        assert t.offdiag.flags.writeable
        assert not np.shares_memory(t.offdiag, recurrence._LATTICE[0])
        t.offdiag[0] = 0.0
        assert jacobi_ops._couplings(family, 0, 2)[1] == coupling_weights(np.array([1]))[0]


_COUNT_POINTS = [(1.0005, [0.5 - 1e-9, 0.4, -3.0]), (1.5, [0.2, 0.45]), (3.0, [-9.0, 0.49])]


def _counts(points):
    return [(counts.tolist(), rows) for counts, rows in
            (spectral_counts(mu, lams) for mu, lams in points)]


def test_spectral_counts_after_the_lattice_grew_match_a_fresh_process():
    iterate_forward(1.5, 0.3, 1.0, 100_000)
    here = _counts(_COUNT_POINTS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(pathlib.Path(jacobi_ops.__file__).parents[1]),
                      str(pathlib.Path(__file__).parent), env.get("PYTHONPATH")]))
    code = "from test_jacobi_ops import _COUNT_POINTS, _counts; print(_counts(_COUNT_POINTS))"
    fresh = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr[-2000:]
    assert fresh.stdout.strip() == str(here)


def test_spectral_counts_take_lam_plus_for_the_row_bound():
    # lam * mu^2 / (mu^2 - 1) overflowed with a RuntimeWarning near -1.7e308;
    # the bound K is 0 for every lam <= 0 either way
    counts, rows = spectral_counts(1.5, [-1.7e308, -1.0, 0.0])
    assert (counts.tolist(), rows) == ([0, 0, 0], 64)


# ---------------------------------------------------------------------------
# counting helpers


def test_counting_spectrum_symmetric():
    # zero diagonal makes the spectrum symmetric about 0
    fam = CountingFamily(0.7)
    t = build(fam, 80)
    for level in (0.3, 0.8, 1.1):
        above = 80 - counts_for_diagonals(t.diag[None, :], t.offdiag, level)[0]
        below = counts_for_diagonals(t.diag[None, :], t.offdiag, -level)[0]
        assert above == below


def test_blocks_are_the_truncation_rows():
    # a count walks the rows of a family block by block; the rows it reads
    # are those of every truncation
    for family in (ReferenceFamily(1.3), SpectralFamily(0.3, 1.3),
                   CountingFamily(0.2), CountingLimitFamily()):
        t = build(family, 300)
        joins = np.concatenate(
            [jacobi_ops._couplings(family, a, b) for a, b in ((0, 64), (64, 128), (128, 300))]
        )
        assert np.array_equal(joins, np.concatenate(([0.0], t.offdiag)))


_BIG = 2**16


def _truncation_count_above(family, level):
    t = build(family, _BIG)
    return _BIG - int(counts_for_diagonals(t.diag[None, :], t.offdiag, level)[0])


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-3.0, 1.0),
    st.lists(st.floats(-9.5, 0.5 - 1e-9), min_size=1, max_size=6),
)
# without the row bound K, both counts here stop one short
@example(log_mu_minus_1=-3.0, lams=[0.5 - 1e-9, 0.4])
def test_spectral_counts_equal_fixed_truncation(log_mu_minus_1, lams):
    mu = 1.0 + 10.0**log_mu_minus_1
    lams = np.array(lams)
    counts, rows = spectral_counts(mu, lams, cap=_BIG)
    want = counts_for_diagonals(
        spectral_diagonals(mu, lams, _BIG), coupling_weights(np.arange(1, _BIG))
    )
    assert counts.tolist() == want.tolist()
    assert rows in [64 * 2**j for j in range(11)]


# next to the threshold near critical, where K is large, and points away
# from it, one with lam <= 0 and K = 0
ROW_BOUND_POINTS = [(5e-4, 0.5 - 1e-9), (1e-4, 0.5 - 1e-9), (1e-2, 0.3), (0.5, 0.45),
                    (3.0, 0.2), (1e-3, -2.0)]


@pytest.mark.parametrize("mu_minus_1, lam", ROW_BOUND_POINTS)
def test_spectral_row_bound_holds_to_the_cap(mu_minus_1, lam):
    # spectral_counts may stop from row K = ceil(mu^2 lam+ / (mu^2 - 1) - 1/2)
    # on because a_k >= d(k) + d(k+1) there: check it, with the computed
    # entries the counts read, on every row up to the row cap, against K
    # taken in exact rational arithmetic
    mu = 1.0 + mu_minus_1
    mu2 = Fraction(mu) ** 2
    k_min = max(0, math.ceil(mu2 * Fraction(max(lam, 0.0)) / (mu2 - 1) - Fraction(1, 2)))
    a = spectral_diagonals(mu, [lam], ROW_CAP)[0]
    d = np.concatenate(([0.0], coupling_weights(np.arange(1, ROW_CAP + 1))))
    slack = a - d[:-1] - d[1:]
    assert (slack[k_min:] > 0.0).all()
    if lam == 0.5 - 1e-9:
        # the bound is tight next to the threshold
        assert k_min > 0 and slack[k_min - 1] < 0.0


def _coupling_row(family, level, rows=2**16):
    """The first row r in [1, rows) whose coupling b_r admits the counting
    certificate, 4 max(1/4, b_r^2) < (1 - 1e-12) mu^2, taken in exact
    rational arithmetic from the computed couplings, or None."""
    bound = Fraction(level) ** 2 * (1 - Fraction(jacobi_ops._MARGIN))
    b = jacobi_ops._couplings(family, 0, rows).tolist()
    return next((k for k in range(1, len(b)) if 4 * max(Fraction(1, 4), Fraction(b[k]) ** 2) < bound),
                None)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, 1.0), st.one_of(st.none(), st.floats(-3.0, 1.0)))
def test_certified_count_equals_fixed_truncation(log_mu_minus_1, log_eps):
    # epsilon from 1e-3 to 10: couplings above 1/4 that fall towards it
    # (epsilon < 1/2), ones that cross it, and ones below it throughout
    mu = 1.0 + 10.0**log_mu_minus_1
    family = CountingLimitFamily() if log_eps is None else CountingFamily(10.0**log_eps)
    count, rows = certified_count(family, mu, cap=_BIG)
    assert count == _truncation_count_above(family, mu)
    # the zero diagonal makes T and -T similar: on the rows walked, the
    # count below -mu is the rows less the count below mu
    t = build(family, rows)
    below = [int(counts_for_diagonals(t.diag[None, :], t.offdiag, x)[0]) for x in (-mu, mu)]
    assert count == below[0] == rows - below[1]
    first = _coupling_row(family, mu) + jacobi_ops._FIRST_BLOCK
    assert rows in [first * 2**j for j in range(11)]


def test_certified_count_stops_at_its_certificate():
    # the counting-limit couplings fall towards 1/2; the certificate needs
    # the one joining the walked rows to the next below mu/2, which at
    # mu = 1.02 holds from row 13 on, and near critical from about row
    # 1/(4 (mu - 1)) on.  The first block ends 64 rows past that row, and
    # here the walk stops there.
    assert _coupling_row(CountingLimitFamily(), 1.02) == 13
    assert certified_count(CountingLimitFamily(), 1.02) == (1, 77)
    mu = 1.0 + 2e-5
    b = jacobi_ops._couplings(CountingLimitFamily(), 1, 2**15)
    first = 1 + int(np.argmax(4.0 * b * b < mu * mu * (1.0 - jacobi_ops._MARGIN)))
    assert first == 12500
    count, rows = certified_count(CountingLimitFamily(), mu)
    assert rows == 12564
    assert count == _truncation_count_above(CountingLimitFamily(), mu)


def test_certified_count_at_large_levels():
    # mu^2 would overflow from mu = 1.4e154, and from mu = 1e5 on the
    # pivots settle too close to the outer root for a relative margin to
    # pass it: the first coupling admits the mu/2 certificate, and it
    # holds after the first block throughout
    for level in (1e5, 1e6, 1e20, 1e154, 1.4e154, 1e160, 1e200, 1e300, 1.7e308):
        for family in (CountingLimitFamily(), CountingFamily(0.5), CountingFamily(2.0)):
            assert certified_count(family, level) == (0, 65), (family, level)


def test_certified_count_validation():
    for cap in (1, 0, -4):
        with pytest.raises(InvalidParametersError, match="row cap"):
            certified_count(CountingLimitFamily(), 1.02, cap=cap)
        with pytest.raises(InvalidParametersError, match="row cap"):
            spectral_counts(1.02, [0.3], cap=cap)
    # the certificates' rounding argument holds up to ROW_CAP rows
    for cap in (ROW_CAP + 1, 4 * ROW_CAP):
        with pytest.raises(InvalidParametersError, match=f"row cap .*{ROW_CAP}"):
            certified_count(CountingLimitFamily(), 1.02, cap=cap)
        with pytest.raises(InvalidParametersError, match=f"row cap .*{ROW_CAP}"):
            spectral_counts(1.02, [0.3], cap=cap)
    assert certified_count(CountingLimitFamily(), 1.02, cap=ROW_CAP)[1] < ROW_CAP
    # infinitely many eigenvalues lie above a level <= 1, and below 0 at
    # mu <= 1: no count is certified there
    for level in (1.0, 0.5, -2.0, math.nan):
        with pytest.raises(InvalidParametersError):
            certified_count(CountingLimitFamily(), level)
    for mu in (1.0, 0.5):
        with pytest.raises(InvalidParametersError):
            spectral_counts(mu, [0.3])
    with pytest.raises(InvalidParametersError):
        certified_count(ReferenceFamily(2.0), 3.0)
    with pytest.raises(BranchCutError):
        spectral_counts(1.5, [0.5])


def test_certified_count_raises_at_cap():
    # mu - 1 = 1e-4 needs about 5000 rows
    with pytest.raises(NonConvergenceError, match="row cap 1000"):
        certified_count(CountingLimitFamily(), 1.0001, cap=1000)
    with pytest.raises(NonConvergenceError, match="row cap 1000"):
        spectral_counts(1.0001, [0.5 - 1e-9], cap=1000)


def _record_blocks(monkeypatch) -> list[tuple[int, int]]:
    """(columns, rows) of every block the certified counts walk."""
    blocks: list[tuple[int, int]] = []
    count = jacobi_ops.counts_for_diagonals

    def recording(diags, offdiag, level=0.0, *, carry=None):
        blocks.append(np.shape(diags))
        return count(diags, offdiag, level, carry=carry)

    monkeypatch.setattr(jacobi_ops, "counts_for_diagonals", recording)
    return blocks


def test_certified_count_never_walks_past_the_cap(monkeypatch):
    blocks = _record_blocks(monkeypatch)
    # the coupling row, 2500, lies past the cap: one block walks to it
    with pytest.raises(NonConvergenceError, match="row cap 1000"):
        certified_count(CountingLimitFamily(), 1.0001, cap=1000)
    assert blocks == [(1, 1000)]
    # a cap between the coupling row and the end of the first block ends
    # that block, where the certificate holds here
    blocks.clear()
    assert certified_count(CountingLimitFamily(), 1.0001, cap=2540) == (17, 2540)
    assert blocks == [(1, 2540)]
    # no row admits at 1 + 1e-13, where (1 - 1e-12) mu^2 < 1: one block
    # walks to the cap
    blocks.clear()
    with pytest.raises(NonConvergenceError, match="row cap 1000"):
        certified_count(CountingFamily(0.3), 1.0 + 1e-13, cap=1000)
    assert blocks == [(1, 1000)]
    # each column stops at its own certificate: the far end of the window
    # needs far fewer rows than the one next to the threshold
    blocks.clear()
    counts, rows = spectral_counts(1.0005, [-9.5, 0.5 - 1e-9])
    # next to the threshold K = ceil(mu^2 lam / (mu^2 - 1) - 1/2) = 500
    assert blocks == [(2, 64), (1, 64), (1, 128), (1, 256)]
    assert rows == 512


# levels and families whose coupling row is 1 (couplings below 1/4
# throughout, or a large level), about 1/(4 (mu - 1)), and past 64
FIRST_BLOCK_POINTS = [
    (CountingLimitFamily(), 1.02), (CountingLimitFamily(), 1.0005),
    (CountingLimitFamily(), 1.0 + 2e-5), (CountingLimitFamily(), 1e300),
    (CountingFamily(1e-3), 1.001), (CountingFamily(0.01), 1.0 + 1e-4),
    (CountingFamily(0.5), 1.3), (CountingFamily(2.0), 1.1), (CountingFamily(0.7), 1.0001),
]


@pytest.mark.parametrize("family, level", FIRST_BLOCK_POINTS)
def test_counting_walk_starts_at_its_coupling_row(monkeypatch, family, level):
    # no certificate can hold before the coupling row r, so the first
    # block ends _FIRST_BLOCK rows past it, and every later block is as
    # long as all the rows before it
    first = _coupling_row(family, level) + jacobi_ops._FIRST_BLOCK
    blocks = _record_blocks(monkeypatch)
    count, rows = certified_count(family, level)
    assert blocks[0] == (1, first)
    assert blocks[1:] == [(1, first * 2**j) for j in range(len(blocks) - 1)]
    assert rows == first * 2 ** (len(blocks) - 1)


def _record_spans(monkeypatch) -> list[tuple[int, int]]:
    """(start, stop) of every span of couplings the counts compute."""
    spans: list[tuple[int, int]] = []
    couplings = jacobi_ops._couplings

    def recording(family, start, stop):
        spans.append((start, stop))
        return couplings(family, start, stop)

    monkeypatch.setattr(jacobi_ops, "_couplings", recording)
    return spans


def test_counting_walk_computes_each_coupling_once(monkeypatch):
    spans = _record_spans(monkeypatch)
    count, rows = certified_count(CountingLimitFamily(), 1.0 + 2e-5)
    assert rows == 12564
    # one span from row 0: the coupling row's bracket and the first block,
    # through the coupling joining the last row walked to the next
    assert spans == [(0, 12565)]
    # a walk that goes on past its first block computes each later
    # block's couplings once, contiguous with the ones before
    assert _coupling_row(CountingLimitFamily(), 1.00048) == 521
    spans.clear()
    assert certified_count(CountingLimitFamily(), 1.00048)[1] == 1170
    assert spans == [(0, 586), (586, 1171)]


# ε = 1/2 at a level whose coupling row lies near 2^16, where the
# couplings are so flat that the bracket spans several rows
_FLAT_LEVEL = 1.0 + 1.8e-11


@pytest.mark.parametrize("family, level", FIRST_BLOCK_POINTS + [
    *((CountingFamily(eps), level) for eps in (1e-3, 0.01, 0.5, 0.7, 1.0, 2.0)
      for level in (1.0 + 1e-4, 1.01, 1.5)),
    *((family, level) for family in (CountingLimitFamily(), CountingFamily(0.5), CountingFamily(2.0))
      for level in (1.0 + 1e-13, 1e154, 1e300, 1.7e308)),
    (CountingFamily(0.5), _FLAT_LEVEL),
])
def test_closed_form_coupling_row_is_the_first_that_admits(family, level):
    # the closed form brackets the row; the computed couplings in the
    # bracket decide it, so it is the first row whose coupling admits the
    # certificate, taken exactly.  No row up to the cap admits at
    # 1 + 1e-13, where (1 - 1e-12) mu^2 < 1
    rows = 2**17
    want = _coupling_row(family, level, rows)
    got = jacobi_ops._coupling_row(family, level, rows - 1, functools.partial(jacobi_ops._couplings, family))
    assert got == want
    if level == 1.0 + 1e-13:
        assert want is None
    elif level >= 1e154:
        assert want == 1
    elif level == _FLAT_LEVEL:
        assert 2**15 < want < 2**17


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
