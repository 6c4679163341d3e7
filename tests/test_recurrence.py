"""Three-term recurrence machinery: branch-correct roots, split-scale
solutions, closed-form asymptotics, the summed identity, and the secular
defect used for eigenvalue confirmation."""

import cmath
import decimal
import hashlib
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from speclab import (
    BranchCutError,
    InvalidParametersError,
    NoDominanceSplitError,
    NonConvergenceError,
    birkhoff_adams_eval,
    coupling_weight,
    coupling_weights,
    identity_residual,
    iterate_forward,
    minimal_solution_backward,
    secular_defect,
    secular_function,
    zeta_array,
)
from speclab import counts_for_diagonals, jacobi_ops, recurrence, tridiag
from speclab.recurrence import _LANE_MIN_ROWS, IdentityCheck, _steps

nonreal_lams = st.builds(
    complex,
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False).filter(
        lambda x: abs(x) > 1e-12
    ),
)


# ---------------------------------------------------------------------------
# branch-correct square root


def _zeta(n, lam):
    """zeta_n(lam) for the one index n, from zeta_array."""
    return complex(zeta_array(np.array([n]), lam)[0])


def test_zeta_real_below_cut():
    assert _zeta(2, -1.7) == pytest.approx(2.04939015319192, rel=1e-14)
    assert _zeta(2, -1.7).imag == 0.0
    assert _zeta(0, 0.49999) == pytest.approx(math.sqrt(1e-5), rel=1e-10)


def test_zeta_complex_frozen():
    z = _zeta(0, 0.3 + 0.1j)
    assert z == pytest.approx(0.46022103262996306 - 0.10864344837582009j, rel=1e-14)


def test_zeta_cut_rejected():
    with pytest.raises(BranchCutError):
        zeta_array(np.array([2]), 2.5)  # exactly n + 1/2
    with pytest.raises(BranchCutError):
        zeta_array(np.array([0]), 3.0)
    zeta_array(np.array([3]), 3.0)  # the cut starts at n + 1/2, so this one is fine
    with pytest.raises(InvalidParametersError):
        zeta_array(np.array([-1]), 0.0)
    with pytest.raises(InvalidParametersError):
        zeta_array(np.array([0]), complex(math.nan, 0.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=50), nonreal_lams)
def test_zeta_branch_conditions(n, lam):
    z = _zeta(n, lam)
    assert z.real > 0.0
    assert z.imag * lam.imag < 0.0
    w = (n + 0.5) - lam
    assert cmath.isclose(z * z, w, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("lam_im", [1e-200, -1e-200, 1e-300, -1e-300])
def test_zeta_branch_at_tiny_imaginary_part(lam_im):
    # Im zeta * Im lam underflows to 0 here, which the branch check read
    # as a wrong sign
    lam = complex(0.3, lam_im)
    z = _zeta(3, lam)
    assert z.real > 0.0 and z.imag != 0.0
    assert math.copysign(1.0, z.imag) == -math.copysign(1.0, lam_im)
    zs = zeta_array(np.arange(40), lam)
    assert np.all(zs.real > 0.0) and np.all(np.sign(zs.imag) == -np.sign(lam_im))
    sol = iterate_forward(1.5, lam, 1.0, 10)
    assert identity_residual(sol, 9).residual <= 1e-9


def _scalar_zeta(n, lam):
    """The scalar formula zeta_n(lam) had before it read zeta_array."""
    w = (n + 0.5) - lam
    if lam.imag == 0.0:
        return complex(math.sqrt(w.real), 0.0)
    return cmath.sqrt(w)


zeta_lam_ims = st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300]) | st.floats(
    min_value=-1e3, max_value=1e3
)


def _rounded_sqrt(z):
    """The principal sqrt(z), each part rounded once from a 60-digit
    decimal evaluation.  The smaller part is |Im z| / 2 over the larger,
    which keeps its digits where |Im z| is small."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x, y = D(z.real), D(z.imag)
        r = (x * x + y * y).sqrt()
        if x >= 0:
            re = ((r + x) / 2).sqrt()
            im = abs(y) / (2 * re)
        else:
            im = ((r - x) / 2).sqrt()
            re = abs(y) / (2 * im)
    return complex(float(re), math.copysign(float(im), z.imag))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=-1e6, max_value=1e6), zeta_lam_ims)
@example(n=3, lam_re=10.0, lam_im=5e-324)
@example(n=0, lam_re=0.3, lam_im=-0.0)
# at k = 1 the argument is exactly -1j: numpy rounds both parts of
# sqrt(-1j) to +-0.7071067811865476, cmath.sqrt one of them to ...475
@example(n=0, lam_re=1.5, lam_im=1.0)
def test_zeta_array_matches_scalar(n, lam_re, lam_im):
    lam = complex(lam_re, lam_im)
    assume(lam_im != 0.0 or lam_re < n + 0.5)
    got = zeta_array(np.arange(n, n + 3), lam)
    assert zeta_array(np.array([n]), lam).tobytes() == got[:1].tobytes()
    rounded = np.array([_rounded_sqrt((k + 0.5) - lam) for k in range(n, n + 3)]).view(np.float64)
    got = got.view(np.float64)
    want = np.array([_scalar_zeta(k, lam) for k in range(n, n + 3)]).view(np.float64)
    # numpy's complex sqrt and cmath.sqrt round a subnormal part apart by
    # one step of 2^-1074 at times (|Im lam| below about 1e-307); any
    # other part they round apart must be numpy's correctly rounded one,
    # and the rest agree bit for bit, the signs of zeros included
    sub = ((np.abs(got) < sys.float_info.min) | (np.abs(want) < sys.float_info.min)) & (got != want)
    assert np.all(np.abs(got - want)[sub] <= 5e-324)
    apart = ~sub & (got != want)
    assert got[apart].tobytes() == rounded[apart].tobytes()
    assert got[~sub & ~apart].tobytes() == want[~sub & ~apart].tobytes()


def test_zeta_array_edges():
    assert zeta_array(np.array([]), 0.3).size == 0
    with pytest.raises(BranchCutError):
        zeta_array(np.arange(3), 0.7)


@pytest.mark.parametrize("lam_im", [5e-324, -5e-324])
def test_zeta_where_the_real_part_underflows(lam_im):
    # the exact Re zeta_n = |Im lam| / (2 |Im zeta_n|), with |Im zeta_n|
    # about sqrt(9.5 - n), is subnormal for n < 10 and under half the
    # least subnormal for n <= 8; the branch check that demanded
    # Re zeta > 0 raised on this valid input
    lam = complex(10.0, lam_im)
    zs = zeta_array(np.arange(40), lam)
    assert np.all(zs.real[:9] == 0.0) and np.all(zs.real[:10] <= 5e-324)
    assert np.all(zs.real[10:] > 0.0)
    # Re zeta >= +0, and Im zeta carries the sign of -Im lam
    assert not np.any(np.signbit(zs.real))
    assert np.all(np.signbit(zs.imag) != np.signbit(lam_im))
    z = _zeta(3, lam)
    assert z.real == 0.0 and math.copysign(1.0, z.imag) == -math.copysign(1.0, lam_im)
    sol = iterate_forward(1.5, lam, 1.0, 20)
    assert math.isfinite(identity_residual(sol, 19).residual)
    assert math.isfinite(sol.max_interior_residual())


# ---------------------------------------------------------------------------
# offdiagonal weights


def test_coupling_weight_frozen():
    assert coupling_weight(1) == pytest.approx(0.9306048591020996, rel=1e-15)
    assert coupling_weight(2) == pytest.approx(1.9679896712654303, rel=1e-15)
    assert coupling_weight(5) == pytest.approx(4.987452849668406, rel=1e-15)
    with pytest.raises(InvalidParametersError):
        coupling_weight(0)
    assert np.allclose(
        coupling_weights(np.arange(1, 6)),
        [coupling_weight(n) for n in range(1, 6)],
        rtol=1e-15,
    )
    with pytest.raises(InvalidParametersError):
        coupling_weights(np.array([0, 1]))


def test_one_coupling_weight_formula():
    # the scalar d(n) is the float the vector formula gives, so a residual
    # and a Sturm count read the same weights; libm's pow and numpy's
    # differ in the last bit at thousands of these n
    ns = np.arange(1, 100_001)
    vector = coupling_weights(ns)
    assert [coupling_weight(int(n)) for n in ns] == vector.tolist()


def _fresh_lattice(monkeypatch):
    """No lattice row kept, as in a fresh process."""
    monkeypatch.setattr(recurrence, "_LATTICE", dict.fromkeys(recurrence._LATTICE, np.zeros(0)))


_ROWS = ("d", "d2", "half", "root")


def test_lattice_rows_are_kept_and_grown(monkeypatch):
    _fresh_lattice(monkeypatch)
    builds = []
    weights = recurrence.coupling_weights
    monkeypatch.setattr(recurrence, "coupling_weights", lambda ns: builds.append(len(ns)) or weights(ns))
    largest = 0
    for size in (1, 10, 3000, 2999, 5, 100_001):
        largest = max(largest, size)
        rows = recurrence._lattice(size, *_ROWS)
        d, d2, half, root = rows
        # each row is returned whole, as long as the largest size so far
        assert [row.size for row in rows] == [largest] * 4
        assert d[0] == 0.0
        assert d[1:].tobytes() == coupling_weights(np.arange(1, largest)).tobytes()
        assert d2.tobytes() == np.square(d).tobytes()
        assert half.tobytes() == (np.arange(largest) + 0.5).tobytes()
        assert root.tobytes() == np.sqrt(np.arange(largest) + 0.5).tobytes()
        assert not any(row.flags.writeable for row in rows)
        assert all(row is recurrence._LATTICE[name] for row, name in zip(rows, _ROWS))
    # a size no larger than the largest so far builds nothing: its readers
    # slice the rows kept
    assert builds == [0, 9, 2999, 100_000]
    kept = recurrence._lattice(100_001, *_ROWS)
    rows = [row[:40] for row in recurrence._lattice(40, *_ROWS)]
    assert all(np.shares_memory(row, whole) for row, whole in zip(rows, kept))
    assert len(builds) == 4
    for row in rows:
        with pytest.raises(ValueError, match="read-only"):
            row[3] = 1.0


def test_each_lattice_row_is_kept_only_as_deep_as_its_readers_ask(monkeypatch):
    # an identity-check at depth 1e5 reads d(k), k + 1/2 and sqrt(k + 1/2)
    # that deep; d(k)^2 only the secular sweep reads, to its buffer top
    _fresh_lattice(monkeypatch)
    iterate_forward(1.5, 0.3 + 0.1j, 1.0, 100_000)
    secular_function(2.0, 0.0, 256)
    sizes = {name: row.size for name, row in recurrence._LATTICE.items()}
    assert sizes == {"d": 100_001, "d2": 256 + 50 + 2, "half": 100_000, "root": 100_000}
    # the rows of the sweep keep their bits
    d, d2 = recurrence._lattice(308, "d", "d2")
    assert d2.tobytes() == np.square(d[:308]).tobytes()


# ---------------------------------------------------------------------------
# forward iteration


def test_forward_seed_row():
    mu, lam, c0 = 1.3, 0.2, 2.0 - 1.0j
    sol = iterate_forward(mu, lam, c0, 5)
    want_c1 = -(2.0 * mu * math.sqrt(0.5) * _zeta(0, lam) * c0) / coupling_weight(1)
    assert sol.value(0) == c0
    assert sol.value(1) == pytest.approx(want_c1, rel=1e-15)
    assert sol.length == 6
    assert sol.direction == "forward"


@pytest.mark.parametrize("mu, lam, c0", [
    (1e8, 0.0, 1e300),  # C_1 near 2^1024: C_0 is stored on scale 1024
    (0.0923837732859601, -8.534310041670157 + 0.27273974194268646j, 5e-324j),
    (1e-3, 0.2, 2.2e-311 + 3e-320j),
])
def test_forward_seed_stored_on_the_first_rows_scale(mu, lam, c0):
    sol = iterate_forward(mu, lam, c0, 5)
    assert sol.log2_scale[0] == sol.log2_scale[1]
    assert sol.value(0) == c0
    assert sol.max_interior_residual() < 1e-15


def test_forward_rows_satisfy_recurrence():
    for mu, lam in [(0.4, 0.3), (1.0, -2.0), (2.0, 0.2 + 0.1j), (-1.5, 1.0j)]:
        sol = iterate_forward(mu, lam, 1.0, 400)
        assert sol.max_interior_residual() < 1e-13


def test_forward_split_representation_never_overflows():
    # at mu = 2 the dominant root is 2 + sqrt(3), about 1.9 bits per step,
    # so C_700 is far beyond float range; the split form keeps working
    sol = iterate_forward(2.0, 0.3, 1.0, 700)
    assert sol.max_interior_residual() < 1e-13

    def log2_magnitude(n):
        return math.log2(abs(sol.values[n])) + float(sol.log2_scale[n])

    assert log2_magnitude(700) > 1100.0
    assert math.isinf(abs(sol.value(700)))  # collapsing the split overflows
    # C_500 sits near 2^945, still representable: collapse must match the split
    assert math.log2(abs(sol.value(500))) == pytest.approx(log2_magnitude(500), abs=1e-9)
    mags = np.abs(sol.values[sol.values != 0.0])
    assert float(np.max(mags)) <= 2.0**513
    assert float(np.min(mags)) >= 2.0**-513


def test_value_overflows_part_by_part():
    # real lam: Im C_700 is a zero and Re C_700 overflows; the whole
    # mantissa times inf made that inf+nanj
    sol = iterate_forward(3.0, -0.5, 1.0, 800)
    m, v = complex(sol.values[700]), sol.value(700)
    assert m.real > 0.0 and m.imag == 0.0
    assert v.real == math.inf
    assert v.imag == 0.0 and math.copysign(1.0, v.imag) == math.copysign(1.0, m.imag)
    # both parts overflow, each to the inf of its own sign
    sol = iterate_forward(3.0, -0.5 + 1.0j, 1.0, 800)
    m, v = complex(sol.values[700]), sol.value(700)
    assert (v.real, v.imag) == (math.copysign(math.inf, m.real), math.copysign(math.inf, m.imag))


def test_forward_linear_in_seed():
    a = iterate_forward(1.1, 0.25, 1.0, 60)
    b = iterate_forward(1.1, 0.25, 2.0 - 0.5j, 60)
    for n in (3, 20, 60):
        assert b.value(n) == pytest.approx((2.0 - 0.5j) * a.value(n), rel=1e-13)


def test_forward_mu_sign_symmetry():
    # mu -> -mu flips the sign of every other coefficient
    plus = iterate_forward(1.7, 0.1, 1.0, 50)
    minus = iterate_forward(-1.7, 0.1, 1.0, 50)
    for n in range(1, 50):
        assert minus.ratio(n) == pytest.approx(-plus.ratio(n), rel=1e-13)


def test_forward_validation():
    with pytest.raises(InvalidParametersError):
        iterate_forward(math.inf, 0.3, 1.0, 5)
    with pytest.raises(InvalidParametersError):
        iterate_forward(1.0, 0.3, complex(math.nan, 0), 5)
    with pytest.raises(InvalidParametersError):
        iterate_forward(1.0, 0.3, 1.0, -1)
    with pytest.raises(BranchCutError):
        iterate_forward(1.0, 0.5, 1.0, 5)
    sol = iterate_forward(1.0, 0.3, 3.0, 0)
    assert sol.length == 1 and sol.value(0) == 3.0


def test_forward_rejects_a_recurrence_that_overflows():
    # w_k overflows for k >= 1: the rows were nan, and the row check read 0
    with pytest.raises(InvalidParametersError, match="w_9"):
        iterate_forward(1e308, 0.3, 1.0, 10)
    # C_1 = -w_0 C_0 / d(1) overflows: the rescale raised a bare OverflowError
    with pytest.raises(InvalidParametersError, match=r"seed C_0 = \(1e\+300"):
        iterate_forward(1e150, -1e10, 1e300, 3)
    # every weight is finite, but w_k C_k overflows in row 2
    with pytest.raises(InvalidParametersError, match="seed"):
        iterate_forward(1e154, 0.3, 1.0, 100)


def test_interior_residual_of_a_nan_row_is_nan():
    sol = iterate_forward(1.5, 0.3, 1.0, 10)
    sol.values[5] = complex(math.nan, 0.0)
    res = sol.interior_residuals()
    # C_5 enters rows 4, 5 and 6, at indices 3, 4 and 5
    assert np.isnan(res[3:6]).all() and np.isfinite(np.delete(res, [3, 4, 5])).all()
    assert math.isnan(sol.max_interior_residual())


# ---------------------------------------------------------------------------
# minimal solution and Birkhoff-Adams forms


def test_birkhoff_adams_distinct_case():
    ba = birkhoff_adams_eval(2.0, 0.3)
    assert ba.case == "distinct"
    assert ba.roots[0] == pytest.approx(-0.2679491924311228, rel=1e-14)
    assert ba.roots[1] == pytest.approx(-3.732050807568877, rel=1e-14)
    # roots of t^2 + 2*mu*t + 1: product 1, sum -2*mu
    assert ba.roots[0] * ba.roots[1] == pytest.approx(1.0, rel=1e-13)
    assert ba.roots[0] + ba.roots[1] == pytest.approx(-4.0, rel=1e-14)
    assert ba.exponents[0] == pytest.approx(-0.32679491924311227, rel=1e-13)
    assert ba.exponents[1] == pytest.approx(-0.6732050807568877, rel=1e-13)
    assert ba.minimal_index() == 0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.01, max_value=40.0, allow_nan=False),
    st.builds(
        complex,
        st.floats(min_value=-5.0, max_value=0.49, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
)
def test_birkhoff_adams_closed_form_exponents(mu, lam):
    # exponents collapse to -1/2 +- mu*lam / (2*sqrt(mu^2 - 1))
    ba = birkhoff_adams_eval(mu, lam)
    s = math.sqrt(mu * mu - 1.0)
    want0 = -0.5 + mu * lam / (2.0 * s)
    want1 = -0.5 - mu * lam / (2.0 * s)
    assert cmath.isclose(ba.exponents[0], want0, rel_tol=1e-10, abs_tol=1e-10)
    assert cmath.isclose(ba.exponents[1], want1, rel_tol=1e-10, abs_tol=1e-10)
    assert cmath.isclose(sum(ba.exponents), -1.0, rel_tol=0, abs_tol=1e-10)


def test_birkhoff_adams_double_root():
    ba = birkhoff_adams_eval(1.0, -0.4)
    assert ba.case == "double"
    assert ba.double_root == -1.0
    assert ba.delta == pytest.approx(2.0 * cmath.sqrt(0.4), rel=1e-13)
    assert ba.kappa == pytest.approx(-0.25)
    with pytest.raises(InvalidParametersError):
        ba.minimal_index()
    with pytest.raises(InvalidParametersError):
        ba.predicted_ratio(0, 10)


def test_birkhoff_adams_oscillatory_no_minimal_root():
    ba = birkhoff_adams_eval(0.5, 0.3)
    assert abs(abs(ba.roots[0]) - 1.0) < 1e-12
    with pytest.raises(InvalidParametersError):
        ba.minimal_index()


def test_minimal_solution_matches_predicted_ratio():
    for mu, lam in [(1.5, 0.3), (2.0, 0.2 + 0.1j), (5.0, -1.0)]:
        ba = birkhoff_adams_eval(mu, lam)
        idx = ba.minimal_index()
        sol = minimal_solution_backward(mu, lam, 400)
        n = 300
        got = sol.ratio(n)
        want = ba.predicted_ratio(idx, n)
        # ratio agrees with the closed form up to the O(1/n^2) truncation
        assert abs(got - want) <= 100.0 / n**2 * abs(want)
        assert sol.value(400) == 1.0  # normalisation
        assert sol.max_interior_residual() < 1e-13


def test_forward_solution_follows_dominant_root():
    mu, lam = 2.0, 0.3
    ba = birkhoff_adams_eval(mu, lam)
    dom = 1 - ba.minimal_index()
    sol = iterate_forward(mu, lam, 1.0, 400)
    assert sol.ratio(300) == pytest.approx(ba.predicted_ratio(dom, 300), rel=1e-4)


def test_minimal_solution_requires_dominance_split():
    with pytest.raises(NoDominanceSplitError):
        minimal_solution_backward(0.8, 0.3, 50)
    # nonreal lam restores the split even for small mu
    sol = minimal_solution_backward(0.8, 1.0j, 50)
    assert sol.value(50) == 1.0


@pytest.mark.parametrize("mu, lam, n", [
    # a row overflows: a bare OverflowError from the rescale
    (1e154, 0.3, 100),
    # the same on a range long enough for lanes, which give way to the rows
    (1e154, 0.3 + 0.1j, 3000),
])
def test_backward_raises_non_convergence_where_a_row_overflows(mu, lam, n):
    with pytest.raises(NonConvergenceError, match="floating-point range"):
        minimal_solution_backward(mu, lam, n)


def test_minimal_solution_buffer_insensitive():
    a = minimal_solution_backward(1.5, 0.3, 200, m=260)
    b = minimal_solution_backward(1.5, 0.3, 200, m=500)
    for n in (0, 50, 150):
        assert a.value(n) == pytest.approx(b.value(n), rel=1e-12)
    with pytest.raises(InvalidParametersError):
        minimal_solution_backward(1.5, 0.3, 200, m=200)
    with pytest.raises(InvalidParametersError):
        minimal_solution_backward(1.5, 0.3, 0)


# ---------------------------------------------------------------------------
# the shared stepping kernel against the per-row loops it replaced


def _reference_rescale(a, b, scale):
    mag = max(abs(a), abs(b))
    if 0.0 < mag <= 2.0**-1024:
        # 2.0**-shift would overflow: lift the pair by 2^64 first
        return _reference_rescale(a * 2.0**64, b * 2.0**64, scale - 64.0)
    if mag > 2.0**512 or 0.0 < mag < 2.0**-512:
        shift = float(math.ceil(math.log2(mag)))
        return a * 2.0**-shift, b * 2.0**-shift, scale + shift
    return a, b, scale


def _reference_forward(mu, lam, c0, n):
    """One row at a time, rescaling the working pair after every row."""
    values = np.zeros(n + 1, dtype=complex)
    scales = np.zeros(n + 1)
    values[0] = c0
    if n == 0:
        return values, scales
    zs = zeta_array(np.arange(n), lam).tolist()
    ds = coupling_weights(np.arange(1, n + 1)).tolist()
    sq = np.sqrt(np.arange(n) + 0.5).tolist()
    c_prev = c0
    c_curr = -(2.0 * mu * sq[0] * zs[0] * c0) / ds[0]
    c_curr, c_prev, cur = _reference_rescale(c_curr, c_prev, 0.0)
    values[:2], scales[:2] = (c_prev, c_curr), cur
    for k in range(1, n):
        c_next = -(2.0 * mu * sq[k] * zs[k] * c_curr + ds[k - 1] * c_prev) / ds[k]
        c_curr, c_prev, cur = _reference_rescale(c_next, c_curr, cur)
        values[k + 1], scales[k + 1] = c_curr, cur
    return values, scales


def _reference_backward(mu, lam, n, m):
    """From (C_{m+1}, C_m) = (0, 1) down one row at a time, then C_n = 1."""
    zs = zeta_array(np.arange(m + 1), lam).tolist()
    ds = coupling_weights(np.arange(1, m + 2)).tolist()
    sq = np.sqrt(np.arange(m + 1) + 0.5).tolist()
    values = np.zeros(m + 2, dtype=complex)
    scales = np.zeros(m + 2)
    c_up, c_mid, cur = 0.0 + 0.0j, 1.0 + 0.0j, 0.0
    values[m] = c_mid
    for k in range(m, 0, -1):
        c_down = -(ds[k] * c_up + 2.0 * mu * sq[k] * zs[k] * c_mid) / ds[k - 1]
        c_mid, c_up, cur = _reference_rescale(c_down, c_mid, cur)
        values[k - 1], scales[k - 1] = c_mid, cur
    shift = float(round(math.log2(abs(values[n]))))
    pivot = values[n] * 2.0**-shift
    return values[: n + 1] / pivot, scales[: n + 1] - (scales[n] + shift)


def _reference_weights(mu, zs, start=0):
    """w_j = 2*mu*sqrt(j + 1/2)*zeta_j for j = start, start + 1, ... part by
    part, repeating the products and sums of the Python scalar
    (t + 0j) * zeta_j, from zs[i] = zeta_{start + i}."""
    t = 2.0 * mu * np.sqrt(np.arange(start, start + zs.size) + 0.5)
    w = np.empty(zs.size, dtype=complex)
    w.real = t * zs.real - 0.0 * zs.imag
    w.imag = t * zs.imag + 0.0 * zs.real
    return w


def _reference_interior_residuals(sol):
    """Every interior row's residual as the check computed it when it
    rebuilt the weights from zeta_n and scaled every row."""
    if sol.length < 3:
        return np.zeros(0)
    zetas = zeta_array(np.arange(sol.length), sol.lam)
    k_lo, k_mid, k_up = sol.log2_scale[:-2], sol.log2_scale[1:-1], sol.log2_scale[2:]
    kmax = np.maximum(np.maximum(k_lo, k_mid), k_up)
    c_lo = sol.values[:-2] * np.exp2(k_lo - kmax)
    c_mid = sol.values[1:-1] * np.exp2(k_mid - kmax)
    c_up = sol.values[2:] * np.exp2(k_up - kmax)
    t_up = sol.couplings[2:] * c_up
    t_mid = _reference_weights(sol.mu, zetas)[1:-1] * c_mid
    t_lo = sol.couplings[1:-1] * c_lo
    num = np.abs(t_up + t_mid + t_lo)
    den = np.abs(t_up) + np.abs(t_mid) + np.abs(t_lo)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def _reference_identity(sol, up_to):
    """The summed identity as it was computed from zeta_n, with every
    mantissa scaled part by part, the sum of its terms' magnitudes and the
    largest of them."""
    ns = np.arange(up_to + 1)
    zs_im = zeta_array(ns, sol.lam).imag
    unscaled = sol.values[: up_to + 2]
    _, e = np.frexp(np.abs(unscaled))
    vals = np.empty_like(unscaled)
    vals.real = np.ldexp(unscaled.real, -e)
    vals.imag = np.ldexp(unscaled.imag, -e)
    k = sol.log2_scale[: up_to + 2] + e
    kref = max(float((k[up_to] + k[up_to + 1]) // 2),
               float(np.max(k[: up_to + 1])) - 480.0)
    weights = np.exp2(2.0 * (k[: up_to + 1] - kref))
    mags2 = np.abs(vals[: up_to + 1]) ** 2 * weights
    terms = 2.0 * sol.mu * mags2 * np.sqrt(ns + 0.5) * zs_im
    cross = (vals[up_to + 1] * np.conj(vals[up_to])).imag
    rhs = -float(sol.couplings[up_to + 1]) * float(cross) * 2.0 ** float(
        k[up_to + 1] + k[up_to] - 2.0 * kref
    )
    magnitudes = np.abs(terms)
    return (float(np.sum(terms)), rhs, 2.0 * kref, float(np.sum(magnitudes)),
            float(np.max(magnitudes)))


kernel_mus = st.builds(
    lambda sign, mag: sign * mag,
    st.sampled_from([1.0, -1.0]),
    st.floats(min_value=1e-3, max_value=1e3),
)
kernel_lams = st.floats(min_value=-40.0, max_value=0.49) | nonreal_lams
kernel_seeds = st.sampled_from([0.0, 1.0, 1e300, 1e-300]) | st.builds(
    complex,
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=1e3),
)


@settings(max_examples=150, deadline=None)
@given(kernel_mus, kernel_lams, kernel_seeds, st.integers(min_value=0, max_value=600))
# a subnormal pair used to overflow 2.0**-shift in the rescale
@example(mu=1.0, lam=0.0, c0=2.225073858507e-311j, n=1)
def test_forward_kernel_bit_identical_to_row_loop(mu, lam, c0, n):
    sol = iterate_forward(mu, lam, c0, n)
    values, scales = _reference_forward(mu, complex(lam), complex(c0), n)
    assert np.array_equal(sol.values, values)
    assert np.array_equal(sol.log2_scale, scales)


@settings(max_examples=150, deadline=None)
@given(kernel_mus, kernel_lams, st.integers(min_value=1, max_value=600), st.booleans())
def test_backward_kernel_bit_identical_to_row_loop(mu, lam, n, tight):
    if abs(mu) <= 1.0 and complex(lam).imag == 0.0:
        mu = 2.0 / mu  # a real lam needs the dominance split |mu| > 1
    m = n + 1 if tight else None
    sol = minimal_solution_backward(mu, lam, n, m)
    values, scales = _reference_backward(
        mu, complex(lam), n, n + max(50, n // 10) if m is None else m
    )
    assert np.array_equal(sol.values, values)
    assert np.array_equal(sol.log2_scale, scales)


extreme = st.builds(
    lambda mantissa, exponent: mantissa * 2.0**exponent,
    st.just(0.0) | st.floats(min_value=0.5, max_value=1.0),
    st.integers(min_value=-200, max_value=200),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(extreme, extreme, extreme.filter(bool)), max_size=40))
def test_kernel_rescales_like_row_loop_at_extreme_coefficients(rows):
    # coefficient ratios up to 2^400 carry the pair out of [2^-512, 2^512]
    # at either end within a few rows, which the recurrence's own
    # coefficients almost never do (its first forward row is rescaled apart)
    w, d_old, d_new = (list(col) for col in zip(*rows)) if rows else ([], [], [])
    out, log2 = np.empty(len(rows), dtype=complex), np.empty(len(rows))
    _steps(w, d_old, d_new, 0.75 + 0j, 1.0 + 0j, 0.0, out, log2)
    a, b, scale = 0.75 + 0j, 1.0 + 0j, 0.0
    want, scales = [], []
    for wi, di, dn in rows:
        a, b = b, -(wi * b + di * a) / dn
        b, a, scale = _reference_rescale(b, a, scale)
        want.append(b)
        scales.append(scale)
    assert out.tolist() == want
    assert log2.tolist() == scales


# ---------------------------------------------------------------------------
# lanes: long step ranges against the row loop


def _in_scale(values, scales, to):
    """values * 2**(scales - to), exact where that factor alone would overflow."""
    e = (scales - to).astype(int)
    return np.ldexp(values.real, e) + 1j * np.ldexp(values.imag, e)


def _pair_maxima(values, scales):
    """max(|C_k|, |C_{k+1}|) on the scale of C_{k+1}, for every k."""
    return np.maximum(np.abs(_in_scale(values[:-1], scales[:-1], scales[1:])), np.abs(values[1:]))


def _deviation(values, scales, ref_values, ref_scales):
    """|C_k - ref_k| over the largest of |ref_{k-1}|, |ref_k|, |ref_{k+1}|."""
    diff = np.abs(_in_scale(values, scales, ref_scales) - ref_values)
    near = np.abs(ref_values)
    near[1:] = np.maximum(near[1:], np.abs(_in_scale(ref_values[:-1], ref_scales[:-1], ref_scales[1:])))
    near[:-1] = np.maximum(near[:-1], np.abs(_in_scale(ref_values[1:], ref_scales[1:], ref_scales[:-1])))
    return np.divide(diff, near, out=np.zeros_like(diff), where=near > 0.0)


def _assert_pairs_in_range(sol):
    pairs = _pair_maxima(sol.values, sol.log2_scale)
    assert np.all((pairs == 0.0) | ((2.0**-512 <= pairs) & (pairs <= 2.0**512)))


# The lanes and the row loop round differently.  Their values may part by
# about eps per row where a solution barely dominates (|mu| near 1, small
# Im lam), so over 2e4 rows 20 * 2e4 * 2^-52 = 1e-10 bounds the deviation;
# the largest seen over 200 random points was 1.6e-13, and 1.7e-12 at
# mu = 0.99999, lam = 1e-3j, n = 1473.  Where no solution dominates
# (|mu| <= 1, real lam) only the row loop runs.
LANE_DEVIATION = 1e-10


def _identity_bound(sol, check):
    """The largest residual the rows of ``sol`` allow its identity ``check``
    up to the last row, upTo = sol.length - 2.

    The identity is the rows summed: row k times conj(C_k), imaginary part,
    telescopes over k <= upTo to lhs - rhs.  A row that holds to a share
    eta of its terms, T_k = d(k+1)|C_{k+1}| + |w_k||C_k| + d(k)|C_{k-1}|,
    moves that sum by at most eta * T_k * |C_k|, so

        residual <= (eta + 64 eps) * S / (|lhs| + |rhs|),  S = sum T_k |C_k|,

    with eta the largest interior row residual, and 64 eps for the seed row,
    the residuals' own rounding, the pairwise sum and the top product
    (each term of the sum is at most |Im w_k| |C_k|^2 <= T_k |C_k|).  S does
    not shrink with Im lam, but both sides do, as Im zeta_k =
    -Im lam / (2 Re zeta_k): at lam = 1 + 6e-8j, mu = 2, upTo = 923 the ratio
    S / (|lhs| + |rhs|) is 3e10, and the residual 1e-8.
    """
    n = sol.length - 1
    kref = check.log2_scale / 2
    c = _in_scale(sol.values, sol.log2_scale, kref)
    w = sol.weights[:n]
    d = sol.couplings
    terms = np.abs(w) * np.abs(c[:n])
    terms += d[1:] * np.abs(c[1:])
    terms[1:] += d[1:n] * np.abs(c[: n - 1])
    both = abs(check.lhs) + abs(check.rhs)
    if both == 0.0:
        return 0.0
    eta = sol.max_interior_residual()
    return (eta + 64 * sys.float_info.epsilon) * float(np.sum(terms * np.abs(c[:n]))) / both


@settings(max_examples=80, deadline=None)
@given(
    kernel_mus,
    kernel_lams,
    kernel_seeds,
    st.integers(min_value=_LANE_MIN_ROWS - 100, max_value=20_000),
)
@example(mu=1.0, lam=0.0, c0=2.225073858507e-311j, n=5000)
@example(mu=1e3, lam=-40.0, c0=1e300, n=20_000)
# tiny Im lam: the identity's two sides cancel to 1e-8 of the terms
# (see _identity_bound), on the row loop
@example(mu=2.0, lam=1 + 5.96e-8j, c0=1.0, n=924)
# a subnormal seed stored on scale 0 beside C_1 on the n = 0 row's scale
# made row 1 read 1.0
@example(mu=0.0923837732859601, lam=-8.534310041670157 + 0.27273974194268646j, c0=5e-324j, n=600)
# near |mu| = 1 a lane join misses _LANE_AGREEMENT after the first carry,
# and holds after the second (test_lanes_run_only_where_a_solution_dominates)
@example(mu=0.9988455632435812, lam=-24.049343439570947 + 13.807402493950548j, c0=1.0, n=8770)
# real lam with |mu| <= 1: no solution dominates, and the lanes parted
# from the row loop by 1.97e-10 here; these run the row loop
@example(mu=0.9991107095985338, lam=-37.51702983234358, c0=1.0, n=7154)
@example(mu=0.99999, lam=0.0, c0=1.0, n=1473)
def test_forward_lanes_agree_with_row_loop(mu, lam, c0, n):
    sol = iterate_forward(mu, lam, c0, n)
    values, scales = _reference_forward(mu, complex(lam), complex(c0), n)
    assert np.max(_deviation(sol.values, sol.log2_scale, values, scales)) <= LANE_DEVIATION
    assert sol.max_interior_residual() < 1e-13
    _assert_pairs_in_range(sol)
    # for real lam both sides of the identity vanish, and a subnormal seed
    # loses digits in the boundary row, so neither checks the rows
    if complex(lam).imag != 0.0 and (c0 == 0.0 or abs(c0) >= sys.float_info.min):
        check = identity_residual(sol, n - 1)
        assert check.residual <= _identity_bound(sol, check)


@pytest.mark.parametrize(
    "mu, lam",
    [(1.5, 0.3), (2.0, 0.2 + 0.1j), (5.0, 0.3), (-3.0, -1.0 - 2.0j), (0.8, 1.0j), (1e3, -40.0)],
)
def test_backward_lanes_agree_with_row_loop(mu, lam):
    n = 10_001
    sol = minimal_solution_backward(mu, lam, n)
    values, scales = _reference_backward(mu, complex(lam), n, n + max(50, n // 10))
    assert np.max(_deviation(sol.values, sol.log2_scale, values, scales)) <= LANE_DEVIATION
    assert sol.max_interior_residual() < 1e-13
    _assert_pairs_in_range(sol)


@pytest.mark.parametrize("mu, lam, n, replays", [
    # a weak split: a lane join misses after the first carry and holds
    # after the second, so the lanes replay twice after their products
    (0.9988455632435812, -24.049343439570947 + 13.807402493950548j, 8770, 3),
    # no split: the row loop alone, bit for bit
    (0.9991107095985338, -37.51702983234358, 7154, 0),
    (0.99999, 0.0, 1473, 0),
    (-1.0, -3.0, 5000, 0),
])
def test_lanes_run_only_where_a_solution_dominates(monkeypatch, mu, lam, n, replays):
    calls = []
    replay = recurrence._replay
    monkeypatch.setattr(recurrence, "_replay", lambda *args: calls.append(1) or replay(*args))
    sol = iterate_forward(mu, lam, 1.0, n)
    assert len(calls) == replays
    if not replays:
        values, scales = _reference_forward(mu, complex(lam), 1.0, n)
        assert np.array_equal(sol.values, values) and np.array_equal(sol.log2_scale, scales)


def _recurrence_queries(monkeypatch, near):
    """The ``recurrence`` benchmark queries of blocks 0-2 of seeds 0-9 whose
    (seed, block, index) is in ``near``."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return [q for seed, index, i in near for q in workloads.block("recurrence", seed, index)[i:i + 1]]


# the queries of recurrence blocks 0-2, seeds 0-9, where a lane join
# misses _LANE_AGREEMENT after the first carry: mu from 0.971 to 1.004
_NEAR_ONE = [(0, 2, 3), (2, 1, 1), (5, 0, 3), (5, 0, 4), (5, 0, 7), (8, 0, 7)]


def test_second_carry_keeps_the_lanes_near_mu_one(monkeypatch):
    queries = _recurrence_queries(monkeypatch, _NEAR_ONE)
    assert [round(q.expect["mu"], 3) for q in queries] == [1.003, 0.996, 0.993, 0.971, 1.004, 0.986]
    rows, replays = [], []
    row_steps, replay = recurrence._row_steps, recurrence._replay
    monkeypatch.setattr(recurrence, "_row_steps", lambda w, *args: rows.append(len(w)) or row_steps(w, *args))
    monkeypatch.setattr(recurrence, "_replay", lambda *args: replays.append(1) or replay(*args))
    for q in queries:
        rows.clear()
        replays.clear()
        e = q.expect
        sol = iterate_forward(e["mu"], e["lam"], 1.0, e["size"])
        # the products, the replay, and the replay after the second carry;
        # the row loop takes only the head that fills no lane
        assert len(replays) == 3
        assert rows and max(rows) < _LANE_MIN_ROWS
        assert identity_residual(sol, e["size"] - 1).residual <= 1e-9
        assert sol.max_interior_residual() < 1e-13


def test_lanes_give_way_to_the_row_loop(monkeypatch):
    n = 3 * _LANE_MIN_ROWS
    # lanes run at ordinary parameters
    ds = coupling_weights(np.arange(1, n + 1))
    w = recurrence._weight_rows(1.5, 0.3 + 0.1j, n)
    rows = 64
    out, log2 = np.zeros(n - 64, dtype=complex), np.zeros(n - 64)
    assert recurrence._lane_steps(w[:n - 64], ds[:n - 64], ds[1:n - 63], 1j, 0.5, 0.0, rows, out, log2)
    assert np.all(out != 0.0)
    # one row at mu = 1e300 grows the pair by about 2^1000, past the bound
    # every lane rescale keeps; nothing is written
    w = recurrence._weight_rows(1e300, 0.3 + 0.1j, n)
    out, log2 = np.zeros(n - 64, dtype=complex), np.zeros(n - 64)
    assert not recurrence._lane_steps(w[:n - 64], ds[:n - 64], ds[1:n - 63], 1j, 0.5, 0.0, rows, out, log2)
    assert not np.any(out) and not np.any(log2)
    sol = iterate_forward(1e300, 0.3 + 0.1j, 1.0, n)
    values, scales = _reference_forward(1e300, 0.3 + 0.1j, 1.0, n)
    assert np.array_equal(sol.values, values) and np.array_equal(sol.log2_scale, scales)
    # with a zero tolerance the rows where lanes meet miss it, and miss it
    # again after the second carry: the lanes replay twice after building
    # their products, then the row loop runs
    monkeypatch.setattr(recurrence, "_LANE_AGREEMENT", 0.0)
    replays = []
    replay = recurrence._replay
    monkeypatch.setattr(recurrence, "_replay", lambda *args: replays.append(1) or replay(*args))
    sol = iterate_forward(1.5, 0.3 + 0.1j, 1.0, n)
    assert len(replays) == 3
    values, scales = _reference_forward(1.5, 0.3 + 0.1j, 1.0, n)
    assert np.array_equal(sol.values, values) and np.array_equal(sol.log2_scale, scales)


# ---------------------------------------------------------------------------
# the scratch arena: the solve's and the checks' temporaries, kept per thread


# one process asks for these in turn; each call's parameters differ from
# the last one's, so a temporary that read what an earlier call left in
# the arena would give other bytes than in a fresh process
_ARENA_CALLS = [
    (1.7, 0.3 + 0.2j, 100_000),
    (0.6, -1.0 - 0.5j, 3000),
    (0.996, -0.4 + 0.1j, 100_000),
    (2.5, 0.1, 20_000),
]


def _answer(mu, lam, n):
    """Every array and float of a forward solve and both checks, as bytes."""
    sol = iterate_forward(mu, lam, 1.0, n)
    check = identity_residual(sol, n - 1)
    parts = [sol.values, sol.log2_scale, sol.weights, sol.couplings, sol.interior_residuals(),
             np.array([check.lhs, check.rhs, check.log2_scale])]
    return b"".join(part.tobytes() for part in parts)


def test_arena_reuse_gives_a_fresh_process_bytes():
    here = [hashlib.sha256(_answer(*call)).hexdigest() for call in _ARENA_CALLS]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(pathlib.Path(recurrence.__file__).parents[1]), str(pathlib.Path(__file__).parent),
                      env.get("PYTHONPATH")]))
    code = ("import hashlib, sys; from test_recurrence import _ARENA_CALLS, _answer; "
            "print(hashlib.sha256(_answer(*_ARENA_CALLS[int(sys.argv[1])])).hexdigest())")
    for i, digest in enumerate(here):
        fresh = subprocess.run([sys.executable, "-c", code, str(i)], env=env,
                               capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr[-2000:]
        assert fresh.stdout.strip() == digest


def test_kept_arrays_are_not_carved_from_the_arena():
    sol = iterate_forward(1.7, 0.3 + 0.2j, 1.0, 50_000)
    back = minimal_solution_backward(1.7, 0.3 + 0.2j, 20_000)
    kept = [sol.values, sol.log2_scale, sol.weights, sol.couplings, sol.interior_residuals(),
            back.values, back.log2_scale, back.weights, back.interior_residuals()]
    copies = [a.copy() for a in kept]
    check = identity_residual(sol, 49_999)
    # the checks grew every slot to at least one byte per interior row
    assert all(slot.size >= 49_999 for slot in recurrence._ARENA.slots)
    for slot in recurrence._ARENA.slots:
        assert not any(np.shares_memory(slot, a) for a in kept)
    # later calls reuse the slots and leave the earlier answers alone
    for mu, lam, n in _ARENA_CALLS:
        _answer(mu, lam, n // 2)
        minimal_solution_backward(mu + 1.0, lam, n // 4).interior_residuals()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, copies))
    assert identity_residual(sol, 49_999) == check


def test_threads_get_their_own_arena(monkeypatch):
    serial = [_answer(mu, lam, n // 4) for mu, lam, n in _ARENA_CALLS]
    # the threads also grow the shared lattice rows from nothing at once
    _fresh_lattice(monkeypatch)
    results = {}

    def work(t):
        calls = _ARENA_CALLS[t % 4:] + _ARENA_CALLS[:t % 4]
        results[t] = [_answer(mu, lam, n // 4) for mu, lam, n in calls]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in range(4):
        assert results[t] == serial[t % 4:] + serial[:t % 4]
    # no shorter row replaced a longer one, and no thread read d(k)^2
    sizes = {name: row.size for name, row in recurrence._LATTICE.items()}
    assert sizes == {"d": 25_001, "d2": 0, "half": 25_000, "root": 25_000}


@pytest.mark.parametrize("fail_at", [0, 2, 5])
def test_memory_error_while_the_arena_grows(monkeypatch, fail_at):
    monkeypatch.setattr(recurrence, "_ARENA", recurrence._Arena())
    want = _answer(1.7, 0.3 + 0.2j, 30_000)
    monkeypatch.setattr(recurrence, "_ARENA", recurrence._Arena())
    _answer(0.6, -1.0 - 0.5j, 2000)
    grown = []
    empty = np.empty

    def failing(shape, dtype=float, *args, **kwargs):
        if np.dtype(dtype) == np.uint8:
            if len(grown) == fail_at:
                raise MemoryError("no memory for a scratch slot")
            grown.append(shape)
        return empty(shape, dtype, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", failing)
        with pytest.raises(MemoryError):
            _answer(1.7, 0.3 + 0.2j, 30_000)
    assert len(grown) == fail_at
    assert _answer(1.7, 0.3 + 0.2j, 30_000) == want


def test_repeated_solve_and_checks_allocate_under_56_bytes_a_row():
    # the arrays the solution keeps take 40 bytes a row (values, scales,
    # weights) and the residuals 8 more; the temporaries come from the
    # arena, which the first call grew
    n = 100_000

    def solve_and_check():
        sol = iterate_forward(1.7, 0.3 + 0.2j, 1.0, n)
        identity_residual(sol, n - 1)
        sol.max_interior_residual()

    solve_and_check()
    tracemalloc.start()
    try:
        solve_and_check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * n


# ---------------------------------------------------------------------------
# the summed identity


check_mus = st.sampled_from([0.0, 1.0, -1.0]) | kernel_mus
check_lams = st.sampled_from([0.0, -3.0, 0.3 + 1e-300j]) | kernel_lams
check_seeds = st.sampled_from([0.0, 5e-324j, 2.2e-311 + 3e-320j]) | kernel_seeds
check_sizes = st.integers(min_value=0, max_value=600) | st.integers(
    min_value=_LANE_MIN_ROWS, max_value=5000
)


def _assert_checks_match_their_references(sol):
    got = sol.interior_residuals()
    assert got.tobytes() == _reference_interior_residuals(sol).tobytes()
    if sol.length >= 2:
        up_to = sol.length - 2
        check = identity_residual(sol, up_to)
        lhs, rhs, log2_scale, magnitudes, _ = _reference_identity(sol, up_to)
        assert (check.rhs, check.log2_scale) == (rhs, log2_scale)
        # each term's factor Im w_n = 2*mu*sqrt(n+1/2)*Im zeta_n is rounded
        # once before it meets |C_n|^2, not after: a few eps per term
        assert abs(check.lhs - lhs) <= 8 * sys.float_info.epsilon * magnitudes


@settings(max_examples=60, deadline=None)
@given(check_mus, check_lams, check_seeds, check_sizes)
# mu = 0: every second row vanishes, and every row's terms at a zero seed
@example(mu=0.0, lam=1.0j, c0=1.0, n=1500)
@example(mu=1.5, lam=0.3 + 0.1j, c0=0.0, n=1500)
def test_forward_checks_match_their_references(mu, lam, c0, n):
    # the checks read the weights the solve kept and scale only the rows
    # whose scales differ: the same interior residuals bit for bit, and
    # the same right-hand side
    try:
        sol = iterate_forward(mu, lam, c0, n)
    except InvalidParametersError:
        assume(False)
    _assert_checks_match_their_references(sol)


@settings(max_examples=40, deadline=None)
@given(check_mus, check_lams, check_sizes.filter(bool))
@example(mu=0.0, lam=1.0j, n=1500)
def test_backward_checks_match_their_references(mu, lam, n):
    assume(abs(mu) > 1.0 or complex(lam).imag != 0.0)
    try:
        sol = minimal_solution_backward(mu, lam, n)
    except NonConvergenceError:
        # C_n vanishes (at mu = 0, where n and m differ in parity)
        assume(False)
    _assert_checks_match_their_references(sol)


# lam parts from signed zeros and the least subnormals to well past the
# rows, so that parts of zeta_k and of their products underflow
weight_lam_parts = st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(complex, weight_lam_parts, weight_lam_parts),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
# zeta_0 = 3j, zeta_1 = 2.83j and zeta_2 = 2.65j with real parts that
# underflow to 0, and -3j, ... with Im lam of the other sign
@example(mu=-2.0, lam=complex(9.5, -5e-324), start=0, size=3)
@example(mu=-2.0, lam=complex(9.5, 5e-324), start=0, size=3)
# zeta_0 = 5e-324 - 0.5j, whose real part times t underflows to -0
@example(mu=-0.25, lam=complex(0.75, 5e-324), start=0, size=1)
def test_diagonal_weights_keep_the_part_by_part_bits(mu, lam, start, size):
    # one complex product, numpy's cast of t to t + 0j, gives the bits of
    # the part-by-part products and sums.  Only a part whose product
    # underflows to zero may take the other sign: numpy rounds
    # t*re - 0*im once, and -2^-1075 rounds to -0 where -0 - (-0) is +0
    assume(lam.imag != 0.0 or lam.real < start + 0.5)
    zs = zeta_array(np.arange(start, start + size), lam)
    t = 2.0 * mu * np.sqrt(np.arange(start, start + size) + 0.5)
    for part in (zs.real, zs.imag):
        assume(not np.any((t * part == 0.0) & (t != 0.0) & (part != 0.0)))
    got = recurrence._weight_rows(mu, lam, start + size, start)
    assert np.array_equal(got.view(np.float64), _reference_weights(mu, zs, start).view(np.float64))


def _frozen_solution_weights(mu, lam, stop):
    """w_k for k < stop as the forward and backward solutions formed them
    before one function formed every weight row."""
    half = np.arange(stop) + 0.5
    z = np.subtract(half, lam)
    np.add(z, 0j, out=z)
    np.sqrt(z, out=z)
    return np.multiply(np.multiply(2.0 * mu, np.sqrt(half)), z)


def _frozen_sweep_weights(mu, lam, stop):
    """w_k for k < stop as the secular sweep formed them, at real lam from
    its real part."""
    half = np.arange(stop) + 0.5
    t = 2.0 * mu * np.sqrt(half)
    return t * np.sqrt(half - (lam.real if lam.imag == 0.0 else lam))


def _frozen_spectral_diagonals(mu, lams, start, stop):
    """The spectral Jacobi rows start <= k < stop, one per lam, as
    jacobi_ops formed them."""
    half = np.arange(stop) + 0.5
    return 2.0 * mu * np.sqrt(half)[start:] * np.sqrt(half[start:] - lams[:, None])


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0.0, -0.0, 5e-324, -1.0, 1.0]) | st.floats(-1e150, 1e150),
    st.floats(-1e3, 0.5, exclude_max=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | st.floats(-1e3, 1e3),
    st.lists(st.floats(-1e3, 0.5, exclude_max=True), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=300),
    # rows as long as a lane range form their temporaries on the arena
    st.integers(min_value=0, max_value=300) | st.integers(_LANE_MIN_ROWS, 3 * _LANE_MIN_ROWS),
)
# Im w_0 = 5e-324 * -0.32 underflows: -0 from t * zeta, +0 from zeta * t
# or from a product written over zeta
@example(mu=5e-324, re=0.0, im=0.5, lams=[0.0], start=0, size=1)
def test_weight_rows_keep_the_bits_of_the_formulas_they_replace(mu, re, im, lams, start, size):
    stop = start + size
    lam, lams = complex(re, im), np.array(lams)
    w = recurrence._weight_rows
    assert _same_bits(w(mu, lam, stop, start), _frozen_solution_weights(mu, lam, stop)[start:])
    assert _same_bits(w(mu, re, stop, start), _frozen_sweep_weights(mu, complex(re, 0.0), stop)[start:])
    if im != 0.0:
        assert _same_bits(w(mu, lam, stop, start), _frozen_sweep_weights(mu, lam, stop)[start:])
    assert _same_bits(w(mu, lams[:, None], stop, start),
                      _frozen_spectral_diagonals(mu, lams, start, stop))


@pytest.mark.parametrize("mu", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("lam", [1.0j, 0.3 + 0.1j])
@pytest.mark.parametrize("size", [100, 1000])
def test_identity_residual_grid(mu, lam, size):
    sol = iterate_forward(mu, lam, 1.0, size)
    check = identity_residual(sol, size - 1)
    assert check.residual <= 1e-9


@pytest.mark.parametrize("mu", [1e10, 1e100, 1e160, 1e200, -1e200, 1e300])
@pytest.mark.parametrize("size", [50, 3 * _LANE_MIN_ROWS])
def test_identity_residual_at_huge_mu(mu, size):
    # each row lies about log2(mu) bits above the one before; a scale taken
    # from row upTo + 1 underflowed every term of the sum (residual 1 at
    # mu = 1e200, 1.9e-4 at 1e160)
    sol = iterate_forward(mu, 0.3 + 0.1j, 1.0, size)
    check = identity_residual(sol, size - 1)
    assert check.residual <= 1e-9
    assert check.lhs != 0.0


def test_identity_trivial_for_real_lam():
    sol = iterate_forward(1.3, 0.2, 1.0, 50)
    check = identity_residual(sol, 49)
    assert check.lhs == 0.0 and check.rhs == 0.0 and check.residual == 0.0


def test_identity_detects_perturbation():
    sol = iterate_forward(1.5, 1.0j, 1.0, 120)
    baseline = identity_residual(sol, 100)
    assert baseline.residual <= 1e-9
    sol.values[100] *= 1.01
    assert identity_residual(sol, 100).residual > 1e-4


@pytest.mark.parametrize(
    "mu, lam, n",
    [(1.5, 0.3 + 0.1j, 100), (0.5, 1.0j, 1000), (2.0, 0.3 + 0.1j, 3 * _LANE_MIN_ROWS),
     (-3.0, -1.0 - 2.0j, 5000), (0.01, 5.0 + 0.5j, 20_000)],
)
def test_identity_bound_catches_a_dropped_term(mu, lam, n):
    # where Im lam is of order 1 the bound the rows allow stays small, so an
    # identity with its largest term dropped from the sum fails it
    sol = iterate_forward(mu, lam, 1.0, n)
    check = identity_residual(sol, n - 1)
    bound = _identity_bound(sol, check)
    assert check.residual <= bound <= 1e-8
    # the terms share one sign, that of lhs
    largest = _reference_identity(sol, n - 1)[4]
    dropped = IdentityCheck(
        lhs=check.lhs - math.copysign(largest, check.lhs), rhs=check.rhs,
        log2_scale=check.log2_scale,
    )
    assert dropped.residual > 1e3 * bound


def test_identity_residual_finite_for_a_subnormal_seed():
    # |C_0| < 2^-1022: the mantissa's scale factor 2^-e alone overflows,
    # which made the seed's scaled value nan
    sol = iterate_forward(0.19, -4.13 + 22.0j, 2.2e-311j, 6021)
    check = identity_residual(sol, 6020)
    assert all(math.isfinite(x) for x in (check.lhs, check.rhs))
    assert check.residual <= 1e-9


def test_identity_index_validation():
    sol = iterate_forward(1.0, 1.0j, 1.0, 10)
    with pytest.raises(InvalidParametersError):
        identity_residual(sol, 10)
    with pytest.raises(InvalidParametersError):
        identity_residual(sol, -1)


# ---------------------------------------------------------------------------
# secular function


def _reference_secular(mu, lam, n):
    """The boundary-row residual read off the whole depth-n minimal solution
    in split form, as secular_function computed it before the ratio sweep."""
    bwd = minimal_solution_backward(mu, lam, n)
    g0, g1 = bwd.values[0], bwd.values[1]
    k0, k1 = float(bwd.log2_scale[0]), float(bwd.log2_scale[1])
    w0 = 2.0 * mu * math.sqrt(0.5) * _zeta(0, lam)
    kref = max(k0, k1)
    t1 = coupling_weight(1) * g1 * 2.0 ** (k1 - kref)
    t0 = w0 * g0 * 2.0 ** (k0 - kref)
    denom = abs(t1) + abs(t0)
    if denom == 0.0:
        return complex(math.inf)
    return complex((t1 + t0) / denom)


def _secular_agreement(n):
    """How far the sweep and the reference may part at depth n.

    Each of the m = n + max(50, n // 10) rows of either rounds its ratio and
    its phase by a few eps.  Near mu = 1 the two solutions barely separate,
    so the rows do not damp earlier errors and they add: 4 eps a row, plus
    64 eps for the boundary row.  The largest share of this bound seen was
    0.22 over 4000 random points with |mu| - 1 from 1e-15 to 1e3, and 0.53
    at mu = 1 + 1e-8, n = 2.
    """
    return (4 * (n + max(50, n // 10)) + 64) * sys.float_info.epsilon


secular_mus = st.builds(
    lambda sign, mag: sign * mag,
    st.sampled_from([1.0, -1.0]),
    st.floats(min_value=1.0, max_value=1e3, exclude_min=True),
)
secular_lams = st.floats(min_value=-40.0, max_value=0.5, exclude_max=True) | nonreal_lams


def _sweep_rows(m):
    """The lattice rows secular_function's sweep from buffer top m reads,
    for the rows k = m, ..., 0: d(k+1)^2, k + 1/2 and 2 sqrt(k + 1/2)."""
    d2, half, root = recurrence._lattice(m + 2, "d2", "half", "root")
    return d2[m + 1:0:-1], half[m::-1], 2.0 * root[m::-1]


def _sweep_pivmin(mu, lam, m):
    """The pivmin the real sweep from buffer top m clamps at: that of the
    public count of the reversed truncation, diagonal w_m, ..., w_1 and
    couplings d(m), ..., d(2), at level 0."""
    _, half, two_sqrt = _sweep_rows(m)
    w = mu * two_sqrt[:m] * np.sqrt(half[:m] - lam)
    (top,), off = tridiag._largest(w[None, :], recurrence._lattice(m + 1, "d")[0][m:1:-1])
    return tridiag._pivmin_rule(top, off, 0.0)


def _exact_secular(mu, lam, n):
    """secular_function's sweep from the same float coefficients d(k)^2
    and w_k, evaluated in 50-digit decimal arithmetic with the same rule
    for a pivot near 0 (at real lam within pivmin of 0 it is -pivmin, at
    nonreal lam an exact 0 is ``_PIVOT_FLOOR``): the value its
    coefficients define, free of the sweep's rounding."""
    m = n + max(50, n // 10)
    d2, half, two_sqrt = _sweep_rows(m)
    lam = complex(lam)
    real = lam.imag == 0.0
    w = (mu * two_sqrt * np.sqrt(half - (lam.real if real else lam))).tolist()
    D = decimal.Decimal

    def pair(z):
        z = complex(z)
        return D(z.real), D(z.imag)

    def times(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def size(a):
        return (a[0] * a[0] + a[1] * a[1]).sqrt()

    with decimal.localcontext() as ctx:
        ctx.prec = 50
        pivmin = D(_sweep_pivmin(mu, lam.real, m)) if real else None
        rho, phase = (D(0), D(0)), (D(1), D(0))
        for k, (dk2, wk) in enumerate(zip(d2[1:], w)):
            wk = pair(wk)
            pivot = wk[0] + rho[0], wk[1] + rho[1]
            if real and abs(pivot[0]) <= pivmin:
                pivot = -pivmin, D(0)
            elif pivot == (0, 0):
                pivot = D(recurrence._PIVOT_FLOOR), D(0)
            r2 = pivot[0] * pivot[0] + pivot[1] * pivot[1]
            rho = -D(dk2) * pivot[0] / r2, D(dk2) * pivot[1] / r2
            if k >= m - n:
                phase = times(phase, (rho[0] / size(rho), rho[1] / size(rho)))
        w0 = pair(w[-1])
        top = times((phase[0], -phase[1]), (rho[0] + w0[0], rho[1] + w0[1]))
        den = size(rho) + size(w0)
        return complex(float(top[0] / den), float(top[1] / den))


@settings(max_examples=200, deadline=None)
@given(secular_mus, secular_lams, st.integers(min_value=1, max_value=1000))
@example(mu=1.00000001, lam=0.3, n=2)
@example(mu=math.nextafter(1.0, 2.0), lam=math.nextafter(0.5, 0.0), n=1000)
# one ulp above mu = 1 the value moves by 5.4e-12 per ulp of mu, and the
# two methods, whose weights round apart by about an ulp, part by 5.3e-13
@example(mu=1.0000000000000002, lam=0.09609536043110012, n=228)
def test_secular_sweep_agrees_with_the_whole_solution(mu, lam, n):
    got = secular_function(mu, lam, n)
    exact = _exact_secular(mu, lam, n)
    bound = _secular_agreement(n)
    # the sweep's own rounding: against the exact value of its coefficients
    assert abs(got - exact) <= bound
    # the reference rounds its weights 2*mu*sqrt(k+1/2)*zeta_k apart from
    # the sweep's by about an ulp, so the two may part by the rounding of
    # each plus what one ulp of mu moves the value
    want = _reference_secular(mu, lam, n)
    ulp_mu = math.nextafter(mu, math.copysign(math.inf, mu))
    sensitivity = abs(secular_function(ulp_mu, lam, n) - got)
    assert abs(got - want) <= bound + sensitivity
    if isinstance(lam, float):
        # the sweep runs in real arithmetic: exactly real, and the sign
        # that brackets eigenvalues is the exact one wherever that is
        # farther from 0 than the sweep may part from it, and the
        # reference's wherever that is farther than the two may part
        assert got.imag == 0.0
        if abs(exact) > bound:
            assert math.copysign(1.0, got.real) == math.copysign(1.0, exact.real)
        if abs(want) > bound + sensitivity:
            assert math.copysign(1.0, got.real) == math.copysign(1.0, want.real)


def _phase_product_secular(mu, lam, n):
    """secular_function at real lam with phase(C_0) taken as the product
    of the unit phases of the ratios rho_{k-1} = -d(k)^2 / p_k, each pivot
    p_k = w_k + rho_k within pivmin of 0 clamped to -pivmin: the reference
    for the sweep's count of the negative pivots, which must give the same
    bits."""
    m = n + max(50, n // 10)
    d2, half, two_sqrt = _sweep_rows(m)
    w = (mu * two_sqrt * np.sqrt(half - lam)).tolist()
    pivmin = _sweep_pivmin(mu, lam, m)
    rho, phase = 0.0, 1.0
    for k, (dk2, wk) in enumerate(zip(d2[1:], w)):
        pivot = wk + rho
        if abs(pivot) <= pivmin:
            pivot = -pivmin
        rho = -dk2 / pivot
        if k >= m - n:
            phase *= rho / abs(rho)
    return phase * (rho + w[-1]) / (abs(rho) + abs(w[-1]))


@settings(max_examples=200, deadline=None)
@given(secular_mus, st.floats(min_value=-40.0, max_value=0.5, exclude_max=True),
       st.integers(min_value=1, max_value=1000))
def test_secular_sign_count_keeps_the_phase_product_bits(mu, lam, n):
    assert secular_function(mu, lam, n) == _phase_product_secular(mu, lam, n)


def _around_sign_changes(f, grid):
    """The floats next to each sign change of f between neighbouring points
    of ``grid``, bisected down to adjacent floats: two below it, two above."""
    lams = []
    values = [f(lam) for lam in grid]
    for lo, hi, flo, fhi in zip(grid, grid[1:], values, values[1:]):
        if flo * fhi >= 0.0:
            continue
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            fmid = f(mid)
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        lams += [math.nextafter(lo, -math.inf), lo, hi, math.nextafter(hi, math.inf)]
    return lams


@pytest.mark.parametrize("n", [1, 50, 256, 1078])
@pytest.mark.parametrize("excess", [1e-5, 1e-3, 0.1, 1.0, 10.0])
def test_real_secular_evaluator_keeps_the_sweep_bits(excess, n):
    # the sweep set up once per (mu, n) gives secular_function's value and
    # the phase-product reference's to the bit, between the sign changes
    # and next to them, where pivots come nearest the pivmin band
    mu = 1.0 + excess
    f = recurrence._real_secular(mu, n)
    grid = np.linspace(-9.5, 0.5 - 1e-9, 41).tolist()
    lams = grid[::8] + _around_sign_changes(f, grid)
    for lam in lams:
        got = f(lam)
        want = secular_function(mu, lam, n)
        assert (got.hex(), want.imag) == (want.real.hex(), 0.0)
        assert got == _phase_product_secular(mu, lam, n)


@pytest.mark.parametrize("mu, lam, error, message", [
    # 2*mu is finite, 2*mu*sqrt(k + 1/2) is not from k = 3 on
    (5e307, 0.3, InvalidParametersError,
     "mu = 5e+307 makes a diagonal weight of w_0..w_60 overflow at lam = 0.3"),
    (-5e307, -2.0, InvalidParametersError,
     "mu = -5e+307 makes a diagonal weight of w_0..w_60 overflow at lam = -2.0"),
    (2.0, 0.5, BranchCutError, "real spectral parameter 0.5 lies on the branch cut [0.5, inf)"),
    (2.0, math.nan, InvalidParametersError, "spectral parameter must be finite"),
    (2.0, -math.inf, InvalidParametersError, "spectral parameter must be finite"),
], ids=["weight", "negative-mu-weight", "branch-cut", "nan", "minus-inf"])
def test_real_secular_evaluator_raises_as_the_sweep(mu, lam, error, message):
    # the factor 2*mu*sqrt(k + 1/2) past the float range is formed at the
    # build without a warning; each evaluation raises what the sweep raises
    f = recurrence._real_secular(mu, 10)
    for evaluate in (f, lambda lam: secular_function(mu, lam, 10)):
        with pytest.raises(error) as info:
            evaluate(lam)
        assert str(info.value) == message


@pytest.mark.parametrize("lam, shown", [(0.0, "0j"), (0.3, "(0.3+0j)"), (complex(0.3, -0.0), "(0.3-0j)")])
def test_real_secular_evaluator_outside_the_float_range(monkeypatch, lam, shown):
    # a nan coupling d(11)^2 makes every later pivot nan: the evaluator and
    # the sweep raise one message, lam shown as the complex it was given as
    poisoned = np.array(recurrence._lattice(62, "d2")[0])
    poisoned[11] = math.nan
    monkeypatch.setitem(recurrence._LATTICE, "d2", poisoned)
    message = f"the backward ratio sweep at mu=2.0, lam={shown} left the floating-point range"
    for evaluate in (recurrence._real_secular(2.0, 10), lambda lam: secular_function(2.0, lam, 10)):
        with pytest.raises(NonConvergenceError) as info:
            evaluate(lam)
        assert str(info.value) == message


# at mu = 1.01 the pivot p_1 of the depth-300 sweep crosses 0 near
# lam = 0.2867: bisecting lam on the count of the reversed rows 350, ..., 1
# down to adjacent floats ends here, where p_1 = 3.0e-13 lies within
# pivmin = 3.1e-13 of 0, so it is clamped and counted
_BAND_CASE = (1.01, 0.28672665155981975, 300)


@settings(max_examples=200, deadline=None)
@given(secular_mus, st.floats(min_value=-40.0, max_value=0.5, exclude_max=True),
       st.integers(min_value=1, max_value=1000))
@example(*_BAND_CASE)
def test_secular_real_sweep_is_the_reversed_truncation_count(mu, lam, n):
    # the real sweep's pivots are those of the Sturm count of the reversed
    # truncation, diagonal w_m, ..., w_0 and couplings d(m), ..., d(1), at
    # level 0: with c the negative ones among p_n, ..., p_1, from two public
    # counts, the phase is (-1)^(n - c), and the pivot p_0 = rho_0 + w_0 of
    # the boundary row carries the rest of the sign
    m = n + max(50, n // 10)
    _, half, two_sqrt = _sweep_rows(m)
    w = mu * two_sqrt * np.sqrt(half - lam)
    couplings = recurrence._lattice(m + 1, "d")[0][m:0:-1]

    def below(rows):
        # the negative pivots among the first ``rows`` of the reversed rows
        return int(counts_for_diagonals(w[None, :rows], couplings[:rows - 1])[0])

    c = below(m) - below(m - n)
    p0_negative = below(m + 1) - below(m)
    value = secular_function(mu, lam, n)
    pivmin = _sweep_pivmin(mu, lam, m)
    # the value is p_0 / (|rho_0| + |w_0|), so p_0 lies outside the band here
    if abs(value.real) * abs(w[-1]) > pivmin:
        assert math.copysign(1.0, value.real) == (-1.0) ** (n - c + p0_negative)


def test_secular_real_sweep_clamps_a_pivot_in_the_band():
    # the pinned case: p_1 is positive, within pivmin of 0, and counted
    mu, lam, n = _BAND_CASE
    m = n + max(50, n // 10)
    d2, half, two_sqrt = _sweep_rows(m)
    q = math.inf
    for wk, dk2 in zip((mu * two_sqrt[:m] * np.sqrt(half[:m] - lam)).tolist(), d2):
        q = wk - dk2 / q
    assert 0.0 < q <= _sweep_pivmin(mu, lam, m)
    value = secular_function(*_BAND_CASE)
    assert value == _phase_product_secular(*_BAND_CASE) == -1.0
    assert recurrence._real_secular(mu, n)(lam) == value
    # the row-0 term -d(1)^2 / p_1 dwarfs w_0 either way, so an unclamped p_1
    # would give the same sign; only the last bits move
    assert abs(_exact_secular(*_BAND_CASE) - value) <= _secular_agreement(n)


@pytest.mark.parametrize("lam", [1.0j, 0.3 - 2.0j])
@pytest.mark.parametrize("n", [1, 3, 101, 255])
def test_secular_sweep_passes_a_zero_pivot(lam, n):
    # at mu = 0 every w_k vanishes: the first pivot w_m + rho_m is exactly
    # 0, and so is every second one after it.  The minimal solution then
    # vanishes at every second index, and for odd n (so odd m) the residual
    # is phase(C_1) with C_n = 1, where C_{k-2} / C_k = -d(k) / d(k-1)
    got = secular_function(0.0, lam, n)
    assert got == (-1) ** ((n - 1) // 2)
    assert got == _reference_secular(0.0, lam, n)
    # the limit of small mu
    assert abs(secular_function(1e-12, lam, n) - got) <= 1e-12


# the one message of a weight that may overflow, in every layer
_WEIGHT_OVERFLOW = r"mu = \S+ makes a diagonal weight of w_\d+\.\.w_\d+ overflow at lam = "


def test_secular_sweep_outside_the_float_range_raises():
    # at mu = 1e-310 the first ratio, -d(m)^2 / w_m, overflows
    with pytest.raises(NonConvergenceError):
        secular_function(1e-310, 1.0j, 10)


def test_secular_sweep_real_lam_outside_the_float_range_raises():
    # at mu = 1e308 the upper w_k overflow to inf, where the real sweep's
    # ratios -d(k)^2 / (w_k + rho_k) would be -0.0, which has no sign to
    # count: the largest weight is checked first, and no warning is given
    with pytest.raises(InvalidParametersError, match=_WEIGHT_OVERFLOW):
        secular_function(1e308, 0.3, 10)


@pytest.mark.parametrize("row", ["first", "top-call", "bottom-call", "boundary"])
@pytest.mark.parametrize("n", [1, 4])
def test_secular_real_sweep_with_a_nan_row_raises(monkeypatch, row, n):
    # a nan coupling in the lattice rows makes every pivot after it nan,
    # which the count neither counts nor clamps; the final finiteness check
    # still raises.  The couplings d(k+1)^2 run k = m, ..., 0: the first row,
    # the last row of the first call (rows m, ..., n+1), the first of the
    # second (rows n, ..., 1), and d(1)^2 of the boundary row
    m = n + 50
    poisoned = np.array(recurrence._lattice(m + 2, "d2")[0])
    k = {"first": m, "top-call": n + 1, "bottom-call": n, "boundary": 0}[row]
    poisoned[k + 1] = math.nan
    monkeypatch.setitem(recurrence._LATTICE, "d2", poisoned)
    with pytest.raises(NonConvergenceError, match="floating-point range"):
        secular_function(2.0, 0.0, n)


@pytest.mark.parametrize("solve, args, error", [
    (minimal_solution_backward, (1e308, 0.3, 100), InvalidParametersError),
    (minimal_solution_backward, (1e308, 0.3, 3000), InvalidParametersError),
    # w_m is finite, but the weights near k = m / 2 overflow
    (minimal_solution_backward, (1e306, 1499 + 1j, 1500), InvalidParametersError),
    (iterate_forward, (1e306, 1499 + 1j, 1.0, 1500), InvalidParametersError),
    (secular_function, (1e308, 0.3, 256), InvalidParametersError),
    (secular_function, (1e308, 0.3 + 1j, 256), InvalidParametersError),
    (secular_function, (1e306, 250 + 1j, 256), InvalidParametersError),
    (jacobi_ops.build, (jacobi_ops.SpectralFamily(lam=-7.5e246, mu=5.85e268), 2),
     InvalidParametersError),
    (recurrence._weight_rows, (1e300, np.array([[0.3], [-1e300]]), 4), InvalidParametersError),
    (jacobi_ops.spectral_counts, (8.58e226, [-7.58e268, 0.3]), InvalidParametersError),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_weight_that_overflows_raises_without_a_warning(solve, args, error):
    # numpy used to warn as it formed the weights, before the error; the
    # solutions and the sweep raised NonConvergenceError, and the Jacobi
    # rows another message
    with pytest.raises(error, match=_WEIGHT_OVERFLOW):
        solve(*args)


# secular_function's bits at a few points, captured before the h-spectrum
# polish and cross-check changed around it: perfbench/checker.py judges
# every eigenvalue by its sign at depth 256
_SECULAR_PINS = [
    ((1.5, 0.3, 64), "0x1.26421f1bdeab6p-1", "0x0.0p+0"),
    ((math.sqrt(2.0), 0.47541226430548, 256), "0x1.e637a90ffaa5ap-35", "0x0.0p+0"),
    ((1.001, 0.4999, 256), "0x1.e48b4bc01b632p-1", "0x0.0p+0"),
    ((1.001, 0.495, 256), "0x1.43051e41a73b4p-1", "0x0.0p+0"),
    ((1.0012, -3.25, 256), "0x1.c0229eafb28a5p-1", "0x0.0p+0"),
    ((1.5, 0.3 + 0.1j, 100), "0x1.ebd1e921622dbp-2", "-0x1.78ce49697d62bp-2"),
    ((0.8, -1.0 - 2.0j, 300), "-0x1.01395290063f3p-1", "0x1.4036130b3e995p-1"),
    ((11.0, -2.5, 40), "0x1.ff6398af60011p-1", "0x0.0p+0"),
]


@pytest.mark.parametrize("point, real, imag", _SECULAR_PINS)
def test_secular_function_bits_are_pinned(point, real, imag):
    value = secular_function(*point)
    assert (value.real.hex(), value.imag.hex()) == (real, imag)


def test_secular_real_for_real_lam():
    val = secular_function(1.5, 0.3, 120)
    assert val.imag == 0.0


def test_secular_zero_locates_known_eigenvalue():
    # at mu = sqrt(2) there is exactly one spectral point below 1/2
    mu = math.sqrt(2.0)
    lo, hi = 0.46, 0.49
    flo = secular_function(mu, lo, 200).real
    fhi = secular_function(mu, hi, 200).real
    assert flo * fhi < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = secular_function(mu, mid, 200).real
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(0.47541226430548, abs=1e-9)
    assert secular_defect(mu, root, 200) < 1e-10


def test_secular_root_stable_under_truncation():
    mu = math.sqrt(2.0)

    def bisect(n):
        lo, hi = 0.46, 0.49
        flo = secular_function(mu, lo, n).real
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = secular_function(mu, mid, n).real
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    assert bisect(100) == pytest.approx(bisect(220), abs=1e-10)


def test_secular_defect_away_from_spectrum():
    assert secular_defect(math.sqrt(2.0), 0.2, 150) > 1e-3
    assert secular_defect(1.5, 1.0j, 150) > 1e-3
    with pytest.raises(InvalidParametersError):
        secular_function(1.5, 0.3, 0)
