"""Three-term recurrence machinery: branch-correct roots, split-scale
solutions, closed-form asymptotics, the summed identity, and the secular
defect used for eigenvalue confirmation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speclab import (
    BranchCutError,
    InvalidParametersError,
    NoDominanceSplitError,
    birkhoff_adams_eval,
    coupling_weight,
    coupling_weights,
    identity_residual,
    iterate_forward,
    minimal_solution_backward,
    secular_defect,
    secular_function,
    zeta,
    zeta_array,
)
from speclab.recurrence import _steps

nonreal_lams = st.builds(
    complex,
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False).filter(
        lambda x: abs(x) > 1e-12
    ),
)


# ---------------------------------------------------------------------------
# branch-correct square root


def test_zeta_real_below_cut():
    assert zeta(2, -1.7) == pytest.approx(2.04939015319192, rel=1e-14)
    assert zeta(2, -1.7).imag == 0.0
    assert zeta(0, 0.49999) == pytest.approx(math.sqrt(1e-5), rel=1e-10)


def test_zeta_complex_frozen():
    z = zeta(0, 0.3 + 0.1j)
    assert z == pytest.approx(0.46022103262996306 - 0.10864344837582009j, rel=1e-14)


def test_zeta_cut_rejected():
    with pytest.raises(BranchCutError):
        zeta(2, 2.5)  # exactly n + 1/2
    with pytest.raises(BranchCutError):
        zeta(0, 3.0)
    zeta(3, 3.0)  # the cut starts at n + 1/2, so this one is fine
    with pytest.raises(InvalidParametersError):
        zeta(-1, 0.0)
    with pytest.raises(InvalidParametersError):
        zeta(0, complex(math.nan, 0.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=50), nonreal_lams)
def test_zeta_branch_conditions(n, lam):
    z = zeta(n, lam)
    assert z.real > 0.0
    assert z.imag * lam.imag < 0.0
    w = (n + 0.5) - lam
    assert cmath.isclose(z * z, w, rel_tol=1e-12, abs_tol=1e-12)


def test_zeta_array_matches_scalar():
    ns = np.arange(0, 30)
    for lam in (0.3, -2.0, 0.2 + 0.1j, 1.0j, -0.5 - 3.0j):
        got = zeta_array(ns, lam)
        want = np.array([zeta(int(n), lam) for n in ns])
        assert np.allclose(got, want, rtol=1e-14)
    assert zeta_array(np.array([]), 0.3).size == 0
    with pytest.raises(BranchCutError):
        zeta_array(np.arange(3), 0.7)


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


# ---------------------------------------------------------------------------
# forward iteration


def test_forward_seed_row():
    mu, lam, c0 = 1.3, 0.2, 2.0 - 1.0j
    sol = iterate_forward(mu, lam, c0, 5)
    want_c1 = -(2.0 * mu * math.sqrt(0.5) * zeta(0, lam) * c0) / coupling_weight(1)
    assert sol.value(0) == c0
    assert sol.value(1) == pytest.approx(want_c1, rel=1e-15)
    assert sol.length == 6
    assert sol.direction == "forward"


def test_forward_rows_satisfy_recurrence():
    for mu, lam in [(0.4, 0.3), (1.0, -2.0), (2.0, 0.2 + 0.1j), (-1.5, 1.0j)]:
        sol = iterate_forward(mu, lam, 1.0, 400)
        assert sol.max_interior_residual() < 1e-13


def test_forward_split_representation_never_overflows():
    # at mu = 2 the dominant root is 2 + sqrt(3), about 1.9 bits per step,
    # so C_700 is far beyond float range; the split form keeps working
    sol = iterate_forward(2.0, 0.3, 1.0, 700)
    assert sol.max_interior_residual() < 1e-13
    assert sol.log2_magnitude(700) > 1100.0
    assert math.isinf(abs(sol.value(700)))  # collapsing the split overflows
    # C_500 sits near 2^945, still representable: collapse must match the split
    assert math.log2(abs(sol.value(500))) == pytest.approx(
        sol.log2_magnitude(500), abs=1e-9
    )
    mags = np.abs(sol.values[sol.values != 0.0])
    assert float(np.max(mags)) <= 2.0**513
    assert float(np.min(mags)) >= 2.0**-513


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
    values[1], scales[1] = c_curr, cur
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
    out, log2 = _steps(w, d_old, d_new, 0.75 + 0j, 1.0 + 0j, 0.0)
    a, b, scale = 0.75 + 0j, 1.0 + 0j, 0.0
    want, scales = [], []
    for wi, di, dn in rows:
        a, b = b, -(wi * b + di * a) / dn
        b, a, scale = _reference_rescale(b, a, scale)
        want.append(b)
        scales.append(scale)
    assert out == want
    assert log2.tolist() == scales


# ---------------------------------------------------------------------------
# the summed identity


@pytest.mark.parametrize("mu", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("lam", [1.0j, 0.3 + 0.1j])
@pytest.mark.parametrize("size", [100, 1000])
def test_identity_residual_grid(mu, lam, size):
    sol = iterate_forward(mu, lam, 1.0, size)
    check = identity_residual(sol, size - 1)
    assert check.residual <= 1e-9


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


def test_identity_index_validation():
    sol = iterate_forward(1.0, 1.0j, 1.0, 10)
    with pytest.raises(InvalidParametersError):
        identity_residual(sol, 10)
    with pytest.raises(InvalidParametersError):
        identity_residual(sol, -1)


# ---------------------------------------------------------------------------
# secular function


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
