"""Three-term recurrence machinery on the oscillator mode lattice.

Solutions C = (C_0, C_1, ...) of

    d(n+1)*C_{n+1} + 2*mu*sqrt(n+1/2)*zeta_n(lam)*C_n + d(n)*C_{n-1} = 0,
    d(n) = sqrt(n) * (n^2 - 1/4)^(1/4),   d(0) = 0,

encode square-integrable eigenfunction candidates of the underlying
operator; the n = 0 row acts as the boundary condition for forward
iteration.  Here zeta_n(lam) = sqrt(n + 1/2 - lam) on the branch with
Re zeta > 0 and Im zeta * Im lam < 0, cut along [n + 1/2, inf): the
principal square root, computed in one place, :func:`zeta_array`.

An eigenvalue is a lam at which the minimal (l^2) solution also
satisfies the n = 0 row.  That test needs only the ratio C_1/C_0, a
backward continued fraction (Miller's algorithm; Gautschi, SIAM Review
9, 1967): :func:`secular_function` sweeps the ratios
rho_k = d(k+1)*C_{k+1}/C_k down from rho_m = 0 at a buffer top m above
the depth, rho_{k-1} = -d(k)^2 / (w_k + rho_k), one scalar step per row,
and keeps no solution.  For real lam the sweep is real arithmetic, so
the residual's sign is exact.

Solutions can grow geometrically, so every stored sequence is in split
form: a complex mantissa per index plus a per-index log2 scale recorded
by the running rescaling accumulator (the true value is
``values[n] * 2**log2_scale[n]``).  Ratios, residuals and defects are
computed scale-free and never overflow.

Forward and backward iteration run one kernel.  Row k gives
C_new = -(w_k*C_k + d_old*C_old) / d_new, with
w_k = 2*mu*sqrt(k+1/2)*zeta_k(lam), C_old the other neighbour of C_k,
and d_new, d_old the weights of C_new and C_old in row k.  The rescale
rule: after each row, when the larger magnitude of the working pair
(C_new, C_k) leaves [2^-512, 2^512] and is not zero, both are multiplied
by 2^-ceil(log2 of it), which brings the larger to at most 1, and that
exponent is added to the running log2 scale.  The older value of the
pair is then always at most 2^512, so a rescale can only happen at a row
where the newest |C| leaves the range: the kernel tests only those rows,
and writes a new scale only there.

Ranges of at least ``_LANE_MIN_ROWS`` steps (above the measured
crossover) run as lanes instead of one row at a time: B lanes of
L = isqrt(steps / 2) rows, B about 2L, after the row loop has taken the
fewer than L steps that do not fill a lane.  All lanes build their 2x2
transfer products side by side (L numpy steps), the state is carried
across the lanes (B scalar steps), and every lane replays its rows side
by side from its start state (L numpy steps); both of these run one
replay loop (:func:`_replay`).  Lanes rescale with a fixed period: row k
can grow the pair maximum by at most (|w_k| + d_old)/d_new and shrink it
by at most (d_new + |w_k|)/d_old, so with b the log2 of the largest of
these factors over all rows and lanes, every lane rescales to [1/2, 1)
every floor(500 / b) rows, and the pair maximum stays in
[2^-512, 2^512] as in the row loop.  Rescales by powers of two are
exact, so where they fall moves no true value.  Lane values agree with
the row loop to rounding, not bit for bit.  A row at a lane start reads
the last values the lane before replayed, and it must hold to
``_LANE_AGREEMENT`` of its terms.  Where one misses (near |mu| = 1,
where the two solutions barely separate and the carried starts lose
digits), the gaps between each lane's replayed end and the next start
are carried across the lanes once more through the transfer products,
added to the starts, and the lanes replay once more.  The row loop runs
instead where the joins miss again, or where one row alone could pass
the bound.

The lam-free rows d(k) and sqrt(k + 1/2) are built once per process and
grown to the largest depth asked for (:func:`_lattice_rows`).  A
solution keeps the weights w_n and d(n) its rows were built from, so the
residual checks read them instead of building them again.  The row-sized
temporaries of a forward solve, the lanes and both checks live in a
per-thread scratch arena (:func:`_scratch`) of six buffers, 65 bytes per
row of the largest call, kept and reused: the arrays a caller keeps
(values, scales, weights, the residuals) are always fresh.

Large-n behaviour follows the standard second-order difference-equation
asymptotics for x(n+1) + x(n-1) + (a0 + a1/n) x(n) + ... = 0: with
roots lam+- of t^2 + a0 t + b0 and exponents d+- the two basis
solutions behave like lam+-^n * n^(d+-); the degenerate root case
switches to exp(+-delta*sqrt(n)) * n^kappa.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchCutError,
    InvalidParametersError,
    NoDominanceSplitError,
    NonConvergenceError,
)

__all__ = [
    "zeta",
    "zeta_array",
    "coupling_weight",
    "coupling_weights",
    "RecurrenceSolution",
    "iterate_forward",
    "minimal_solution_backward",
    "BirkhoffAdamsParams",
    "birkhoff_adams_eval",
    "IdentityCheck",
    "identity_residual",
    "secular_function",
    "secular_defect",
]

_RESCALE_HI = 2.0**512
_RESCALE_LO = 2.0**-512
# at or below this magnitude 2^-ceil(log2 of it) overflows
_RESCALE_FLOOR = 2.0**-1024
# step ranges this long run as lanes (:func:`_lane_steps`), shorter ones
# row by row; lanes were the faster from about 800 steps (2-vCPU x86), and
# 1024 leaves the ranges near that crossover on the bit-exact row loop
_LANE_MIN_ROWS = 1024
# lanes rescale every floor(500 / b) rows, so that the pair maximum cannot
# grow or shrink by more than 2^500 between rescales (log2)
_LANE_RESCALE_BITS = 500.0
# the rows where one lane's replayed values meet the next lane's carried
# start hold to this share of their terms, or the row loop runs instead
_LANE_AGREEMENT = 2.0**-44
# an exactly zero pivot of the secular sweep is replaced by this: the
# ratio after it, about -d(k)^2 * 2^600, and the one after that, about
# 2^-600, stay finite and nonzero for every d(k) below 2^200
_PIVOT_FLOOR = 2.0**-600


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not math.isfinite(mu):
        raise InvalidParametersError("mu must be finite")
    return mu


def _validate_lam(lam: complex, n_min: int = 0) -> complex:
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise InvalidParametersError("spectral parameter must be finite")
    if lam.imag == 0.0 and lam.real >= n_min + 0.5:
        raise BranchCutError(
            f"real spectral parameter {lam.real} lies on the branch cut "
            f"[{n_min + 0.5}, inf)"
        )
    return lam


def _principal_roots(half: np.ndarray, lam: complex, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(half - lam) on the principal branch, into ``out`` if given: the
    one formula of :func:`zeta_array`, for half = n + 1/2."""
    z = np.subtract(half, lam, out=out)
    np.add(z, 0j, out=z)
    return np.sqrt(z, out=z)


def zeta(n: int, lam: complex) -> complex:
    """Branch-correct sqrt(n + 1/2 - lam), the same complex as
    :func:`zeta_array` gives for n."""
    return complex(zeta_array(np.array([n]), lam)[0])


def zeta_array(ns: np.ndarray, lam: complex) -> np.ndarray:
    """zeta_n(lam) = sqrt(n + 1/2 - lam) for every index n of ``ns``.

    The principal square root (C99 ``csqrt``) is the branch: Re zeta >= +0,
    and for nonreal lam Im zeta carries the sign of -Im lam, however tiny
    |Im lam| is.  The exact Re zeta is positive off the cut, but its float
    underflows to 0 where Re lam > n + 1/2 and |Im lam| lies near the
    bottom of the float range.  Real lam >= n + 1/2 sits on the cut and
    is rejected.
    """
    ns = np.asarray(ns)
    if ns.size == 0:
        return np.zeros(0, dtype=complex)
    if np.any(ns < 0):
        raise InvalidParametersError("mode indices must be nonnegative")
    lam = _validate_lam(lam, n_min=int(np.min(ns)))
    return _principal_roots(ns + 0.5, lam)


def coupling_weight(n: int) -> float:
    """Offdiagonal weight d(n) = sqrt(n) * (n^2 - 1/4)^(1/4) for n >= 1,
    the same float as :func:`coupling_weights` gives for n."""
    if n < 1:
        raise InvalidParametersError("coupling weight defined for n >= 1")
    return float(coupling_weights(np.array([n]))[0])


def coupling_weights(ns: np.ndarray) -> np.ndarray:
    ns = np.asarray(ns, dtype=np.float64)
    if np.any(ns < 1):
        raise InvalidParametersError("coupling weights defined for n >= 1")
    return np.sqrt(ns) * (ns * ns - 0.25) ** 0.25


@dataclass(frozen=True, eq=False)
class RecurrenceSolution:
    """A recurrence solution in split mantissa / log2-scale representation.

    The coefficients the solution was built from, kept for the residual
    checks: ``couplings[n]`` = d(n) (d(0) = 0) for every index n of
    ``values``, and ``weights[n]`` = w_n = 2*mu*sqrt(n+1/2)*zeta_n(lam) for
    every index below the top one, n < length - 1, the rows both checks
    read.
    """

    mu: float
    lam: complex
    values: np.ndarray = field(repr=False)
    log2_scale: np.ndarray = field(repr=False)
    direction: str
    normalization: str
    weights: np.ndarray = field(repr=False)
    couplings: np.ndarray = field(repr=False)

    @property
    def length(self) -> int:
        return int(self.values.size)

    def value(self, n: int) -> complex:
        """True value C_n, each part rounded once; a part that overflows
        is inf of its sign, and a zero part keeps its signed zero."""
        v, e = complex(self.values[n]), int(self.log2_scale[n])
        return complex(_ldexp_or_inf(v.real, e), _ldexp_or_inf(v.imag, e))

    def log2_magnitude(self, n: int) -> float:
        mag = abs(self.values[n])
        if mag == 0.0:
            return -math.inf
        return math.log2(mag) + float(self.log2_scale[n])

    def ratio(self, n: int) -> complex:
        """Scale-free consecutive ratio C_{n+1} / C_n."""
        if self.values[n] == 0.0:
            raise ZeroDivisionError(f"C_{n} vanishes")
        shift = float(self.log2_scale[n + 1] - self.log2_scale[n])
        return (self.values[n + 1] / self.values[n]) * 2.0**shift

    def interior_residuals(self) -> np.ndarray:
        """Relative residual of every interior row, computed scale-free.

        Row n is rescaled by the largest neighbouring magnitude before
        the defect is formed, so geometric growth does not contaminate
        the check.
        """
        n_top = self.length - 1
        if n_top < 2:
            return np.zeros(0)
        rows = n_top - 1
        c, k, d, w = self.values, self.log2_scale, self.couplings, self.weights
        # the three scales of a row differ only beside a rescale or a lane
        # start; elsewhere every factor 2^(k - kmax) is 1, which moves no
        # term, so only those rows are formed again
        differ = np.not_equal(k[:-2], k[1:-1], out=_scratch(5, bool, rows))
        differ |= np.not_equal(k[1:-1], k[2:], out=_scratch(4, bool, rows))
        moved = np.flatnonzero(differ)
        t_up = np.multiply(d[2:], c[2:], out=_scratch(0, complex, rows))
        t_mid = np.multiply(w[1:n_top], c[1:-1], out=_scratch(1, complex, rows))
        t_lo = np.multiply(d[1:-1], c[:-2], out=_scratch(2, complex, rows))
        k_lo, k_mid, k_up = k[moved], k[moved + 1], k[moved + 2]
        kmax = np.maximum(np.maximum(k_lo, k_mid), k_up)
        t_up[moved] = d[moved + 2] * (c[moved + 2] * np.exp2(k_up - kmax))
        t_mid[moved] = w[moved + 1] * (c[moved + 1] * np.exp2(k_mid - kmax))
        t_lo[moved] = d[moved + 1] * (c[moved] * np.exp2(k_lo - kmax))
        den = np.abs(t_up, out=_scratch(3, float, rows))
        part = _scratch(4, float, rows)
        den += np.abs(t_mid, out=part)
        den += np.abs(t_lo, out=part)
        t_up += t_mid
        t_up += t_lo
        num = np.abs(t_up, out=part)
        # a row of zero terms holds; a row of nan or inf terms reads nan
        holds = np.not_equal(den, 0.0, out=_scratch(5, bool, rows))
        return np.divide(num, den, out=np.zeros(rows), where=holds)

    def max_interior_residual(self) -> float:
        res = self.interior_residuals()
        return float(np.max(res)) if res.size else 0.0


def _ldexp_or_inf(x: float, e: int) -> float:
    """x * 2^e rounded once, or inf of the sign of x where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _rescale_pair(a: complex, b: complex, scale: float) -> tuple[complex, complex, float]:
    """(a, b) and ``scale`` after the rescale rule; raises ``OverflowError``
    where the pair holds an inf or nan, which only a row that overflowed
    leaves."""
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise OverflowError("the recurrence left the floating-point range")
    mag = max(abs(a), abs(b))
    if mag == 0.0:
        return a, b, scale
    if mag <= _RESCALE_FLOOR:
        # lift the (subnormal) pair by an exact power of two first
        return _rescale_pair(a * 2.0**64, b * 2.0**64, scale - 64.0)
    if mag > _RESCALE_HI or mag < _RESCALE_LO:
        shift = float(math.ceil(math.log2(mag)))
        factor = 2.0**-shift
        return a * factor, b * factor, scale + shift
    return a, b, scale


def _weights_overflow(mu: float, lam: complex, top: int) -> bool:
    """Whether a diagonal weight w_k, k <= top, may overflow, from scalars:
    checked before numpy forms the weights, which would warn.

    |w_k| = 2|mu| sqrt(k + 1/2) |k + 1/2 - lam|^(1/2), and the last factor
    is at most (top + 1/2 + |Re lam|)^(1/2) + |Im lam|^(1/2).  The bound
    must stay below 2^1023, so that no rounding of a weight passes it.
    """
    zeta_bound = math.sqrt(top + 0.5 + abs(lam.real)) + math.sqrt(abs(lam.imag))
    return not 2.0 * abs(mu) * math.sqrt(top + 0.5) * zeta_bound < 2.0**1023


# d(k), with d(0) = 0, and sqrt(k + 1/2) for k below the largest size
# asked for so far (:func:`_lattice_rows`); they do not depend on mu or
# lam, so every solution a process builds reads the same rows
_LATTICE = [np.zeros(0), np.zeros(0)]


def _lattice_rows(size: int) -> tuple[np.ndarray, np.ndarray]:
    """d(k), with d(0) = 0, and sqrt(k + 1/2) for k < size, as read-only
    views of arrays kept across calls: a larger size builds them again at
    that size, a smaller one reads a prefix."""
    d, root = _LATTICE
    if d.size < size:
        d = np.concatenate(([0.0], coupling_weights(np.arange(1, size))))
        root = np.sqrt(np.arange(size) + 0.5)
        d.flags.writeable = root.flags.writeable = False
        # another thread may have kept larger rows meanwhile
        if _LATTICE[0].size < size:
            _LATTICE[:] = d, root
    return d[:size], root[:size]


class _Arena(threading.local):
    """Six byte buffers per thread, each grown to the most any call asked
    of it and kept.  Slots 0-2 are sized for complex rows, 3 and 4 for
    float rows and 5 for a mask; a slot is free again once the array
    carved from it is dead, so phases of one call share them."""

    def __init__(self) -> None:
        self.slots = [np.empty(0, dtype=np.uint8)] * 6


_ARENA = _Arena()


def _scratch(slot: int, dtype, *shape: int) -> np.ndarray:
    """An uninitialised C-ordered array on this thread's scratch ``slot``,
    valid until the next request for that slot.  A large array freed
    after each call goes back to the OS and costs a page fault per page
    when it is mapped again; a slot is mapped once, at its largest size.
    No array a caller keeps may be carved from a slot."""
    dtype = np.dtype(dtype)
    need = math.prod(shape) * dtype.itemsize
    buf = _ARENA.slots[slot]
    if buf.size < need:
        buf = np.empty(need, dtype=np.uint8)
        _ARENA.slots[slot] = buf
    return buf[:need].view(dtype).reshape(shape)


def _diagonal_weights(mu: float, zs: np.ndarray) -> np.ndarray:
    """w_j = 2*mu*sqrt(j + 1/2)*zeta_j(lam) for j < len(zs), from zs[j] = zeta_j.

    numpy casts the float t = 2*mu*sqrt(j + 1/2) to t + 0j, as Python
    does, so each w_j equals the scalar (t + 0j) * zeta_j bit for bit,
    except that a part whose product underflows to zero may take the other
    sign: numpy rounds t*Re zeta_j - 0*Im zeta_j once.
    """
    # zs may lie on scratch slot 0, never on 3
    t = np.multiply(2.0 * mu, _lattice_rows(zs.size)[1], out=_scratch(3, float, zs.size))
    return np.multiply(t, zs)


def _steps(
    w: Sequence[complex],
    d_old: Sequence[float],
    d_new: Sequence[float],
    a: complex,
    b: complex,
    scale: float,
    values: np.ndarray,
    scales: np.ndarray,
) -> None:
    """Step (a, b) = (b, -(w[i]*b + d_old[i]*a) / d_new[i]) for each i.

    Writes the mantissa b and the running log2 scale after step i to
    ``values[i]`` and ``scales[i]``, contiguous arrays of len(w).  The
    caller passes |a|, |b| <= 2^512.  Fewer than ``_LANE_MIN_ROWS`` steps
    run in the row loop (:func:`_row_steps`); more run as lanes
    (:func:`_lane_steps`) of isqrt(len(w) // 2) rows each, after the row
    loop has taken the steps that do not fill a lane.
    """
    w, d_old, d_new = np.asarray(w), np.asarray(d_old), np.asarray(d_new)
    if w.size >= _LANE_MIN_ROWS:
        # a lane row costs a few numpy calls, a lane one carry step: twice
        # as many lanes as rows was about 8% faster than as many at 1e5 steps
        rows = math.isqrt(w.size // 2)
        head = w.size % rows
        values[:head], scales[:head], *state = _row_steps(
            w[:head], d_old[:head], d_new[:head], a, b, scale
        )
        if _lane_steps(w[head:], d_old[head:], d_new[head:], *state, rows,
                       values[head:], scales[head:]):
            return
    values[:], scales[:] = _row_steps(w, d_old, d_new, a, b, scale)[:2]


def _row_steps(
    w: np.ndarray,
    d_old: np.ndarray,
    d_new: np.ndarray,
    a: complex,
    b: complex,
    scale: float,
) -> tuple[list[complex], np.ndarray, complex, complex, float]:
    """:func:`_steps` one row at a time; also returns the final (a, b, scale).

    Each step keeps |a|, |b| <= 2^512 (b is left in range or rescaled to
    at most 1), so the pair can need a rescale only where the new |b|
    leaves [2^-512, 2^512]; the scale is recorded only at those steps.
    """
    out: list[complex] = []
    append = out.append
    at: list[int] = []
    scales = [scale]
    lo, hi = _RESCALE_LO, _RESCALE_HI
    for wi, di, dn in zip(w.tolist(), d_old.tolist(), d_new.tolist()):
        a, b = b, -(wi * b + di * a) / dn
        if not lo <= abs(b) <= hi:
            b, a, scale = _rescale_pair(b, a, scale)
            at.append(len(out))
            scales.append(scale)
        append(b)
    return out, np.repeat(scales, np.diff([0, *at, len(out)])), a, b, scale


def _normalise_lanes(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Scale every lane (the last axis) by the power of two that brings its
    largest |value| over the arrays and their leading axes into [1/2, 1);
    returns the arrays, then that exponent."""
    mag = np.abs(arrays[0])
    for x in arrays[1:]:
        np.maximum(mag, np.abs(x), out=mag)
    exp = np.frexp(mag.reshape(-1, mag.shape[-1]).max(axis=0))[1]
    factor = np.ldexp(1.0, -exp)
    return (*(x * factor for x in arrays), exp)


def _replay(
    p: np.ndarray,
    q: np.ndarray,
    marks: range,
    olds: np.ndarray,
    news: np.ndarray,
    values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step every lane's pair through the rows t of p and q,
    (olds, news) = (news, p[t]*news + q[t]*olds), writing news to values[t]
    if ``values`` is given.  Before each row t in ``marks`` the pairs are
    normalised (:func:`_normalise_lanes`).  Returns the final pair and each
    lane's running sum of those exponents, one row per segment: 0 before
    the first mark, then the sum after each mark."""
    shifts = [np.zeros(olds.shape[-1])]
    for t in range(len(p)):
        if t in marks:
            olds, news, e = _normalise_lanes(olds, news)
            shifts.append(shifts[-1] + e)
        out = np.multiply(p[t], news, out=None if values is None else values[t])
        out += q[t] * olds
        olds, news = news, out
    return olds, news, np.array(shifts)


def _lane_steps(
    w: np.ndarray,
    d_old: np.ndarray,
    d_new: np.ndarray,
    a: complex,
    b: complex,
    scale: float,
    rows: int,
    values: np.ndarray,
    scales: np.ndarray,
) -> bool:
    """:func:`_steps` as len(w) / rows lanes of ``rows`` rows.

    Returns False, with ``values`` and ``scales`` left as they were, where
    the row loop has to run instead: when one row alone can move the pair
    maximum past the rescale bound, or when a lane's replay ends farther
    than ``_LANE_AGREEMENT`` from the start the next lane was carried to,
    both before and after the second carry.
    """
    lanes = w.size // rows

    def by_row(x: np.ndarray) -> np.ndarray:
        # step j*rows + t is row t of lane j
        return x.reshape(lanes, rows).T

    # p = -w/d_new and q = -d_old/d_new, each row's lanes contiguous; q is
    # negated as a complex, so its imaginary parts are -0, as the replay's
    # bits were measured with
    p = np.divide(by_row(w), np.negative(by_row(d_new), out=_scratch(2, float, rows, lanes)),
                  out=_scratch(0, complex, rows, lanes))
    abs_q = np.divide(by_row(d_old), by_row(d_new), out=_scratch(3, float, rows, lanes))
    q = np.negative(abs_q, dtype=complex, out=_scratch(2, complex, rows, lanes))
    abs_p = np.abs(p, out=_scratch(4, float, rows, lanes))
    # one row moves the pair maximum up by at most |p| + |q| and down by at
    # most (1 + |p|)/|q|; from [1/2, 1), ``period`` rows of the largest of
    # these over all rows and lanes stay within 2^+-500
    growth = np.add(abs_p, abs_q, out=_scratch(1, float, rows, lanes)).max()
    shrink = np.add(1.0, abs_p, out=_scratch(1, float, rows, lanes))
    bits = math.log2(max(growth, np.divide(shrink, abs_q, out=shrink).max(), 1.0))
    if not bits <= _LANE_RESCALE_BITS:
        return False
    period = int(_LANE_RESCALE_BITS // bits)
    marks = range(period, rows, period)

    # each lane's 2x2 transfer product: the images of the unit states
    # (1, 0) and (0, 1), side by side
    olds, news = np.eye(2, dtype=complex)[:, :, None].repeat(lanes, axis=2)
    olds, news, shifts = _replay(p, q, marks, olds, news)
    (old0, old1), (new0, new1), e = _normalise_lanes(olds, news)
    exps = shifts[-1] + e
    maps = list(zip(old0.tolist(), old1.tolist(), new0.tolist(), new1.tolist()))

    # the state at the start of every lane, carried across the lanes
    starts = [(a, b, scale)]
    for (m00, m01, m10, m11), e in zip(maps, exps[:-1].tolist()):
        a, b, scale = _rescale_pair(a * m00 + b * m01, a * m10 + b * m11, scale + e)
        starts.append((a, b, scale))
    a0, b0, s0 = (np.array(x) for x in zip(*starts))
    a0, b0, e = _normalise_lanes(a0, b0)
    s0 += e

    # every lane's rows, replayed side by side from its start; the scale
    # changes only at the marks
    block = _scratch(1, complex, rows, lanes)

    def replay(a0: np.ndarray, b0: np.ndarray, s0: np.ndarray):
        """The lanes replayed from the starts (a0, b0) on scales s0: the
        scale of each segment between marks, the gaps (da, db) between
        each lane's last two values and the next lane's start, on the
        scale of that start, and whether every join holds.

        The first two rows of every lane after the first read the last two
        values of the lane before, replayed there, where the lane itself
        started from the state carried to it: two roundings of one state.
        Each such row must hold to _LANE_AGREEMENT of its terms (the term
        of the value it makes left out) with the replayed values in it.
        """
        olds, news, shifts = _replay(p, q, marks, a0, b0, block)
        seg_scales = s0 + shifts
        to_next = np.exp2(seg_scales[-1][:-1] - s0[1:])
        da = olds[:-1] * to_next - a0[1:]
        db = news[:-1] * to_next - b0[1:]
        gap_a, gap_b = np.abs(da), np.abs(db)
        p0, q0, p1, q1 = abs_p[0, 1:], abs_q[0, 1:], abs_p[1, 1:], abs_q[1, 1:]
        row0 = p0 * gap_b + q0 * gap_a <= _LANE_AGREEMENT * (p0 * np.abs(b0[1:]) + q0 * np.abs(a0[1:]))
        row1 = q1 * gap_b <= _LANE_AGREEMENT * (p1 * np.abs(block[0, 1:]) + q1 * np.abs(b0[1:]))
        return seg_scales, da, db, bool(np.all(row0) and np.all(row1))

    seg_scales, da, db, joined = replay(a0, b0, s0)
    if not joined:
        # the second carry: the gaps are the carried starts' errors, to the
        # rounding of one lane's replay.  Lane j's replay maps a change c_j
        # of its start to 2^exps_j M_j c_j at its end, so the starts that
        # its replay would meet are the carried ones plus
        # c_{j+1} = 2^(s0_j + exps_j - s0_{j+1}) M_j c_j + (da_j, db_j),
        # c_0 = 0, on the scale s0_{j+1} of each start
        grow = (s0[:-1] + exps[:-1] - s0[1:]).tolist()
        ca = cb = 0j
        fixes = [(ca, cb)]
        try:
            for (m00, m01, m10, m11), g, ga, gb in zip(maps, grow, da.tolist(), db.tolist()):
                f = 2.0**g
                ca, cb = f * (ca * m00 + cb * m01) + ga, f * (ca * m10 + cb * m11) + gb
                fixes.append((ca, cb))
        except OverflowError:
            return False
        fixes = np.array(fixes)
        if not np.isfinite(fixes).all():
            return False
        a0, b0, e = _normalise_lanes(a0 + fixes[:, 0], b0 + fixes[:, 1])
        s0 = s0 + e
        seg_scales, da, db, joined = replay(a0, b0, s0)
        if not joined:
            return False
    values.reshape(lanes, rows)[...] = block.T
    by_lane, bounds = scales.reshape(lanes, rows), [0, *marks, rows]
    for seg, lo, hi in zip(seg_scales, bounds, bounds[1:]):
        by_lane[:, lo:hi] = seg[:, None]
    return True


def iterate_forward(mu: float, lam: complex, c0: complex, n: int) -> RecurrenceSolution:
    """Forward solution C_0..C_n from the boundary-row seed C_0 = c0.

    The n = 0 row fixes C_1 = -2*mu*sqrt(1/2)*zeta_0(lam)*c0 / d(1); the
    interior rows then propagate upward.  Working magnitudes are kept in
    [2^-512, 2^512] by the rescaling accumulator.  A mu that makes a
    diagonal weight w_0..w_{n-1} overflow, or a row that overflows on the
    way (a seed near the top of the float range, or |w_k| above about
    2^512), raises ``InvalidParametersError``.
    """
    mu = _check_mu(mu)
    if n < 0:
        raise InvalidParametersError("n must be nonnegative")
    c0 = complex(c0)
    if not (math.isfinite(c0.real) and math.isfinite(c0.imag)):
        raise InvalidParametersError("seed must be finite")
    lam = _validate_lam(lam)

    ds = _lattice_rows(n + 1)[0]
    if n > 0 and _weights_overflow(mu, lam, n - 1):
        raise InvalidParametersError(
            f"mu = {mu} makes a diagonal weight of w_0..w_{n - 1} overflow "
            f"at lam = {lam}"
        )
    half = np.add(np.arange(n), 0.5, out=_scratch(3, float, n))
    w = _diagonal_weights(mu, _principal_roots(half, lam, out=_scratch(0, complex, n)))
    values = np.empty(n + 1, dtype=complex)
    scales = np.zeros(n + 1)
    values[0] = c0
    if n > 0:
        try:
            # the seed may lie above 2^512, so the n = 0 row is always
            # rescaled, and C_0 is stored on the scale it gives the pair
            c1, c_prev, scale = _rescale_pair(-(complex(w[0]) * c0) / float(ds[1]), c0, 0.0)
            values[:2], scales[:2] = (c_prev, c1), scale
            _steps(w[1:], ds[1:n], ds[2:], c_prev, c1, scale, values[2:], scales[2:])
        except OverflowError:
            raise InvalidParametersError(
                f"the forward recurrence from the seed C_0 = {c0} at mu = {mu}, "
                f"lam = {lam} leaves the floating-point range"
            ) from None
    return RecurrenceSolution(
        mu=mu, lam=lam, values=values, log2_scale=scales,
        direction="forward", normalization=f"C_0 = {c0}", weights=w, couplings=ds,
    )


def _minimal_solution_inputs(mu: float, lam: complex, n: int) -> tuple[float, complex]:
    """mu and lam, checked for a depth-n minimal solution: one exists where
    the recurrence has a dominance split, |mu| > 1 or Im lam != 0."""
    mu = _check_mu(mu)
    if n < 1:
        raise InvalidParametersError("n must be >= 1")
    lam = _validate_lam(lam)
    if abs(mu) <= 1.0 and lam.imag == 0.0:
        raise NoDominanceSplitError(
            f"no exponential dominance split at mu={mu} with real lam; "
            "backward recurrence cannot isolate the minimal solution"
        )
    return mu, lam


def _buffer_top(n: int) -> int:
    """The default top m of the buffer zone [n, m] a backward recurrence
    to depth n starts from."""
    return n + max(50, n // 10)


def minimal_solution_backward(
    mu: float, lam: complex, n: int, m: int | None = None
) -> RecurrenceSolution:
    """Minimal (decaying) solution C_0..C_n, normalised to C_n = 1.

    Backward recurrence from a seed high in a buffer zone [n, m]
    projects onto the minimal solution; the buffer defaults to
    m = n + max(50, n // 10).  Requires a dominant/minimal dominance
    split, i.e. |mu| > 1 or Im lam != 0.  Raises ``NonConvergenceError``
    where a weight or a row leaves the floating-point range (|mu| near the
    top of it).
    """
    mu, lam = _minimal_solution_inputs(mu, lam, n)
    if m is None:
        m = _buffer_top(n)
    if m <= n:
        raise InvalidParametersError("buffer top m must exceed n")

    if _weights_overflow(mu, lam, m):
        raise NonConvergenceError(
            f"a diagonal weight at mu={mu}, lam={lam} leaves the floating-point range"
        )
    ds = _lattice_rows(m + 2)[0]
    w = _diagonal_weights(mu, zeta_array(np.arange(m + 1), lam))
    out = np.empty(m, dtype=complex)
    log2 = np.empty(m)
    try:
        # from (C_{m+1}, C_m) = (0, 1) down to C_0; row k needs d(k+1) and d(k)
        _steps(w[m:0:-1], ds[m + 1:1:-1], ds[m:0:-1], 0j, 1 + 0j, 0.0, out, log2)
    except OverflowError:
        raise NonConvergenceError(
            f"the backward recurrence at mu={mu}, lam={lam} left the floating-point range"
        ) from None
    values = out[::-1]
    pivot = values[n]
    if pivot == 0.0:
        raise NonConvergenceError(
            "backward recurrence produced a vanishing mantissa at the "
            "normalisation index"
        )
    shift = float(round(math.log2(abs(pivot))))
    pivot_m = pivot * 2.0**-shift
    scales = log2[::-1]
    return RecurrenceSolution(
        mu=mu, lam=lam, values=values[: n + 1] / pivot_m,
        log2_scale=scales[: n + 1] - (scales[n] + shift),
        direction="backward", normalization="C_n = 1",
        weights=w[:n], couplings=ds[: n + 1],
    )


@dataclass(frozen=True)
class BirkhoffAdamsParams:
    """Closed-form large-n behaviour of the recurrence solutions.

    ``case == "distinct"``: basis solutions behave like
    roots[i]^n * n^exponents[i].  ``case == "double"`` (mu^2 = 1): like
    exp(+-delta*sqrt(n)) * n^kappa with the double root -mu.
    """

    case: str
    coeffs: tuple[complex, complex, complex, complex]
    roots: tuple[complex, complex] | None = None
    exponents: tuple[complex, complex] | None = None
    double_root: complex | None = None
    delta: complex | None = None
    kappa: float | None = None

    def minimal_index(self) -> int:
        """Index of the root with modulus < 1 (distinct case only)."""
        if self.case != "distinct" or self.roots is None:
            raise InvalidParametersError("minimal root defined for distinct case")
        mags = [abs(r) for r in self.roots]
        if abs(mags[0] - mags[1]) <= 1e-14 * max(mags):
            raise InvalidParametersError("roots have equal modulus; no minimal root")
        return 0 if mags[0] < mags[1] else 1

    def predicted_ratio(self, index: int, n: int) -> complex:
        """Predicted C_{n+1}/C_n along basis solution ``index``."""
        if self.case != "distinct" or self.roots is None or self.exponents is None:
            raise InvalidParametersError("ratios defined for distinct case")
        return self.roots[index] * ((n + 1.0) / n) ** self.exponents[index]


def birkhoff_adams_eval(mu: float, lam: complex) -> BirkhoffAdamsParams:
    """Asymptotic roots and exponents for parameters (mu, lam).

    The normalised recurrence has the large-n expansion
    x(n+1) + x(n-1) + (a0 + a1/n + O(n^-2)) x(n) = 0 modulated by
    b0 + b1/n in the outer coefficients, with

        a0 = 2*mu, a1 = -mu*(1 + lam), b0 = 1, b1 = -1.

    Distinct characteristic roots (mu^2 != 1) give power-modulated
    geometric behaviour; mu^2 = 1 collapses to the double-root form.
    """
    mu = _check_mu(mu)
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise InvalidParametersError("lam must be finite")
    a0 = complex(2.0 * mu)
    a1 = -mu * (1.0 + lam)
    b0 = complex(1.0)
    b1 = complex(-1.0)
    coeffs = (a0, a1, b0, b1)
    if mu * mu == 1.0:
        delta = 2.0 * cmath.sqrt((a0 * a1 - 2.0 * b1) / (2.0 * b0))
        return BirkhoffAdamsParams(
            case="double",
            coeffs=coeffs,
            double_root=complex(-mu),
            delta=delta,
            kappa=0.25 + (b1 / (2.0 * b0)).real,
        )
    sq = cmath.sqrt(complex(mu * mu - 1.0))
    roots = (-mu + sq, -mu - sq)
    exps = tuple(
        (a1 * r + b1) / (a0 * r + 2.0 * b0) for r in roots
    )
    return BirkhoffAdamsParams(
        case="distinct", coeffs=coeffs, roots=roots, exponents=exps
    )


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the summed-imaginary-part identity, scale-free.

    True sides equal the reported ones times 2**log2_scale; ``residual``
    is |lhs - rhs| / (|lhs| + |rhs|), zero when both sides vanish.
    ``term_scale`` is the largest single term entering the sum, for
    judging when "both sides vanish" is meaningful.
    """

    lhs: float
    rhs: float
    log2_scale: float
    term_scale: float

    @property
    def residual(self) -> float:
        denom = abs(self.lhs) + abs(self.rhs)
        if denom == 0.0:
            return 0.0
        return abs(self.lhs - self.rhs) / denom


def identity_residual(sol: RecurrenceSolution, up_to: int) -> IdentityCheck:
    """Check 2*mu*sum_{n<=upTo} |C_n|^2 sqrt(n+1/2) Im zeta_n(lam)
    == -d(upTo+1) * Im(C_{upTo+1} * conj(C_{upTo})) in split form."""
    if up_to < 0 or up_to > sol.length - 2:
        raise InvalidParametersError(
            f"up_to must lie in [0, {sol.length - 2}] for this solution"
        )
    top = up_to + 1
    # mantissas reach 2^512, so their squares would overflow: scale each
    # |C_n| to [1/2, 1) by its own power of two, which is exact, and move
    # that exponent into the log2 scale
    mags = np.abs(sol.values[: top + 1], out=_scratch(3, float, top + 1))
    mags, e = np.frexp(mags, out=(mags, _scratch(4, np.intc, top + 1)))
    k = np.add(sol.log2_scale[: top + 1], e, out=_scratch(0, float, top + 1))
    # both sides on the scale of the top pair: C_{upTo+1} alone can lie so
    # far above the sum's terms that its scale underflows all of them.  But
    # no weight may pass 2^960, which leaves 2^64 for the factor
    # Im w_n = 2*mu*sqrt(n+1/2)*Im zeta_n (at most |w_n|) and the sum: at
    # tiny |mu| the C_n alternate between about 1 and about mu, and the top
    # pair's scale would overflow every other weight
    kref = max(float((k[up_to] + k[top]) // 2), float(np.max(k[:top])) - 480.0)
    factor = np.subtract(k[:top], kref, out=_scratch(1, float, top))
    np.exp2(np.multiply(2.0, factor, out=factor), out=factor)
    terms = np.square(mags[:top], out=_scratch(2, float, top))
    terms *= factor
    terms *= sol.weights[:top].imag
    lhs = float(np.sum(terms))
    # the top pair's parts, each scaled on its own: for a subnormal |C| the
    # factor 2^-e alone would overflow
    pair = sol.values[up_to: top + 1]
    vals = np.empty_like(pair)
    vals.real = np.ldexp(pair.real, -e[up_to:])
    vals.imag = np.ldexp(pair.imag, -e[up_to:])
    cross = (vals[1] * np.conj(vals[0])).imag
    rhs = -float(sol.couplings[top]) * float(cross) * 2.0 ** float(k[top] + k[up_to] - 2.0 * kref)
    term_scale = float(np.max(np.abs(terms, out=factor))) if terms.size else 0.0
    return IdentityCheck(
        lhs=lhs, rhs=rhs, log2_scale=2.0 * kref, term_scale=term_scale
    )


@functools.lru_cache(maxsize=16)
def _sweep_rows(m: int) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """The lam-free coefficients of :func:`secular_function`'s sweep from
    buffer top m: -d(k)^2 for the rows k = m, ..., 1 as Python floats, and
    k + 1/2 and 2*sqrt(k + 1/2) for k = m, ..., 0, all read-only.  The
    cross-check calls the sweep at one depth for many lam."""
    ks = np.arange(m, -1, -1)
    d = coupling_weights(ks[:-1])
    half = ks + 0.5
    two_sqrt = 2.0 * np.sqrt(half)
    half.flags.writeable = two_sqrt.flags.writeable = False
    return tuple((-(d * d)).tolist()), half, two_sqrt


def secular_function(mu: float, lam: complex, n: int) -> complex:
    """Normalised boundary-row residual of the depth-n minimal solution.

    Every interior row holds for the minimal solution, so the one
    condition singling out spectral points is the n = 0 row
    d(1)*C_1 + w_0*C_0 = 0.  With C_n = 1 the residual is

        phase(C_0) * (d(1)*r_0 + w_0) / (|d(1)*r_0| + |w_0|),  r_0 = C_1/C_0,

    the boundary row over the sum of its term magnitudes: scale-free, in
    the unit disc, with a linear dip through zero at eigenvalues.
    Requires a dominance split, |mu| > 1 or Im lam != 0.

    The ratios come from one backward sweep (Miller's algorithm) from the
    buffer top m = n + max(50, n // 10) that
    :func:`minimal_solution_backward` uses: with rho_k = d(k+1)*C_{k+1}/C_k,
    rho_m = 0 and row k gives rho_{k-1} = -d(k)^2 / (w_k + rho_k) down to
    rho_0 = d(1)*r_0.  A pivot w_k + rho_k that is exactly zero (C_{k-1}
    vanishes) is replaced by ``_PIVOT_FLOOR``, which carries the sweep
    past that zero to the same limit.  phase(C_0) is the conjugate of the
    product of the unit phases of rho_0, ..., rho_{n-1}.  For real lam the
    sweep runs in real arithmetic, so the result is exactly real and its
    sign exact: the phase is (-1) to the number of negative rho_k, which
    the sweep counts.  Sign changes bracket eigenvalues.  Raises ``NonConvergenceError``
    where a weight or a ratio leaves the floating-point range (|mu| near
    the ends of the float range).
    """
    mu, lam = _minimal_solution_inputs(mu, lam, n)
    m = _buffer_top(n)
    neg_d2, half, two_sqrt = _sweep_rows(m)
    if _weights_overflow(mu, lam, m):
        raise NonConvergenceError(
            f"a diagonal weight at mu={mu}, lam={lam} leaves the floating-point range"
        )
    # real lam: float zeta_k, so the whole sweep runs in real arithmetic
    z = np.sqrt(half - (lam.real if lam.imag == 0.0 else lam))
    w = (mu * two_sqrt * z).tolist()
    rows = zip(neg_d2, w)
    rho, phase = 0.0, 1.0
    try:
        for nd2, wk in itertools.islice(rows, m - n):
            rho = nd2 / (wk + rho or _PIVOT_FLOOR)
        if lam.imag == 0.0:
            negative = 0
            for nd2, wk in rows:
                rho = nd2 / (wk + rho or _PIVOT_FLOOR)
                if rho < 0.0:
                    negative += 1
                elif not 0.0 < rho < math.inf:
                    # 0, inf or nan has no unit phase
                    rho = math.nan
                    break
            phase = -1.0 if negative % 2 else 1.0
        else:
            for nd2, wk in rows:
                rho = nd2 / (wk + rho or _PIVOT_FLOOR)
                phase *= rho / abs(rho)
        w0 = w[-1]
        value = complex(phase.conjugate() * (rho + w0) / (abs(rho) + abs(w0)))
    except ZeroDivisionError:
        # a ratio of 0 past an overflowed pivot
        value = complex(math.nan)
    if not cmath.isfinite(value):
        raise NonConvergenceError(
            f"the backward ratio sweep at mu={mu}, lam={lam} left the "
            "floating-point range"
        )
    return value


def secular_defect(mu: float, lam: complex, n: int) -> float:
    """Magnitude of :func:`secular_function`; ~0 only at spectral points."""
    return abs(secular_function(mu, lam, n))
