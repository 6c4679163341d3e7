"""Three-term recurrence machinery on the oscillator mode lattice.

Solutions C = (C_0, C_1, ...) of

    d(n+1)*C_{n+1} + 2*mu*sqrt(n+1/2)*zeta_n(lam)*C_n + d(n)*C_{n-1} = 0,
    d(n) = sqrt(n) * (n^2 - 1/4)^(1/4),   d(0) = 0,

encode square-integrable eigenfunction candidates of the underlying
operator; the n = 0 row acts as the boundary condition for forward
iteration.  Here zeta_n(lam) = sqrt(n + 1/2 - lam) on the branch with
Re zeta > 0 and Im zeta * Im lam < 0, cut along [n + 1/2, inf): the
principal square root (:func:`zeta_array`).  The weights
w_k = 2*mu*sqrt(k+1/2)*zeta_k(lam) of the solutions, the secular sweep and
the spectral Jacobi rows are formed, and a weight that may overflow
rejected with one ``InvalidParametersError``, from one lam-free factor
2*mu*sqrt(k+1/2) (:func:`_weight_factor`) and one bound
(:func:`_check_weights`): in :func:`_weight_rows`, and in the real secular
sweep, which takes the factor once per (mu, depth).

An eigenvalue is a lam at which the minimal (l^2) solution also
satisfies the n = 0 row.  That test needs only the ratio C_1/C_0, a
backward continued fraction (Miller's algorithm; Gautschi, SIAM Review
9, 1967): :func:`secular_function` sweeps the ratios
rho_k = d(k+1)*C_{k+1}/C_k down from rho_m = 0 at a buffer top m above
the depth, rho_{k-1} = -d(k)^2 / (w_k + rho_k), one scalar step per row,
and keeps no solution.  For real lam it is the Sturm count of the
truncation read bottom-up in :mod:`speclab.tridiag`'s one pivot loop, a
pivot within pivmin of 0 clamped to -pivmin, so the sign is exact; that
sweep is set up once per (mu, depth) and then evaluated at each lam
(:func:`_real_secular`), as a root search along lam asks.

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
the bound.  A forward solution runs no lanes where no solution dominates
(|mu| <= 1, real lam): the carried starts would keep their rounding.

The lam-free rows d(k), d(k)^2, k + 1/2 and sqrt(k + 1/2) are read by name
by every layer (:func:`_lattice`), each kept as deep as its own readers ask
(d(k)^2 to the secular sweep's buffer top), and the sweep reads them reversed.
A solution keeps the weights w_n and d(n) its rows were built from, so the
residual checks read them instead of building them again.  The row-sized
temporaries of a solution's weights (from 1024 rows on), the lanes and both
checks live in a per-thread scratch arena (:func:`_scratch`) of six
buffers, 65 bytes per row of the largest call, kept and reused: the
arrays a caller keeps (values, scales, weights, the residuals) are always
fresh.

Large-n behaviour follows the standard second-order difference-equation
asymptotics for x(n+1) + x(n-1) + (a0 + a1/n) x(n) + ... = 0: with
roots lam+- of t^2 + a0 t + 1 and exponents d+- the two basis
solutions behave like lam+-^n * n^(d+-); the degenerate root case
switches to exp(+-delta*sqrt(n)) * n^kappa.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchCutError,
    InvalidParametersError,
    NoDominanceSplitError,
    NonConvergenceError,
)
from .tridiag import _count_scalar, _pivmin_rule

__all__ = [
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
# an exactly zero pivot of the nonreal secular sweep is replaced by this:
# the ratio after it, about -d(k)^2 * 2^600, and the one after that, about
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
    return np.sqrt(ns + 0.5 - lam)


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


def _check_weights(mu: float, lam: complex, stop: int, start: int = 0) -> None:
    """Raise ``InvalidParametersError`` where a diagonal weight w_k,
    start <= k < stop, may overflow, from scalars: checked before numpy
    forms the weights, which would warn.

    |w_k| = 2|mu| sqrt(k + 1/2) |k + 1/2 - lam|^(1/2), and the last factor
    is at most (stop - 1/2 + |Re lam|)^(1/2) + |Im lam|^(1/2).  The bound
    must stay below 2^1023, so that no rounding of a weight passes it.
    """
    if stop <= start:
        return
    zeta_bound = math.sqrt(stop - 0.5 + abs(lam.real)) + math.sqrt(abs(lam.imag))
    if not 2.0 * abs(mu) * math.sqrt(stop - 0.5) * zeta_bound < 2.0**1023:
        raise InvalidParametersError(
            f"mu = {mu} makes a diagonal weight of w_{start}..w_{stop - 1} overflow at lam = {lam}"
        )


# the lam-free rows of the mode lattice by name, each built for k < size:
# d(k) with d(0) = 0, d(k)^2, k + 1/2 and sqrt(k + 1/2); kept in _LATTICE
_LATTICE_ROWS = {
    "d": lambda size: np.concatenate(([0.0], coupling_weights(np.arange(1, size)))),
    "d2": lambda size: np.square(_lattice(size, "d")[0][:size]),
    "half": lambda size: np.arange(size) + 0.5,
    "root": lambda size: np.sqrt(_lattice(size, "half")[0][:size]),
}
_LATTICE = dict.fromkeys(_LATTICE_ROWS, np.zeros(0))
_LATTICE_LOCK = threading.Lock()


def _lattice(size: int, *names: str) -> list[np.ndarray]:
    """The named lattice rows, read-only, whole and at least ``size`` long,
    for callers that slice them: a row kept shorter is built again at
    ``size`` and kept, so each row is as long as its own readers asked."""
    rows = []
    for name in names:
        row = _LATTICE[name]
        if row.size < size:
            row = _LATTICE_ROWS[name](size)
            row.flags.writeable = False
            with _LATTICE_LOCK:  # a longer row another thread kept stays
                if _LATTICE[name].size < size:
                    _LATTICE[name] = row
        rows.append(row)
    return rows


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


def _weight_rows(mu: float, lam, stop: int, start: int = 0) -> np.ndarray:
    """w_k = 2*mu*sqrt(k + 1/2)*zeta_k(lam) for start <= k < stop, fresh:
    one row at a real or complex lam, one per lam of a column (j, 1) of
    real ones, whose least bounds them all.  A weight that may overflow
    raises ``InvalidParametersError`` before numpy forms it, which would
    warn.  t = 2*mu*sqrt(k + 1/2) is the first factor and the product is
    fresh, so that a complex w_k equals the scalar (t + 0j) * zeta_k part
    by part, but for the sign of a part that underflows to zero: numpy
    rounds that part once or twice by the operand order, the length and
    whether the output overlaps an input.
    """
    least = (lam.min() if lam.size else 0.0) if isinstance(lam, np.ndarray) else lam
    _check_weights(mu, least, stop, start)
    if isinstance(lam, complex) and stop - start >= _LANE_MIN_ROWS:
        # a solution's temporaries go on the arena: fresh ones raised the peak
        # memory of a 1e5-row solve by 1-3 MB, and a slot costs about 2 us
        half, t = _weight_factor(mu, stop, start, out=_scratch(3, float, stop - start))
        z = np.subtract(half, lam, out=_scratch(0, complex, stop - start))
        return np.multiply(t, np.sqrt(z, out=z))
    half, t = _weight_factor(mu, stop, start)
    return t * np.sqrt(half - lam)


def _weight_factor(
    mu: float, stop: int, start: int = 0, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """k + 1/2 (read-only) and t_k = 2*mu*sqrt(k + 1/2) (in ``out`` or
    fresh) for start <= k < stop: the lam-free parts of w_k = t_k * zeta_k(lam)."""
    half, root = _lattice(stop, "half", "root")
    return half[start:stop], np.multiply(2.0 * mu, root[start:stop], out=out)


def _steps(
    w: Sequence[complex],
    d_old: Sequence[float],
    d_new: Sequence[float],
    a: complex,
    b: complex,
    scale: float,
    values: np.ndarray,
    scales: np.ndarray,
    lanes: bool = True,
) -> None:
    """Step (a, b) = (b, -(w[i]*b + d_old[i]*a) / d_new[i]) for each i.

    Writes the mantissa b and the running log2 scale after step i to
    ``values[i]`` and ``scales[i]``, contiguous arrays of len(w).  The
    caller passes |a|, |b| <= 2^512.  Fewer than ``_LANE_MIN_ROWS`` steps,
    or all if not ``lanes``, run in the row loop (:func:`_row_steps`); more
    run as lanes (:func:`_lane_steps`) of isqrt(len(w) // 2) rows each,
    after the row loop has taken the steps that do not fill a lane.
    """
    w, d_old, d_new = np.asarray(w), np.asarray(d_old), np.asarray(d_new)
    if lanes and w.size >= _LANE_MIN_ROWS:
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
    [2^-512, 2^512] by the rescaling accumulator, and where no solution
    dominates (|mu| <= 1, real lam) every row runs in the row loop.  A mu
    that makes a diagonal weight w_0..w_{n-1} overflow, or a row that
    overflows on the way (a seed near the top of the float range, or |w_k|
    above about 2^512), raises ``InvalidParametersError``.
    """
    mu = _check_mu(mu)
    if n < 0:
        raise InvalidParametersError("n must be nonnegative")
    c0 = complex(c0)
    if not (math.isfinite(c0.real) and math.isfinite(c0.imag)):
        raise InvalidParametersError("seed must be finite")
    lam = _validate_lam(lam)

    (d,) = _lattice(n + 1, "d")
    w = _weight_rows(mu, lam, n)
    values = np.empty(n + 1, dtype=complex)
    scales = np.zeros(n + 1)
    values[0] = c0
    if n > 0:
        try:
            # the seed may lie above 2^512, so the n = 0 row is always
            # rescaled, and C_0 is stored on the scale it gives the pair
            c1, c_prev, scale = _rescale_pair(-(complex(w[0]) * c0) / float(d[1]), c0, 0.0)
            values[:2], scales[:2] = (c_prev, c1), scale
            _steps(w[1:], d[1:n], d[2:n + 1], c_prev, c1, scale, values[2:], scales[2:],
                   lanes=abs(mu) > 1.0 or lam.imag != 0.0)
        except OverflowError:
            raise InvalidParametersError(
                f"the forward recurrence from the seed C_0 = {c0} at mu = {mu}, "
                f"lam = {lam} leaves the floating-point range"
            ) from None
    return RecurrenceSolution(
        mu=mu, lam=lam, values=values, log2_scale=scales,
        direction="forward", weights=w, couplings=d[:n + 1],
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
    split, i.e. |mu| > 1 or Im lam != 0.  A weight that may overflow raises
    ``InvalidParametersError``, a row that leaves the floating-point range
    ``NonConvergenceError`` (|mu| near the top of it).
    """
    mu, lam = _minimal_solution_inputs(mu, lam, n)
    if m is None:
        m = _buffer_top(n)
    if m <= n:
        raise InvalidParametersError("buffer top m must exceed n")

    (d,) = _lattice(m + 2, "d")
    w = _weight_rows(mu, lam, m + 1)
    out = np.empty(m, dtype=complex)
    log2 = np.empty(m)
    try:
        # from (C_{m+1}, C_m) = (0, 1) down to C_0; row k needs d(k+1) and d(k)
        _steps(w[m:0:-1], d[m + 1:1:-1], d[m:0:-1], 0j, 1 + 0j, 0.0, out, log2)
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
        direction="backward", weights=w[:n], couplings=d[: n + 1],
    )


@dataclass(frozen=True)
class BirkhoffAdamsParams:
    """Closed-form large-n behaviour of the recurrence solutions.

    ``case == "distinct"``: basis solutions behave like
    roots[i]^n * n^exponents[i].  ``case == "double"`` (mu^2 = 1): like
    exp(+-delta*sqrt(n)) * n^kappa with the double root -mu.
    """

    case: str
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
    1 - 1/n in the outer coefficients, with

        a0 = 2*mu, a1 = -mu*(1 + lam).

    Distinct characteristic roots (mu^2 != 1) give power-modulated
    geometric behaviour, with exponents (a1*r - 1) / (a0*r + 2) at each
    root r; mu^2 = 1 collapses to the double-root form, with
    delta = 2*sqrt((a0*a1 + 2) / 2) and kappa = -1/4.
    """
    mu = _check_mu(mu)
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise InvalidParametersError("lam must be finite")
    a0 = complex(2.0 * mu)
    a1 = -mu * (1.0 + lam)
    if mu * mu == 1.0:
        return BirkhoffAdamsParams(
            case="double",
            double_root=complex(-mu),
            delta=2.0 * cmath.sqrt((a0 * a1 + 2.0) / 2.0),
            kappa=-0.25,
        )
    sq = cmath.sqrt(complex(mu * mu - 1.0))
    roots = (-mu + sq, -mu - sq)
    exps = tuple((a1 * r - 1.0) / (a0 * r + 2.0) for r in roots)
    return BirkhoffAdamsParams(case="distinct", roots=roots, exponents=exps)


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the summed-imaginary-part identity, scale-free.

    True sides equal the reported ones times 2**log2_scale; ``residual``
    is |lhs - rhs| / (|lhs| + |rhs|), zero when both sides vanish.
    """

    lhs: float
    rhs: float
    log2_scale: float

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
    return IdentityCheck(lhs=lhs, rhs=rhs, log2_scale=2.0 * kref)


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
    rho_m = 0 and row k gives rho_{k-1} = -d(k)^2 / p_k, p_k = w_k + rho_k,
    down to rho_0 = d(1)*r_0.  phase(C_0) is the conjugate of the product
    of the unit phases of rho_0, ..., rho_{n-1}.  For real lam the pivots
    p_k = w_k - d(k+1)^2 / p_{k+1} are those of the Sturm count of the
    reversed truncation (diagonal w_m, ..., w_1, couplings d(m), ..., d(2)),
    run in the one pivot loop, :func:`speclab.tridiag._count_scalar`, with
    the pivmin ``counts_for_diagonals`` takes for it unscaled (|w_k| grows
    with k): rows m, ..., n+1, then n, ..., 1 from the pivot carried.  A pivot
    within pivmin of 0 is clamped to -pivmin and counted; rho_{k-1} < 0
    where p_k > 0, so the phase is (-1) to n less the second count, and
    the result is real with an exact sign; sign changes bracket
    eigenvalues.  That real sweep is :func:`_real_secular`'s, set up and
    evaluated once here.  For nonreal lam an exactly zero pivot is replaced by
    ``_PIVOT_FLOOR``, which carries the sweep past that zero of C to the
    same limit.  A weight that may overflow raises ``InvalidParametersError``,
    a ratio that leaves the floating-point range ``NonConvergenceError``
    (|mu| near the ends of it).
    """
    mu, lam = _minimal_solution_inputs(mu, lam, n)
    if lam.imag == 0.0:
        return complex(_real_secular(mu, n)(lam))
    m = _buffer_top(n)
    # the sweep reads the rows k = m, ..., 0 reversed: d(k+1)^2 and w_k
    (d2,) = _lattice(m + 2, "d2")
    w = _weight_rows(mu, lam, m + 1)[::-1].tolist()
    rho, w0, phase = 0.0, w[-1], 1.0
    try:
        for k, (dk2, wk) in enumerate(zip(memoryview(d2[m:0:-1]), w)):
            rho = -dk2 / (wk + rho or _PIVOT_FLOOR)
            if k >= m - n:
                phase *= rho / abs(rho)
        value = complex(phase.conjugate() * (rho + w0) / (abs(rho) + abs(w0)))
    except ZeroDivisionError:
        # a ratio of 0 past an overflowed pivot
        value = complex(math.nan)
    return _swept(value, mu, lam)


def _real_secular(mu: float, n: int) -> Callable[[float], float]:
    """lam -> :func:`secular_function` (mu, lam, n).real for real lam, to
    the bit, with the lam-free set-up done once per (mu, n): the buffer top
    m, the reversed rows d(k+1)^2 and k + 1/2, d(m) and the factors t_k of
    :func:`_weight_factor`.  Each call checks lam and its weights, forms
    w_k = t_k * zeta_k(lam) and runs the two counts.  The errors are those
    of :func:`secular_function`, raised at the build for mu and n and at
    each call for lam.
    """
    mu = _minimal_solution_inputs(mu, 0.0, n)[0]
    m = _buffer_top(n)
    # the rows k = m, ..., 0, reversed once: d(k+1)^2, k + 1/2 and t_k.  The
    # couplings are lists, split where the two counts part (rows m, ..., n+1
    # and n, ..., 1): a list hands the pivot loop its floats, where a
    # memoryview makes one per row
    d, d2 = _lattice(m + 2, "d", "d2")
    upper, lower = d2[m + 1:n + 1:-1].tolist(), d2[n + 1:1:-1].tolist()
    d1_2, dm = float(d2[1]), float(d[m])
    with np.errstate(over="ignore"):
        # a factor past the float range puts every weight past the bound
        # that each evaluation checks first
        half, t = (np.ascontiguousarray(row[::-1]) for row in _weight_factor(mu, m + 1))

    def evaluate(lam: complex) -> float:
        lam = _validate_lam(lam)
        _check_weights(mu, lam.real, m + 1)
        w = memoryview(t * np.sqrt(half - lam.real))
        pivmin = _pivmin_rule(abs(w[0]), dm, 0.0)
        try:
            p = _count_scalar(w[:m - n], upper, pivmin, math.inf)[1]
            c, p = _count_scalar(w[m - n:m], lower, pivmin, p)
            rho, w0 = -d1_2 / p, w[m]
            value = (-1.0 if (n - c) % 2 else 1.0) * (rho + w0) / (abs(rho) + abs(w0))
        except ZeroDivisionError:
            # a ratio of 0 past an overflowed pivot
            value = math.nan
        return _swept(value, mu, lam)

    return evaluate


def _swept(value: complex, mu: float, lam: complex) -> complex:
    """The secular value of a sweep, or ``NonConvergenceError`` where the
    sweep left the floating-point range and the value is not finite."""
    if not cmath.isfinite(value):
        raise NonConvergenceError(
            f"the backward ratio sweep at mu={mu}, lam={lam} left the "
            "floating-point range"
        )
    return value


def secular_defect(mu: float, lam: complex, n: int) -> float:
    """Magnitude of :func:`secular_function`; ~0 only at spectral points."""
    return abs(secular_function(mu, lam, n))
