"""Seeded query streams for the four benchmark workloads.

A workload is an endless stream of ``speclab`` command lines, cut into
blocks.  Block ``b`` of seed ``s`` depends only on ``(s, b)``.

The parameters that set a command's cost (the distance of the largest
subcritical weight from 1, epsilon, the recurrence depth, the grid size
and trial count) follow a fixed stratified design: a block of k queries of one
command puts one value in each k-th of the range, at an offset that
advances by the golden ratio from block to block, so successive blocks
fill the strata evenly.  This design is the same for every seed.  Query
cost is a steep, stepped function of these parameters (a discrete2-check
costs 0.1 s at mu - 1 = 5e-3 and 4 s at 2e-4, where the truncation
doubles once more), so random draws would let one rare expensive point
decide a run's throughput.  The seed draws everything else: the
coupling-point kind, beta, gamma, grid ranges and variables,
trial seeds, and the order of the queries in each block.

Parameter points are built from a target weight mu in closed form and
confirmed with ``speclab.coupling.branch_mus``; nothing is ever chosen or
redrawn from the outcome of a query.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from speclab.coupling import CouplingParams, branch_mus

SQRT2 = math.sqrt(2.0)

WORKLOADS = ("spectrum", "near-critical", "recurrence", "sweep")


@dataclass(frozen=True)
class Query:
    """One command line plus what the checker needs to judge its answer."""

    command: str
    argv: tuple[str, ...]
    points: int
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _opt(name: str, x: float) -> str:
    """``--name=value``: attached, so that argparse reads a value such as
    ``-9.9e-05`` as the option's value, not as an unknown option."""
    return f"--{name}={_num(x)}"


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class _Draws:
    """Seeded random numbers for one block, and the fixed stratified design.

    ``strata(k)`` returns k values in [0, 1), one in each k-th, in seeded
    order.  The n-th call in a block uses the offset
    frac(n * sqrt2 + block * golden ratio) inside the strata.
    """

    def __init__(self, workload: str, seed: int, index: int) -> None:
        self.rng = random.Random(f"{workload}:{seed}:{index}")
        self._index = index
        self._site = 0

    def strata(self, k: int) -> list[float]:
        self._site += 1
        offset = (self._site * SQRT2 + self._index * _PHI) % 1.0
        us = [(i + offset) / k for i in range(k)]
        self.rng.shuffle(us)
        return us


def _alpha_for_mu(mu: float, beta: float, gamma: complex) -> float:
    """alpha at which the larger branch weight equals ``mu``.

    beta = 0: mu = (4 + |gamma|^2) / (2 sqrt2 alpha).  beta > 0: the
    smaller boundary-matrix eigenvalue E = omega0 - r must equal
    2 sqrt2 beta / mu; solving omega0 - r = E for s = alpha*beta gives
    s + |g|^2 = (E^2 - 8E - 16|g|^2) / (2 (E - 8)), valid for E < 8.
    """
    g2 = abs(gamma) ** 2
    if beta == 0.0:
        return (4.0 + g2) / (2.0 * SQRT2 * mu)
    e = 2.0 * SQRT2 * beta / mu
    if not e < 8.0:
        raise ValueError(f"beta {beta} too large for weight {mu}")
    s = (e * e - 8.0 * e - 16.0 * g2) / (2.0 * (e - 8.0)) - g2
    return s / beta


def _subcritical(alpha: float, beta: float, gamma: complex) -> list[float]:
    mus = [m for _, m in branch_mus(CouplingParams(alpha, beta, gamma))]
    return sorted((m for m in mus if math.isfinite(m) and m > 1.0), reverse=True)


def _coupled_point(rng: random.Random, kind: str, mu: float) -> dict:
    """A coupling point of one kind whose largest subcritical weight is mu.

    kind is "beta0" (beta = 0, gamma = 0), "real" (beta > 0, real gamma)
    or "complex" (beta > 0, gamma off the real axis).
    """
    if kind == "beta0":
        beta, gamma = 0.0, 0j
    else:
        beta = rng.uniform(0.3, 2.5)
        mag = rng.uniform(0.1, 1.2)
        if kind == "real":
            gamma = complex(mag if rng.random() < 0.5 else -mag, 0.0)
        else:
            phase = rng.uniform(0.15, 0.85) * math.pi
            sign = 1.0 if rng.random() < 0.5 else -1.0
            gamma = complex(mag * math.cos(phase), sign * mag * math.sin(phase))
    alpha = _alpha_for_mu(mu, beta, gamma)
    sub = _subcritical(alpha, beta, gamma)
    if not sub or abs(sub[0] - mu) > 1e-12 * mu:
        raise AssertionError(f"point construction missed mu={mu}: {sub}")
    return {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "subcritical": sub,
    }


def _coupling_argv(pt: dict) -> list[str]:
    g = pt["gamma"]
    return [
        _opt("alpha", pt["alpha"]),
        _opt("beta", pt["beta"]),
        _opt("gamma-re", g.real),
        _opt("gamma-im", g.imag),
    ]


# ---------------------------------------------------------------------------
# spectrum: single-point h-spectrum at tol 1e-10, cross-check on

SPECTRUM_KINDS = ("beta0", "real", "complex")
SPECTRUM_MU_RANGE = (5e-4, 3.0)  # mu - 1 of the largest subcritical weight


def _spectrum_block(d: _Draws) -> list[Query]:
    out = []
    for kind in SPECTRUM_KINDS:
        for u in d.strata(4):
            mu = 1.0 + _log_uniform(*SPECTRUM_MU_RANGE, u)
            pt = _coupled_point(d.rng, kind, mu)
            argv = ["h-spectrum", *_coupling_argv(pt), "--tol", "1e-10"]
            out.append(
                Query("h-spectrum", tuple(argv), 1, {"subcritical": pt["subcritical"]})
            )
    d.rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# near-critical: asymptotics and count, one query in five a discrete2-check

ASYMPTOTICS_MU_RANGE = (2e-5, 5e-3)
DISCRETE2_MU_RANGE = (2e-4, 5e-3)
COUNT_EPS_RANGE = (1e-3, 1e-2)


def _single_branch_point(rng: random.Random, mu: float) -> dict:
    """A point whose only subcritical weight is mu, so the counting law
    applies and the work depends on mu alone."""
    while True:
        pt = _coupled_point(rng, rng.choice(SPECTRUM_KINDS), mu)
        if len(pt["subcritical"]) == 1:
            return pt


def _near_critical_block(d: _Draws) -> list[Query]:
    rng = d.rng
    out = []
    for u in d.strata(4):
        mu = 1.0 + _log_uniform(*ASYMPTOTICS_MU_RANGE, u)
        out.append(Query("asymptotics", ("asymptotics", _opt("mu", mu)), 1, {"mu": mu}))
    for u, v in zip(d.strata(4), d.strata(4)):
        mu = 1.0 + _log_uniform(*ASYMPTOTICS_MU_RANGE, u)
        pt = _single_branch_point(rng, mu)
        eps = _log_uniform(*COUNT_EPS_RANGE, v)
        argv = ["count", *_coupling_argv(pt), _opt("epsilon", eps)]
        out.append(Query("count", tuple(argv), 1, {"subcritical": pt["subcritical"]}))
    for u in d.strata(2):
        mu = 1.0 + _log_uniform(*DISCRETE2_MU_RANGE, u)
        pt = _single_branch_point(rng, mu)
        argv = ["discrete2-check", *_coupling_argv(pt)]
        out.append(Query("discrete2-check", tuple(argv), 1, {"subcritical": pt["subcritical"]}))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# recurrence: single-point identity-check, forward recurrence at depth

IDENTITY_SIZE_RANGE = (2e3, 1e5)


def _recurrence_block(d: _Draws) -> list[Query]:
    rng = d.rng
    out = []
    for u in d.strata(8):
        size = int(round(_log_uniform(*IDENTITY_SIZE_RANGE, u)))
        mu = _log_uniform(0.3, 3.0, rng.random())
        lam_re = rng.uniform(-2.0, 0.5)
        lam_im = _log_uniform(0.05, 2.0, rng.random())
        if rng.random() < 0.5:
            lam_im = -lam_im
        argv = [
            "identity-check", _opt("mu", mu), _opt("lambda", lam_re),
            _opt("lambda-im", lam_im), "--size", str(size),
        ]
        out.append(Query(
            "identity-check", tuple(argv), 1,
            {"size": size, "mu": mu, "lam": complex(lam_re, lam_im)},
        ))
    return out


# ---------------------------------------------------------------------------
# sweep: --grid queries on two Pool workers

SWEEP_WORKERS = "2"
CHEAP_STEPS = (32, 128)
FORMS_STEPS = (4, 8)
FORMS_TRIALS = (200, 1000)


def _grid(variable: str, lo: float, hi: float, steps: int) -> str:
    return f"{variable}:{_num(lo)}:{_num(hi)}:{steps}"


def _cheap_query(rng: random.Random, command: str, steps: int) -> Query:
    fixed = {
        "alpha": rng.uniform(0.2, 2.0),
        "beta": rng.uniform(0.0, 2.5),
        "gamma_re": rng.uniform(-1.0, 1.0),
        "gamma_im": rng.uniform(-1.0, 1.0),
    }
    if command == "surface":
        fixed.pop("alpha")
        fixed["beta"] = rng.uniform(0.1, 2.5)
        variable = rng.choice(("beta", "gamma_re", "gamma_im"))
    else:
        variable = rng.choice(("alpha", "beta", "gamma_re"))
    lo = {"alpha": 0.1, "beta": 0.0, "gamma_re": -1.5, "gamma_im": -1.5}[variable]
    if variable == "beta" and command == "surface":
        lo = 0.1
    lo = lo + rng.uniform(0.0, 0.5)
    hi = lo + rng.uniform(0.5, 2.0)
    fixed.pop(variable)
    argv = [command]
    for key, value in fixed.items():
        argv.append(_opt(key.replace("_", "-"), value))
    argv += ["--grid", _grid(variable, lo, hi, steps), "--workers", SWEEP_WORKERS]
    return Query(command, tuple(argv), steps, {"fixed": fixed, "variable": variable})


def _forms_query(rng: random.Random, beta_zero: bool, steps: int, trials: int) -> Query:
    if beta_zero:
        # beta = 0: the bound constant 1 - alpha/sqrt2 is positive below sqrt2
        fixed = {"beta": 0.0, "gamma_re": rng.uniform(-0.5, 0.5),
                 "gamma_im": rng.uniform(-0.5, 0.5)}
        variable, lo, hi = "alpha", rng.uniform(0.1, 0.4), rng.uniform(1.0, 1.6)
    else:
        fixed = {"alpha": rng.uniform(0.5, 1.5), "beta": rng.uniform(3.0, 5.0),
                 "gamma_im": rng.uniform(-0.5, 0.5)}
        variable, lo, hi = "gamma_re", rng.uniform(-0.8, -0.2), rng.uniform(0.2, 0.8)
    argv = ["forms-test"]
    for key, value in fixed.items():
        argv.append(_opt(key.replace("_", "-"), value))
    argv += [
        "--trials", str(trials), "--seed", str(rng.randrange(2**31)),
        "--grid", _grid(variable, lo, hi, steps), "--workers", SWEEP_WORKERS,
    ]
    return Query(
        "forms-test", tuple(argv), steps,
        {"fixed": fixed, "variable": variable, "trials": trials},
    )


def _sweep_block(d: _Draws) -> list[Query]:
    rng = d.rng
    out = []
    cheap = [c for c in ("classify", "mu", "surface") for _ in range(2)]
    for command, u in zip(cheap, d.strata(len(cheap))):
        steps = CHEAP_STEPS[0] + int(u * (CHEAP_STEPS[1] - CHEAP_STEPS[0] + 1))
        out.append(_cheap_query(rng, command, steps))
    for beta_zero, u, v in zip((True, False), d.strata(2), d.strata(2)):
        steps = FORMS_STEPS[0] + int(u * (FORMS_STEPS[1] - FORMS_STEPS[0] + 1))
        trials = FORMS_TRIALS[0] + int(v * (FORMS_TRIALS[1] - FORMS_TRIALS[0] + 1))
        out.append(_forms_query(rng, beta_zero, steps, trials))
    rng.shuffle(out)
    return out


_BLOCKS = {
    "spectrum": _spectrum_block,
    "near-critical": _near_critical_block,
    "recurrence": _recurrence_block,
    "sweep": _sweep_block,
}


def block(workload: str, seed: int, index: int) -> list[Query]:
    """Block ``index`` of the stream for ``(workload, seed)``."""
    return _BLOCKS[workload](_Draws(workload, seed, index))


# The query a fresh interpreter answers when set-up is timed: the cheapest
# query of block 0 by the workload's cost parameter.  The design puts the
# same cost parameters in block 0 for every seed, so this picks the same
# cost stratum whatever the seed, and set-up time is dominated by import
# and first-call work rather than by computation.
_SETUP_COST = {
    "spectrum": lambda q: -q.expect["subcritical"][0],  # weakest coupling
    "near-critical": lambda q: (q.command != "asymptotics", -q.expect.get("mu", 0.0)),
    "recurrence": lambda q: q.expect["size"],
    "sweep": lambda q: (q.command == "forms-test", q.points),
}


def setup_query(workload: str, seed: int) -> Query:
    """The query every set-up probe of ``(workload, seed)`` answers."""
    return min(block(workload, seed, 0), key=_SETUP_COST[workload])


def stream(workload: str, seed: int):
    """Blocks 0, 1, ... of the stream, endlessly."""
    index = 0
    while True:
        yield block(workload, seed, index)
        index += 1
