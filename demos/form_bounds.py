"""Quadratic-form lower bound, tested by random fire and exact saturation.

For subcritical couplings the energy form dominates a positive multiple of
the norm.  Ten thousand random trial functions per coupling never dip
below the bound, while purpose-built single-mode trials with matched
exponential tails turn the underlying half-line trace inequality into an
equality at machine precision.
"""

from __future__ import annotations

import numpy as np

from speclab import (
    CouplingParams,
    derive,
    lower_bound_constant,
    random_forms,
    saturating_trial,
)

POINTS = [
    CouplingParams(1.0, 0.0),
    CouplingParams(1.0, 4.0),
    CouplingParams(1.0, 4.0, 0.5),
]


def random_fire(p: CouplingParams, trials: int = 10_000) -> None:
    c = lower_bound_constant(p)
    f = random_forms(p, np.random.default_rng(7), trials)
    worst = float(np.min(f.full - 0.5 * c * f.norm_sq))
    print(
        f"({p.alpha}, {p.beta}, {p.gamma}): c = {c:.4f}, "
        f"{trials} trials, smallest margin = {worst:.3e}"
    )


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def _half_line_energy(amplitude: complex, decay: float) -> float:
    # integral of |psi'|^2 + decay^2*|psi|^2 for psi = amplitude*e^(-decay*x)
    total = 0.0
    for lo, hi in ((0.0, 1.0), (1.0, 10.0), (10.0, 80.0)):
        x = 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
        f = 2.0 * decay**2 * abs(amplitude) ** 2 * np.exp(-2.0 * decay * x)
        total += 0.5 * (hi - lo) * float(np.sum(_WEIGHTS * f))
    return total


def saturation(p: CouplingParams) -> None:
    if p.beta == 0.0:
        return  # matched-tail construction needs the derivative coupling
    d = derive(p)
    for branch in (1, 2):
        mode = saturating_trial(0.7, branch, d).modes[0]
        for side, amp in (("upper", mode.upper), ("lower", mode.lower)):
            if amp == 0.0:
                continue
            lhs = 0.7 * abs(amp) ** 2
            rhs = _half_line_energy(amp, 0.7)
            print(
                f"  ({p.alpha}, {p.beta}, {p.gamma}) branch {branch} {side}: "
                f"boundary value {lhs:.12f} vs half-line energy {rhs:.12f} "
                f"(diff {abs(lhs - rhs):.1e})"
            )


if __name__ == "__main__":
    print("random trials against the lower bound:")
    for p in POINTS:
        random_fire(p)
    print("\nsaturating trials (derivative-coupled points only):")
    for p in POINTS:
        saturation(p)
