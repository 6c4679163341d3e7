"""Correctness checks for the JSON answers of ``speclab`` commands.

Tolerances follow the repository's acceptance suite.  Coupling weights,
classifications, critical-surface points and form constants are
recomputed here from the closed forms in ``speclab.coupling``'s docstring,
so those checks share no code with the program.  Eigenvalues are checked
for a sign change of the recurrence secular function across each one,
which catches an answer altered after the program's own cross-check.

``check`` returns None for a good answer and a one-line reason otherwise.
Non-finite numbers arrive as the strings "inf" and "nan", which
``float()`` reads.
"""

from __future__ import annotations

import json
import math

import numpy as np

from speclab.recurrence import (
    coupling_weight,
    iterate_forward,
    secular_function,
    zeta_array,
)

SQRT2 = math.sqrt(2.0)

AGREEMENT_TOL = 1e-6       # h-spectrum method_agreement
IDENTITY_TOL = 1e-9        # identity-check residual
SURFACE_TOL = 1e-12        # |mu - 1| at the critical alpha
ASYMPTOTICS_TOL = 2.0      # |counted - predicted|
CLASSIFY_TOL = 1e-10       # the CLI's default --tol
MU_RTOL = 1e-12
THRESHOLD = 0.5
WINDOW_FLOOR = THRESHOLD - 10.0
SECULAR_DEPTH = 256        # the depth the program's cross-check uses
SECULAR_HALF_WIDTH = 2e-6  # > AGREEMENT_TOL, so a passing root is inside

# Two known defects of the program.  Answers they spoil count as failed;
# they do not make a run incorrect.
#
# 1. The h-spectrum cross-check misses roots near the critical weight:
#    the secular refinement runs at a fixed depth of 256
#    (hamiltonian._refine_secular), too shallow once mu - 1 is small.
#    The misses start at mu - 1 of about 1.6e-3; counted as this defect
#    only below this bound.
KNOWN_DEFECT_MU_MINUS_1 = 2e-3
# 2. identity-check reports residual nan when the forward solution's
#    mantissas sit near the 2^512 rescaling ceiling: their squares, times
#    2 mu sqrt(n + 1/2), overflow in recurrence.identity_residual and both
#    sides become -inf.
#    Counted as this defect only when ``_overflow_explains_nan`` confirms it.


def _close(a: float, b: float, rtol: float = MU_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def branch_weights(alpha: float, beta: float, gamma: complex) -> dict:
    """Branch weights keyed like the ``mu`` command's columns."""
    if beta < 0.0 or (beta == 0.0 and alpha < 0.0):
        alpha, beta = -alpha, -beta
    g2 = gamma.real**2 + gamma.imag**2
    if beta == 0.0:
        if alpha == 0.0:
            return {}
        return {"mu_beta0": (4.0 + g2) / (2.0 * SQRT2 * alpha)}
    ab = alpha * beta
    omega0 = 4.0 + ab + g2
    r = math.sqrt((ab + g2 - 4.0) ** 2 + 16.0 * g2)
    plus = omega0 + r
    minus = 16.0 * ab / plus  # omega0 - r without cancellation
    mu1 = math.inf if alpha == 0.0 else 2.0 * SQRT2 * beta / minus
    return {"mu1": mu1, "mu2": 2.0 * SQRT2 * beta / plus}


def bound_constant(alpha: float, beta: float, gamma: complex) -> float:
    """c in full >= (c/2) norm_sq, the quadratic-form lower bound."""
    if beta < 0.0 or (beta == 0.0 and alpha < 0.0):
        alpha, beta = -alpha, -beta
    if beta == 0.0:
        return 1.0 - alpha / SQRT2
    g2 = gamma.real**2 + gamma.imag**2
    ab = alpha * beta
    omega0 = 4.0 + ab + g2
    r = math.sqrt((ab + g2 - 4.0) ** 2 + 16.0 * g2)
    return 1.0 - (abs(omega0) + r) / (2.0 * SQRT2 * beta)


def predicted_count(mu: float) -> float:
    return 1.0 / (4.0 * SQRT2 * math.sqrt(mu - 1.0))


def _row_point(fixed: dict, variable: str, row: dict) -> tuple[float, float, complex]:
    pt = dict(fixed)
    pt[variable] = row[variable]
    return (
        float(pt.get("alpha", 0.0)),
        float(pt.get("beta", 0.0)),
        complex(pt.get("gamma_re", 0.0), pt.get("gamma_im", 0.0)),
    )


def _same_mus(reported, expected) -> bool:
    return len(reported) == len(expected) and all(
        _close(float(a), b) for a, b in zip(reported, expected)
    )


# ---------------------------------------------------------------------------
# single-point commands


def _check_h_spectrum(q, ans: dict) -> str | None:
    sub = q.expect["subcritical"]
    if not _same_mus(ans["branch_mus"], sub):
        return f"branch_mus {ans['branch_mus']} != {sub}"
    eigs = [float(e) for e in ans["eigenvalues"]]
    if not (ans["count"] == len(eigs) == sum(ans["per_branch_counts"])):
        return "count, eigenvalues and per_branch_counts disagree"
    if any(b < a for a, b in zip(eigs, eigs[1:])):
        return "eigenvalues not ascending"
    if any(not (WINDOW_FLOOR < e < THRESHOLD) for e in eigs):
        return "eigenvalue outside the window below 1/2"
    agreement = float(ans["method_agreement"])
    if not agreement <= AGREEMENT_TOL:
        return f"cross-check: method_agreement {agreement:.3g} > {AGREEMENT_TOL:g}"
    for lam in eigs:
        lo = lam - SECULAR_HALF_WIDTH
        hi = min(lam + SECULAR_HALF_WIDTH, THRESHOLD - 1e-12)
        if not any(
            secular_function(mu, lo, SECULAR_DEPTH).real
            * secular_function(mu, hi, SECULAR_DEPTH).real <= 0.0
            for mu in sub
        ):
            return f"eigenvalue {lam!r} is not a secular root"
    return None


def _check_discrete2(q, ans: dict) -> str | None:
    sub = q.expect["subcritical"]
    if not _same_mus(ans["branch_mus"], sub):
        return f"branch_mus {ans['branch_mus']} != {sub}"
    bound = 1 if len(sub) <= 1 else 2
    if ans["bound"] != bound:
        return f"bound {ans['bound']} != {bound}"
    if ans["ok"] is not True:
        return f"ok is {ans['ok']}: |{ans['lhs']} - {ans['rhs']}| > {bound}"
    if abs(ans["lhs"] - ans["rhs"]) > bound:
        return "ok is true but the counts differ by more than the bound"
    return None


def _check_asymptotics(q, ans: dict) -> str | None:
    mu = q.expect["mu"]
    if not _close(float(ans["mu"]), mu, 1e-14):
        return f"mu {ans['mu']} != {mu}"
    predicted = predicted_count(mu)
    if not _close(float(ans["predicted"]), predicted, 1e-8):
        return f"predicted {ans['predicted']} != {predicted}"
    counted = ans["counted"]
    if not abs(counted - predicted) <= ASYMPTOTICS_TOL:
        return f"|counted {counted} - predicted {predicted:.4f}| > {ASYMPTOTICS_TOL:g}"
    return None


def _check_count(q, ans: dict) -> str | None:
    count = ans["count"]
    predicted = sum(predicted_count(mu) for mu in q.expect["subcritical"])
    if not (isinstance(count, int) and count >= 0):
        return f"count {count!r} is not a nonnegative integer"
    if not abs(count - predicted) <= ASYMPTOTICS_TOL:
        return f"|count {count} - predicted {predicted:.4f}| > {ASYMPTOTICS_TOL:g}"
    return None


def _overflow_explains_nan(q, ans: dict) -> bool:
    """Whether a nan identity residual is the known overflow and nothing else.

    True only when the reported recurrence rows are sound, a partial
    product of the program's identity sum, 2 mu |m_n|^2 2^(2 (k_n - k_max))
    sqrt(n + 1/2) with mantissa m_n and scale k_n (evaluated before the
    factor Im zeta_n(lam)), exceeds the float range, and the identity
    recomputed in log scale (log2 |C_n|^2 shifted by its maximum before
    exponentiating) holds to IDENTITY_TOL.
    """
    if not float(ans["max_interior_residual"]) <= IDENTITY_TOL:
        return False
    size, mu, lam = q.expect["size"], q.expect["mu"], q.expect["lam"]
    sol = iterate_forward(mu, lam, 1.0, size)
    up = size - 1
    vals, k = sol.values[: up + 2], sol.log2_scale[: up + 2]
    ns = np.arange(up + 1)
    with np.errstate(divide="ignore"):
        log_mant = np.log2(np.abs(vals))
    log_partial = 2.0 * (log_mant[: up + 1] + k[: up + 1] - np.max(k)) + np.log2(
        2.0 * mu * np.sqrt(ns + 0.5)
    )
    if not np.max(log_partial) >= 1024.0:
        return False
    log_mag = log_mant + k  # log2 |C_n|
    log_sq = 2.0 * log_mag[: up + 1]
    top = float(np.max(log_sq))
    lhs = math.fsum(
        2.0 * mu * np.exp2(log_sq - top) * np.sqrt(ns + 0.5) * zeta_array(ns, lam).imag
    )
    a, b = vals[up + 1], vals[up]
    cross = (a * np.conj(b)).imag / (abs(a) * abs(b))  # sine of the phase gap
    rhs = -coupling_weight(up + 1) * cross * 2.0 ** (log_mag[up + 1] + log_mag[up] - top)
    denom = abs(lhs) + abs(rhs)
    return denom > 0.0 and abs(lhs - rhs) / denom <= IDENTITY_TOL


def _check_identity(q, ans: dict) -> str | None:
    if ans["size"] != q.expect["size"]:
        return f"size {ans['size']} != {q.expect['size']}"
    residual = float(ans["residual"])
    if math.isnan(residual):
        if _overflow_explains_nan(q, ans):
            return "residual-overflow: residual nan from an identity term overflowing"
        return "residual nan not explained by overflow"
    if not residual <= IDENTITY_TOL:
        return f"residual {residual:.3g} > {IDENTITY_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# grid commands: one check per row


def _row_mu(q, row: dict) -> str | None:
    want = branch_weights(*_row_point(q.expect["fixed"], q.expect["variable"], row))
    for key in ("mu1", "mu2", "mu_beta0"):
        if (key in want) != (key in row):
            return f"{key} present={key in row}, expected {key in want}"
        if key in want and not _close(float(row[key]), want[key]):
            return f"{key} {row[key]} != {want[key]!r}"
    return None


_KIND_ORDER = ("Subcritical", "Critical", "Supercritical", "NonpositiveOrDivergent")


def _kind(mu: float) -> str:
    if math.isinf(mu) or mu <= 0.0:
        return "NonpositiveOrDivergent"
    if abs(mu - 1.0) <= CLASSIFY_TOL:
        return "Critical"
    return "Subcritical" if mu > 1.0 else "Supercritical"


def _row_classify(q, row: dict) -> str | None:
    want = branch_weights(*_row_point(q.expect["fixed"], q.expect["variable"], row))
    names = {"mu1": "Branch1", "mu2": "Branch2", "mu_beta0": "BetaZero"}
    kinds = []
    for slot, (key, mu) in enumerate(want.items(), start=1):
        if row.get(f"branch{slot}") != names[key]:
            return f"branch{slot} {row.get(f'branch{slot}')} != {names[key]}"
        if not _close(float(row[f"mu{slot}"]), mu):
            return f"mu{slot} {row[f'mu{slot}']} != {mu!r}"
        kind = _kind(mu)
        if row.get(f"kind{slot}") != kind:
            return f"kind{slot} {row.get(f'kind{slot}')} != {kind}"
        kinds.append(kind)
    overall = next((k for k in _KIND_ORDER if k in kinds), "Free")
    if row["kind"] != overall:
        return f"kind {row['kind']} != {overall}"
    return None


def _row_surface(q, row: dict) -> str | None:
    fixed = dict(q.expect["fixed"], alpha=row["alpha_c"])
    mus = branch_weights(*_row_point(fixed, q.expect["variable"], row)).values()
    miss = min(abs(mu - 1.0) for mu in mus)
    if not miss <= SURFACE_TOL:
        return f"|mu - 1| = {miss:.3g} at alpha_c {row['alpha_c']}"
    return None


def _row_forms(q, row: dict) -> str | None:
    c_want = bound_constant(*_row_point(q.expect["fixed"], q.expect["variable"], row))
    c = float(row["c"])
    if not _close(c, c_want, 1e-10):
        return f"c {c} != {c_want!r}"
    if row["trials"] != q.expect["trials"]:
        return f"trials {row['trials']} != {q.expect['trials']}"
    if c > 0.0:
        if row.get("violations") != 0:
            return f"{row.get('violations')} violations of the bound with c = {c}"
    elif "violations" in row:
        return "violations reported although c <= 0"
    return None


_SINGLE = {
    "h-spectrum": _check_h_spectrum,
    "discrete2-check": _check_discrete2,
    "asymptotics": _check_asymptotics,
    "count": _check_count,
    "identity-check": _check_identity,
}

_ROWS = {
    "mu": _row_mu,
    "classify": _row_classify,
    "surface": _row_surface,
    "forms-test": _row_forms,
}


def check_answer(q, ans) -> str | None:
    """Judge a parsed answer; None when it is correct."""
    if q.command in _SINGLE:
        if not isinstance(ans, dict):
            return "expected one JSON object"
        return _SINGLE[q.command](q, ans)
    if not isinstance(ans, list) or len(ans) != q.points:
        return f"expected {q.points} rows"
    for i, row in enumerate(ans):
        if row.get("status") != "ok":
            return f"row {i}: status {row.get('status')}"
        reason = _ROWS[q.command](q, row)
        if reason:
            return f"row {i}: {reason}"
    return None


def check(q, rc: int, out: str, err: str = "") -> str | None:
    """Judge one ``run()`` call from its exit code and captured output."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    try:
        ans = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"unparseable output: {exc}"
    try:
        return check_answer(q, ans)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {type(exc).__name__} {exc}"


def known_defect(q, reason: str) -> bool:
    """Whether a failure is one of the two documented program defects."""
    if q.command == "identity-check":
        return reason.startswith("residual-overflow")
    return (
        q.command == "h-spectrum"
        and reason.startswith("cross-check")
        and q.expect["subcritical"][0] - 1.0 < KNOWN_DEFECT_MU_MINUS_1
    )
