"""Batch command-line front end.

Every computation in the package is reachable as a subcommand; each run is
either a single evaluation or a one-dimensional parameter sweep.  Output is
JSON or CSV with all numbers printed to 15 significant digits, rows emitted
in input order regardless of the worker count, so identical configurations
produce byte-identical output.

Exit codes: 0 success, 2 invalid parameters, 3 non-convergence (or every
sweep point failing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .coupling import (
    Branch,
    CouplingParams,
    Criticality,
    branch_mus,
    classify,
    critical_alpha,
)
from .errors import InvalidParametersError, NonConvergenceError, SpeclabError
from .hamiltonian import (
    count_asymptotics_curve,
    count_below_epsilon,
    discrete2_check,
    evaluate_forms,
    h_eigenvalues_below_threshold,
    lower_bound_constant,
    random_trial,
)
from .jacobi_ops import (
    DOUBLING_CAP,
    CountingFamily,
    CountingLimitFamily,
    ReferenceFamily,
    SpectralFamily,
    build,
    transition_scan,
)
from .recurrence import identity_residual, iterate_forward
from .tridiag import eigenvalues_in_window

GRID_VARIABLES = ("alpha", "beta", "gamma_re", "gamma_im", "mu", "lambda", "epsilon")

# grid variables each command actually consumes
_COUPLING_VARS = frozenset({"alpha", "beta", "gamma_re", "gamma_im"})
_GRID_VARS: dict[str, frozenset[str]] = {
    "mu": _COUPLING_VARS,
    "classify": _COUPLING_VARS,
    "surface": frozenset({"beta", "gamma_re", "gamma_im"}),
    "jacobi-spectrum": frozenset({"mu", "lambda", "epsilon"}),
    "count": _COUPLING_VARS | {"epsilon"},
    "h-spectrum": _COUPLING_VARS,
    "discrete2-check": _COUPLING_VARS,
    "asymptotics": frozenset({"mu"}),
    "identity-check": frozenset({"mu", "lambda"}),
    "transition-scan": frozenset({"mu"}),
    "forms-test": _COUPLING_VARS,
}

# the "lambda" grid variable feeds the real part of the spectral parameter
_VAR_TO_KEY = {v: v for v in GRID_VARIABLES} | {"lambda": "lam"}


# ---------------------------------------------------------------------------
# value formatting: 15 significant digits everywhere


def _fmt_float(x: float) -> str:
    return f"{float(x):.15g}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _json_token(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isfinite(x):
            return _fmt_float(x)
        return json.dumps(_fmt_float(x))  # "inf" as a quoted string
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_token(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(
            f"{json.dumps(k)}: {_json_token(v)}"
            for k, v in value.items()
            if v is not None
        )
        return "{" + inner + "}"
    raise TypeError(f"cannot serialise {value!r}")


def _render_json(rows: list[dict], single: bool) -> str:
    if single and len(rows) == 1:
        return _json_token(rows[0]) + "\n"
    return "[" + ",\n ".join(_json_token(r) for r in rows) + "]\n"


def _render_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command handlers: (point values, options) -> rows

_MU_KEY = {Branch.ONE: "mu1", Branch.TWO: "mu2", Branch.BETA_ZERO: "mu_beta0"}


def _point_params(pt: dict) -> CouplingParams:
    gamma = complex(pt.get("gamma_re", 0.0), pt.get("gamma_im", 0.0))
    return CouplingParams(
        alpha=pt.get("alpha", 0.0), beta=pt.get("beta", 0.0), gamma=gamma
    )


def _cmd_mu(pt: dict, opts: dict) -> list[dict]:
    row: dict = {"mu1": None, "mu2": None, "mu_beta0": None}
    for branch, mu in branch_mus(_point_params(pt)):
        row[_MU_KEY[branch]] = mu
    return [row]


_KIND_ORDER = (
    Criticality.SUBCRITICAL,
    Criticality.CRITICAL,
    Criticality.SUPERCRITICAL,
    Criticality.NONPOSITIVE_OR_DIVERGENT,
)


def _cmd_classify(pt: dict, opts: dict) -> list[dict]:
    branches = classify(_point_params(pt), tol=opts["tol"])
    kinds = {b.kind for b in branches}
    overall = "Free"
    for kind in _KIND_ORDER:
        if kind in kinds:
            overall = kind.value
            break
    row: dict = {"kind": overall}
    for slot, b in enumerate(branches, start=1):
        row[f"branch{slot}"] = b.branch.value
        row[f"mu{slot}"] = b.mu
        row[f"kind{slot}"] = b.kind.value
    for slot in range(len(branches) + 1, 3):
        row[f"branch{slot}"] = None
        row[f"mu{slot}"] = None
        row[f"kind{slot}"] = None
    return [row]


def _cmd_surface(pt: dict, opts: dict) -> list[dict]:
    gamma = complex(pt.get("gamma_re", 0.0), pt.get("gamma_im", 0.0))
    return [{"alpha_c": critical_alpha(pt.get("beta", 0.0), gamma)}]


def _cmd_jacobi_spectrum(pt: dict, opts: dict) -> list[dict]:
    name = opts["family"]
    if name == "reference":
        family = ReferenceFamily(pt.get("mu", 1.0))
    elif name == "spectral":
        family = SpectralFamily(lam=pt.get("lam", 0.0), mu=pt.get("mu", 1.0))
    elif name == "counting":
        family = CountingFamily(pt.get("epsilon", 1.0))
    else:
        family = CountingLimitFamily()
    t = build(family, opts["size"])
    report = eigenvalues_in_window(t, opts["lo"], opts["hi"], tol=opts["tol"])
    return [
        {
            "family": name,
            "size": t.size,
            "lo": opts["lo"],
            "hi": opts["hi"],
            "count": report.count,
            "eigenvalues": list(report.eigenvalues),
        }
    ]


def _cmd_count(pt: dict, opts: dict) -> list[dict]:
    n = count_below_epsilon(
        _point_params(pt), pt.get("epsilon", opts["epsilon"]), size_cap=opts["n_cap"]
    )
    return [{"count": n}]


def _cmd_h_spectrum(pt: dict, opts: dict) -> list[dict]:
    result = h_eigenvalues_below_threshold(
        _point_params(pt),
        lambda_min=opts["lambda_min"],
        tol=opts["tol"],
        size_cap=opts["n_cap"],
    )
    return [
        {
            "branch_mus": list(result.branch_mus),
            "per_branch_counts": list(result.per_branch_counts),
            "count": result.count,
            "eigenvalues": list(result.eigenvalues),
            "truncation_size": result.truncation_size,
            "method_agreement": result.method_agreement,
        }
    ]


def _cmd_discrete2(pt: dict, opts: dict) -> list[dict]:
    report = discrete2_check(
        _point_params(pt), tol=opts["tol"], size_cap=opts["n_cap"]
    )
    return [
        {
            "lhs": report.lhs,
            "rhs": report.rhs,
            "bound": report.bound,
            "ok": report.ok,
            "branch_mus": list(report.branch_mus),
        }
    ]


def _cmd_asymptotics(pt: dict, opts: dict) -> list[dict]:
    rows = count_asymptotics_curve([pt.get("mu", 1.02)], size_cap=opts["n_cap"])
    return [
        {"mu": r.mu, "counted": r.counted, "predicted": r.predicted, "ratio": r.ratio}
        for r in rows
    ]


def _cmd_identity_check(pt: dict, opts: dict) -> list[dict]:
    lam = complex(pt.get("lam", 0.0), opts["lam_im"])
    size = opts["size"]
    sol = iterate_forward(pt.get("mu", 1.0), lam, 1.0, size)
    check = identity_residual(sol, size - 1)
    return [
        {
            "mu": pt.get("mu", 1.0),
            "lambda_re": lam.real,
            "lambda_im": lam.imag,
            "size": size,
            "residual": check.residual,
            "max_interior_residual": sol.max_interior_residual(),
        }
    ]


def _cmd_transition_scan(pt: dict, opts: dict) -> list[dict]:
    report = transition_scan(
        pt.get("mu", 1.0), opts["sizes"], (opts["lo"], opts["hi"]), tol=opts["tol"]
    )
    return [
        {
            "mu": report.mu,
            "size": size,
            "smallest": float(report.smallest[i]),
            "window_count": int(report.window_counts[i]),
        }
        for i, size in enumerate(report.sizes)
    ]


def _cmd_forms_test(pt: dict, opts: dict) -> list[dict]:
    params = _point_params(pt)
    c = lower_bound_constant(params)
    rng = np.random.default_rng(opts["seed"])
    beta_zero_gamma = params.gamma if params.beta == 0.0 else None
    violations = 0
    min_margin = math.inf
    for _ in range(opts["trials"]):
        trial = random_trial(rng, beta_zero_gamma=beta_zero_gamma)
        forms = evaluate_forms(trial, params)
        margin = forms.full - 0.5 * c * forms.norm_sq
        min_margin = min(min_margin, margin)
        if c > 0.0 and margin < 0.0:
            violations += 1
    return [
        {
            "c": c,
            "trials": opts["trials"],
            "violations": violations if c > 0.0 else None,
            "min_margin": min_margin,
        }
    ]


_HANDLERS = {
    "mu": _cmd_mu,
    "classify": _cmd_classify,
    "surface": _cmd_surface,
    "jacobi-spectrum": _cmd_jacobi_spectrum,
    "count": _cmd_count,
    "h-spectrum": _cmd_h_spectrum,
    "discrete2-check": _cmd_discrete2,
    "asymptotics": _cmd_asymptotics,
    "identity-check": _cmd_identity_check,
    "transition-scan": _cmd_transition_scan,
    "forms-test": _cmd_forms_test,
}

_COLUMNS = {
    "mu": ["mu1", "mu2", "mu_beta0"],
    "classify": [
        "kind",
        "branch1", "mu1", "kind1",
        "branch2", "mu2", "kind2",
    ],
    "surface": ["alpha_c"],
    "jacobi-spectrum": ["family", "size", "lo", "hi", "count", "eigenvalues"],
    "count": ["count"],
    "h-spectrum": [
        "branch_mus",
        "per_branch_counts",
        "count",
        "eigenvalues",
        "truncation_size",
        "method_agreement",
    ],
    "discrete2-check": ["lhs", "rhs", "bound", "ok", "branch_mus"],
    "asymptotics": ["mu", "counted", "predicted", "ratio"],
    "identity-check": [
        "mu", "lambda_re", "lambda_im", "size", "residual", "max_interior_residual",
    ],
    "transition-scan": ["mu", "size", "smallest", "window_count"],
    "forms-test": ["c", "trials", "violations", "min_margin"],
}


# ---------------------------------------------------------------------------
# sweep plumbing


@dataclass(frozen=True)
class GridSpec:
    variable: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.variable not in GRID_VARIABLES:
            raise InvalidParametersError(
                f"grid variable must be one of {GRID_VARIABLES}, "
                f"got {self.variable!r}"
            )
        if self.steps < 1:
            raise InvalidParametersError("grid steps must be >= 1")
        if self.scale not in ("linear", "log"):
            raise InvalidParametersError("grid scale must be 'linear' or 'log'")
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise InvalidParametersError("log grids need positive endpoints")

    def values(self) -> list[float]:
        if self.steps == 1:
            return [float(self.start)]
        if self.scale == "log":
            return [float(v) for v in np.geomspace(self.start, self.stop, self.steps)]
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise InvalidParametersError(
            "grid must look like variable:start:stop:steps[:scale], "
            f"got {text!r}"
        )
    scale = parts[4] if len(parts) == 5 else "linear"
    try:
        start, stop, steps = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise InvalidParametersError(f"bad grid numbers in {text!r}: {exc}") from exc
    return GridSpec(parts[0], start, stop, steps, scale)


def _run_task(task: tuple) -> list[dict]:
    """One sweep point -> rows with a trailing status column (pool-safe)."""
    command, var_key, value, pt, opts = task
    pt = dict(pt)
    if var_key is not None:
        pt[var_key] = value
    head = {} if var_key is None else {var_key: value}
    try:
        rows = _HANDLERS[command](pt, opts)
    except (SpeclabError, ValueError, ZeroDivisionError) as exc:
        return [head | {"status": type(exc).__name__}]
    return [head | row | {"status": "ok"} for row in rows]


# ---------------------------------------------------------------------------
# SVG chart (optional convenience for asymptotics / transition-scan)


def _write_svg(path: str, title: str, series: list[tuple[str, list, list]]) -> None:
    width, height, pad = 640, 400, 50
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        return
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="black"/>',
    ]
    for i, (name, xs, ys) in enumerate(series):
        color = colors[i % len(colors)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - pad}" y="{pad + 16 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">'
            f"{name}</text>"
        )
    for value, label in ((x_lo, "x_lo"), (x_hi, "x_hi")):
        parts.append(
            f'<text x="{sx(value):.2f}" y="{height - pad + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_fmt_float(value)}</text>"
        )
    for value in (y_lo, y_hi):
        parts.append(
            f'<text x="{pad - 6}" y="{sy(value):.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_float(value)}</text>'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts))


def _maybe_svg(command: str, rows: list[dict], path: str | None) -> None:
    if not path:
        return
    ok_rows = [r for r in rows if r.get("status", "ok") == "ok"]
    if command == "asymptotics":
        xs = [r["mu"] for r in ok_rows]
        _write_svg(
            path,
            "eigenvalue count vs coupling",
            [
                ("counted", xs, [float(r["counted"]) for r in ok_rows]),
                ("predicted", xs, [r["predicted"] for r in ok_rows]),
            ],
        )
    elif command == "transition-scan":
        xs = [float(r["size"]) for r in ok_rows]
        _write_svg(
            path,
            "smallest truncation eigenvalue vs size",
            [("smallest", xs, [r["smallest"] for r in ok_rows])],
        )


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=str, default=None,
                        help="sweep spec variable:start:stop:steps[:scale]")
    common.add_argument("--workers", type=int, default=None,
                        help="sweep worker processes (SPECLAB_WORKERS overrides)")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--output", type=str, default=None,
                        help="output file path (default: stdout)")
    common.add_argument("--config", type=str, default=None,
                        help="JSON file with defaults for any flag")
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--n-cap", dest="n_cap", type=int, default=None)

    coupled = argparse.ArgumentParser(add_help=False)
    coupled.add_argument("--alpha", type=float, default=None)
    coupled.add_argument("--beta", type=float, default=None)
    coupled.add_argument("--gamma-re", dest="gamma_re", type=float, default=None)
    coupled.add_argument("--gamma-im", dest="gamma_im", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Spectral toolkit for the contact-interaction strip model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("mu", parents=[common, coupled],
                   help="branch coupling weights")
    sub.add_parser("classify", parents=[common, coupled],
                   help="sub/super/critical per branch")

    p = sub.add_parser("surface", parents=[common],
                       help="critical alpha for given beta, gamma")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma-re", dest="gamma_re", type=float, default=None)
    p.add_argument("--gamma-im", dest="gamma_im", type=float, default=None)

    p = sub.add_parser("jacobi-spectrum", parents=[common],
                       help="window eigenvalues of a truncated Jacobi family")
    p.add_argument("--family", required=True,
                   choices=("reference", "spectral", "counting", "counting-limit"))
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)

    p = sub.add_parser("count", parents=[common, coupled],
                       help="counting-operator eigenvalue count below 1/2 - epsilon")
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("h-spectrum", parents=[common, coupled],
                       help="all eigenvalues below the continuum threshold")
    p.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)

    sub.add_parser("discrete2-check", parents=[common, coupled],
                   help="compare located count with the counting-limit bound")

    p = sub.add_parser("asymptotics", parents=[common],
                       help="near-critical counting law check")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--svg", type=str, default=None)

    p = sub.add_parser("identity-check", parents=[common],
                       help="summed-identity residual of a forward solution")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda-im", dest="lam_im", type=float, default=None)
    p.add_argument("--size", type=int, default=None)

    p = sub.add_parser("transition-scan", parents=[common],
                       help="smallest eigenvalue and window count across sizes")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--sizes", type=str, default=None,
                   help="comma-separated truncation sizes")
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--svg", type=str, default=None)

    p = sub.add_parser("forms-test", parents=[common, coupled],
                       help="Monte-Carlo check of the quadratic-form lower bound")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    return parser


_DEFAULTS: dict = {
    "alpha": 0.0,
    "beta": 0.0,
    "gamma_re": 0.0,
    "gamma_im": 0.0,
    "mu": 1.0,
    "lam": 0.0,
    "lam_im": 0.0,
    "epsilon": 1.0,
    "size": 512,
    "lo": -5.0,
    "hi": 5.0,
    "tol": 1e-10,
    "n_cap": DOUBLING_CAP,
    "sizes": "2048,4096,8192,16384",
    "lambda_min": None,
    "trials": 1000,
    "seed": 0,
    "workers": 1,
    "format": "json",
    "output": None,
    "grid": None,
    "svg": None,
    "family": None,
}

_POINT_KEYS = ("alpha", "beta", "gamma_re", "gamma_im", "mu", "lam", "epsilon")
_OPT_KEYS = (
    "tol", "n_cap", "size", "lo", "hi", "sizes", "lambda_min",
    "trials", "seed", "family", "lam_im", "epsilon",
)


def _merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; grid parsed to GridSpec."""
    merged = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InvalidParametersError("--config must hold a JSON object")
        for key, value in loaded.items():
            key = {"lambda": "lam", "lambda_im": "lam_im"}.get(key, key)
            merged[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value

    grid = merged.get("grid")
    if isinstance(grid, str):
        merged["grid"] = _parse_grid(grid)
    elif isinstance(grid, dict):
        merged["grid"] = GridSpec(
            variable=grid["variable"],
            start=float(grid["start"]),
            stop=float(grid["stop"]),
            steps=int(grid["steps"]),
            scale=grid.get("scale", "linear"),
        )
    env_workers = os.environ.get("SPECLAB_WORKERS")
    if env_workers:
        merged["workers"] = int(env_workers)
    return merged


def _gather(cfg: dict) -> tuple[dict, dict]:
    pt = {k: cfg[k] for k in _POINT_KEYS if cfg.get(k) is not None}
    opts = {k: cfg[k] for k in _OPT_KEYS}
    if isinstance(opts.get("sizes"), str):
        opts["sizes"] = tuple(int(s) for s in opts["sizes"].split(",") if s)
    return pt, opts


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        cfg = _merge_config(args)
        pt, opts = _gather(cfg)
        grid: GridSpec | None = cfg.get("grid")

        if grid is None:
            rows = _HANDLERS[command](pt, opts)
            columns = list(_COLUMNS[command])
            any_ok = True
        else:
            if grid.variable not in _GRID_VARS[command]:
                raise InvalidParametersError(
                    f"command {command!r} does not use grid variable "
                    f"{grid.variable!r}; choose one of "
                    f"{sorted(_GRID_VARS[command])}"
                )
            var_key = _VAR_TO_KEY[grid.variable]
            tasks = [
                (command, var_key, value, pt, opts) for value in grid.values()
            ]
            workers = max(1, int(cfg["workers"]))
            if workers > 1 and len(tasks) > 1:
                with Pool(processes=workers) as pool:
                    chunks = pool.map(_run_task, tasks)
            else:
                chunks = [_run_task(t) for t in tasks]
            rows = [row for chunk in chunks for row in chunk]
            columns = [var_key] + [
                c for c in _COLUMNS[command] if c != var_key
            ] + ["status"]
            any_ok = any(r.get("status") == "ok" for r in rows)

        _maybe_svg(command, rows, cfg.get("svg"))
        text = (
            _render_csv(rows, columns)
            if cfg["format"] == "csv"
            else _render_json(rows, single=grid is None)
        )
        if cfg.get("output"):
            with open(cfg["output"], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if not any_ok:
            print("all sweep points failed", file=sys.stderr)
            return 3
        return 0
    except NonConvergenceError as exc:
        print(f"speclab: {exc}", file=sys.stderr)
        return 3
    except (SpeclabError, ValueError, OSError) as exc:
        print(f"speclab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
