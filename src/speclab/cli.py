"""Batch command-line front end.

Every computation in the package is reachable as a subcommand; each run is
either a single evaluation or a one-dimensional parameter sweep.  Output is
JSON or CSV with all numbers printed to 15 significant digits, rows emitted
in input order regardless of the worker count, so identical configurations
produce byte-identical output.

Each subcommand is declared once, in ``_COMMANDS``: its handler, its help,
the flags a ``--grid`` may sweep, its other flags and its output columns.
``_FLAGS`` gives every flag its option string, type and default.  The
parser, the sweep check and the handlers all read these two tables, and a
``--config`` file is parsed through the same flags.

Exit codes: 0 success, 2 invalid parameters, 3 non-convergence (or every
sweep point failing).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable

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
# command handlers: parsed flags -> rows of values in the command's columns


def _point_params(a: dict) -> CouplingParams:
    gamma = complex(a["gamma_re"], a["gamma_im"])
    return CouplingParams(alpha=a["alpha"], beta=a["beta"], gamma=gamma)


def _cmd_mu(a: dict) -> list[list]:
    mus = dict(branch_mus(_point_params(a)))
    return [[mus.get(b) for b in (Branch.ONE, Branch.TWO, Branch.BETA_ZERO)]]


_KIND_ORDER = (
    Criticality.SUBCRITICAL,
    Criticality.CRITICAL,
    Criticality.SUPERCRITICAL,
    Criticality.NONPOSITIVE_OR_DIVERGENT,
)


def _cmd_classify(a: dict) -> list[list]:
    branches = classify(_point_params(a), tol=a["tol"])
    kinds = {b.kind for b in branches}
    row = [next((k.value for k in _KIND_ORDER if k in kinds), "Free")]
    for b in branches:
        row += [b.branch.value, b.mu, b.kind.value]
    return [row]


def _cmd_surface(a: dict) -> list[list]:
    return [[critical_alpha(a["beta"], complex(a["gamma_re"], a["gamma_im"]))]]


_FAMILIES = {
    "reference": lambda a: ReferenceFamily(a["mu"]),
    "spectral": lambda a: SpectralFamily(lam=a["lam"], mu=a["mu"]),
    "counting": lambda a: CountingFamily(a["epsilon"]),
    "counting-limit": lambda a: CountingLimitFamily(),
}


def _cmd_jacobi_spectrum(a: dict) -> list[list]:
    t = build(_FAMILIES[a["family"]](a), a["size"])
    report = eigenvalues_in_window(t, a["lo"], a["hi"], tol=a["tol"])
    return [[a["family"], t.size, a["lo"], a["hi"], report.count,
             list(report.eigenvalues)]]


def _cmd_count(a: dict) -> list[list]:
    return [[count_below_epsilon(_point_params(a), a["epsilon"], size_cap=a["n_cap"])]]


def _cmd_h_spectrum(a: dict) -> list[list]:
    r = h_eigenvalues_below_threshold(
        _point_params(a), lambda_min=a["lambda_min"], tol=a["tol"], size_cap=a["n_cap"]
    )
    return [[list(r.branch_mus), list(r.per_branch_counts), r.count,
             list(r.eigenvalues), r.truncation_size, r.method_agreement]]


def _cmd_discrete2(a: dict) -> list[list]:
    r = discrete2_check(_point_params(a), tol=a["tol"], size_cap=a["n_cap"])
    return [[r.lhs, r.rhs, r.bound, r.ok, list(r.branch_mus)]]


def _cmd_asymptotics(a: dict) -> list[list]:
    rows = count_asymptotics_curve([a["mu"]], size_cap=a["n_cap"])
    return [[r.mu, r.counted, r.predicted, r.ratio] for r in rows]


def _cmd_identity_check(a: dict) -> list[list]:
    lam = complex(a["lam"], a["lam_im"])
    sol = iterate_forward(a["mu"], lam, 1.0, a["size"])
    check = identity_residual(sol, a["size"] - 1)
    return [[a["mu"], lam.real, lam.imag, a["size"], check.residual,
             sol.max_interior_residual()]]


def _cmd_transition_scan(a: dict) -> list[list]:
    r = transition_scan(a["mu"], a["sizes"], (a["lo"], a["hi"]), tol=a["tol"])
    return [[r.mu, size, float(r.smallest[i]), int(r.window_counts[i])]
            for i, size in enumerate(r.sizes)]


def _cmd_forms_test(a: dict) -> list[list]:
    params = _point_params(a)
    c = lower_bound_constant(params)
    rng = np.random.default_rng(a["seed"])
    beta_zero_gamma = params.gamma if params.beta == 0.0 else None
    violations = 0
    min_margin = math.inf
    for _ in range(a["trials"]):
        trial = random_trial(rng, beta_zero_gamma=beta_zero_gamma)
        forms = evaluate_forms(trial, params)
        margin = forms.full - 0.5 * c * forms.norm_sq
        min_margin = min(min_margin, margin)
        if c > 0.0 and margin < 0.0:
            violations += 1
    return [[c, a["trials"], violations if c > 0.0 else None, min_margin]]


# ---------------------------------------------------------------------------
# the flag and command tables


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


@dataclass(frozen=True)
class _Flag:
    """One flag: its option string and how argparse reads it."""

    option: str
    type: Callable = float
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False

    @property
    def name(self) -> str:
        """The spelling of a config key or grid variable: ``gamma_re``."""
        return self.option[2:].replace("-", "_")


# keyed by the parsed dict's key, which heads a sweep's first column
_FLAGS = {
    "alpha": _Flag("--alpha", default=0.0),
    "beta": _Flag("--beta", default=0.0),
    "gamma_re": _Flag("--gamma-re", default=0.0),
    "gamma_im": _Flag("--gamma-im", default=0.0),
    "mu": _Flag("--mu", default=1.0),
    "lam": _Flag("--lambda", default=0.0),
    "lam_im": _Flag("--lambda-im", default=0.0),
    "epsilon": _Flag("--epsilon", default=1.0),
    "lambda_min": _Flag("--lambda-min"),
    "family": _Flag("--family", str, choices=tuple(_FAMILIES), required=True),
    "size": _Flag("--size", int, 512),
    "sizes": _Flag("--sizes", _sizes, "2048,4096,8192,16384",
                   "comma-separated truncation sizes"),
    "lo": _Flag("--lo", default=-5.0),
    "hi": _Flag("--hi", default=5.0),
    "trials": _Flag("--trials", int, 1000),
    "seed": _Flag("--seed", int, 0),
    "svg": _Flag("--svg", str),
    "grid": _Flag("--grid", str, help="sweep spec variable:start:stop:steps[:scale]"),
    "workers": _Flag("--workers", int, 1, "sweep worker processes"),
    "format": _Flag("--format", str, "json", choices=("json", "csv")),
    "output": _Flag("--output", str, help="output file path (default: stdout)"),
    "config": _Flag("--config", str, help="JSON file with defaults for any flag"),
    "tol": _Flag("--tol", default=1e-10),
    "n_cap": _Flag("--n-cap", int, DOUBLING_CAP),
}

# config keys: a flag's name or its parsed key
_NAMES = {f.name: key for key, f in _FLAGS.items()} | {key: key for key in _FLAGS}

_COMMON = ("grid", "workers", "format", "output", "config", "tol", "n_cap")
_COUPLING = ("alpha", "beta", "gamma_re", "gamma_im")


@dataclass(frozen=True)
class _Command:
    """One subcommand; its handler maps the parsed flags to rows of values
    in ``columns`` order."""

    handler: Callable[[dict], list[list]]
    help: str
    grid: tuple[str, ...]  # the flags a --grid may sweep
    flags: tuple[str, ...]  # its other flags, besides _COMMON
    columns: tuple[str, ...]

    @property
    def options(self) -> tuple[str, ...]:
        return (*_COMMON, *self.grid, *self.flags)

    def rows(self, a: dict) -> list[dict]:
        """The handler's rows keyed by column; a short row leaves its last
        columns empty."""
        return [dict(zip(self.columns, values)) for values in self.handler(a)]


_COMMANDS = {
    "mu": _Command(
        _cmd_mu, "branch coupling weights",
        _COUPLING, (), ("mu1", "mu2", "mu_beta0"),
    ),
    "classify": _Command(
        _cmd_classify, "sub/super/critical per branch",
        _COUPLING, (), ("kind", "branch1", "mu1", "kind1", "branch2", "mu2", "kind2"),
    ),
    "surface": _Command(
        _cmd_surface, "critical alpha for given beta, gamma",
        ("beta", "gamma_re", "gamma_im"), (), ("alpha_c",),
    ),
    "jacobi-spectrum": _Command(
        _cmd_jacobi_spectrum, "window eigenvalues of a truncated Jacobi family",
        ("mu", "lam", "epsilon"), ("family", "size", "lo", "hi"),
        ("family", "size", "lo", "hi", "count", "eigenvalues"),
    ),
    "count": _Command(
        _cmd_count, "counting-operator eigenvalue count below 1/2 - epsilon",
        (*_COUPLING, "epsilon"), (), ("count",),
    ),
    "h-spectrum": _Command(
        _cmd_h_spectrum, "all eigenvalues below the continuum threshold",
        _COUPLING, ("lambda_min",),
        ("branch_mus", "per_branch_counts", "count", "eigenvalues",
         "truncation_size", "method_agreement"),
    ),
    "discrete2-check": _Command(
        _cmd_discrete2, "compare located count with the counting-limit bound",
        _COUPLING, (), ("lhs", "rhs", "bound", "ok", "branch_mus"),
    ),
    "asymptotics": _Command(
        _cmd_asymptotics, "near-critical counting law check",
        ("mu",), ("svg",), ("mu", "counted", "predicted", "ratio"),
    ),
    "identity-check": _Command(
        _cmd_identity_check, "summed-identity residual of a forward solution",
        ("mu", "lam"), ("lam_im", "size"),
        ("mu", "lambda_re", "lambda_im", "size", "residual", "max_interior_residual"),
    ),
    "transition-scan": _Command(
        _cmd_transition_scan, "smallest eigenvalue and window count across sizes",
        ("mu",), ("sizes", "lo", "hi", "svg"),
        ("mu", "size", "smallest", "window_count"),
    ),
    "forms-test": _Command(
        _cmd_forms_test, "Monte-Carlo check of the quadratic-form lower bound",
        _COUPLING, ("trials", "seed"), ("c", "trials", "violations", "min_margin"),
    ),
}


# ---------------------------------------------------------------------------
# argument parsing

# every number _fmt_float prints, -9.9e-05 and -inf included
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-inf$")


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in any printed form as a value, not an option
    (argparse alone rejects ``--gamma-im -9.9e-05``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing never changes it."""
    parser = _Parser(
        prog="speclab",
        description="Spectral toolkit for the contact-interaction strip model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.options:
            f = _FLAGS[key]
            p.add_argument(f.option, dest=key, type=f.type, default=f.default,
                           help=f.help, choices=f.choices, required=f.required)
    return parser


_CONFIG_PARSER = argparse.ArgumentParser(prog="speclab", add_help=False)
_CONFIG_PARSER.add_argument("--config")


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with each value of its ``--config`` file as a ``--flag=value``
    token placed before the user's own flags, which therefore win.

    A key that names no flag is an error; a key for another command's flag
    is skipped, so that one file can serve several commands.
    """
    path = _CONFIG_PARSER.parse_known_args(argv)[0].config
    if path is None or not argv or argv[0] not in _COMMANDS:
        return argv
    with open(path, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise InvalidParametersError("--config must hold a JSON object")
    options = _COMMANDS[argv[0]].options
    tokens = []
    for key, value in loaded.items():
        if key not in _NAMES:
            raise InvalidParametersError(f"config key {key!r} names no flag")
        if _NAMES[key] in options:
            f = _FLAGS[_NAMES[key]]
            # only a string flag takes a JSON string as written: "12" is no size
            text = (value if isinstance(value, str) and f.type not in (int, float)
                    else json.dumps(value))
            tokens.append(f"{f.option}={text}")
    return [argv[0], *tokens, *argv[1:]]


# ---------------------------------------------------------------------------
# sweep plumbing


def _parse_grid(text: str, command: str) -> tuple[str, list[float]]:
    """``variable:start:stop:steps[:scale]`` -> (swept key, point values)."""
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
    names = {_FLAGS[k].name: k for k in _COMMANDS[command].grid}
    key = names.get(parts[0])
    if key is None:
        raise InvalidParametersError(
            f"command {command!r} does not use grid variable {parts[0]!r}; "
            f"choose one of {sorted(names)}"
        )
    if steps < 1:
        raise InvalidParametersError("grid steps must be >= 1")
    if scale not in ("linear", "log"):
        raise InvalidParametersError("grid scale must be 'linear' or 'log'")
    if scale == "log" and (start <= 0.0 or stop <= 0.0):
        raise InvalidParametersError("log grids need positive endpoints")
    if steps == 1:
        return key, [start]
    space = np.geomspace if scale == "log" else np.linspace
    return key, [float(v) for v in space(start, stop, steps)]


def _run_task(task: tuple) -> list[dict]:
    """One sweep point -> rows with a trailing status column (pool-safe)."""
    command, key, value, a = task
    head = {key: value}
    try:
        rows = _COMMANDS[command].rows(a | head)
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
# entry point


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        a = vars(_build_parser().parse_args(_with_config(argv)))
        command = _COMMANDS[a["command"]]
        if a["grid"] is None:
            rows = command.rows(a)
            columns = list(command.columns)
            any_ok = True
        else:
            key, values = _parse_grid(a["grid"], a["command"])
            tasks = [(a["command"], key, value, a) for value in values]
            if a["workers"] > 1 and len(tasks) > 1:
                with Pool(processes=a["workers"]) as pool:
                    chunks = pool.map(_run_task, tasks)
            else:
                chunks = [_run_task(t) for t in tasks]
            rows = [row for chunk in chunks for row in chunk]
            columns = [key] + [c for c in command.columns if c != key] + ["status"]
            any_ok = any(r.get("status") == "ok" for r in rows)

        _maybe_svg(a["command"], rows, a.get("svg"))
        text = (
            _render_csv(rows, columns)
            if a["format"] == "csv"
            else _render_json(rows, single=a["grid"] is None)
        )
        if a["output"]:
            with open(a["output"], "w", encoding="utf-8", newline="") as fh:
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
