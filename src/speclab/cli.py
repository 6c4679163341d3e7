"""Batch command-line front end.

Every computation in the package is reachable as a subcommand; each run is
either a single evaluation or a one-dimensional parameter sweep.  Output is
JSON or CSV with all numbers printed to 15 significant digits, rows emitted
in input order regardless of the worker count, so identical configurations
produce byte-identical output.

Both formats print the run's one column list: the command's columns, or
for a sweep the swept flag, the others and ``status``.  CSV prints it as
its header; JSON prints each row as an object of its cells in that order,
leaving out those with no value, which CSV prints empty.  A bool or number
prints as its CSV cell, a non-finite one quoted (``"inf"``).  A single run
that returns one row prints one object, every other run a list of them.

Each subcommand is declared once, in ``_COMMANDS``: its handler, its help,
the flags a ``--grid`` may sweep, its other flags, its output columns and,
for ``asymptotics`` and ``transition-scan``, the chart that ``--svg`` draws
from those columns; a command takes ``--svg`` exactly when it has a chart.
A command accepts only the flags it reads: ``--tol`` only where a bisection
or a classification uses it, ``--n-cap`` only where a certified count
walks rows.  ``_FLAGS`` gives every flag its option string, type and
default.  The parse, ``--help``, the sweep check and the handlers all read
these two tables: ``argv[0]`` is the command, each later token one of its
flags as ``--flag=value`` or ``--flag value``, and a ``--config`` file's
values are read through the same flags.

This module imports only the parameter algebra (:mod:`speclab.coupling`),
which is scalar Python: ``mu``, ``classify`` and ``surface``, single or
on a linear grid, and ``--help`` answer without numpy.  Every other
handler imports the modules it reads when it runs, and its ``_COMMANDS``
entry lists them (``_Command.imports``: ``speclab.hamiltonian`` and
``numpy.random`` for ``forms-test``).  A linear grid's points are
``np.linspace``'s, computed in Python; a log grid imports numpy for
``np.geomspace``.

A ``--grid`` sweep with ``--workers N`` forks ``min(N, points)`` children,
1 <= N <= 256; child ``w`` computes every ``min(N, points)``-th point from
point ``w`` and pipes its rows back, and the parent puts them in input
order.  Before it forks, the parent imports the command's
``_Command.imports``, so that each child inherits them instead of
importing them again.  Where ``os.fork`` is missing the grid runs
serially.

Exit codes: 0 success (``--help`` included), 2 invalid parameters (a
malformed command line or a request too large for memory among them) or
a sweep worker that died before sending its rows, 3 non-convergence (or
every sweep point failing).  Every exit 2 or 3 prints one ``speclab:``
line on stderr; ``run`` returns each code and never raises ``SystemExit``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NoReturn

from .coupling import (
    Branch,
    CouplingParams,
    Criticality,
    branch_mus,
    classify,
    critical_alpha,
)
from .errors import ROW_CAP, InvalidParametersError, NonConvergenceError, SpeclabError

# ---------------------------------------------------------------------------
# value formatting: 15 significant digits everywhere


def _fmt_float(x: float) -> str:
    return f"{float(x):.15g}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _json_token(value) -> str:
    """A cell's value as JSON: a bool or number as its CSV cell, quoted if not finite."""
    if isinstance(value, (int, float)):  # a bool is an int
        cell = _csv_cell(value)
        return cell if math.isfinite(value) else f'"{cell}"'
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_token(v) for v in value) + "]"
    raise TypeError(f"cannot serialise {value!r}")


def _render_json(rows: list[dict], columns: list[str], single: bool) -> str:
    """Each row as an object of its cells with a value, in ``columns`` order."""
    keys = [(col, json.dumps(col) + ": ") for col in columns]
    objects = ["{" + ", ".join([k + _json_token(row[c]) for c, k in keys if row.get(c) is not None])
               + "}" for row in rows]
    if single and len(objects) == 1:
        return objects[0] + "\n"
    return "[" + ",\n ".join(objects) + "]\n"


def _render_csv(rows: list[dict], columns: list[str]) -> str:
    cells = [columns] + [[_csv_cell(row.get(col)) for col in columns] for row in rows]
    return "".join(",".join(line) + "\n" for line in cells)


# ---------------------------------------------------------------------------
# command handlers: parsed flags -> rows of values in the command's columns


def _point_params(a: dict) -> CouplingParams:
    gamma = complex(a["gamma_re"], a["gamma_im"])
    return CouplingParams(alpha=a["alpha"], beta=a["beta"], gamma=gamma)


def _cmd_mu(a: dict) -> list[list]:
    mus = dict(branch_mus(_point_params(a)))
    return [[mus.get(b) for b in (Branch.ONE, Branch.TWO, Branch.BETA_ZERO)]]


def _cmd_classify(a: dict) -> list[list]:
    branches = classify(_point_params(a), tol=a["tol"])
    kinds = {b.kind for b in branches}
    # the first kind in Criticality's order, from sub- to supercritical
    row = [next((k.value for k in Criticality if k in kinds), "Free")]
    for b in branches:
        row += [b.branch.value, b.mu, b.kind.value]
    return [row]


def _cmd_surface(a: dict) -> list[list]:
    return [[critical_alpha(a["beta"], complex(a["gamma_re"], a["gamma_im"]))]]


# --family: each name's speclab.jacobi_ops family, from that module and the flags
_FAMILIES = {
    "reference": lambda j, a: j.ReferenceFamily(a["mu"]),
    "spectral": lambda j, a: j.SpectralFamily(lam=a["lam"], mu=a["mu"]),
    "counting": lambda j, a: j.CountingFamily(a["epsilon"]),
    "counting-limit": lambda j, a: j.CountingLimitFamily(),
}


def _cmd_jacobi_spectrum(a: dict) -> list[list]:
    from . import jacobi_ops
    from .tridiag import eigenvalues_in_window

    t = jacobi_ops.build(_FAMILIES[a["family"]](jacobi_ops, a), a["size"])
    report = eigenvalues_in_window(t, a["lo"], a["hi"], tol=a["tol"])
    return [[a["family"], t.size, a["lo"], a["hi"], report.count,
             list(report.eigenvalues)]]


def _cmd_count(a: dict) -> list[list]:
    from .hamiltonian import count_below_epsilon

    return [[count_below_epsilon(_point_params(a), a["epsilon"], size_cap=a["n_cap"])]]


def _cmd_h_spectrum(a: dict) -> list[list]:
    from .hamiltonian import h_eigenvalues_below_threshold

    r = h_eigenvalues_below_threshold(
        _point_params(a), lambda_min=a["lambda_min"], tol=a["tol"], size_cap=a["n_cap"]
    )
    return [[list(r.branch_mus), list(r.per_branch_counts), r.count,
             list(r.eigenvalues), r.truncation_size, r.method_agreement]]


def _cmd_discrete2(a: dict) -> list[list]:
    from .hamiltonian import discrete2_check

    r = discrete2_check(_point_params(a), size_cap=a["n_cap"])
    return [[r.lhs, r.rhs, r.bound, r.ok, list(r.branch_mus)]]


def _cmd_asymptotics(a: dict) -> list[list]:
    from .hamiltonian import count_asymptotics_curve

    rows = count_asymptotics_curve([a["mu"]], size_cap=a["n_cap"])
    return [[r.mu, r.counted, r.predicted, r.ratio] for r in rows]


def _cmd_identity_check(a: dict) -> list[list]:
    from .recurrence import identity_residual, iterate_forward

    if a["size"] < 1:
        raise InvalidParametersError(f"size must be at least 1, got {a['size']}")
    lam = complex(a["lam"], a["lam_im"])
    sol = iterate_forward(a["mu"], lam, 1.0, a["size"])
    check = identity_residual(sol, a["size"] - 1)
    return [[a["mu"], lam.real, lam.imag, a["size"], check.residual,
             sol.max_interior_residual()]]


def _cmd_transition_scan(a: dict) -> list[list]:
    from .jacobi_ops import transition_scan

    r = transition_scan(a["mu"], a["sizes"], (a["lo"], a["hi"]), tol=a["tol"])
    return [[r.mu, size, float(r.smallest[i]), int(r.window_counts[i])]
            for i, size in enumerate(r.sizes)]


# forms-test draws and evaluates its trials this many at a time, so that
# its memory does not grow with --trials
_TRIAL_BLOCK = 256


def _cmd_forms_test(a: dict) -> list[list]:
    import numpy as np

    from .hamiltonian import lower_bound_constant, random_forms

    if a["trials"] < 1:
        raise InvalidParametersError(f"trials must be at least 1, got {a['trials']}")
    if a["seed"] < 0:
        raise InvalidParametersError(f"seed must be nonnegative, got {a['seed']}")
    params = _point_params(a)
    c = lower_bound_constant(params)
    rng = np.random.default_rng(a["seed"])
    violations = 0
    min_margin = math.inf
    for start in range(0, a["trials"], _TRIAL_BLOCK):
        forms = random_forms(params, rng, min(_TRIAL_BLOCK, a["trials"] - start))
        with np.errstate(over="ignore", invalid="ignore"):
            margin = forms.full - 0.5 * c * forms.norm_sq
        # np.minimum keeps a nan margin (inf - inf), which the check below reports
        min_margin = float(np.minimum(min_margin, margin.min()))
        violations += int(np.count_nonzero(margin < 0.0))
    if not (math.isfinite(c) and math.isfinite(min_margin)):
        raise InvalidParametersError(
            f"the forms at {params} are not finite in double precision"
        )
    return [[c, a["trials"], violations if c > 0.0 else None, min_margin]]


# ---------------------------------------------------------------------------
# the flag and command tables


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s)


@dataclass(frozen=True)
class _Flag:
    """One flag: its option string and how the parse reads its value."""

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
    "sizes": _Flag("--sizes", _sizes, (2048, 4096, 8192, 16384),
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
    "n_cap": _Flag("--n-cap", int, ROW_CAP, "the most rows any count walks, at most 2^20"),
}

# config keys: a flag's name or its parsed key
_NAMES = {f.name: key for key, f in _FLAGS.items()} | {key: key for key in _FLAGS}

# the flags ``run`` itself reads, for every command
_COMMON = ("grid", "workers", "format", "output", "config")
_COUPLING = ("alpha", "beta", "gamma_re", "gamma_im")


@dataclass(frozen=True)
class _Command:
    """One subcommand; its handler maps the parsed flags to rows of values
    in ``columns`` order."""

    handler: Callable[[dict], list[list]]
    help: str
    grid: tuple[str, ...]  # the flags a --grid may sweep
    flags: tuple[str, ...]  # its other flags, besides _COMMON and svg
    columns: tuple[str, ...]
    # (title, x column, y columns) of the chart that --svg draws
    chart: tuple[str, str, tuple[str, ...]] | None = None
    # every module the handler imports when it runs, besides those this
    # module imports; a sweep's parent imports them before it forks, so
    # that no child imports them again
    imports: tuple[str, ...] = ()

    @property
    def options(self) -> tuple[str, ...]:
        return (*_COMMON, *self.grid, *self.flags) + (("svg",) if self.chart else ())

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
        _COUPLING, ("tol",), ("kind", "branch1", "mu1", "kind1", "branch2", "mu2", "kind2"),
    ),
    "surface": _Command(
        _cmd_surface, "critical alpha for given beta, gamma",
        ("beta", "gamma_re", "gamma_im"), (), ("alpha_c",),
    ),
    "jacobi-spectrum": _Command(
        _cmd_jacobi_spectrum, "window eigenvalues of a truncated Jacobi family",
        ("mu", "lam", "epsilon"), ("family", "size", "lo", "hi", "tol"),
        ("family", "size", "lo", "hi", "count", "eigenvalues"),
        imports=("speclab.jacobi_ops", "speclab.tridiag"),
    ),
    "count": _Command(
        _cmd_count, "counting-operator eigenvalue count below 1/2 - epsilon",
        (*_COUPLING, "epsilon"), ("n_cap",), ("count",),
        imports=("speclab.hamiltonian",),
    ),
    "h-spectrum": _Command(
        _cmd_h_spectrum, "all eigenvalues below the continuum threshold",
        _COUPLING, ("lambda_min", "tol", "n_cap"),
        ("branch_mus", "per_branch_counts", "count", "eigenvalues",
         "truncation_size", "method_agreement"),
        imports=("speclab.hamiltonian",),
    ),
    "discrete2-check": _Command(
        _cmd_discrete2, "compare the eigenvalue count with the counting-limit bound",
        _COUPLING, ("n_cap",), ("lhs", "rhs", "bound", "ok", "branch_mus"),
        imports=("speclab.hamiltonian",),
    ),
    "asymptotics": _Command(
        _cmd_asymptotics, "near-critical counting law check",
        ("mu",), ("n_cap",), ("mu", "counted", "predicted", "ratio"),
        ("eigenvalue count vs coupling", "mu", ("counted", "predicted")),
        imports=("speclab.hamiltonian",),
    ),
    "identity-check": _Command(
        _cmd_identity_check, "summed-identity residual of a forward solution",
        ("mu", "lam"), ("lam_im", "size"),
        ("mu", "lambda_re", "lambda_im", "size", "residual", "max_interior_residual"),
        imports=("speclab.recurrence",),
    ),
    "transition-scan": _Command(
        _cmd_transition_scan, "smallest eigenvalue and window count across sizes",
        ("mu",), ("sizes", "lo", "hi", "tol"),
        ("mu", "size", "smallest", "window_count"),
        ("smallest truncation eigenvalue vs size", "size", ("smallest",)),
        imports=("speclab.jacobi_ops",),
    ),
    "forms-test": _Command(
        _cmd_forms_test, "Monte-Carlo check of the quadratic-form lower bound",
        _COUPLING, ("trials", "seed"), ("c", "trials", "violations", "min_margin"),
        imports=("speclab.hamiltonian", "numpy.random"),
    ),
}


# ---------------------------------------------------------------------------
# argument parsing: one pass over the command line, read from the two tables


def _value(f: _Flag, text: str):
    """``text`` read through ``f``'s type and choices."""
    try:
        value = f.type(text)
        if f.choices is None or value in f.choices:
            return value
    except ValueError:
        pass
    choose = f" (choose from {', '.join(f.choices)})" if f.choices else ""
    raise InvalidParametersError(f"argument {f.option}: invalid value {text!r}{choose}")


def _parse(argv: list[str]) -> dict | None:
    """The flags of a command line by ``_FLAGS`` key, and its ``command``:
    the defaults, overlaid by its ``--config`` file, overlaid by its own
    ``--flag=value`` or ``--flag value`` tokens; the token after a flag is
    always its value.  None once ``-h`` or ``--help`` has printed the usage.

    A config key that names no flag is an error; a key for another
    command's flag is skipped, so that one file can serve several commands.
    """
    if not argv or argv[0] not in _COMMANDS:
        if argv[:1] in (["-h"], ["--help"]):
            sys.stdout.write(_usage(None))
            return None
        got = f"invalid command {argv[0]!r}" if argv else "a command is required"
        raise InvalidParametersError(f"{got} (choose from {', '.join(_COMMANDS)})")
    options = _COMMANDS[argv[0]].options
    keys = {_FLAGS[key].option: key for key in options}
    line, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_usage(argv[0]))
            return None
        option, eq, text = token.partition("=")
        if option not in keys:
            raise InvalidParametersError(f"unrecognized arguments: {token}")
        text = text if eq else next(tokens, None)
        if text is None:
            raise InvalidParametersError(f"argument {option}: expected a value")
        line[keys[option]] = _value(_FLAGS[keys[option]], text)
    a = {key: _FLAGS[key].default for key in options} | {"command": argv[0]}
    if "config" in line:
        with open(line["config"], "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InvalidParametersError("--config must hold a JSON object")
        for name, value in loaded.items():
            if name not in _NAMES:
                raise InvalidParametersError(f"config key {name!r} names no flag")
            if _NAMES[name] in options:
                f = _FLAGS[_NAMES[name]]
                # only a string flag takes a JSON string as written: "12" is no size
                text = (value if isinstance(value, str) and f.type not in (int, float)
                        else json.dumps(value))
                a[_NAMES[name]] = _value(f, text)
    a |= line
    for key in options:
        if _FLAGS[key].required and a[key] is None:
            raise InvalidParametersError(f"argument {_FLAGS[key].option} is required")
    return a


def _usage(command: str | None) -> str:
    """The ``--help`` text: the commands, or one command's flags."""
    if command is None:
        head, rows = "COMMAND [--flag=value ...]", [(n, c.help) for n, c in _COMMANDS.items()]
    else:
        head, rows = f"{command} [--flag=value ...]\n{_COMMANDS[command].help}", []
        for f in (_FLAGS[key] for key in _COMMANDS[command].options):
            notes = (f.help, f.choices and "one of " + ", ".join(f.choices),
                     f.required and "required", f.default is not None and f"default {f.default}")
            rows.append((f.option, "; ".join(n for n in notes if n)))
    return f"usage: speclab {head}\n" + "".join(f"  {n:<18}{t}".rstrip() + "\n" for n, t in rows)


def _build_parser() -> SimpleNamespace:
    """``_parse`` as ``parse_args(argv)``, the call perfbench's self-test makes."""
    return SimpleNamespace(parse_args=lambda argv: SimpleNamespace(**_parse(argv)))


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
    if not math.isfinite(stop - start):  # nan or inf points, or a span past the float range
        raise InvalidParametersError(f"grid ends and their span must be finite, got {text!r}")
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
    if scale == "log":
        import numpy as np

        return key, [float(v) for v in np.geomspace(start, stop, steps)]
    try:  # whole at once, 8 bytes a point as np.linspace's array: too large fails here
        points = [stop] * steps
    except MemoryError:
        raise MemoryError(f"Unable to allocate a grid of {steps} points") from None
    # np.linspace's arithmetic: i * step + start, or i / div * delta + start
    # where the step underflows to 0, and the last point stop itself
    div, delta = steps - 1, stop - start
    step = delta / div
    for i in range(div):
        points[i] = i * step + start if step != 0.0 else i / div * delta + start
    return key, points


def _run_task(task: tuple) -> list[dict]:
    """One sweep point -> rows with a trailing status column.  It runs in
    the process that calls it, parent or forked child alike."""
    command, key, value, a = task
    head = {key: value}
    try:
        rows = _COMMANDS[command].rows(a | head)
    except (SpeclabError, ValueError, ZeroDivisionError) as exc:
        return [head | {"status": type(exc).__name__}]
    return [head | row | {"status": "ok"} for row in rows]


# the most processes one sweep may fork
_MAX_WORKERS = 256


def _child(tasks: list[tuple], write_end: int) -> NoReturn:
    """In a forked child: pickle (the ``_run_task`` rows of ``tasks`` up to
    the first exception, that exception or None) to ``write_end``, then
    leave by ``os._exit``, with status 0 only once the rows are sent."""
    status = 1
    try:
        done, error = [], None
        try:
            for task in tasks:
                done.append(_run_task(task))
        except Exception as exc:  # raised again by the parent
            error = exc
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump((done, error), pipe)
        status = 0
    finally:
        os._exit(status)


def _fan_out(tasks: list[tuple], workers: int) -> list[list[dict]]:
    """``_run_task`` of each task, in input order, computed in
    ``n = min(workers, len(tasks))`` forked children; child ``w`` runs
    ``tasks[w::n]``.

    The exception of the earliest task that raised one is raised here, as
    the serial loop would raise it.  A child that dies before sending its
    rows raises ``ChildProcessError``.  Every child is reaped before this
    returns or raises; one still running then is killed first.
    """
    n = min(workers, len(tasks))
    chunks: list = [None] * len(tasks)
    raised = []  # (task index, exception) of each child that stopped early
    pipes, running = [], []
    try:
        for w in range(n):
            read_end, write_end = os.pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(tasks[w::n], write_end)
            finally:
                os.close(write_end)  # the child's copy alone stays open
            running.append(pid)
        for w, (pid, pipe) in enumerate(zip(list(running), pipes)):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code != 0:
                raise ChildProcessError(
                    f"a sweep worker exited with code {code} before sending its rows"
                )
            done, error = pickle.loads(data)
            if error is None:
                chunks[w::n] = done
            else:
                raised.append((w + n * len(done), error))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if raised:
        raise min(raised, key=lambda r: r[0])[1]
    return chunks


# ---------------------------------------------------------------------------
# SVG chart of a command that declares one


def _write_svg(path: str, chart: tuple[str, str, tuple[str, ...]], rows: list[dict]) -> None:
    """Draw each y column of ``chart`` against its x column over the rows
    whose status is ok; write nothing where no row is ok."""
    title, x_column, y_columns = chart
    ok_rows = [r for r in rows if r.get("status", "ok") == "ok"]
    if not ok_rows:
        return
    xs = [float(r[x_column]) for r in ok_rows]
    series = [(name, [float(r[name]) for r in ok_rows]) for name in y_columns]
    width, height, pad = 640, 400, 50
    ys_all = [y for _, ys in series for y in ys]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys_all), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    def text(x, y, anchor: str, size: int, body: str, fill: str = "") -> str:
        return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
                f'font-family="sans-serif" font-size="{size}"{fill}>{body}</text>')

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        text(width / 2, 20, "middle", 14, title),
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="black"/>',
    ]
    for i, (name, ys) in enumerate(series):
        color = colors[i % len(colors)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        parts.append(text(width - pad, pad + 16 * i, "end", 12, name, f' fill="{color}"'))
    for value in (x_lo, x_hi):
        parts.append(text(f"{sx(value):.2f}", height - pad + 18, "middle", 11,
                          _fmt_float(value)))
    for value in (y_lo, y_hi):
        parts.append(text(pad - 6, f"{sy(value):.2f}", "end", 11, _fmt_float(value)))
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts))


# ---------------------------------------------------------------------------
# entry point


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        a = _parse(argv)
        if a is None:
            return 0
        command = _COMMANDS[a["command"]]
        if not 1 <= a["workers"] <= _MAX_WORKERS:
            raise InvalidParametersError(
                f"workers must be between 1 and {_MAX_WORKERS}, got {a['workers']}"
            )
        if a["grid"] is None:
            rows = command.rows(a)
            columns = list(command.columns)
        else:
            key, values = _parse_grid(a["grid"], a["command"])
            tasks = [(a["command"], key, value, a) for value in values]
            if a["workers"] > 1 and len(tasks) > 1 and hasattr(os, "fork"):
                for name in command.imports:
                    importlib.import_module(name)
                chunks = _fan_out(tasks, a["workers"])
            else:
                chunks = [_run_task(t) for t in tasks]
            rows = [row for chunk in chunks for row in chunk]
            columns = [key] + [c for c in command.columns if c != key] + ["status"]
        if a.get("svg"):
            _write_svg(a["svg"], command.chart, rows)
        text = (_render_csv(rows, columns) if a["format"] == "csv"
                else _render_json(rows, columns, single=a["grid"] is None))
        if a["output"]:
            with open(a["output"], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if a["grid"] is not None and not any(r.get("status") == "ok" for r in rows):
            print("speclab: all sweep points failed", file=sys.stderr)
            return 3
        return 0
    except NonConvergenceError as exc:
        print(f"speclab: {exc}", file=sys.stderr)
        return 3
    except (SpeclabError, ValueError, OSError, MemoryError) as exc:
        print(f"speclab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
