"""Print a digest of speclab's answer to every benchmark query.

Runs ``speclab.cli.run`` in process on blocks 0-2 of seeds 0-9 of each
workload that ``perfbench/workloads.py`` defines (1140 queries), and
prints one line per query: workload, seed, block, index in the block,
exit code, and the SHA-256 of stdout and of stderr.  Run it in two trees
and ``diff`` the outputs to see which answers or messages a change moved:

    python3 tools/outputs.py > before.txt     # in one tree
    python3 tools/outputs.py > after.txt      # in the other
    diff before.txt after.txt

After the benchmark lines it prints the ``cli`` set, cheap command lines
for the CLI paths that the benchmark never sends, in the same format with
``-`` for seed and block (174 lines): each command's single run, and a
3-point grid over each of its grid variables at ``--workers 1`` and
``--workers 2``, all in JSON and in CSV; then one ``--svg`` run of
``asymptotics`` and of ``transition-scan``, whose stdout digest also
covers the SVG file's bytes.

``--workload W`` (repeatable) runs only the named workloads, for example
the 360 ``spectrum`` queries alone, or ``cli`` alone.  ``--seeds A:B``
takes seeds A to B - 1 instead of 0:10, for a wider check:
``--workload near-critical --seeds 0:100`` is 3000 queries.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from client import ask  # noqa: E402
from workloads import WORKLOADS, block  # noqa: E402

BLOCKS = range(3)

# (command, the flags of one cheap run, the start:stop of a grid over each
# of its grid variables); a command whose grid variables need different
# flags to be read is listed once for each
CLI_RUNS = (
    ("mu", ["--alpha=1", "--beta=1", "--gamma-re=0.3"],
     ["alpha:0:3", "beta:-1:2", "gamma_re:-1:1", "gamma_im:0:1"]),
    ("classify", ["--alpha=1", "--beta=1", "--gamma-re=0.3"],
     ["alpha:0:3", "beta:-1:2", "gamma_re:-1:1", "gamma_im:0:1"]),
    ("surface", ["--beta=3", "--gamma-re=1"], ["beta:0:4", "gamma_re:-1:1", "gamma_im:0:1"]),
    ("jacobi-spectrum", ["--family=spectral", "--size=16", "--mu=1.2", "--lambda=0.3"],
     ["mu:0.5:1.5", "lambda:-1:1"]),
    ("jacobi-spectrum", ["--family=counting", "--size=16", "--lo=-1", "--hi=1"],
     ["epsilon:0.1:1"]),
    ("count", ["--alpha=1.3", "--beta=0", "--epsilon=0.1"],
     ["alpha:1:1.35", "beta:0:0.1", "gamma_re:0:0.1", "gamma_im:0:0.1", "epsilon:0.1:0.3"]),
    ("h-spectrum", ["--alpha=1", "--beta=0"],
     ["alpha:-1:1.1", "beta:0:0.1", "gamma_re:0:0.1", "gamma_im:0:0.1"]),
    ("h-spectrum", ["--alpha=-3", "--beta=-1"], ["alpha:-3:-2"]),  # no point succeeds
    ("discrete2-check", ["--alpha=1.3", "--beta=0"],
     ["alpha:1:1.35", "beta:0:0.1", "gamma_re:0:0.1", "gamma_im:0:0.1"]),
    ("asymptotics", ["--mu=1.01"], ["mu:1.01:1.02"]),
    ("identity-check", ["--size=16", "--mu=0.5", "--lambda=0.2"], ["mu:0.5:0.7", "lambda:-1:1"]),
    ("transition-scan", ["--sizes=16,32", "--mu=0.5"], ["mu:0.5:1.5"]),
    ("transition-scan", ["--sizes=16", "--mu=0.5"], []),
    ("forms-test", ["--alpha=1", "--beta=1", "--trials=4"],
     ["alpha:-1:1", "beta:0:1", "gamma_re:0:1", "gamma_im:0:1"]),
)

# the runs whose --svg file is digested with their stdout
SVG_RUNS = (
    ["asymptotics", "--grid=mu:1.01:1.03:3"],
    ["transition-scan", "--sizes=16,32,64", "--mu=0.5"],
)


def _seeds(text: str) -> range:
    """``A:B`` as range(A, B), with 0 <= A < B."""
    try:
        first, stop = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from None
    if not 0 <= first < stop:
        raise argparse.ArgumentTypeError(f"expected 0 <= A < B, got {text!r}")
    return range(first, stop)


def _cli_argvs() -> list[list[str]]:
    """The command lines of the ``cli`` set, SVG runs excluded."""
    argvs = []
    for command, flags, grids in CLI_RUNS:
        runs = [[]] + [[f"--grid={g}:3", f"--workers={w}"] for g in grids for w in (1, 2)]
        argvs += [[command, *flags, *run, f"--format={f}"] for run in runs for f in ("json", "csv")]
    return argvs


def _line(label: str, rc: int, out: str, err: str) -> None:
    digests = (hashlib.sha256(s.encode()).hexdigest() for s in (out, err))
    print(label, rc, *digests, flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=(*WORKLOADS, "cli"),
                        help="run only this workload or set (repeatable; default: all)")
    parser.add_argument("--seeds", type=_seeds, default=range(10), metavar="A:B",
                        help="run seeds A to B - 1 of the workloads (default: 0:10)")
    args = parser.parse_args()
    chosen = args.workload or (*WORKLOADS, "cli")
    for workload in (w for w in WORKLOADS if w in chosen):
        for seed in args.seeds:
            for index in BLOCKS:
                for i, query in enumerate(block(workload, seed, index)):
                    rc, _, out, err = ask(query.argv)
                    _line(f"{workload} {seed} {index} {i}", rc, out, err)
    if "cli" not in chosen:
        return
    argvs = _cli_argvs()
    for i, argv in enumerate(argvs):
        rc, _, out, err = ask(argv)
        _line(f"cli - - {i}", rc, out, err)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chart.svg")
        for i, argv in enumerate(SVG_RUNS, len(argvs)):
            rc, _, out, err = ask([*argv, f"--svg={path}"])
            with open(path, encoding="utf-8") as fh:
                out += fh.read()
            os.remove(path)
            _line(f"cli - - {i}", rc, out, err)


if __name__ == "__main__":
    main()
