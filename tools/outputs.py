"""Print a digest of speclab's answer to every benchmark query.

Runs ``speclab.cli.run`` in process on blocks 0-2 of seeds 0-9 of each
workload that ``perfbench/workloads.py`` defines (1140 queries), and
prints one line per query: workload, seed, block, index in the block,
exit code, and the SHA-256 of stdout and of stderr.  Run it in two trees
and ``diff`` the outputs to see which answers or messages a change moved:

    python3 tools/outputs.py > before.txt     # in one tree
    python3 tools/outputs.py > after.txt      # in the other
    diff before.txt after.txt

``--workload W`` (repeatable) runs only the named workloads, for example
the 360 ``spectrum`` queries alone, or the other three on their own.
``--seeds A:B`` takes seeds A to B - 1 instead of 0:10, for a wider
check: ``--workload near-critical --seeds 0:100`` is 3000 queries.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from client import ask  # noqa: E402
from workloads import WORKLOADS, block  # noqa: E402

BLOCKS = range(3)


def _seeds(text: str) -> range:
    """``A:B`` as range(A, B), with 0 <= A < B."""
    try:
        first, stop = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from None
    if not 0 <= first < stop:
        raise argparse.ArgumentTypeError(f"expected 0 <= A < B, got {text!r}")
    return range(first, stop)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seeds", type=_seeds, default=range(10), metavar="A:B",
                        help="run seeds A to B - 1 (default: 0:10)")
    args = parser.parse_args()
    chosen = args.workload or WORKLOADS
    for workload in (w for w in WORKLOADS if w in chosen):
        for seed in args.seeds:
            for index in BLOCKS:
                for i, query in enumerate(block(workload, seed, index)):
                    rc, _, out, err = ask(query.argv)
                    digests = (hashlib.sha256(s.encode()).hexdigest() for s in (out, err))
                    print(workload, seed, index, i, rc, *digests, flush=True)


if __name__ == "__main__":
    main()
