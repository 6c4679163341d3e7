"""Print the exact work of speclab's answers to the benchmark's spectrum queries.

Runs ``speclab.cli.run`` in process on blocks 0-2 of seeds A to B - 1
(``--seeds A:B``, default 0:10) of the ``spectrum`` workload and prints
one count per line, for ``diff`` between two trees: spectral walks, levels
and rows x levels; real secular set-ups, evaluations and the rows they
sweep; and ``_illinois`` calls, through wrappers on ``speclab.hamiltonian``.
"""

import argparse
from collections import Counter

from outputs import BLOCKS, _seeds  # also puts src/ and perfbench/ on the path
from client import ask  # noqa: E402
from workloads import block  # noqa: E402

import speclab.hamiltonian as hamiltonian  # noqa: E402
from speclab.recurrence import _buffer_top  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=range(10), metavar="A:B")
    seeds = parser.parse_args().seeds
    work = Counter()
    spectral_counts, real_secular, illinois = (
        hamiltonian.spectral_counts, hamiltonian._real_secular, hamiltonian._illinois)

    def counting(mu, lams, *, cap):
        counts, rows = spectral_counts(mu, lams, cap=cap)
        work.update({"walks": 1, "walk levels": len(counts), "walk rows x levels": rows * len(counts)})
        return counts, rows

    def setting_up(mu, n):
        f = real_secular(mu, n)
        work["secular set-ups"] += 1

        def evaluate(lam):
            work.update({"secular evaluations": 1, "secular swept rows": _buffer_top(n)})
            return f(lam)

        return evaluate

    def polishing(*args):
        work["illinois calls"] += 1
        return illinois(*args)

    hamiltonian.spectral_counts, hamiltonian._real_secular, hamiltonian._illinois = (
        counting, setting_up, polishing)
    for query in (q for seed in seeds for index in BLOCKS for q in block("spectrum", seed, index)):
        work["queries"] += 1
        ask(query.argv)
    for name in ("queries", "walks", "walk levels", "walk rows x levels", "secular set-ups",
                 "secular evaluations", "secular swept rows", "illinois calls"):
        print(name, work[name])


if __name__ == "__main__":
    main()
