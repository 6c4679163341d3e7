"""speclab benchmark: one closed-loop client sending seeded CLI queries.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Each query is one in-process call to ``speclab.cli.run(argv)`` whose JSON
output is captured and checked (``checker.py``).  The client sends the
next query only when the previous one has returned.  Workloads are
described in ``workloads.py`` and ``perfbench/README.md``.

``--trace 0`` prints the end-to-end metrics:

* setup_s       median over seven fresh interpreters, spread over the
                run, each answering the workload's set-up query (the same
                query every time, ``workloads.setup_query``), of the time
                from spawning the interpreter to its first answer
* peak_rss_mb   peak resident memory of a fresh interpreter, plus that of
                its largest sweep worker, over the first block of queries
* points_per_kref   parameter points answered correctly per thousand
                reference-kernel times of ``run()`` time (a --grid query
                has one point per grid step)
* latency_p50_ref, latency_p90_ref   per-query ``run()`` latency in
                reference-kernel times
* ok_share      queries answered correctly over queries attempted

Timed figures are normalised for machine speed: each query's ``run()``
time is divided by the time of a fixed reference kernel measured next to
it, on as many cores as the query computes in (``speed.py``; one ``ref``
is about 2.5 ms on a 2-vCPU x86 host).  The measured figures, points per
second and latencies in ms, are printed on the line before the metrics.

A run sends a fixed number of blocks of queries, ``--seconds`` times the
workload's blocks per second (sized so that the queries take about
``--seconds`` on a 2-vCPU x86 host), and at least 100 queries, so that
p90 has at least ten samples above it.  Fixed work makes runs of one
seed, and of different seeds, send the same mix of query costs.

``--trace 1`` runs a fixed, seed-determined list of queries twice, first
untraced and then with every public function of every layer traced
(``tracer.py``), and prints the per-layer metrics plus
``trace.overhead_share``, the traced over the untraced normalised
``run()`` time, minus one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when any answer fails its check, except for the two documented
program defects (see ``checker.py``), which count in ``failed`` only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_QUERIES = 100
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60.0

# Blocks per second of --seconds: about 1 / (time of one block).
BLOCKS_PER_S = {
    "spectrum": 0.6,
    "near-critical": 0.65,
    "recurrence": 2.0,
    "sweep": 0.9,
}
# A traced run sends this share of the blocks, once untraced, once traced.
TRACE_SHARE = 0.4

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "ok_share": "ratio",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _quantile(values: list[float], q: int) -> float:
    """q-th decile (q = 5 is the median), inclusive method."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _pooled(q) -> bool:
    """Whether the query fans out to sweep workers."""
    return "--grid" in q.argv and "--workers" in q.argv


def _cores(queries) -> int:
    """Processes the queries compute in: the sweep's workers, else one."""
    return max(
        int(q.argv[q.argv.index("--workers") + 1]) if _pooled(q) else 1 for q in queries
    )


class Outcomes:
    """Checked answers of one pass over queries."""

    def __init__(self) -> None:
        self.queries: list = []
        self.latencies: list[float] = []
        self.points_ok = 0
        self.failed = 0
        self.known: list[str] = []
        self.unexpected: list[str] = []

    def record(self, q, rc: int, seconds: float, out: str, err: str) -> None:
        from checker import check, known_defect

        self.queries.append(q)
        self.latencies.append(seconds)
        reason = check(q, rc, out, err)
        if reason is None:
            self.points_ok += q.points
            return
        self.failed += 1
        line = f"{reason} | speclab {' '.join(q.argv)}"
        (self.known if known_defect(q, reason) else self.unexpected).append(line)


# ---------------------------------------------------------------------------
# end-to-end run


def _probe(src: str, queries: list, outcomes: Outcomes) -> dict:
    """Answer ``queries`` in a fresh interpreter; its report, timed from spawn."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), src,
         json.dumps([list(q.argv) for q in queries])],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["speclab_file"].startswith(src + os.sep):
        raise RuntimeError(f"probe imported speclab from {report['speclab_file']}")
    for q, (rc, out, err) in zip(queries, report["answers"]):
        probe_outcome = Outcomes()
        probe_outcome.record(q, rc, 0.0, out, err)
        outcomes.unexpected.extend(probe_outcome.unexpected)
    report["setup_s"] = report["first_answer_at"] - start
    return report


def end_to_end(workload: str, seed: int, seconds: float, src: str) -> tuple[dict, Outcomes, list]:
    from client import ask
    from speed import SpeedReference
    from workloads import block, setup_query, stream

    # set-up probes: peak memory over the first block, then set-up time of
    # one query, SETUP_RUNS times, spread over the timed loop so that their
    # median does not hang on the host's speed at one moment
    probe_outcomes = Outcomes()
    report = _probe(src, block(workload, seed, 0), probe_outcomes)
    peak_rss_mb = (report["maxrss_kib"] + report["children_maxrss_kib"]) / 1024.0
    first = [setup_query(workload, seed)]
    n_blocks = round(seconds * BLOCKS_PER_S[workload])
    probe_at = {round(j * n_blocks / SETUP_RUNS) for j in range(SETUP_RUNS)}
    setup_times = []

    warm = block(workload, seed + 1_000_003, 0)[0]  # untimed warm-up query
    ask(warm.argv)

    outcomes = Outcomes()
    speed = SpeedReference(_cores(block(workload, seed, 0)))
    try:
        for index, queries in enumerate(stream(workload, seed)):
            if index >= n_blocks and len(outcomes.latencies) >= MIN_QUERIES:
                break
            if index in probe_at:
                speed.flush()
                setup_times.append(_probe(src, first, probe_outcomes)["setup_s"])
            for q in queries:
                rc, elapsed, out, err = ask(q.argv)
                speed.tick()
                outcomes.record(q, rc, elapsed, out, err)
        lat = speed.normalised(outcomes.latencies)
    finally:
        speed.close()
    while len(setup_times) < SETUP_RUNS:  # a run shorter than SETUP_RUNS blocks
        setup_times.append(_probe(src, first, probe_outcomes)["setup_s"])

    raw = outcomes.latencies
    print(f"  measured: points_per_s = {outcomes.points_ok / math.fsum(raw):.6g}, "
          f"p50 = {1e3 * _quantile(raw, 5):.6g} ms, p90 = {1e3 * _quantile(raw, 9):.6g} ms")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "points_per_kref": 1e3 * outcomes.points_ok / math.fsum(lat),
        "latency_p50_ref": _quantile(lat, 5),
        "latency_p90_ref": _quantile(lat, 9),
        "ok_share": 1.0 - outcomes.failed / len(lat),
    }
    return metrics, outcomes, probe_outcomes.unexpected


# ---------------------------------------------------------------------------
# traced run


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, Outcomes, dict]:
    from client import ask
    from speed import SpeedReference
    from tracer import Tracer, layer_metrics, layer_shares
    from workloads import block

    n_blocks = max(1, round(seconds * BLOCKS_PER_S[workload] * TRACE_SHARE))
    queries = [q for b in range(n_blocks) for q in block(workload, seed, b)]

    ask(block(workload, seed + 1_000_003, 0)[0].argv)  # untimed warm-up
    speed = SpeedReference(_cores(queries))
    spool = tempfile.mkdtemp(prefix=".trace-", dir=HERE)
    tracer = Tracer(spool)
    outcomes = Outcomes()
    try:
        untraced = []
        for q in queries:
            untraced.append(ask(q.argv)[1])
            speed.tick()
        tracer.install()
        for i, q in enumerate(queries):
            tracer.begin(i)
            rc, elapsed, out, err = ask(q.argv)
            speed.tick()
            tasks = tracer.end()
            outcomes.record(q, rc, elapsed, out, err)
            if _pooled(q) and tasks != q.points:
                raise RuntimeError(
                    f"traced {tasks} of {q.points} sweep tasks; the pool "
                    "workers must be forked for their spans to be seen"
                )
        lat = speed.normalised(untraced + outcomes.latencies)
    finally:
        tracer.uninstall()
        speed.close()
        shutil.rmtree(spool, ignore_errors=True)

    metrics = layer_metrics(tracer.totals, len(queries))
    n = len(queries)
    metrics["trace.overhead_share"] = math.fsum(lat[n:]) / math.fsum(lat[:n]) - 1.0
    return metrics, outcomes, layer_shares(tracer.totals)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectrum", "near-critical", "recurrence", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "speclab", "__init__.py")):
        return _fail("run from the repository root: src/speclab is missing")
    sys.path.insert(0, src)
    os.environ.pop("SPECLAB_WORKERS", None)  # the command lines choose workers

    import speclab

    if not speclab.__file__.startswith(src + os.sep):
        return _fail(f"imported speclab from {speclab.__file__}, not {src}")
    import checker  # noqa: F401  (binds speclab functions before any tracing)
    from tracer import UNITS

    units = {**E2E_UNITS, **UNITS}

    extra_unexpected: list[str] = []
    if args.trace:
        metrics, outcomes, shares = traced(args.workload, args.seed, args.seconds)
        share_text = ", ".join(f"{k} {v:.3f}" for k, v in shares.items())
        print(f"layer self-time shares: {share_text}")
    else:
        metrics, outcomes, extra_unexpected = end_to_end(
            args.workload, args.seed, args.seconds, src
        )

    attempted = len(outcomes.latencies)
    print(
        f"workload {args.workload} seed {args.seed}: {attempted} queries, "
        f"{outcomes.failed} failed ({len(outcomes.known)} by a known defect), "
        f"failed_share {outcomes.failed / attempted:.4f}"
    )
    samples = {"setup_s": f"{SETUP_RUNS} fresh interpreters",
               "peak_rss_mb": "1 fresh interpreter"}
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}  "
              f"(n={samples.get(name, f'{attempted} queries')})")
    unexpected = outcomes.unexpected + extra_unexpected
    for line in outcomes.known:
        print(f"  KNOWN DEFECT {line}")
    for line in unexpected:
        print(f"  FAILED {line}")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
