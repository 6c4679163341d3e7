"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

1. For every command the workloads send, a real answer passes the checker
   and the same answer with one field corrupted is rejected, and not
   excused as one of the known program defects.
2. Two traced runs with one seed report identical work counts on every
   workload.
3. The CLI's argument parser accepts every command line the workloads
   generate over many seeds, and reads back the values they carry.

Exits 0 when every test passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

# counts that depend only on the seed and --seconds, never on timing
EXACT_COUNTS = (
    "cli.calls", "coupling.calls", "tridiag.calls", "jacobi_ops.calls",
    "recurrence.calls", "hamiltonian.calls", "tridiag.pivot_rows",
    "recurrence.rows", "jacobi_ops.build_rows", "jacobi_ops.doublings",
    "hamiltonian.sturm_levels", "hamiltonian.form_evals",
)


def _first(workload: str, command: str, accept=lambda q: True):
    from workloads import block

    for index in range(50):
        for q in block(workload, 7, index):
            if q.command == command and accept(q):
                return q
    raise LookupError(f"no {command} query in the {workload} stream")


def _shift_eigenvalue(ans):
    ans["eigenvalues"][0] += 1e-3


def _flip_ok(ans):
    ans["ok"] = not ans["ok"]


def _inflate_counted(ans):
    ans["counted"] += 3


def _inflate_count(ans):
    ans["count"] += 3


def _inflate_residual(ans):
    ans["residual"] = 1e-6


def _nan_residual(ans):
    ans["residual"] = "nan"


def _add_violation(ans):
    row = next(r for r in ans if r["c"] > 0.0)
    row["violations"] = 1


def _nudge_alpha_c(ans):
    ans[len(ans) // 2]["alpha_c"] *= 1.0 + 1e-9


def _nudge_mu(ans):
    ans[0]["mu2"] *= 1.0 + 1e-9


def _flip_kind(ans):
    row = ans[0]
    row["kind1"] = "Supercritical" if row["kind1"] == "Subcritical" else "Subcritical"


def _has_positive_c(q) -> bool:
    return q.expect["fixed"].get("beta") == 0.0  # alpha grid starts below sqrt2


CORRUPTIONS = (
    ("spectrum", "h-spectrum",
     lambda q: q.expect["subcritical"][0] > 1.2, _shift_eigenvalue),
    ("near-critical", "discrete2-check", lambda q: True, _flip_ok),
    ("near-critical", "asymptotics", lambda q: True, _inflate_counted),
    ("near-critical", "count", lambda q: True, _inflate_count),
    ("recurrence", "identity-check", lambda q: True, _inflate_residual),
    ("recurrence", "identity-check", lambda q: True, _nan_residual),
    ("sweep", "forms-test", _has_positive_c, _add_violation),
    ("sweep", "surface", lambda q: True, _nudge_alpha_c),
    ("sweep", "mu", lambda q: q.expect["fixed"].get("beta", 1.0) > 0.0, _nudge_mu),
    ("sweep", "classify", lambda q: True, _flip_kind),
)


def test_checker_rejects_corruption() -> list[str]:
    from checker import check, known_defect
    from client import ask

    problems = []
    for workload, command, accept, corrupt in CORRUPTIONS:
        q = _first(workload, command, accept)
        rc, _, out, err = ask(q.argv)
        reason = check(q, rc, out, err)
        if reason is not None:
            problems.append(f"{command}: genuine answer rejected: {reason}")
            continue
        ans = json.loads(out)
        corrupt(ans)
        reason = check(q, 0, json.dumps(ans))
        if reason is None:
            problems.append(f"{command}: corrupted answer ({corrupt.__name__}) accepted")
        elif known_defect(q, reason):
            problems.append(f"{command}: corrupted answer ({corrupt.__name__}) "
                            f"excused as a known defect: {reason}")
        if check(q, 3, "", "speclab: did not converge") is None:
            problems.append(f"{command}: nonzero exit accepted")
        print(f"checker {command}: genuine accepted, {corrupt.__name__} rejected")
    return problems


def _traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "4", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def test_traced_counts_repeat() -> list[str]:
    from workloads import WORKLOADS

    problems = []
    for workload in WORKLOADS:
        first, second = _traced_counts(workload), _traced_counts(workload)
        diff = {k: (first[k], second[k]) for k in EXACT_COUNTS if first[k] != second[k]}
        if diff:
            problems.append(f"{workload}: traced counts differ: {diff}")
        print(f"traced counts {workload}: {'identical' if not diff else diff}")
    return problems


# (workload, seed, block) of a sweep block that once held --gamma-im -9.9e-05
# as two tokens, which argparse took for an unknown option
PARSE_CASES = [("sweep", 1704780471, 11)]
PARSE_SEEDS = range(100)
PARSE_BLOCKS = 3


def test_argv_parse() -> list[str]:
    from speclab.cli import _build_parser
    from workloads import WORKLOADS, block

    parser = _build_parser()
    cases = PARSE_CASES + [
        (w, s, b) for w in WORKLOADS for s in PARSE_SEEDS for b in range(PARSE_BLOCKS)
    ]
    problems, count = [], 0
    for workload, seed, index in cases:
        for q in block(workload, seed, index):
            count += 1
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    args = parser.parse_args(list(q.argv))
            except SystemExit:
                problems.append(f"{workload} seed {seed}: unparseable: {' '.join(q.argv)}")
                continue
            parsed = {float(v) for v in vars(args).values()
                      if isinstance(v, float)}
            for token in q.argv:
                name, _, value = token.partition("=")
                if name.startswith("--") and value and float(value) not in parsed:
                    problems.append(f"{workload} seed {seed}: {token} not read back")
    print(f"argv parse: {count} command lines, {len(problems)} problems")
    return problems


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "speclab", "__init__.py")):
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    problems = (test_argv_parse() + test_checker_rejects_corruption()
                + test_traced_counts_repeat())
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
