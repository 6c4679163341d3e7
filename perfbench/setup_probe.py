"""Fresh-interpreter probe for set-up time and peak memory.

Usage: python3 perfbench/setup_probe.py SRC_DIR ARGV_LIST_JSON

Imports ``speclab`` from SRC_DIR, answers the given command lines in
order, and prints one JSON object: the ``time.perf_counter()`` reading
when the first answer was complete (the clock is shared with the parent
process), each (exit code, stdout, stderr), and the peak resident memory
of this process and of its reaped children (the sweep workers) in KiB.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    src, argvs = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from client import ask

    answers = []
    first_done = None
    for argv in argvs:
        rc, _, out, err = ask(argv)
        if first_done is None:
            first_done = time.perf_counter()
        answers.append([rc, out, err])
    print(json.dumps({
        "first_answer_at": first_done,
        "answers": answers,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "speclab_file": sys.modules["speclab"].__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
