"""Send one query to the ``speclab`` front end, in process."""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import speclab.cli


def ask(argv) -> tuple[int, float, str, str]:
    """Run ``speclab.cli.run(argv)``; return (exit code, seconds, stdout, stderr).

    The latency covers the ``run()`` call only.  ``run`` is looked up on
    the module at each call, so a tracer that wrapped it is honoured.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = speclab.cli.run(list(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()
