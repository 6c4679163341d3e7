"""Print the lines of ``src/speclab`` that neither tier-1 nor the benchmark queries run.

``python3 tools/lines.py`` runs the tier-1 tests (``-p no:cacheprovider``) and every
``tools/outputs.py`` query in one process under ``sys.settrace``, limited to
``src/speclab``, and prints each module's executable lines (``co_lines`` of its code
objects) that neither reached, as ranges with their source text.  Test outcomes are
ignored: tracing overruns the acceptance criterion's time limit.  Forked sweep
children leave by ``os._exit``, which is wrapped to write their lines first.

What it lists are guards kept on purpose and lines only a fresh interpreter
runs: the lazy exports in ``__init__`` (``tests/test_demos.py`` runs them in a
subprocess), ``cli``'s ``__main__`` line and its ``TypeError`` for a value no
command returns, ``_refine_secular``'s returns at an exact zero of the secular
function, and the overflow of the lanes' second carry, which falls back to rows.
"""

import contextlib
import itertools
import os
import pathlib
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "speclab") + os.sep
sys.path[:0] = [os.path.join(ROOT, "tools"), os.path.join(ROOT, "src")]

reached: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines(frame, event, arg) if frame.f_code.co_filename.startswith(SRC) else None


def _executable(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def main() -> None:
    parent, exit_ = os.getpid(), os._exit
    children = tempfile.NamedTemporaryFile("r", suffix=".lines")

    def _exit(status):
        if os.getpid() != parent:
            with open(children.name, "a") as fh:
                fh.writelines(f"{path}\t{line}\n" for path, line in reached)
        exit_(status)

    os._exit, sys.argv = _exit, ["outputs.py"]
    sys.settrace(_calls)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
        import outputs
        outputs.main()
    sys.settrace(None)
    reached.update((path, int(line)) for path, line in (row.split("\t") for row in children))
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        source = pathlib.Path(SRC, name).read_text()
        text = source.splitlines()
        missed = _executable(compile(source, SRC + name, "exec"))
        missed -= {line for path, line in reached if path == SRC + name}
        for _, run in itertools.groupby(enumerate(sorted(missed)), lambda t: t[1] - t[0]):
            run = [line for _, line in run]
            span = f"{run[0]}" if len(run) == 1 else f"{run[0]}-{run[-1]}"
            print(f"{name}:{span}: " + " / ".join(text[i - 1].strip() for i in run))


if __name__ == "__main__":
    main()
