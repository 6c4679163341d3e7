"""Run a Python snippet in an interpreter that refuses numpy and speclab's
numeric modules.

    python3 tests/numpy_blocked.py CODE [ARG ...]

installs a ``sys.meta_path`` finder that raises ``ImportError`` for
``numpy`` (and every module inside it) and for the modules in ``REFUSED``,
then runs CODE with ``sys.argv`` = ``["-c", ARG, ...]``, as
``python3 -c CODE ARG ...`` would.  Forked children inherit the finder.
The tests run the closed-form paths this way, and compare what CODE
prints with what it prints in an interpreter without the finder.
"""

import sys

REFUSED = ("speclab.hamiltonian", "speclab.jacobi_ops", "speclab.recurrence", "speclab.tridiag")


class _Refuse:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy.") or name in REFUSED:
            raise ImportError(f"{name} is refused in this interpreter")
        return None


if __name__ == "__main__":
    assert "numpy" not in sys.modules, "the interpreter imported numpy at start-up"
    sys.meta_path.insert(0, _Refuse())
    code, sys.argv = sys.argv[1], ["-c", *sys.argv[2:]]
    exec(compile(code, "<string>", "exec"), {"__name__": "__main__"})
