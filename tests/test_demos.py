"""The package's namespace is the one its modules export, and every demo
script runs to completion against the package in this tree."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import speclab
from speclab import coupling, errors, hamiltonian, jacobi_ops, recurrence, tridiag

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(speclab.__file__).resolve().parents[1])


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout


# in a fresh interpreter: what ``import speclab`` loads, then the namespace
_NAMESPACE = """
import json, sys
import speclab
bare = sorted(m for m in sys.modules if m.startswith(("speclab", "numpy")))
from speclab import cli  # a submodule imports alone
alone = sorted(m for m in sys.modules if m.startswith(("speclab", "numpy")))
star = {}
exec("from speclab import *", star)
del star["__builtins__"]
same = all(star[n] is getattr(speclab, n) is getattr(getattr(speclab, m), n)
           for m in ("coupling", "errors", "hamiltonian", "jacobi_ops", "recurrence", "tridiag")
           for n in getattr(speclab, m).__all__)
print(json.dumps([bare, alone, speclab.__all__, dir(speclab), sorted(star), same]))
"""


def test_namespace_is_the_modules_exports():
    # the names and order that ``from .x import *`` of the six modules gave
    modules = (coupling, errors, hamiltonian, jacobi_ops, recurrence, tridiag)
    exported = [name for module in modules for name in module.__all__] + ["__version__"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _NAMESPACE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    bare, alone, all_, names, star, same = json.loads(done.stdout)
    assert bare == ["speclab"]
    assert alone == ["speclab", "speclab.cli", "speclab.coupling", "speclab.errors"]
    assert all_ == exported
    assert star == sorted(set(exported)) and same
    submodules = {m.__name__.rpartition(".")[2] for m in modules} | {"cli"}
    assert {n for n in names if not n.startswith("_")} == set(exported[:-1]) | submodules
    assert {"__all__", "__version__"} <= set(names)
    # in this process too, where the names are bound already
    assert speclab.__all__ == exported
    assert all(getattr(speclab, n) is getattr(m, n) for m in modules for n in m.__all__)
