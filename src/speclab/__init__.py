"""Spectral toolkit for a strip model with a four-parameter line interaction.

The package splits into parameter algebra (:mod:`speclab.coupling`),
symmetric-tridiagonal numerics (:mod:`speclab.tridiag`), the Jacobi-matrix
families attached to the model (:mod:`speclab.jacobi_ops`), the half-line
three-term recurrence and its asymptotics (:mod:`speclab.recurrence`),
quadratic forms and eigenvalue location/counting for the full operator
(:mod:`speclab.hamiltonian`), and a batch CLI (:mod:`speclab.cli`).

The package exports the public names of the first five modules and of
:mod:`speclab.errors`, but imports them on first use: the first access of
any exported name, ``__all__`` or ``dir()`` imports all six modules and
binds their names here.  A submodule imports alone, so that
``import speclab.cli`` loads only what the CLI's command needs (no numpy
for the closed-form commands).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the modules whose ``__all__`` names the package exports, in this order
_EXPORTING = ("coupling", "errors", "hamiltonian", "jacobi_ops", "recurrence", "tridiag")


def _bind_exports() -> None:
    modules = [_import_module(f"{__name__}.{name}") for name in _EXPORTING]
    names = [name for module in modules for name in module.__all__]
    globals().update({name: getattr(module, name) for module in modules for name in module.__all__})
    globals()["__all__"] = [*names, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTING or name == "cli":
        return _import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("_"):
        _bind_exports()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _bind_exports()
    return sorted(globals())
