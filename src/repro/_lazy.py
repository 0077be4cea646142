"""Lazy package namespaces (PEP 562), declared once per package.

A package ``__init__`` names, per defining module, the objects it
re-exports, and binds the three attributes :func:`attach` returns::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "repro.cluster.condor": ("CondorPool", "MatchmakingError"),
        ...
    })

Importing the package then imports none of those modules.  The first
read of an exported name imports its module and stores the object in
the package namespace, so later reads are plain attribute hits and
``from repro.cluster import CondorPool`` returns the defining module's
object, as an eager re-export would.  A process pays only for the
modules its run touches (DESIGN.md §5).

A name that is also the name of the submodule defining it
(``repro.text.tokenize``) is bound at once: importing that submodule
later would otherwise rebind the package attribute to the module.

The declaration is a literal on purpose: the lint engine's
:class:`~repro.devtools.lint.names.ImportMap` reads it as it reads
``from X import y``, and ``tests/test_imports.py`` reads the declared
exports through it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence

__all__ = ["attach"]


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """PEP 562 ``__getattr__`` / ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps an absolute module name to the names it defines
    that ``package`` re-exports; ``__all__`` lists them in that order.
    """
    if any(isinstance(names, str) for names in exports.values()):
        raise TypeError("export names must be a sequence of str, not one str")
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    for name, module in owners.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return __getattr__, __dir__, list(owners)
