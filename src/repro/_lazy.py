"""Public names a package resolves on first use (PEP 562).

A package states its public names once, grouped by the module that
defines each; :func:`lazy_exports` turns that table into the package's
``__all__`` and the module-level ``__getattr__`` / ``__dir__`` that
import a name's module when the name is first read, then keep the value
on the package. ``import repro.harness`` therefore loads no module a
run does not use: a process that only steps the compiled core never
compiles the scalar core, the CMP or the telemetry writers.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, modules: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names are ``modules``: a relative module name -> the names it
    defines."""
    table = {name: module for module, names in modules.items()
             for name in names}

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # What ``from <module> import <name>`` runs, so ``-X importtime``
        # and audit hooks see the load as they see any import statement
        # (``importlib.import_module`` bypasses the first).
        level = len(module) - len(module.lstrip("."))
        value = getattr(__import__(module[level:], {"__package__": package},
                                   None, (name,), level), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return sorted(table), __getattr__, __dir__
