"""Vectorized structure-of-arrays network backend (numpy + a C compiler).

Each name loads its module on first use: building a ``VectorNetwork``
loads neither ``BatchNetwork`` nor the ``VectorInvariantChecker``, and
nothing here imports the scalar core.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batch": ("BatchNetwork",),
    ".core": ("VectorNetwork",),
    ".layout": ("Layout", "build_layout"),
    ".obs": ("VectorInvariantChecker",),
})
