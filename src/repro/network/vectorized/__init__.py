"""Vectorized structure-of-arrays network backend (numpy + a C compiler)."""

from .batch import BatchNetwork
from .core import VectorNetwork
from .layout import Layout, build_layout
from .obs import VectorInvariantChecker

__all__ = ["BatchNetwork", "Layout", "VectorInvariantChecker",
           "VectorNetwork", "build_layout"]
