"""The flow-control errors both network cores raise.

One definition for the scalar core (``router.py``, ``vc.py``) and the
array core (``vectorized/core.py``), so a caller catches the same class
whichever core ran, and the array core imports nothing of the scalar
one.
"""

from __future__ import annotations


class ProtocolError(RuntimeError):
    """A flow-control or wormhole invariant was violated."""


class BufferOverflowError(RuntimeError):
    """A flit arrived at a full VC buffer (flow-control violation)."""
