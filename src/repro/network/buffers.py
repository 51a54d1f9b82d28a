"""Bounded FIFO flit buffer used by each input virtual channel.

The paper configures 4-flit buffers per VC. Overflow is a protocol error:
credit-based flow control must prevent a flit from ever arriving at a full
buffer, so ``append`` raises instead of dropping.
"""

from __future__ import annotations

from collections import deque

from .flit import Flit


class BufferOverflowError(RuntimeError):
    """A flit arrived at a full VC buffer (flow-control violation)."""


class FlitBuffer:
    """Fixed-capacity FIFO of flits."""

    __slots__ = ("capacity", "_q")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.reset()

    def reset(self) -> None:
        """Initial state: empty."""
        self._q: deque[Flit] = deque()

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._q)

    @property
    def is_full(self) -> bool:
        return len(self._q) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._q

    def append(self, flit: Flit) -> None:
        q = self._q
        if len(q) >= self.capacity:
            raise BufferOverflowError(
                f"buffer write to full {self.capacity}-flit buffer: {flit}")
        q.append(flit)

    def front(self) -> Flit:
        q = self._q
        if not q:
            raise IndexError("front() on empty flit buffer")
        return q[0]

    def pop(self) -> Flit:
        q = self._q
        if not q:
            raise IndexError("pop() on empty flit buffer")
        return q.popleft()

    def __iter__(self):
        return iter(self._q)

    def __repr__(self) -> str:
        return f"FlitBuffer({len(self._q)}/{self.capacity})"
