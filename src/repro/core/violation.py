"""Structured invariant violations (shared by flow control and monitors).

``InvariantViolation`` is the one exception type every self-check in the
stack raises: the credit checks of ``network.credits``, the online
monitors in ``repro.monitor``, and the registry's strict mode. It carries
the full location of the failure — (cycle, router, port, vc, and, for
batched runs, the lane) plus the
expected/actual values — so a violation deep inside a 500k-cycle run names
the exact state to inspect instead of a bare message.

This module must stay dependency-free: ``network.credits`` imports it on
the hot path and ``repro.monitor`` re-exports it, so anything heavier here
would create an import cycle through the simulator.
"""

from __future__ import annotations


def _rebuild(cls, rule, message, monitor, cycle, router, port, vc, lane,
             expected, actual):
    return cls(rule, message, monitor=monitor, cycle=cycle, router=router,
               port=port, vc=vc, lane=lane, expected=expected, actual=actual)


class InvariantViolation(RuntimeError):
    """A simulator invariant was violated.

    ``rule`` is a short machine-readable identifier (e.g.
    ``credit_underflow``, ``buffer_occupancy``); the location fields are
    ``None`` when unknown at raise time — call sites that know the cycle
    pass it in (see ``network.credits.credit_error``).
    """

    def __init__(self, rule: str, message: str = "", *,
                 monitor: str | None = None, cycle: int | None = None,
                 router: int | None = None, port: int | None = None,
                 vc: int | None = None, lane: int | None = None,
                 expected=None, actual=None):
        super().__init__(message)
        self.rule = rule
        self.message = message
        self.monitor = monitor
        self.cycle = cycle
        self.router = router
        self.port = port
        self.vc = vc
        self.lane = lane
        self.expected = expected
        self.actual = actual

    def __reduce__(self):
        # Default exception pickling would re-call __init__ with only the
        # formatted message; rebuild from the raw fields so violations
        # survive the trip back from sweep worker processes.
        return (_rebuild, (type(self), self.rule, self.message,
                           self.monitor, self.cycle, self.router, self.port,
                           self.vc, self.lane, self.expected, self.actual))

    def _context(self) -> str:
        parts = []
        for name in ("cycle", "lane", "router", "port", "vc"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.expected is not None or self.actual is not None:
            parts.append(f"expected={self.expected!r}")
            parts.append(f"actual={self.actual!r}")
        return ", ".join(parts)

    def __str__(self) -> str:
        label = self.rule if self.monitor is None \
            else f"{self.monitor}:{self.rule}"
        text = f"[{label}] {self.message}" if self.message else f"[{label}]"
        context = self._context()
        return f"{text} ({context})" if context else text

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the metrics registry)."""
        return {
            "rule": self.rule,
            "monitor": self.monitor,
            "message": self.message,
            "cycle": self.cycle,
            "router": self.router,
            "port": self.port,
            "vc": self.vc,
            "lane": self.lane,
            "expected": self.expected,
            "actual": self.actual,
        }
