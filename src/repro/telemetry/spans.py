"""The span/event emitter the sweep scheduler drives.

One :class:`Telemetry` instance belongs to one process. The parent
scheduler opens one against the stream path; forked workers open their
own against the same path (append mode interleaves whole lines).
Every record carries the emitting ``pid``, a wall-clock timestamp ``t``
(``time.time()`` — comparable across the processes of one machine,
unlike ``perf_counter``), and the ``sweep`` id minting the stream's
span tree, so one file can hold several (resumed) sweeps and followers
can attribute every record.

Record vocabulary (the ``ev`` field):

========================  ==================================================
``sweep_begin``           sweep id, point count, workers, batch size, knobs
``point``                 one *closed* span per completed point: idx, label,
                          store key, resolution tier (``journal-replay`` /
                          ``memo`` / ``store`` / ``simulate``), the backend
                          that ran it (read off its run manifest) and the
                          selector's inputs, attempt count, backoff
                          history, duration
``point_error``           terminal failure of one point (retry budget spent)
``point_failed``          one failed attempt of one point, inline or in a
                          worker (the scheduler's retry pass follows up)
``retry``                 one scheduled retry: attempt number, backoff delay
``unit``                  one batched multi-lane unit: lanes, wall, status
``batch_groups``          how the todo list grouped into execution units
``dispatch``              pool geometry: chunks, chunk size, workers
``chunk``                 one chunk round-trip through the pool (turnaround)
``degrade``               scheduler degradation: pool-unusable /
                          worker-failure / stall-timeout
``persist``               store write-through + journal append walls
``worker_store``          one process's ResultStore counter delta
``sweep_end``             status (ok/error), completed count, total wall
========================  ==================================================

Spans are emitted *closed* (one record at completion, carrying its
duration) rather than as begin/end pairs: the stream stays one line per
fact, a SIGKILL can never strand a half-open span, and the invariant
the CI round-trip asserts — every journaled point has exactly one
closed span — holds by construction because the span is written and
flushed before the point is journaled.
"""

from __future__ import annotations

import itertools
import os
import time

from .stream import TelemetryWriter

_sweep_counter = itertools.count(1)


def new_sweep_id() -> str:
    """Mint a sweep id unique across processes and within this process."""
    return (f"{int(time.time() * 1000):x}-{os.getpid():x}-"
            f"{next(_sweep_counter):x}")


class Telemetry:
    """One process's handle on a telemetry stream: typed emit helpers.

    ``sweep`` names the span tree records belong to; the parent mints
    one (:func:`new_sweep_id`) and hands ``(path, sweep)`` to workers so
    their records join the same tree.
    """

    def __init__(self, path: str, sweep: str | None = None):
        self.writer = TelemetryWriter(path)
        self.path = str(path)
        self.sweep = sweep or new_sweep_id()

    # -- core -------------------------------------------------------------

    def emit(self, ev: str, **fields) -> None:
        """Append one record, stamped with time, pid and sweep id."""
        record = {"ev": ev, "t": round(time.time(), 6),
                  "pid": os.getpid(), "sweep": self.sweep}
        record.update(fields)
        self.writer.write(record)

    # -- typed helpers ----------------------------------------------------

    def point(self, idx: int, config, key: str, tier: str, dur_s: float,
              **fields) -> None:
        """Emit the closed span of one completed point."""
        self.emit("point", idx=idx, label=config.label, key=key, tier=tier,
                  dur_s=round(dur_s, 6), **fields)

    def point_error(self, idx: int, config, reason: str, attempts: int = 1,
                    backoff_s=()) -> None:
        """Emit the terminal failure span of one point (budget spent)."""
        self.emit("point_error", idx=idx, label=config.label, reason=reason,
                  attempts=attempts,
                  backoff_s=[round(delay, 6) for delay in backoff_s])

    # -- lifecycle --------------------------------------------------------

    def truncate(self) -> None:
        """Start the stream file over (fresh, non-resumed sweep)."""
        self.writer.truncate()

    def close(self) -> None:
        """fsync and close the stream handle (safe to call repeatedly)."""
        self.writer.close()

    def __enter__(self) -> "Telemetry":
        """Context-manager entry: the emitter itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the stream handle."""
        self.close()
