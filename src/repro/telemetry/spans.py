"""The span/event emitter the sweep scheduler drives.

One :class:`Telemetry` instance belongs to one process. The parent
scheduler opens one against the stream path; pool workers each get
their process's own against the same path (:func:`worker_emitter`;
appends interleave whole lines). Every record carries the emitting
``pid``, a wall-clock timestamp ``t`` (``time.time()`` — comparable
across the processes of one machine, unlike ``perf_counter``), and the
``sweep`` id minting the stream's span tree, so one file can hold
several (resumed) sweeps and followers can attribute every record.

The scheduler always holds an emitter and calls it unconditionally;
with telemetry off that emitter is :data:`OFF`, whose every method
returns before a record is built and which opens no file. The scheduler
reports facts — a point and its outcome, a wall, the store — and what a
record makes of them is decided here: the fields a simulated span reads
off its run manifest, and every duration (a ``*_s`` field) rounded to
the microsecond.

The record vocabulary (the ``ev`` field: ``sweep_begin``, ``point``,
``point_failed``, ``retry``, ``point_error``, ``unit``, ``batch_groups``,
``dispatch``, ``chunk``, ``degrade``, ``persist``, ``worker_store``,
``sweep_end``) is described in docs/ARCHITECTURE.md "Harness telemetry".

Spans are emitted *closed* (one record at completion, carrying its
duration) rather than as begin/end pairs: the stream stays one line per
fact, a SIGKILL can never strand a half-open span, and the invariant
the CI round-trip asserts — every journaled point has exactly one
closed span — holds by construction: a simulated point's span is
written and flushed by the process that ran it before its outcome
returns, and so before the parent journals the point.
"""

from __future__ import annotations

import itertools
import os
import time

_sweep_counter = itertools.count(1)


def new_sweep_id() -> str:
    """Mint a sweep id unique across processes and within this process."""
    return (f"{int(time.time() * 1000):x}-{os.getpid():x}-"
            f"{next(_sweep_counter):x}")


def _rounded(value):
    """A duration, or a list of them, to the microsecond."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, (list, tuple)):
        return [round(item, 6) for item in value]
    return value


def _core_fields(config, result) -> dict:
    """Where a simulated point ran, read off its own manifest —
    ``backend``, the ``refused`` an ``auto`` point fell back on, an
    array core's ``step_kernel`` and ``traffic_source``, a batch lane's
    ``lane`` / ``lanes`` — plus ``decision``, which the manifest does
    not say: what the point asked for."""
    from ..harness.experiment import backend_decision
    manifest = result.manifest or {}
    fields = {name: manifest[key] for name, key in (
        ("backend", "backend"), ("refused", "refused"),
        ("step_kernel", "step_kernel"), ("traffic_source", "traffic_source"),
        ("lane", "batch_lane"), ("lanes", "batch_lanes")) if key in manifest}
    try:
        fields["decision"] = backend_decision(
            config, lanes=fields.get("lanes", 1))
    except Exception:
        pass  # observation must never fail the point
    return fields


class Telemetry:
    """One process's handle on a telemetry stream: typed emit helpers.

    ``sweep`` names the span tree records belong to; the parent mints
    one (:func:`new_sweep_id`) and hands :attr:`spec` to pool workers so
    their records join the same tree.
    """

    #: Write the sweep-report beside the stream when the sweep ends (an
    #: emitter :func:`open_emitter` opened from a path does).
    owns_report = False

    def __init__(self, path: str, sweep: str | None = None):
        from .stream import TelemetryWriter  # the off emitter opens none
        self.writer = TelemetryWriter(path)
        self.path = str(path)
        self.sweep = sweep or new_sweep_id()
        self._store = self._baseline = None

    @property
    def spec(self) -> tuple[str, str]:
        """``(path, sweep)``: what a pool worker needs to join the stream."""
        return self.path, self.sweep

    # -- core -------------------------------------------------------------

    def emit(self, ev: str, **fields) -> None:
        """Append one record, stamped with time, pid and sweep id."""
        record = {"ev": ev, "t": round(time.time(), 6),
                  "pid": os.getpid(), "sweep": self.sweep}
        for name, value in fields.items():
            record[name] = _rounded(value) if name.endswith("_s") else value
        self.writer.write(record)

    # -- typed helpers ----------------------------------------------------

    def point(self, idx: int, config, key: str, tier: str, dur_s: float,
              **fields) -> None:
        """Emit the closed span of one completed point."""
        self.emit("point", idx=idx, label=config.label, key=key, tier=tier,
                  dur_s=dur_s, **fields)

    def outcome(self, point, outcome, dur_s: float, attempts: int = 1,
                backoff_s=(), solo_fallback: bool = False) -> None:
        """One simulated attempt of ``point`` (``(idx, cfg, key)``): its
        span if ``outcome`` is a result, ``point_failed`` if an error."""
        idx, config, key = point
        if isinstance(outcome, Exception):
            self.emit("point_failed", idx=idx, label=config.label,
                      cause=outcome.cause, solo_fallback=solo_fallback)
        else:
            self.point(idx, config, key, "simulate", dur_s,
                       attempts=attempts, backoff_s=backoff_s,
                       solo_fallback=solo_fallback,
                       **_core_fields(config, outcome))

    def point_error(self, idx: int, config, reason: str, attempts: int = 1,
                    backoff_s=()) -> None:
        """Emit the terminal failure span of one point (budget spent)."""
        self.emit("point_error", idx=idx, label=config.label, reason=reason,
                  attempts=attempts, backoff_s=backoff_s)

    def sweep_begin(self, store, **fields) -> None:
        """Open a sweep: note ``store``'s counters (``None``: no store)
        for :meth:`sweep_end`'s delta and emit ``sweep_begin``."""
        self._store = store
        self._baseline = dict(store.stats) if store is not None else None
        self.emit("sweep_begin", **fields)

    def batch_groups(self, todo, units, batch_size: int) -> None:
        """How the ``todo`` points grouped into execution ``units``."""
        multi = [len(unit) for unit in units if len(unit) > 1]
        self.emit("batch_groups", todo=len(todo), units=len(units),
                  multi_lane_units=len(multi), batched_points=sum(multi),
                  batch_size=batch_size)

    def sweep_end(self, status: str, error, wall_s: float,
                  results) -> None:
        """Close a sweep: the store's counter delta and ``sweep_end``,
        then close the stream and, if this emitter owns it, write the
        sweep-report beside it."""
        if self._store is not None:
            self.emit("worker_store", role="parent",
                      stats=self._store.stats_delta(self._baseline))
        self.emit("sweep_end", status=status, error=error, wall_s=wall_s,
                  completed=sum(result is not None for result in results))
        self.close()
        if self.owns_report:
            from .report import try_write_sweep_report
            try_write_sweep_report(self.path)

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


class _Off(Telemetry):
    """The emitter of a sweep with telemetry off: no stream, no writer,
    and every method returns at once."""

    path = sweep = spec = writer = None

    def __init__(self):
        pass

    def _nothing(self, *args, **fields) -> None:
        """Return at once: the off path builds no record."""

    emit = point = outcome = point_error = _nothing
    sweep_begin = batch_groups = sweep_end = truncate = close = _nothing


#: The one off emitter: what ``run_experiments(telemetry=None)`` holds.
OFF = _Off()


def open_emitter(telemetry, resume: bool) -> Telemetry:
    """The emitter for ``run_experiments``' ``telemetry=``: :data:`OFF`
    for ``None``, a live :class:`Telemetry` as given, or one opened on a
    path — which starts the stream over unless resuming (a resumed sweep
    appends after the interrupted one's records, and followers and
    reports key on the newest ``sweep_begin``) and owns its report."""
    if telemetry is None:
        return OFF
    if isinstance(telemetry, Telemetry):
        return telemetry
    tel = Telemetry(telemetry)
    tel.owns_report = True
    if not resume:
        tel.truncate()
    return tel


#: This process's emitters by pool spec, opened on a worker's first
#: chunk and kept for the rest.
_worker_emitters: dict = {}


def worker_emitter(spec) -> Telemetry:
    """The emitter a pool worker writes with: :data:`OFF` for a ``None``
    spec, else this process's one emitter on ``(path, sweep)``."""
    if spec is None:
        return OFF
    tel = _worker_emitters.get(spec)
    if tel is None:
        tel = _worker_emitters[spec] = Telemetry(*spec)
    return tel
