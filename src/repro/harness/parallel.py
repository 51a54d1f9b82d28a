"""Fault-tolerant, resumable process-parallel experiment scheduler.

``run_experiments`` fans a list of ``ExperimentConfig`` points out over a
``concurrent.futures.ProcessPoolExecutor`` and merges the results back in
submission order, so callers see exactly the list a serial loop would
have produced. Determinism is free: every config carries its own seed, a
simulation's outcome depends on nothing but its config, and the ordered
merge removes scheduling effects — parallel and serial runs are
bit-identical (``tests/network/test_active_set.py`` locks this in).

On top of that ordered merge the scheduler is built to *survive*. The
contract is stated once, in docs/ARCHITECTURE.md ("L4 — execution
engine"); ``run_experiments`` documents each knob. In short:

* **Tiers** — a point is answered by the checkpoint journal (on
  ``resume``), the in-process memo or the content-addressed store
  before anything simulates. ``check=True`` bypasses all three: a
  replayed result would silently skip the monitors.
* **Units** — what is left is grouped: points sharing a ``batch_key``
  (backend ``batched`` or ``auto``) run as up to ``batch_size`` lanes of
  one ``BatchNetwork`` — one construction and one Python loop per cycle
  for the unit, all a batch saves since the cycle was compiled
  (``lane_speedup`` 1.1-1.3, EXPERIMENTS.md "PR 21"); every other point
  is a unit of one.
* **One way to run a unit** — ``_run_unit`` executes it, whether the
  inline loop, a worker's chunk or the retry pass calls it (a batch
  that fails reruns its lanes solo), and ``_Scheduler.absorb`` takes in
  what comes back: a ``Result`` is stored and journaled (flushed +
  fsync'd) as it lands, a ``SweepPointError`` — or a point a broken or
  stalled pool never returned — waits for ``retry_pass``.
* **Retries** — that pass runs in this process, in input order, after
  every unit: ``retries=N`` extra attempts per point, sleeping
  ``backoff_base * 2**(k-1)`` (capped, jitter-free, injectable
  ``sleep``) before the k-th; the first point to exhaust its budget
  raises with everything else already checkpointed.
* **Telemetry** — ``telemetry=`` streams one closed span per point
  (tier, the core that ran it, attempts, backoff) plus lifecycle events
  (``repro.telemetry``); the default ``None`` holds no emitter at all
  (the bench gate's ``telemetry_cold_check`` enforces it).

Workers are forked (POSIX default), so they inherit the parent's trace
and run caches; results travel back pickled and are folded into the
parent's cache, which lets the figure code keep its cheap memoized
``run_experiment`` calls after a ``prefetch``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from ..instrument import run_manifest
from ..store import (SweepJournal, payload_to_result, result_to_text,
                     store_key)
from .experiment import (ExperimentConfig, Result, backend_decision,
                         batch_key, cache_result, default_store, memo_hit,
                         run_batch_experiments, run_experiment, store_hit,
                         write_through)


def derive_seed(sweep_seed: int, *coords) -> int:
    """Deterministic per-point seed from a sweep seed and point coordinates.

    Hashing decorrelates neighbouring points (seed 1, 2, 3 ... would share
    most of their Mersenne-Twister state) while keeping every point fully
    reproducible from the single sweep seed.
    """
    text = ":".join(str(part) for part in (sweep_seed, *coords))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") + 1


def default_workers() -> int:
    """Worker count used when callers pass ``max_workers=None``."""
    return max(1, os.cpu_count() or 1)


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Seconds to wait before retry ``attempt`` (1-based): exponential,
    capped, deliberately jitter-free so retry schedules are reproducible.
    """
    return min(cap, base * (2 ** (attempt - 1)))


class SweepPointError(RuntimeError):
    """One point of a sweep failed; names the failing point's parameters.

    A bare exception out of a worker process loses all context about
    *which* of the fanned-out simulations died, so every point — worker or
    inline — is wrapped to attach its ``ExperimentConfig``. The original
    exception stays chained as ``__cause__`` (inline runs) and summarized
    in ``cause`` (which also survives pickling back from a worker). When
    the run manifest of the failing point is available it is embedded in
    the message and kept on ``manifest``, so the report names the exact
    config hash, seed and commit needed to reproduce the failure.

    When the scheduler retried the point, ``attempts`` counts every try
    and ``backoff_s`` lists the waits (seconds) that preceded each retry,
    so the error is a complete record of the retry schedule.
    """

    def __init__(self, point: str, cause: str, manifest: dict | None = None,
                 attempts: int = 1,
                 backoff_s: Sequence[float] | None = None):
        message = f"sweep point {point} failed"
        backoff_s = list(backoff_s or [])
        if attempts > 1:
            waits = ", ".join(f"{delay:g}s" for delay in backoff_s)
            message += f" after {attempts} attempts (backoff: {waits})"
        message += f": {cause}"
        if manifest is not None:
            message += "\nrun manifest: " + json.dumps(
                manifest, sort_keys=True, default=str)
        super().__init__(message)
        self.point = point
        self.cause = cause
        self.manifest = manifest
        self.attempts = attempts
        self.backoff_s = backoff_s

    def __reduce__(self):
        """Rebuild from the raw fields (default exception pickling would
        re-call ``__init__`` with the formatted message as ``point``)."""
        return (SweepPointError, (self.point, self.cause, self.manifest,
                                  self.attempts, self.backoff_s))


def _run_point(cfg: ExperimentConfig, check: bool = False,
               check_stride: int = 1) -> Result:
    """Simulate one point, labelling any failure with the point's config."""
    try:
        return run_experiment(cfg, check=check, check_stride=check_stride)
    except Exception as exc:
        try:
            manifest = run_manifest(cfg, seed=cfg.seed)
        except Exception:
            manifest = None  # provenance must never mask the real failure
        raise SweepPointError(
            f"{cfg.label} ({cfg!r})", f"{type(exc).__name__}: {exc}",
            manifest,
        ) from exc


def _group_units(todo: Sequence[tuple], batch_size: int) -> list[list]:
    """Group todo points into execution units of at most ``batch_size``.

    Points whose ``batch_key`` matches (same chip shape, scheme, VC
    policy — and a backend that opted into batching) land in one unit
    and will run as lanes of a single ``BatchNetwork``; everything else
    becomes a singleton unit. Units are ordered by their first point, so
    with ``batch_size=1`` this degenerates to the plain per-point list
    and the ordered result merge is unaffected either way.
    """
    if batch_size <= 1:
        return [[point] for point in todo]
    units: list[list] = []
    filling: dict = {}  # batch_key -> unit still below batch_size
    for idx, cfg in todo:
        key = batch_key(cfg)
        if key is None:
            units.append([(idx, cfg)])
            continue
        unit = filling.get(key)
        if unit is None:
            unit = filling[key] = []
            units.append(unit)
        unit.append((idx, cfg))
        if len(unit) >= batch_size:
            del filling[key]
    return units


def _core_span_fields(cfg: ExperimentConfig, result: Result) -> dict:
    """Span fields saying where a simulated point ran, read off the
    manifest of the run itself — ``backend``, an array core's
    ``step_kernel`` and ``traffic_source``, a batch lane's ``lane`` /
    ``lanes`` — plus
    ``decision``, what the manifest does not say: the selector's inputs.
    """
    manifest = result.manifest or {}
    fields = {name: manifest[key] for name, key in (
        ("backend", "backend"), ("step_kernel", "step_kernel"),
        ("traffic_source", "traffic_source"), ("lane", "batch_lane"),
        ("lanes", "batch_lanes")) if key in manifest}
    try:
        fields["decision"] = backend_decision(
            cfg, lanes=fields.get("lanes", 1))
    except Exception:
        pass  # observation must never fail the point
    return fields


def _run_unit(points: Sequence[tuple], check: bool = False,
              check_stride: int = 1, tel=None, attempts: int = 1,
              backoff_s: Sequence[float] = ()) -> list:
    """Simulate one unit — the only function that does, whether the
    inline loop, a worker's chunk or the retry pass calls it. A
    multi-point unit runs as one batched chip.

    ``points`` are ``(idx, cfg)`` pairs (the sweep index travels with
    the config so telemetry spans name the point they close). A failure
    of the *batch* (any lane's exception aborts the shared chip) falls
    back to per-point simulation, which both isolates the failing lane
    and completes its innocent unit-mates. Per-point failures are
    returned as ``SweepPointError`` outcomes, never raised, so one bad
    point cannot discard the unit's completed work. Checked units stay
    batched: one ``VectorInvariantChecker`` sweeps every lane of the
    shared chip at once.

    With ``tel`` every completed point emits its closed span *before*
    the outcome goes back to the scheduler (whose ``finish_point``
    journals it) — the ordering that makes "every journaled point has a
    span" hold through a SIGKILL at any instant. ``attempts`` and
    ``backoff_s`` are the retry pass's account of the tries this one
    makes, stamped on that span.
    """
    cfgs = [cfg for _, cfg in points]
    lanes = len(cfgs)
    results, solo_fallback = None, False
    start = time.perf_counter()
    if lanes > 1:
        try:
            # Cache layers were already consulted by ``collect_todo``;
            # the scheduler's ``finish_point`` writes results through.
            results = list(run_batch_experiments(cfgs, check=check,
                                                 check_stride=check_stride))
        except Exception as exc:
            solo_fallback = True  # rerun solo to isolate the failing lane
            if tel is not None:
                tel.emit("unit", lanes=lanes, status="batch-failed",
                         cause=f"{type(exc).__name__}: {exc}")
        else:
            unit_dur = time.perf_counter() - start
            dur = unit_dur / lanes  # each lane's span carries its share
            if tel is not None:
                tel.emit("unit", lanes=lanes, status="ok",
                         dur_s=round(unit_dur, 6))
    outcomes = []
    for lane, (idx, cfg) in enumerate(points):
        if results is not None:
            outcome = results[lane]
        else:
            start = time.perf_counter()
            try:
                outcome = _run_point(cfg, check, check_stride)
            except SweepPointError as err:
                outcome = err
            dur = time.perf_counter() - start
        outcomes.append(outcome)
        if tel is None:
            continue
        if isinstance(outcome, SweepPointError):
            tel.emit("point_failed", idx=idx, label=cfg.label,
                     cause=outcome.cause, solo_fallback=solo_fallback)
        else:
            tel.point(idx, cfg, store_key(cfg), "simulate", dur,
                      attempts=attempts,
                      backoff_s=[round(d, 6) for d in backoff_s],
                      solo_fallback=solo_fallback,
                      **_core_span_fields(cfg, outcome))
    return outcomes


#: Per-process worker telemetry: stream path -> (Telemetry, store-stat
#: baseline at first use). Forked workers inherit the parent's counter
#: values, so the baseline turns cumulative counters into this worker's
#: own traffic.
_worker_state: dict = {}


def _worker_telemetry(spec):
    """The (emitter, store baseline) pair of this worker process."""
    path, sweep = spec
    state = _worker_state.get(path)
    if state is None:
        from ..telemetry import Telemetry
        store = default_store()
        baseline = dict(store.stats) if store is not None else None
        state = _worker_state[path] = (Telemetry(path, sweep=sweep),
                                       baseline)
    return state


def _run_chunk(units: Sequence[Sequence[tuple]],
               check: bool = False, check_stride: int = 1,
               telemetry=None) -> list:
    """Worker entry point: simulate one chunk of units, in order.

    ``units`` hold ``(idx, cfg)`` points. Returns one outcome per
    *point* (units flattened in order): either a ``Result`` or the
    ``SweepPointError`` that point raised (both pickle-safe).
    ``telemetry`` is ``(stream path, sweep id)`` or ``None``; with it,
    the worker appends spans to the shared stream as points complete
    and a cumulative ``worker_store`` counter delta after each chunk.
    """
    tel = baseline = None
    if telemetry is not None:
        tel, baseline = _worker_telemetry(telemetry)
    start = time.perf_counter()
    outcomes = []
    for points in units:
        outcomes.extend(_run_unit(points, check, check_stride, tel))
    if tel is not None:
        fields = {"points": len(outcomes),
                  "busy_s": round(time.perf_counter() - start, 6)}
        store = default_store()
        if store is not None and baseline is not None:
            fields["stats"] = store.stats_delta(baseline)
        tel.emit("worker_store", **fields)
    return outcomes


def _open_journal(journal, resume: bool):
    """Normalize the ``journal=`` argument; truncate unless resuming."""
    if journal is None:
        return None
    if not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    if not resume:
        journal.truncate()
    return journal


def _open_telemetry(telemetry, resume: bool):
    """Normalize ``telemetry=``: ``None``, a path, or a live emitter.

    Mirrors ``_open_journal``: a path starts the stream over unless
    resuming (a resumed sweep appends its records after the interrupted
    sweep's, and followers/reports key on the newest ``sweep_begin``).
    The import is lazy so the telemetry-off path never touches the
    package.
    """
    if telemetry is None:
        return None
    from ..telemetry import Telemetry
    if isinstance(telemetry, Telemetry):
        return telemetry
    tel = Telemetry(telemetry)
    if not resume:
        tel.truncate()
    return tel


class _Scheduler:
    """One ``run_experiments`` invocation's mutable scheduling state."""

    def __init__(self, configs, *, check, store, journal, resume,
                 max_attempts, backoff_base, backoff_cap, timeout, sleep,
                 check_stride=1, telemetry=None):
        self.configs = configs
        self.results: list[Result | None] = [None] * len(configs)
        #: Each point's store key, hashed once by ``collect_todo`` and
        #: reused by every store get/put, journal append and span.
        self.keys: list[str | None] = [None] * len(configs)
        self.check = check
        self.check_stride = check_stride
        self.store = store
        self.journal = journal
        self.resume = resume
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self.sleep = sleep
        self.tel = telemetry
        #: Owed to ``retry_pass``: ``(idx, cfg, SweepPointError | None)``.
        self.recover: list[tuple] = []

    # -- completion -------------------------------------------------------

    def absorb(self, points, outcomes=None) -> None:
        """Take in executed points — the one way in, whether
        ``_run_unit`` ran them here or a worker's chunk brought them
        back. A ``Result`` is finished as it lands; a ``SweepPointError``
        waits for ``retry_pass``, as does every point of a chunk the
        pool lost (``outcomes`` is ``None``: it never ran).
        """
        for k, (idx, cfg) in enumerate(points):
            outcome = None if outcomes is None else outcomes[k]
            if outcome is None or isinstance(outcome, SweepPointError):
                self.recover.append((idx, cfg, outcome))
            else:
                self.finish_point(idx, outcome)

    def finish_point(self, idx: int, result: Result,
                     journaled_text: str | None = None) -> None:
        """Record one completed point: slot, memo/store, checkpoint.

        ``journaled_text`` marks a point replayed from the journal: it
        is not journaled again, and the verified text it was read from
        is what the store gets. With telemetry on, the store
        write-through and journal append are timed and emitted as a
        ``persist`` event (what says "40% of the wall went to store
        I/O").
        """
        self.results[idx] = result
        tel = self.tel
        key = self.keys[idx]
        journaling = self.journal is not None and journaled_text is None
        persisting = not self.check and self.store is not None
        # Encoded once: the store entry and the journal line carry the
        # same canonical payload text.
        text = journaled_text
        if text is None and (persisting or journaling):
            text = result_to_text(result)
        t0 = time.perf_counter() if tel is not None else 0.0
        if persisting:
            write_through(result, key, text, self.store)
        elif not self.check:
            cache_result(result)  # no store anywhere: memo only
        t1 = time.perf_counter() if tel is not None else 0.0
        if journaling:
            self.journal.append_text(key, text)
        if tel is not None:
            tel.emit("persist", idx=idx, store_s=round(t1 - t0, 6),
                     journal_s=round(time.perf_counter() - t1, 6))

    # -- skip phase: journal, memo, store ---------------------------------

    def collect_todo(self) -> list[tuple[int, ExperimentConfig]]:
        """Resolve every point answerable without simulating; return the
        rest.

        With telemetry on, every cache-resolved point emits a closed
        span stamped with the tier that answered it — ``journal-replay``,
        ``memo`` (in-process memory, free) or ``store`` (paid a disk
        read, whose wall the span carries). Spans are emitted *before*
        the journal append so a journaled point always has its span.
        """
        tel = self.tel
        journaled: dict[str, tuple[dict, str]] = {}
        if self.journal is not None and self.resume:
            journaled = self.journal.records()
        todo: list[tuple[int, ExperimentConfig]] = []
        for idx, cfg in enumerate(self.configs):
            key = self.keys[idx] = store_key(cfg)
            if self.check:
                todo.append((idx, cfg))
                continue
            record = journaled.get(key)
            if record is not None:
                t0 = time.perf_counter() if tel is not None else 0.0
                try:
                    result = payload_to_result(record[0])
                except (KeyError, TypeError, ValueError):
                    pass  # stale journal payload: recompute
                else:
                    if tel is not None:
                        tel.point(idx, cfg, key, "journal-replay",
                                  time.perf_counter() - t0, attempts=0)
                    self.finish_point(idx, result, journaled_text=record[1])
                    continue
            hit = memo_hit(cfg)
            tier, read_s, text = "memo", 0.0, None
            if hit is None and self.store is not None:
                t0 = time.perf_counter() if tel is not None else 0.0
                stored = store_hit(cfg, key, self.store)
                if tel is not None:
                    read_s = time.perf_counter() - t0
                tier = "store"
                if stored is not None:
                    hit, text = stored
            if hit is not None:
                # Already durable — record the slot (and checkpoint, so
                # the journal stays self-contained) without a store put.
                # A store hit re-records the bytes it just verified.
                self.results[idx] = hit
                if tel is not None:
                    tel.point(idx, cfg, key, tier, read_s, attempts=0)
                if self.journal is not None:
                    self.journal.append_text(
                        key, text if text is not None
                        else result_to_text(hit))
            else:
                todo.append((idx, cfg))
        return todo

    # -- inline execution and the retry pass -------------------------------

    def run_serial(self, units) -> None:
        """Execute units inline, in input order (the no-pool path)."""
        for unit in units:
            self.absorb(unit, _run_unit(unit, self.check, self.check_stride,
                                        self.tel))

    def retry_pass(self) -> None:
        """Finish what ``absorb`` queued, in input order and in this
        process. Every other point is finished (stored, journaled) by
        now, so the first one to exhaust its budget can raise."""
        for idx, cfg, err in sorted(self.recover, key=lambda item: item[0]):
            self.finish_point(idx, self.attempt_with_retries(idx, cfg, err))

    def attempt_with_retries(self, idx: int, cfg: ExperimentConfig,
                             last: SweepPointError | None) -> Result:
        """Run one queued point solo, retrying with deterministic backoff.

        ``last`` is the error of the attempt the point's unit already
        spent (``None``: the point never ran). Exhausting the budget
        raises a ``SweepPointError`` carrying the attempt count and the
        full backoff history, chained to the underlying cause; a budget
        of one surfaces the first error as it was. Telemetry records
        every scheduled retry (attempt number, delay, cause), the final
        span with its total attempt count and backoff history, and — on
        a spent budget — a terminal ``point_error`` span, so a crashed
        sweep's stream explains itself.
        """
        tel = self.tel
        attempt = 0 if last is None else 1
        history: list[float] = []
        while attempt < self.max_attempts:
            if attempt > 0:
                delay = backoff_delay(attempt, self.backoff_base,
                                      self.backoff_cap)
                history.append(delay)
                if tel is not None:
                    tel.emit("retry", idx=idx, label=cfg.label,
                             attempt=attempt + 1, delay_s=round(delay, 6),
                             cause=(last.cause if last is not None
                                    else None))
                self.sleep(delay)
            attempt += 1
            (outcome,) = _run_unit([(idx, cfg)], self.check,
                                   self.check_stride, tel, attempts=attempt,
                                   backoff_s=history)
            if not isinstance(outcome, SweepPointError):
                return outcome
            last = outcome
        if tel is not None:
            tel.point_error(idx, cfg, last.cause, attempts=attempt,
                            backoff_s=history)
        if attempt <= 1 and not history:
            raise last  # single attempt: surface the original error as-is
        rebuilt = SweepPointError(last.point, last.cause, last.manifest,
                                  attempt, history)
        raise rebuilt from (last.__cause__ or last)

    # -- pooled execution --------------------------------------------------

    def run_pooled(self, units, max_workers: int,
                   chunk_size: int | None) -> None:
        """Dispatch chunks of units to a process pool; recover serially.

        Chunk outcomes are journaled as they land (``as_completed``
        order), the final merge is input-ordered. Worker-raised
        ``SweepPointError``s, a broken pool, and a pool that makes no
        progress for ``timeout`` seconds all leave the affected points
        to ``retry_pass``.
        """
        tel = self.tel
        npoints = sum(len(unit) for unit in units)
        if chunk_size is None:
            # ~4 chunks per worker balances load without excessive
            # pickling.
            chunk_size = max(1, npoints // (max_workers * 4))
        # Chunks close once they reach chunk_size points; units are
        # never split across chunks (a batch must share one worker).
        chunks: list[list] = []
        cur: list = []
        count = 0
        for unit in units:
            cur.append(unit)
            count += len(unit)
            if count >= chunk_size:
                chunks.append(cur)
                cur, count = [], 0
        if cur:
            chunks.append(cur)
        workers = min(max_workers, len(chunks))
        if tel is not None:
            tel.emit("dispatch", points=npoints, chunks=len(chunks),
                     chunk_size=chunk_size, workers=workers)
        tel_spec = (tel.path, tel.sweep) if tel is not None else None
        pool = ProcessPoolExecutor(max_workers=workers)
        submitted: dict = {}       # future -> submission perf_counter
        try:
            future_chunks = {}
            for chunk in chunks:
                future = pool.submit(_run_chunk, chunk, self.check,
                                     self.check_stride, tel_spec)
                future_chunks[future] = [point for unit in chunk
                                         for point in unit]
                submitted[future] = time.perf_counter()
        except Exception:
            # Pool unusable from the start (e.g. fork failure): everything
            # runs inline.
            self.absorb([point for unit in units for point in unit])
            future_chunks = {}
            if tel is not None:
                tel.emit("degrade", reason="pool-unusable",
                         points=npoints)
        pending = set(future_chunks)
        while pending:
            done, pending = wait(pending, timeout=self.timeout,
                                 return_when=FIRST_COMPLETED)
            if not done:
                # No chunk completed within the timeout window: stop
                # trusting the pool, salvage the rest in-process.
                stalled = 0
                for future in pending:
                    future.cancel()
                    self.absorb(future_chunks[future])
                    stalled += len(future_chunks[future])
                if tel is not None:
                    tel.emit("degrade", reason="stall-timeout",
                             timeout_s=self.timeout, points=stalled)
                break
            for future in done:
                chunk = future_chunks[future]
                try:
                    outcomes = future.result()
                except Exception as exc:
                    # Worker process died / pool broke mid-flight: the
                    # chunk's points rerun serially.
                    self.absorb(chunk)
                    if tel is not None:
                        tel.emit("degrade", reason="worker-failure",
                                 points=len(chunk),
                                 cause=f"{type(exc).__name__}: {exc}")
                    continue
                if tel is not None:
                    tel.emit("chunk", points=len(chunk),
                             turnaround_s=round(
                                 time.perf_counter() - submitted[future],
                                 6))
                self.absorb(chunk, outcomes)
        pool.shutdown(wait=False, cancel_futures=True)


def run_experiments(configs: Iterable[ExperimentConfig],
                    max_workers: int | None = None,
                    chunk_size: int | None = None,
                    check: bool = False,
                    check_stride: int = 1,
                    store=None,
                    journal=None,
                    resume: bool = False,
                    retries: int = 0,
                    backoff_base: float = 0.5,
                    backoff_cap: float = 30.0,
                    timeout: float | None = None,
                    sleep=time.sleep,
                    batch_size: int = 16,
                    telemetry=None) -> list[Result]:
    """Run many experiment points, returning results in input order.

    Cached points are answered without simulating — from the in-process
    memo, the content-addressed ``store`` (explicit or the process-wide
    default), or, with ``resume=True``, the checkpoint ``journal`` of an
    interrupted earlier run. The remainder is split into chunks
    (amortizing process round-trips) and dispatched to a worker pool;
    every completed point is journaled and written through the store *as
    it lands*, so progress survives a SIGKILL at any instant. With
    ``max_workers`` of 1 — or a single uncached point — everything runs
    inline, which keeps tests and single-core machines free of pool
    overhead.

    Failures retry up to ``retries`` extra times with deterministic
    exponential backoff (``backoff_base``/``backoff_cap``, injectable
    ``sleep`` for testing); a broken or stalled pool (no completion for
    ``timeout`` seconds) degrades to serial in-process execution. The
    first point (in input order) to exhaust its attempts raises a
    ``SweepPointError`` carrying its attempt count and backoff history —
    with every other completed point already checkpointed.

    Before dispatch, uncached points that share a ``batch_key`` (same
    chip shape, scheme and VC policy, backend ``batched`` or ``auto``)
    are grouped into units of up to ``batch_size`` lanes and simulated
    as one ``BatchNetwork`` run each — one construction and one Python
    loop per cycle for the unit (what a batch saves now that the cycle
    is compiled: ``lane_speedup`` 1.1-1.3, EXPERIMENTS.md "PR 21"),
    every lane bit-identical to its solo run. Store and journal keys
    are unchanged: one entry per point, whichever way it ran.
    ``batch_size=1`` disables grouping.

    ``check=True`` attaches invariant checking to every point (strict
    mode: the first violation surfaces as a ``SweepPointError`` naming
    the point): the full scalar monitor suite on the scalar core, the
    array-native ``VectorInvariantChecker`` — sweeping every
    ``check_stride`` cycles — on the vectorized and batched cores.
    Checked runs bypass memo, store and journal entirely (a cached or
    replayed result would skip the monitors) but batch normally: one
    checker's whole-array sweeps cover every lane of a shared chip, and
    violations carry the offending lane index.

    ``telemetry=`` (a stream path or a live ``repro.telemetry
    .Telemetry``) switches on the span/event stream documented in
    ``repro.telemetry``: one closed span per point, scheduler lifecycle
    events, per-process store-counter deltas — and, when given as a
    path, a ``repro.sweep-report/1`` summary written next to the stream
    when the sweep ends (whatever way it ends). Telemetry is pure
    observation: results are bit-identical with it on or off, and the
    default off path holds no emitter at all.
    """
    configs = list(configs)
    journal = _open_journal(journal if not check else None, resume)
    tel = _open_telemetry(telemetry, resume)
    active_store = store if store is not None else default_store()
    scheduler = _Scheduler(
        configs, check=check, store=active_store, journal=journal,
        resume=resume, max_attempts=1 + max(0, retries),
        backoff_base=backoff_base, backoff_cap=backoff_cap, timeout=timeout,
        sleep=sleep, check_stride=check_stride, telemetry=tel)
    if max_workers is None:
        max_workers = default_workers()
    status, error = "error", None
    start = time.perf_counter()
    store_baseline = (dict(active_store.stats)
                      if tel is not None and active_store is not None
                      else None)
    if tel is not None:
        tel.emit("sweep_begin", points=len(configs), workers=max_workers,
                 batch_size=batch_size, check=check, resume=resume,
                 retries=max(0, retries),
                 journal=(journal.path if journal is not None else None))
    try:
        todo = scheduler.collect_todo()
        if todo:
            units = _group_units(todo, batch_size)
            if tel is not None:
                multi = [len(unit) for unit in units if len(unit) > 1]
                tel.emit("batch_groups", todo=len(todo), units=len(units),
                         multi_lane_units=len(multi),
                         batched_points=sum(multi),
                         batch_size=batch_size)
            if max_workers <= 1 or len(units) == 1:
                scheduler.run_serial(units)
            else:
                scheduler.run_pooled(units, max_workers, chunk_size)
            scheduler.retry_pass()
        status = "ok"
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}".splitlines()[0]
        raise
    finally:
        if tel is not None:
            if store_baseline is not None:
                tel.emit("worker_store", role="parent",
                         stats=active_store.stats_delta(store_baseline))
            tel.emit("sweep_end", status=status, error=error,
                     wall_s=round(time.perf_counter() - start, 6),
                     completed=sum(result is not None
                                   for result in scheduler.results))
            tel.close()
            if not hasattr(telemetry, "emit"):
                # Given as a path: the stream owns a report sidecar.
                from ..telemetry.report import try_write_sweep_report
                try_write_sweep_report(tel.path)
        if journal is not None:
            journal.close()
    return scheduler.results


def prefetch(configs: Iterable[ExperimentConfig],
             max_workers: int | None = None, **kwargs) -> None:
    """Warm the run cache so later ``run_experiment`` calls are instant.

    The figure code stays written as straightforward serial loops; calling
    ``prefetch`` with every config a figure will need turns those loops
    into cache lookups while the simulations run in parallel. Extra
    keyword arguments (``store``, ``journal``, ``resume``, ``retries``,
    ...) pass through to ``run_experiments``.
    """
    run_experiments(configs, max_workers=max_workers, **kwargs)
