"""Fault-tolerant, resumable process-parallel experiment scheduler.

``run_experiments`` fans a list of ``ExperimentConfig`` points out over a
``concurrent.futures.ProcessPoolExecutor`` and merges the results back in
submission order, so callers see exactly the list a serial loop would
have produced. Determinism is free: every config carries its own seed, a
simulation's outcome depends on nothing but its config, and the ordered
merge removes scheduling effects — parallel and serial runs are
bit-identical (``TestParallelSweepDeterminism`` locks this in).

On top of that ordered merge the scheduler is built to *survive*. The
contract is stated once, in docs/ARCHITECTURE.md ("L4 — execution
engine"); ``run_experiments`` documents each knob. In short:

* **Points** — a point is the record ``(idx, cfg, key)``: its sweep
  index, its config and its ``store_key``, hashed once here in the
  parent. The record is what groups, ships to a worker, comes back and
  waits for a retry; nothing keeps a side table by index.
* **Tiers** — ``experiment.resolve`` answers a point from the
  checkpoint journal (on ``resume``), the in-process memo or the
  content-addressed store before anything simulates, and
  ``experiment.persist`` writes a result to the memo and the store —
  the same pair ``run_experiment`` calls, so a point is read and put
  once. ``check=True`` bypasses all three: a replayed result would
  silently skip the monitors.
* **Units** — what is left is grouped: points sharing a ``batch_key``
  (backend ``auto``) run as up to ``batch_size`` lanes of one
  ``BatchNetwork`` — one chip and one kernel call per window for
  the unit, all a batch saves since the cycle was compiled
  (``lane_speedup`` 1.1-1.3, EXPERIMENTS.md "PR 21"); every other point
  is a unit of one.
* **One way to run a unit** — ``_run_unit`` executes it, whether the
  inline loop, a worker's chunk or the retry pass calls it (a batch
  that fails reruns its lanes solo), and ``_Scheduler.absorb`` takes in
  what comes back: a ``Result`` is persisted and journaled (flushed +
  fsync'd) as it lands, a ``SweepPointError`` — or a point a broken or
  stalled pool never returned — waits for ``retry_pass``.
* **Retries** — that pass runs in this process, in input order, after
  every unit: ``retries=N`` extra attempts per point, sleeping
  ``backoff_base * 2**(k-1)`` (capped at ``BACKOFF_CAP``, jitter-free,
  injectable ``sleep``) before the k-th; the first point to exhaust its
  budget raises with everything else already checkpointed.
* **Telemetry** — the scheduler always holds an emitter
  (``repro.telemetry.spans``) and tells it what happened: one closed
  span per point (tier, the core that ran it, attempts, backoff) plus
  lifecycle events. The default ``telemetry=None`` holds the off
  emitter, which returns from every call and writes nothing (the bench
  gate's ``telemetry_cold_check`` enforces it); a pool worker gets its
  own emitter for the spec the chunk carries, so a point's span is
  written by the process that ran it.

Workers are forked (POSIX default), so they inherit the parent's
modules, trace cache, chip plans and idle networks -- before it forks
them the parent loads what each unit it hands out runs on
(``experiment.load_unit``: chip plan, trace, core), so a worker loads
and compiles no ``repro`` module -- and each ends itself
once its parent is gone (``_exit_with_parent``): a SIGKILLed sweep
leaves no orphaned worker asleep on its call queue. They only simulate
— no memo, no store, no journal: results travel back pickled and the
parent persists them, so a point a pool ran is a memo hit for the rest
of the process.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections.abc import Iterable, Sequence

from ..instrument.provenance import run_manifest
from ..store import SweepJournal, result_to_text, store_key
from ..telemetry.spans import OFF, open_emitter, worker_emitter
from .experiment import (ExperimentConfig, Result, batch_key, default_store,
                         load_unit, persist, resolve, run_batch_experiments,
                         run_experiment)


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
    """Worker count used when callers pass ``max_workers=None``: the
    CPUs this process may run on (its affinity set, where the platform
    keeps one), not every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


#: Seconds between a pool worker's checks that its parent still lives.
ORPHAN_POLL_S = 0.5


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent is gone.

    A worker blocks on its call queue, so one whose sweep process was
    SIGKILLed would sleep on, re-parented, forever; a daemon thread
    notices the new parent and exits the process.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(ORPHAN_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="orphan-watch", daemon=True).start()


#: Longest wait (seconds) before a retry, however many came before.
BACKOFF_CAP = 30.0


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
    """Simulate one point, labelling any failure with the point's config.
    No tier is read or written here: the scheduler resolved the point
    before and persists its result after."""
    try:
        return run_experiment(cfg, use_cache=False, check=check,
                              check_stride=check_stride)
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
    policy — and backend ``auto``) land in one unit and will run as
    lanes of a single ``BatchNetwork``; everything else becomes a
    singleton unit. Units are ordered by their first point, so
    with ``batch_size=1`` this degenerates to the plain per-point list
    and the ordered result merge is unaffected either way.
    """
    if batch_size <= 1:
        return [[point] for point in todo]
    units: list[list] = []
    filling: dict = {}  # batch_key -> unit still below batch_size
    for point in todo:
        key = batch_key(point[1])
        if key is None:
            units.append([point])
            continue
        unit = filling.get(key)
        if unit is None:
            unit = filling[key] = []
            units.append(unit)
        unit.append(point)
        if len(unit) >= batch_size:
            del filling[key]
    return units


def _run_unit(points: Sequence[tuple], check: bool = False,
              check_stride: int = 1, tel=OFF, attempts: int = 1,
              backoff_s: Sequence[float] = ()) -> list:
    """Simulate one unit — the only function that does, whether the
    inline loop, a worker's chunk or the retry pass calls it. A
    multi-point unit runs as one batched chip.

    ``points`` are ``(idx, cfg, key)`` records (index and key travel
    with the config so telemetry spans name the point they close). A failure
    of the *batch* (any lane's exception aborts the shared chip) falls
    back to per-point simulation, which both isolates the failing lane
    and completes its innocent unit-mates (and is where ``auto`` lands
    its lanes on the scalar core when the array core refuses the chip).
    Per-point failures are returned as ``SweepPointError`` outcomes,
    never raised, so one bad point cannot discard the unit's completed
    work. Checked units stay
    batched: one ``VectorInvariantChecker`` sweeps every lane of the
    shared chip at once.

    Every completed point goes to ``tel`` *before* the outcome goes back
    to the scheduler (whose ``finish`` journals it) — the ordering that
    makes "every journaled point has a span" hold through a SIGKILL at
    any instant. ``attempts`` and ``backoff_s`` are the retry pass's
    account of the tries this one makes, stamped on that span.
    """
    cfgs = [point[1] for point in points]
    lanes = len(cfgs)
    results, solo_fallback = None, False
    if lanes > 1:
        start = time.perf_counter()
        try:
            results = list(run_batch_experiments(cfgs, check=check,
                                                 check_stride=check_stride))
        except Exception as exc:
            solo_fallback = True  # rerun solo to isolate the failing lane
            tel.emit("unit", lanes=lanes, status="batch-failed",
                     cause=f"{type(exc).__name__}: {exc}")
        else:
            unit_dur = time.perf_counter() - start
            dur = unit_dur / lanes  # each lane's span carries its share
            tel.emit("unit", lanes=lanes, status="ok", dur_s=unit_dur)
    outcomes = []
    for lane, point in enumerate(points):
        if results is not None:
            outcome = results[lane]
        else:
            start = time.perf_counter()
            try:
                outcome = _run_point(point[1], check, check_stride)
            except SweepPointError as err:
                outcome = err
            dur = time.perf_counter() - start
        outcomes.append(outcome)
        tel.outcome(point, outcome, dur, attempts, backoff_s, solo_fallback)
    return outcomes


def _run_chunk(units: Sequence[Sequence[tuple]],
               check: bool = False, check_stride: int = 1,
               telemetry=None) -> list:
    """Worker entry point: simulate one chunk of units, in order.

    ``units`` hold ``(idx, cfg, key)`` points. Returns one outcome per
    *point* (units flattened in order): either a ``Result`` or the
    ``SweepPointError`` that point raised (both pickle-safe). A worker
    touches no tier; the parent persists what comes back.
    ``telemetry`` is the parent emitter's spec, ``(stream path, sweep
    id)`` or ``None``; the worker's own emitter for it appends spans to
    the shared stream as points complete.
    """
    tel = worker_emitter(telemetry)
    return [outcome for points in units
            for outcome in _run_unit(points, check, check_stride, tel)]


def _open_journal(journal, resume: bool):
    """Normalize the ``journal=`` argument; truncate unless resuming."""
    if journal is None:
        return None
    if not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    if not resume:
        journal.truncate()
    return journal


class _Scheduler:
    """One ``run_experiments`` invocation's mutable scheduling state."""

    def __init__(self, configs, *, check, store, journal, resume,
                 max_attempts, backoff_base, timeout, sleep,
                 check_stride=1, telemetry=OFF):
        self.configs = configs
        self.results: list[Result | None] = [None] * len(configs)
        self.check = check
        self.check_stride = check_stride
        self.store = store
        self.journal = journal
        self.resume = resume
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.timeout = timeout
        self.sleep = sleep
        self.tel = telemetry
        #: Owed to ``retry_pass``: ``(point, SweepPointError | None)``.
        self.recover: list[tuple] = []

    # -- completion -------------------------------------------------------

    def absorb(self, points, outcomes=None) -> None:
        """Take in executed points — the one way in, whether
        ``_run_unit`` ran them here or a worker's chunk brought them
        back. A ``Result`` is finished as it lands; a ``SweepPointError``
        waits for ``retry_pass``, as does every point of a chunk the
        pool lost (``outcomes`` is ``None``: it never ran).
        """
        for k, point in enumerate(points):
            outcome = None if outcomes is None else outcomes[k]
            if outcome is None or isinstance(outcome, SweepPointError):
                self.recover.append((point, outcome))
            else:
                self.finish(point, outcome)

    def finish(self, point, result: Result, text: str | None = None,
               tier: str = "simulate") -> None:
        """Record one answered point: its result slot; then, unless the
        sweep is checked, ``persist`` it (memo, store put) unless a memo
        or store hit answered it, and journal it unless the journal did.

        ``text`` is the verified payload a hit was read from, else the
        one ``persist`` encoded: the journal line carries that string.
        A persisted point's store and journal walls go to telemetry as
        a ``persist`` event.
        """
        idx, _, key = point
        self.results[idx] = result
        if self.check:
            return
        durable = tier in ("memo", "store")
        t0 = time.perf_counter()
        if not durable:
            text = persist(result, key, self.store, text)
        t1 = time.perf_counter()
        if self.journal is not None and tier != "journal-replay":
            self.journal.append_text(
                key, text if text is not None else result_to_text(result))
        if not durable:
            self.tel.emit("persist", idx=idx, store_s=t1 - t0,
                          journal_s=time.perf_counter() - t1)

    # -- skip phase: journal, memo, store ---------------------------------

    def collect_todo(self) -> list[tuple]:
        """Make every point's ``(idx, cfg, key)`` record, finish the
        ones ``resolve`` answers and return the rest.

        Every resolved point's closed span is stamped with the tier that
        answered it — ``journal-replay``, ``memo`` or ``store`` — and
        the wall of the lookup, and emitted *before* the journal append
        so a journaled point always has its span.
        """
        journaled = (self.journal.records()
                     if self.journal is not None and self.resume else None)
        todo = []
        for idx, cfg in enumerate(self.configs):
            key = store_key(cfg)
            t0 = time.perf_counter()
            hit = (None if self.check
                   else resolve(cfg, key, self.store, journaled))
            if hit is None:
                todo.append((idx, cfg, key))
                continue
            self.tel.point(idx, cfg, key, hit[2], time.perf_counter() - t0,
                           attempts=0)
            self.finish((idx, cfg, key), *hit)
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
        for point, err in sorted(self.recover, key=lambda item: item[0][0]):
            self.finish(point, self.attempt_with_retries(point, err))

    def attempt_with_retries(self, point,
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
        idx, cfg, _ = point
        attempt = 0 if last is None else 1
        history: list[float] = []
        while attempt < self.max_attempts:
            if attempt > 0:
                delay = backoff_delay(attempt, self.backoff_base,
                                      BACKOFF_CAP)
                history.append(delay)
                self.tel.emit("retry", idx=idx, label=cfg.label,
                              attempt=attempt + 1, delay_s=delay,
                              cause=getattr(last, "cause", None))
                self.sleep(delay)
            attempt += 1
            (outcome,) = _run_unit([point], self.check, self.check_stride,
                                   self.tel, attempts=attempt,
                                   backoff_s=history)
            if not isinstance(outcome, SweepPointError):
                return outcome
            last = outcome
        self.tel.point_error(idx, cfg, last.cause, attempts=attempt,
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
        # Workers fork with the parent's modules and caches: what is
        # loaded here once is theirs, what is left to them each loads
        # (and compiles) again.
        for unit in units:
            load_unit([cfg for _, cfg, _ in unit], self.check)
        from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                        wait)
        tel.emit("dispatch", points=npoints, chunks=len(chunks),
                 chunk_size=chunk_size, workers=workers)
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_exit_with_parent)
        submitted: dict = {}       # future -> submission perf_counter
        try:
            future_chunks = {}
            for chunk in chunks:
                future = pool.submit(_run_chunk, chunk, self.check,
                                     self.check_stride, tel.spec)
                future_chunks[future] = [point for unit in chunk
                                         for point in unit]
                submitted[future] = time.perf_counter()
        except Exception:
            # Pool unusable from the start (e.g. fork failure): everything
            # runs inline.
            self.absorb([point for unit in units for point in unit])
            future_chunks = {}
            tel.emit("degrade", reason="pool-unusable", points=npoints)
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
                    tel.emit("degrade", reason="worker-failure",
                             points=len(chunk),
                             cause=f"{type(exc).__name__}: {exc}")
                    continue
                tel.emit("chunk", points=len(chunk),
                         turnaround_s=time.perf_counter() - submitted[future])
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
    this process persists (memo, store) and journals every completed
    point *as it lands*, so progress survives a SIGKILL at any instant
    and each point is read and put once. With
    ``max_workers`` of 1 — or a single uncached point — everything runs
    inline, which keeps tests and single-core machines free of pool
    overhead.

    Failures retry up to ``retries`` extra times with deterministic
    exponential backoff (``backoff_base`` doubling per retry, capped at
    ``BACKOFF_CAP``; injectable ``sleep`` for testing); a broken or
    stalled pool (no completion for ``timeout`` seconds) degrades to
    serial in-process execution. The
    first point (in input order) to exhaust its attempts raises a
    ``SweepPointError`` carrying its attempt count and backoff history —
    with every other completed point already checkpointed.

    Before dispatch, uncached points that share a ``batch_key`` (same
    chip shape, scheme and VC policy, backend ``auto``) are grouped
    into units of up to ``batch_size`` lanes and simulated as one
    ``BatchNetwork`` run each — one chip and one kernel call per
    window for the unit (what a batch saves now that the cycle is
    compiled: ``lane_speedup`` 1.1-1.3, EXPERIMENTS.md "PR 21"),
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
    events, the sweep's store-counter delta — and, when given as a
    path, a ``repro.sweep-report/1`` summary written next to the stream
    when the sweep ends (whatever way it ends). Telemetry is pure
    observation: results are bit-identical with it on or off, and the
    default ``None`` holds the off emitter, which writes nothing.
    """
    configs = list(configs)
    journal = _open_journal(journal if not check else None, resume)
    tel = open_emitter(telemetry, resume)
    active_store = store if store is not None else default_store()
    scheduler = _Scheduler(
        configs, check=check, store=active_store, journal=journal,
        resume=resume, max_attempts=1 + max(0, retries),
        backoff_base=backoff_base, timeout=timeout, sleep=sleep,
        check_stride=check_stride, telemetry=tel)
    if max_workers is None:
        max_workers = default_workers()
    status, error = "error", None
    start = time.perf_counter()
    tel.sweep_begin(active_store, points=len(configs), workers=max_workers,
                    batch_size=batch_size, check=check, resume=resume,
                    retries=max(0, retries),
                    journal=journal.path if journal is not None else None)
    try:
        todo = scheduler.collect_todo()
        if todo:
            units = _group_units(todo, batch_size)
            tel.batch_groups(todo, units, batch_size)
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
        tel.sweep_end(status, error, time.perf_counter() - start,
                      scheduler.results)
        if journal is not None:
            journal.close()
    return scheduler.results

