"""``repro top``: live progress of an in-flight sweep from its stream.

Follows a telemetry stream (or a PR 5 checkpoint journal) that another
process may still be appending to, and renders a refreshing snapshot:
points/s, resolution-tier mix, backend mix, retry/backoff totals,
per-worker utilization and an ETA. Terminal failures and scheduler
degradation surface immediately — a stalled sweep's stream explains
itself instead of sitting silent.

Reading is strictly passive (``TailReader`` on a read-only handle), so
``repro top`` can watch a sweep owned by any process, and ``--once``
prints a single snapshot — the post-mortem mode for a SIGKILL'd sweep's
leftover stream.
"""

from __future__ import annotations

import json
import time

from ..store import journal as journal_mod
from .report import SweepFold, build_sweep_report, latest_sweep
from .stream import SCHEMA, TailReader, parse_telemetry_line
from .trace_export import write_chrome_trace


def parse_journal_line(line: bytes | str) -> dict | None:
    """One checkpoint-journal line as a synthetic progress record.

    Valid journal lines (``store.journal.parse_line`` — the exact
    discipline ``SweepJournal.load`` trusts) map to
    ``{"ev": "journal_point", "key": ...}`` so the same follower
    machinery counts them; everything else is skipped.
    """
    parsed = journal_mod.parse_line(line)
    if parsed is None:
        return None
    return {"ev": "journal_point", "key": parsed[0]}


def sniff_stream_kind(path: str) -> str | None:
    """``"telemetry"``, ``"journal"``, or ``None`` (nothing valid yet).

    Decided by the first parseable line's schema tag, so a follower
    started before the sweep (empty or absent file) keeps sniffing
    until the first record lands.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(1 << 16)
    except OSError:
        return None
    for raw in head.split(b"\n"):
        line = raw.decode("utf-8", "replace").strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict):
            continue
        schema = record.get("schema")
        if schema == SCHEMA:
            return "telemetry"
        if schema == journal_mod.SCHEMA:
            return "journal"
    return None


class SweepProgress:
    """Live view of one sweep, fed one record at a time.

    Telemetry records go through the report's :class:`SweepFold` (one
    reading of the record vocabulary); what is kept here is journal mode
    (the synthetic ``journal_point`` records), the reset on a fresh
    ``sweep_begin`` (one stream file can hold several sweeps) and the
    rendering.
    """

    def __init__(self):
        self.fold = SweepFold()
        self.journal_keys: set = set()
        self.kind = "journal"  # flips on the first telemetry record

    def feed(self, record: dict) -> None:
        """Fold one stream record into the view."""
        ev = record.get("ev")
        if ev == "journal_point":
            self.journal_keys.add(record.get("key"))
            return
        self.kind = "telemetry"
        if ev == "sweep_begin":
            self.fold = SweepFold()
            self.journal_keys = set()
        self.fold.feed(record)

    # -- derived ----------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the followed sweep has emitted its terminal record."""
        return self.fold.end is not None

    @property
    def completed(self) -> int:
        """Points resolved so far (spans, or journal lines in journal
        mode)."""
        if self.kind == "journal":
            return len(self.journal_keys)
        return len(self.fold.points)

    @property
    def last_t(self):
        """Timestamp of the newest record folded so far, or ``None``."""
        return self.fold.last_t

    def render(self, now: float | None = None) -> str:
        """The multi-line progress snapshot for the terminal."""
        if self.kind == "journal":
            return (f"journal: {len(self.journal_keys)} points "
                    f"checkpointed (no telemetry stream; totals unknown)")
        fold = self.fold
        tiers, backends, per_worker = fold.mix()
        begin = fold.begin or {}
        end = fold.end
        total = begin.get("points")
        done = len(fold.points)
        now = time.time() if now is None else now
        start = begin.get("t", fold.first_t)
        wall = (end.get("t", now) if end is not None
                else now) - (start or now)
        wall = max(0.0, wall)
        rate = done / wall if wall > 0 else 0.0
        status = end.get("status") if end is not None else "running"
        head = f"sweep {begin.get('sweep', '?')} [{status}]"
        if total:
            head += f" {done}/{total} points ({done / total:.0%})"
        else:
            head += f" {done} points"
        head += f" · {rate:.2f}/s · wall {wall:.1f}s"
        if total and rate > 0 and end is None and done < total:
            head += f" · ETA {(total - done) / rate:.1f}s"
        lines = [head]
        if tiers:
            mix = " · ".join(f"{tier} {count}" for tier, count
                             in sorted(tiers.items()))
            lines.append(f"  tiers: {mix}")
        if backends:
            mix = " · ".join(f"{name} {count}" for name, count
                             in sorted(backends.items()))
            lines.append(f"  backends: {mix}")
        busy = sum(w["busy_s"] for w in per_worker.values())
        procs = max(1, len(per_worker))
        util = busy / (procs * wall) if wall > 0 else 0.0
        lines.append(f"  workers: {procs} · busy {busy:.1f}s · "
                     f"utilization {util:.0%} · retries {fold.retries} "
                     f"(backoff {fold.backoff_s:g}s)")
        for reason in fold.degrades:
            lines.append(f"  DEGRADED: {reason}")
        for failure in fold.errors[-4:]:
            lines.append(f"  FAILED point {failure.get('idx')} "
                         f"[{failure.get('label')}] after "
                         f"{failure.get('attempts')} attempt(s): "
                         f"{failure.get('reason')}")
        if (end is not None and end.get("status") == "error"
                and end.get("error")):
            lines.append(f"  SWEEP FAILED: {end['error']}")
        return "\n".join(lines)


def run_top(path: str, *, once: bool = False, interval: float = 2.0,
            trace_out: str | None = None, report_out: str | None = None,
            out=print, sleep=time.sleep, max_polls: int | None = None)\
        -> int:
    """Follow a telemetry/journal stream; render snapshots until done.

    ``once`` prints a single snapshot of the stream as it stands
    (mid-sweep or post-mortem) and exits. Otherwise the stream is
    re-polled every ``interval`` seconds until the sweep's terminal
    record arrives (``max_polls`` bounds the loop for tests; journal
    streams have no terminal record, so follow mode runs until
    interrupted). ``trace_out``/``report_out`` additionally write the
    Perfetto export and the sweep-report from everything read —
    telemetry streams only. Returns a process exit code.
    """
    kind = sniff_stream_kind(path)
    parse = parse_journal_line if kind == "journal" else \
        parse_telemetry_line
    reader = TailReader(path, parse=parse)
    progress = SweepProgress()
    if kind == "journal":
        progress.kind = "journal"
    records: list[dict] = []
    polls = 0
    while True:
        new = reader.poll()
        records.extend(new)
        for record in new:
            progress.feed(record)
        out(progress.render())
        polls += 1
        if once or progress.finished:
            break
        if max_polls is not None and polls >= max_polls:
            break
        sleep(interval)
    if kind != "journal":
        if trace_out is not None:
            out(f"wrote {write_chrome_trace(records, trace_out)}")
        if report_out is not None:
            report = build_sweep_report(latest_sweep(records))
            with open(report_out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True,
                          default=str)
                fh.write("\n")
            out(f"wrote {report_out}")
    elif trace_out is not None or report_out is not None:
        out("note: --trace-out/--report-out need a telemetry stream, "
            "not a journal")
    if kind is None:
        out(f"note: no valid records in {path} yet")
    return 0
