"""Trace extraction, memoized per process and cached per user.

Mirrors the paper's methodology: traces are extracted once per benchmark
from the closed-loop CMP substrate (on the paper's cmesh CMP configuration)
and then replayed against every router configuration under test. What an
extraction keeps is its trace and the two locality counters of Fig. 1;
the CMP system that produced them is dropped with its caches, cores and
network.

An extraction is a pure function of the code, the interpreter and its
key (benchmark, cycles, warmup, seed), so it is kept twice: in this
process (``_extractions``) and in a per-user cache beside the compiled
cycle's, ``$XDG_CACHE_HOME/repro/traces/`` (else ``~/.cache``), whose
entries answer every later process without running the CMP:

* **Salt.** The SHA-256 of every ``*.py`` and ``*.c`` source of this
  package and the interpreter's ``major.minor``, computed once per
  process (``salt``). Any edit misses, and a miss costs one extraction;
  a narrower salt could serve a trace an edited network core would not
  produce. Sources that cannot be read switch the cache off.
* **Entry.** One sealed record (``store.sealed``), schema
  ``repro.trace-entry/1``, at ``traces/<salt prefix>/<key hash>.json``:
  the envelope names the key and the salt, the payload holds the
  terminals, the benchmark, every record in order and Fig. 1's two
  counters.
* **Trust.** An entry answers only if its checksum, schema, key and salt
  all match; anything else is a miss, re-extracted and written over it,
  through a temporary file and ``os.replace``, so no reader sees a
  partial entry.
* **Failures.** A directory that is not the caller's or is open to
  others (``store.sealed.cache_dir``), an unwritable one or a full disk
  never fail a run: the point extracts as it would without a cache.
* **Bound.** Creating a salt's directory removes every other salt's
  under ``traces/`` (never ``kernel/``): the cache holds only traces the
  running code can read. Within a salt, a write that takes the directory
  past ``BUDGET`` bytes removes the least recently used entries (a hit
  refreshes its entry's mtime), never the one just written. Deleting
  ``traces/`` forces re-extraction.

A hit loads neither the CMP nor the array core; they load on a miss.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from ..store.sealed import (cache_dir, cache_home, canonical_json,
                            read_record, seal)

if TYPE_CHECKING:
    from ..traffic.trace import Trace

#: Schema of one cache entry.
SCHEMA = "repro.trace-entry/1"
#: The installed ``repro`` package, whose sources salt the cache.
_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Hex digits of the salt that name its directory.
_SALT_DIR = 16
#: Bytes of entries one salt's directory keeps: the paper scale, 13
#: profiles x 10 seeds at 8 000 cycles (0.45-0.75 MB an entry, 83 MB in
#: all), with room to spare.
BUDGET = 128 << 20


class Extraction(NamedTuple):
    """What one closed-loop CMP run leaves behind: its injection trace
    and its network's temporal locality (Fig. 1)."""

    trace: Trace
    e2e_locality: float
    xbar_locality: float


#: (benchmark, cycles, warmup, seed) -> that run's ``Extraction``.
_extractions: dict[tuple, Extraction] = {}


def extract(benchmark: str, cycles: int = 2000, warmup: int = 400,
            seed: int = 1) -> Extraction:
    """The closed-loop CMP run for ``benchmark``, as it is kept
    (memoized, then cached per user)."""
    key = (benchmark, cycles, warmup, seed)
    entry = _extractions.get(key)
    if entry is None:
        path = _entry_path(key)
        entry = None if path is None else _read(path, key)
        if entry is None:
            entry = _run(*key)
            if path is not None:
                _write(path, key, entry)
        else:
            try:
                os.utime(path)  # most recently used: evicted last
            except OSError:
                pass
        _extractions[key] = entry
    return entry


def _run(benchmark: str, cycles: int, warmup: int, seed: int) -> Extraction:
    from ..cmp.system import CmpSystem  # the CMP loads when extracting
    system = CmpSystem(benchmark, seed=seed)
    system.run(cycles + warmup, record_trace=True, warmup=warmup)
    stats = system.network.stats
    return Extraction(system.trace, stats.e2e_locality, stats.xbar_locality)


def get_trace(benchmark: str, cycles: int = 2000, warmup: int = 400,
              seed: int = 1) -> Trace:
    """The injection trace of the corresponding CMP run (memoized)."""
    return extract(benchmark, cycles, warmup, seed).trace


def clear_caches() -> None:
    """Forget this process's extractions (the per-user cache stays)."""
    _extractions.clear()


# -- the per-user cache -------------------------------------------------------

def source_salt(root: str, version: tuple) -> str | None:
    """SHA-256 of interpreter ``version`` and every ``*.py`` / ``*.c``
    file under ``root`` (path and bytes, in sorted order); ``None`` if
    one cannot be read or there is none."""
    digest = hashlib.sha256(repr(tuple(version)).encode())
    found = False

    def fail(err):
        raise err

    try:
        for top, dirs, files in os.walk(root, onerror=fail):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith((".py", ".c")):
                    continue
                path = os.path.join(top, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                digest.update(b"%s\0%d\0" % (rel.encode(), len(data)))
                digest.update(data)
                found = True
    except OSError:
        return None
    return digest.hexdigest() if found else None


@lru_cache(maxsize=None)
def salt() -> str | None:
    """This process's salt: its package sources and interpreter."""
    return source_salt(_PACKAGE, sys.version_info[:2])


def _key_text(key: tuple) -> str:
    return canonical_json(list(key))


def _entry_path(key: tuple) -> str | None:
    """Where ``key``'s entry lives, or ``None``: no usable cache."""
    current = salt()
    if current is None:
        return None
    root = cache_dir(cache_home(), "traces")
    if root is None:
        return None
    name = hashlib.sha256(_key_text(key).encode()).hexdigest()[:32]
    return os.path.join(root, current[:_SALT_DIR], name + ".json")


def _read(path: str, key: tuple) -> Extraction | None:
    """The extraction entry ``path`` holds for ``key``, or ``None``."""
    record = read_record(path, SCHEMA)
    if (record is None or record.envelope.get("key") != _key_text(key)
            or record.envelope.get("salt") != salt()):
        return None
    from ..traffic.trace import Trace, TraceRecord
    doc = record.payload
    try:
        trace = Trace(doc["num_terminals"], doc["benchmark"],
                      [TraceRecord(*row) for row in doc["records"]])
        return Extraction(trace, doc["e2e_locality"], doc["xbar_locality"])
    except (KeyError, TypeError, ValueError):
        return None


def _write(path: str, key: tuple, entry: Extraction) -> None:
    """Put ``entry`` at ``path`` whole or not at all; the directory of
    a new salt first clears out every other salt's."""
    trace = entry.trace
    text = canonical_json({
        "num_terminals": trace.num_terminals, "benchmark": trace.benchmark,
        "records": [(r.cycle, r.src, r.dst, r.size, r.msg_type)
                    for r in trace.records],
        "e2e_locality": entry.e2e_locality,
        "xbar_locality": entry.xbar_locality})
    line = seal({"schema": SCHEMA, "key": _key_text(key),
                 "salt": salt()}, text)
    folder = os.path.dirname(path)
    tmp = None
    try:
        try:
            os.mkdir(folder, 0o700)
        except FileExistsError:
            pass
        else:
            _evict(os.path.dirname(folder), os.path.basename(folder))
        fd, tmp = tempfile.mkstemp(dir=folder, prefix="write-",
                                   suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        os.replace(tmp, path)
        tmp = None
        _trim(folder, path)
    except OSError:
        pass  # an unusable cache costs the next process an extraction
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _evict(root: str, keep: str) -> None:
    """Remove every salt directory under ``root`` but ``keep``."""
    try:
        names = os.listdir(root)
    except OSError:
        return
    for name in names:
        if name != keep:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)


def _trim(folder: str, keep: str) -> None:
    """Remove the least recently used entries of ``folder`` but ``keep``
    until its entries fit in ``BUDGET`` bytes."""
    entries = []
    with os.scandir(folder) as items:
        for item in items:
            if item.name.endswith(".json"):
                try:
                    stat = item.stat()
                except OSError:
                    continue  # removed by another process meanwhile
                entries.append((stat.st_mtime_ns, item.path, stat.st_size))
    total = sum(size for _, _, size in entries)
    for _, path, size in sorted(entries):
        if total <= BUDGET:
            break
        if path != keep:
            try:
                os.unlink(path)
            except OSError:
                pass
            total -= size
