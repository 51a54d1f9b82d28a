"""The ``python -m repro store`` maintenance subcommand.

Four actions over one store directory (``--dir``, default from the
``REPRO_STORE`` environment variable or ``.repro_store``):

* ``ls`` — list valid entries (key, kind, age, label);
* ``verify`` — checksum every entry, quarantine the bad ones (exit 1 if
  any were found, the CI contract) and list stale-schema ones;
* ``gc`` — reclaim stale-salt/stale-schema/expired entries, temp debris,
  quarantine;
* ``export`` — bundle entries into one portable JSON document.
"""

from __future__ import annotations

import os
import time

from .result_store import ResultStore, code_version


def add_store_parser(sub) -> None:
    """Register the ``store`` subcommand on a subparsers action."""
    store_p = sub.add_parser(
        "store", help="inspect / maintain the content-addressed result "
                      "store (ls, verify, gc, export)")
    store_p.add_argument(
        "--dir", default=os.environ.get("REPRO_STORE", ".repro_store"),
        help="store directory (default: $REPRO_STORE or .repro_store)")
    actions = store_p.add_subparsers(dest="store_command", required=True)
    actions.add_parser("ls", help="list valid entries")
    actions.add_parser(
        "verify", help="checksum every entry, quarantine corrupt ones "
                       "(exit 1 if any)")
    gc_p = actions.add_parser(
        "gc", help="remove stale-salt entries, temp debris and quarantine")
    gc_p.add_argument("--older-than-days", type=float, default=None,
                      help="also remove entries older than this many days")
    export_p = actions.add_parser(
        "export", help="bundle entries into one JSON document")
    export_p.add_argument("bundle", help="output path of the bundle JSON")
    export_p.add_argument("keys", nargs="*",
                          help="restrict to these keys (default: all)")


def cmd_store(args) -> int:
    """Dispatch one ``repro store`` action; returns the exit code."""
    store = ResultStore(args.dir)
    if args.store_command == "ls":
        return _ls(store)
    if args.store_command == "verify":
        return _verify(store)
    if args.store_command == "gc":
        return _gc(store, args.older_than_days)
    return _export(store, args.bundle, args.keys)


def _ls(store: ResultStore) -> int:
    """Print one line per valid entry plus a totals line."""
    entries = store.entries()
    now = time.time()
    for entry in entries:
        age_h = (now - entry["created_unix"]) / 3600.0
        stale = ("" if entry["code_version"] == code_version()
                 else " [stale salt]")
        print(f"{entry['key'][:16]}  {entry['kind']:8s} "
              f"{age_h:8.1f}h  {entry.get('label') or '-'}{stale}")
    print(f"{len(entries)} entries in {store.root}")
    return 0


def _verify(store: ResultStore) -> int:
    """Checksum-verify the whole store; exit 1 when anything was bad."""
    report = store.verify()
    print(f"verified {report['checked']} entries: {report['ok']} ok, "
          f"{len(report['stale'])} stale, "
          f"{len(report['quarantined'])} quarantined")
    for status in ("stale", "quarantined"):
        for key in report[status]:
            print(f"  {status} {key}")
    return 1 if report["quarantined"] else 0


def _gc(store: ResultStore, older_than_days: float | None) -> int:
    """Reclaim space; prints the per-category removal counts."""
    older_than_s = (None if older_than_days is None
                    else older_than_days * 86400.0)
    removed = store.gc(older_than_s=older_than_s)
    print(f"gc: removed {removed['stale_version']} stale-salt, "
          f"{removed['expired']} expired, {removed['tmp']} tmp, "
          f"{removed['quarantine']} quarantined files")
    return 0


def _export(store: ResultStore, bundle: str, keys: list[str]) -> int:
    """Write the export bundle and report how many entries it carries."""
    path = store.export(bundle, keys or None)
    print(f"wrote {path}")
    return 0
