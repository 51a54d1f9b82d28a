"""Run-to-run regression reports: diff two metrics/bench documents.

``compare_docs`` flattens two JSON documents (metrics documents from
``--check`` runs, ``repro bench`` reports, or any JSON with numeric
leaves) into dotted-key leaves, matches keys against a built-in
threshold table, and classifies every shared metric as *ok*, *improved*
or *regressed*. The ``python -m repro compare`` CLI prints the report and
exits non-zero when anything regressed — the CI contract.

Threshold rules (first ``fnmatch`` match wins; ``--threshold
PATTERN=VALUE`` overrides the tolerance, direction stays built-in):

=====================================  =========  =======================
pattern                                tolerance  better direction
=====================================  =========  =======================
``*violation*``                        0 (abs)    lower
``*wall_s`` / ``*overhead*``           10% (rel)  lower
``*latency*``                          3% (rel)   lower
``*reusability*`` / ``*bypass_rate*``
/ ``*locality*``                       0.02 (abs) higher
``*speedup*`` / ``*points_per_s``      10% (rel)  higher
``*hit_rate*`` / ``*occupancy*``       0.02 (abs) higher
``*utilization*``                      0.05 (abs) higher
other ``*_s`` walls                    25% (rel)  lower
anything else                          exact      neutral (either way)
=====================================  =========  =======================

Sweep-report documents (``repro.sweep-report/1``, written by the harness
telemetry layer) diff through the same machinery: throughput, store hit
rate, batch occupancy and scheduler overhead fall under the rules above,
while per-pid worker blocks and error details are identity, not quality.
"""

from __future__ import annotations

import json
import math
from fnmatch import fnmatch

REPORT_SCHEMA = "repro.regression-report/1"

#: (pattern, tolerance, relative?, better: 'lower'|'higher'|'neutral')
DEFAULT_RULES: list[tuple[str, float, bool, str]] = [
    ("*violation*", 0.0, False, "lower"),
    ("*wall_s", 0.10, True, "lower"),
    ("*overhead*", 0.10, True, "lower"),
    ("*latency*", 0.03, True, "lower"),
    ("*reusability*", 0.02, False, "higher"),
    ("*bypass_rate*", 0.02, False, "higher"),
    ("*locality*", 0.02, False, "higher"),
    ("*speedup*", 0.10, True, "higher"),
    ("*points_per_s", 0.10, True, "higher"),
    ("*hit_rate*", 0.02, False, "higher"),
    ("*occupancy*", 0.02, False, "higher"),
    ("*utilization*", 0.05, False, "higher"),
    ("*_s", 0.25, True, "lower"),
    ("*", 0.0, False, "neutral"),
]

#: Keys that identify a run rather than measure it — never compared.
#: ``store.`` covers the result-store counter block metrics documents
#: carry (hits/misses vary with cache temperature, not code quality);
#: ``per_worker.`` / ``errors.`` cover sweep-report blocks keyed by pid
#: or carrying absolute timestamps, which identify a run, not its
#: quality.
_IDENTITY_KEYS = ("meta.", "manifest.", ".git_sha", ".generated_unix",
                  ".python", ".platform", ".hostname", "schema", "store.",
                  "documents.", "per_worker.", "errors.")


def flatten(doc, prefix: str = "") -> dict[str, float]:
    """Dotted-path -> numeric leaf. Bools, NaNs, strings are skipped;
    lists of dicts index by a ``name``/``label`` member when present."""
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value, path))
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            tag = str(idx)
            if isinstance(value, dict):
                tag = str(value.get("name") or value.get("label") or idx)
            out.update(flatten(value, f"{prefix}.{tag}"
                               if prefix else tag))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)):
        if not (isinstance(doc, float) and math.isnan(doc)):
            out[prefix] = float(doc)
    return out


def _rule_for(key: str, rules) -> tuple[float, bool, str]:
    for pattern, tolerance, relative, better in rules:
        if fnmatch(key, pattern):
            return tolerance, relative, better
    return 0.0, False, "neutral"


def build_rules(overrides: dict[str, float] | None = None):
    """The default rule table with per-pattern tolerance overrides
    prepended (direction comes from the first built-in match)."""
    rules = list(DEFAULT_RULES)
    if overrides:
        extra = []
        for pattern, tolerance in overrides.items():
            _, relative, better = _rule_for(pattern, DEFAULT_RULES)
            extra.append((pattern, tolerance, relative, better))
        rules = extra + rules
    return rules


def compare_docs(old: dict, new: dict,
                 overrides: dict[str, float] | None = None) -> dict:
    """Diff two flattened documents into a regression report."""
    rules = build_rules(overrides)
    old_flat = flatten(old)
    new_flat = flatten(new)
    rows = []
    counts = {"ok": 0, "improved": 0, "regressed": 0}
    for key in sorted(old_flat.keys() & new_flat.keys()):
        if any(tag in key for tag in _IDENTITY_KEYS):
            continue
        before, after = old_flat[key], new_flat[key]
        tolerance, relative, better = _rule_for(key, rules)
        delta = after - before
        if relative:
            scale = abs(before) if before else 1.0
            exceeds = abs(delta) / scale > tolerance
        else:
            exceeds = abs(delta) > tolerance
        if not exceeds:
            status = "ok"
        elif better == "neutral":
            status = "regressed"
        elif (delta < 0) == (better == "lower"):
            status = "improved"
        else:
            status = "regressed"
        counts[status] += 1
        if status != "ok":
            rows.append({"metric": key, "before": before, "after": after,
                         "delta": round(delta, 6), "status": status,
                         "better": better})
    missing = sorted(old_flat.keys() - new_flat.keys())
    added = sorted(new_flat.keys() - old_flat.keys())
    return {
        "schema": REPORT_SCHEMA,
        "compared": sum(counts.values()),
        "ok": counts["ok"],
        "improved": counts["improved"],
        "regressed": counts["regressed"],
        "rows": rows,
        "missing_metrics": [k for k in missing
                            if not any(t in k for t in _IDENTITY_KEYS)],
        "added_metrics": [k for k in added
                          if not any(t in k for t in _IDENTITY_KEYS)],
    }


def document_backend(doc: dict) -> str | None:
    """The network backend a metrics/bench document was produced on.

    Looks where each schema records it: top-level ``backend`` (metrics
    documents), ``meta.backend`` (bench reports), or the per-run
    ``backend`` entries of a metrics-set (``mixed(...)`` when the runs
    disagree). ``None`` for documents predating the backend stamp.
    """
    backend = doc.get("backend")
    if backend is None and isinstance(doc.get("meta"), dict):
        backend = doc["meta"].get("backend")
    if backend is None and isinstance(doc.get("runs"), list):
        backends = {run.get("backend") for run in doc["runs"]
                    if isinstance(run, dict)}
        backends.discard(None)
        if len(backends) == 1:
            backend = backends.pop()
        elif backends:
            backend = "mixed(" + ",".join(sorted(backends)) + ")"
    return backend if isinstance(backend, str) else None


def compare_files(old_path: str, new_path: str,
                  overrides: dict[str, float] | None = None) -> dict:
    """Diff two JSON documents on disk into a regression report.

    Beyond ``compare_docs``, the report names both inputs in a
    ``documents`` block — path, content-addressed store key
    (``repro.store.document_key``) and the backend that produced them —
    so the header identifies exactly which stored results were
    compared. When the two documents come from different backends the
    report carries ``backend_mismatch`` and the rendered header warns:
    stats are bit-identical across backends, but walls and speedups are
    not apples-to-apples.
    """
    from ..store import document_key
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    report = compare_docs(old, new, overrides)
    old_backend = document_backend(old)
    new_backend = document_backend(new)
    report["documents"] = {
        "old": {"path": old_path, "store_key": document_key(old),
                "backend": old_backend},
        "new": {"path": new_path, "store_key": document_key(new),
                "backend": new_backend},
    }
    report["backend_mismatch"] = bool(
        old_backend and new_backend and old_backend != new_backend)
    return report


def render_report(report: dict, show_ok: bool = False) -> str:
    """Human-readable regression report for the terminal / CI log."""
    lines = []
    documents = report.get("documents")
    if documents:
        for tag in ("old", "new"):
            doc = documents[tag]
            backend = doc.get("backend")
            trail = f" (backend {backend})" if backend else ""
            lines.append(f"{tag}: {doc['path']} "
                         f"[store key {doc['store_key'][:16]}]{trail}")
        if report.get("backend_mismatch"):
            lines.append(
                f"  warning: documents come from different backends "
                f"({documents['old']['backend']} vs "
                f"{documents['new']['backend']}); stats compare "
                f"bit-identically, but wall/speedup deltas are not "
                f"apples-to-apples")
    lines.append(f"compared {report['compared']} metrics: "
                 f"{report['ok']} ok, {report['improved']} improved, "
                 f"{report['regressed']} regressed")
    for row in report["rows"]:
        mark = "+" if row["status"] == "improved" else "!"
        lines.append(
            f"  {mark} {row['metric']}: {row['before']:g} -> "
            f"{row['after']:g} ({row['delta']:+g}, better="
            f"{row['better']})")
    if report["missing_metrics"]:
        lines.append(f"  missing in new: "
                     f"{', '.join(report['missing_metrics'][:8])}"
                     + (" ..." if len(report["missing_metrics"]) > 8
                        else ""))
    if show_ok and not report["rows"]:
        lines.append("  no metric moved beyond its threshold")
    return "\n".join(lines)
