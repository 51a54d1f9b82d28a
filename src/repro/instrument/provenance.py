"""Run provenance: manifests that make any result file reproducible.

A *manifest* is a small JSON document written alongside every bench,
sweep, figure or trace output: the full config dict plus its SHA-256, the
git commit the code was at, the seed, the python/platform versions, and
the run's wall-clock and simulated-cycles-per-second. Re-running the
experiment described by a manifest reproduces the output bit-for-bit
(simulations are deterministic in their config + seed).

The canonical config hash computed here (``config_hash`` over
``config_dict``) is also the identity the content-addressed result store
builds its keys from (``repro.store.store_key`` =
``sha256(config_sha256 : code_version : seed)``, DESIGN.md §11), so a
manifest names exactly the store entry its run produced — ``repro
compare`` prints that key in its report header.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass
from functools import lru_cache

#: Bumped whenever manifest fields change meaning.
SCHEMA = "repro.run-manifest/1"


def _plain(value):
    """``dataclasses.asdict``'s output without its per-leaf deepcopy.

    Dataclasses become dicts and containers are rebuilt, so the result
    shares nothing mutable with the config; the immutable scalars every
    config here is made of are passed through instead of copied (only an
    unknown leaf type still pays ``asdict``'s deepcopy).
    """
    if isinstance(value, (str, int, float, type(None))):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, dict):
        return {_plain(key): _plain(item) for key, item in value.items()}
    return copy.deepcopy(value)


def config_dict(config) -> dict:
    """Normalize a config (dataclass or mapping) to a plain JSON-able dict."""
    if is_dataclass(config) and not isinstance(config, type):
        return _plain(config)
    if isinstance(config, dict):
        return dict(config)
    raise TypeError(f"cannot serialize config of type {type(config).__name__}")


def _sha256_of(config) -> str:
    canon = json.dumps(config_dict(config), sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


#: One entry per distinct frozen config hashed in this process; an entry
#: is the config (already alive in the sweep that hashed it) and 64 hex
#: characters, so the bound is a few MB.
_sha256_of_frozen = lru_cache(maxsize=8192)(_sha256_of)


def config_hash(config) -> str:
    """SHA-256 over the canonical JSON form of the config dict.

    A frozen, hashable dataclass is hashed once per process and answered
    from a memo afterwards: its fields cannot change, so neither can its
    canonical form. (Configs that compare equal share an entry, as they
    already share a run-cache slot: ``rate=1`` after ``rate=1.0`` reports
    the latter's hash.) Dicts and mutable dataclasses are hashed per call.
    """
    params = getattr(type(config), "__dataclass_params__", None)
    if params is not None and params.frozen:
        try:
            return _sha256_of_frozen(config)
        except TypeError:
            pass  # frozen, but holds an unhashable field (a list, a dict)
    return _sha256_of(config)


@lru_cache(maxsize=1)
def git_sha() -> str | None:
    """Commit SHA of the source tree, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_manifest(config, *, seed: int | None = None,
                 cycles: int | None = None, wall_s: float | None = None,
                 extra: dict | None = None) -> dict:
    """Build the provenance manifest for one run.

    ``config`` is any dataclass or dict describing the run; ``cycles`` the
    simulated cycle count and ``wall_s`` the measured wall-clock, from
    which the cycles/sec throughput is derived.
    """
    cfg = config_dict(config)
    manifest = {
        "schema": SCHEMA,
        "config": cfg,
        "config_sha256": config_hash(config),
        "seed": seed if seed is not None else cfg.get("seed"),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "generated_unix": int(time.time()),
    }
    if cycles is not None:
        manifest["cycles"] = cycles
    if wall_s is not None:
        manifest["wall_s"] = round(wall_s, 4)
        if cycles and wall_s > 0:
            manifest["cycles_per_sec"] = round(cycles / wall_s, 1)
    if extra:
        manifest.update(extra)
    return manifest


def manifest_path(output_path: str) -> str:
    """Sidecar path for an output file: ``results.json`` ->
    ``results.manifest.json``."""
    stem, _ = os.path.splitext(output_path)
    return stem + ".manifest.json"


def write_manifest(manifest: dict, output_path: str) -> str:
    """Write ``manifest`` alongside ``output_path``; returns the sidecar
    path."""
    path = manifest_path(output_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path
