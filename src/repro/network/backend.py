"""Backend selection for the network core.

Three interchangeable cores implement the same cycle-level contract
(see ARCHITECTURE.md "Backends"): the scalar object-per-router core in
``network/simulator.py``, the vectorized structure-of-arrays core in
``network/vectorized/``, and the batched multi-lane core in
``network/vectorized/batch.py`` (several independent simulations
stepped as one chip). All produce bit-identical ``NetworkStats``
fingerprints for every supported configuration; the parity suites under
``tests/network/test_vectorized_parity.py`` and
``tests/network/test_batched_parity.py`` lock this in.

``backend="auto"`` defers the choice to ``choose_backend``: points
grouped into a batch take the batched core, single points take the
vectorized core above a calibrated offered-load crossover (in flits per
cycle per chip — building the arrays and calling the compiled cycle
pay off only with some work in flight) and the scalar core below it.
The crossover is a module constant; the ``perf/`` ledger scores it
against the measured-fastest core on every run
(``network.backend.auto_agreement_share`` / ``auto_penalty_pct``),
which is where a stale value would show.

The vectorized cores need numpy, which is an *optional* runtime
dependency (``pip install repro[fast]``), and a C compiler on the
machine that runs them (their cycle is one C file built on first use,
``network/vectorized/kernel.py``). ``require_numpy`` converts the bare
ImportError into an actionable message; ``BackendUnsupportedError``
marks what the vectorized core deliberately refuses (probes,
non-tabulable routing, multidrop channels, a process with no compiler)
so callers fall back to the scalar core explicitly instead of getting
silently-different semantics — ``auto`` is the one sanctioned fallback
path: its documented policy is to pick scalar wherever the vectorized
core refuses.
"""

from __future__ import annotations

BACKENDS = ("scalar", "vectorized", "batched", "auto")

#: Backends that name a concrete simulation core ("auto" resolves to
#: one of these per point; "batched" runs single points on the
#: vectorized core and groups of points on the batched core).
CONCRETE_BACKENDS = ("scalar", "vectorized", "batched")

#: Process-wide default used when a config leaves ``backend`` unset.
_default_backend = "scalar"

#: Selector calibration: offered load (flits per cycle per chip,
#: ``rate * terminals``) above which the vectorized core beats the
#: scalar core, per scheme kind. Measured on 4x4 and 8x8 meshes with
#: the whole cycle compiled (EXPERIMENTS.md "PR 21"): the array core
#: wins wherever a point simulates more than a few milliseconds, so
#: what is left below the line is its ~2 ms construction.
_CROSSOVER_FLITS_PER_CYCLE = {"baseline": 0.1, "pseudo": 0.06}


class BackendUnsupportedError(RuntimeError):
    """A feature the selected network backend deliberately does not support."""


def resolve_backend(name: str | None) -> str:
    """Validate ``name`` and substitute the process default for None."""
    if name is None:
        return _default_backend
    if name not in BACKENDS:
        raise ValueError(
            f"unknown network backend {name!r}; expected one of {BACKENDS}")
    return name


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _default_backend
    if name not in BACKENDS:
        raise ValueError(
            f"unknown network backend {name!r}; expected one of {BACKENDS}")
    previous = _default_backend
    _default_backend = name
    return previous


def default_backend() -> str:
    """The backend used when configs leave ``backend`` unset."""
    return _default_backend


def backend_of(network) -> str:
    """The concrete backend name of a live network object.

    Duck-typed on the class name so this module stays import-light (no
    numpy, no simulator imports); used to stamp provenance manifests
    and metrics documents with the core that actually ran.
    """
    name = type(network).__name__
    if name == "BatchNetwork":
        return "batched"
    if name == "VectorNetwork":
        return "vectorized"
    return "scalar"


# -- the "auto" selector ------------------------------------------------------

def calibration() -> dict:
    """The selector calibration in effect (a fresh dict per call).

    ``source`` is always ``"default"`` — nothing re-measures the
    crossover at run time; the key stays because sweep telemetry and the
    ``perf/`` reports record it.
    """
    return {"crossover_flits_per_cycle": dict(_CROSSOVER_FLITS_PER_CYCLE),
            "source": "default"}


def choose_backend(*, terminals: int, rate: float | None,
                   pseudo: bool = False, batch: int = 1) -> str:
    """Pick a concrete core for one point (the ``auto`` policy).

    The decision variable is offered load in flits per cycle per chip
    (``rate * terminals``): the compiled cycle wins above the
    calibrated crossover, and below it a point is so nearly empty that
    reusing an idle scalar network beats building the arrays —
    ``pseudo`` selects the pseudo-circuit schemes' crossover (lower:
    the scalar pipeline has more to do per flit there). Points grouped
    into a ``batch`` of two or more always take the batched core: one
    chip is built and one call made per cycle whatever the load.
    ``rate=None`` (trace replay, offered load unknown and
    self-throttled by MSHRs) picks scalar.
    """
    if batch > 1:
        return "batched"
    if rate is None or terminals <= 0:
        return "scalar"
    threshold = _CROSSOVER_FLITS_PER_CYCLE["pseudo" if pseudo else "baseline"]
    return "vectorized" if rate * terminals >= threshold else "scalar"


def explain_choice(*, terminals: int, rate: float | None,
                   pseudo: bool = False, batch: int = 1) -> dict:
    """``choose_backend`` plus the inputs that produced the decision.

    Harness telemetry stamps every simulated point with this record so
    a sweep's stream says not just *which* core ran each point but
    *why*: the offered load, the calibrated crossover it was compared
    against, and where that calibration came from (``calibration()``'s
    ``source``).
    """
    chosen = choose_backend(terminals=terminals, rate=rate, pseudo=pseudo,
                            batch=batch)
    if batch > 1:
        reason = "batched-unit"
    elif rate is None or terminals <= 0:
        reason = "no-offered-load"
    else:
        reason = "offered-load-crossover"
    return {
        "chosen": chosen,
        "reason": reason,
        "terminals": terminals,
        "rate": rate,
        "offered_flits_per_cycle": (None if rate is None
                                    else round(rate * terminals, 3)),
        "crossover_flits_per_cycle": _CROSSOVER_FLITS_PER_CYCLE[
            "pseudo" if pseudo else "baseline"],
        "calibration_source": "default",
        "batch": batch,
    }


def require_numpy():
    """Import and return numpy, or raise an actionable ImportError."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise ImportError(
            "the vectorized network backend requires numpy, which is an "
            "optional dependency; install it with `pip install repro[fast]` "
            "(or `pip install numpy`), or rerun with --backend scalar"
        ) from exc
    return numpy
