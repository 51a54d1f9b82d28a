"""Backend selection for the network core.

Two interchangeable cores implement the same cycle-level contract (see
ARCHITECTURE.md "Backends"): the scalar object-per-router core in
``network/simulator.py`` and the array core in ``network/vectorized/``
— ``VectorNetwork`` for one point, ``BatchNetwork`` for several
independent points stepped as the lanes of one chip. They produce
bit-identical ``NetworkStats`` fingerprints for every supported
configuration; the parity suites under
``tests/network/test_vectorized_parity.py`` and
``tests/network/test_batched_parity.py`` lock this in, so the core that
answers a point changes only how fast it is answered.

A config names one of ``BACKENDS``. ``auto`` is one rule: the array
core answers every point it accepts — a grouped unit of two or more
points as the lanes of one ``BatchNetwork``, any other point, trace
replay included, on ``VectorNetwork`` — and the scalar core answers
wherever it refuses (``REFUSALS``), with the refusal's message in the
point's manifest (``refused``).

The array core needs numpy, which is an *optional* runtime dependency
(``pip install repro[fast]``), and a C compiler on the machine that
runs it (its cycle is one C file built on first use,
``network/vectorized/kernel.py``). ``require_numpy`` converts the bare
ImportError into an actionable message; ``BackendUnsupportedError``
marks what the array core deliberately refuses (per-flit probes,
multidrop channels, a process with no compiler). An explicit
``vectorized`` raises either; ``auto`` is the one sanctioned fallback.
"""

from __future__ import annotations

BACKENDS = ("scalar", "vectorized", "auto")

#: The cores a manifest can name: ``batched`` is the array core running
#: the lanes of a grouped unit.
CONCRETE_BACKENDS = ("scalar", "vectorized", "batched")

#: Process-wide default used when a config leaves ``backend`` unset.
_default_backend = "scalar"


class BackendUnsupportedError(RuntimeError):
    """A feature the selected network backend deliberately does not support."""


#: What the array core's refusal of a point is, for every caller that
#: falls back on it: a named refusal or a process without numpy.
REFUSALS = (BackendUnsupportedError, ImportError)


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


# -- kept for the perf/ ledger; ROADMAP item 1 removes both -------------------

def calibration() -> dict:
    """``{"source": "default"}``: ``auto`` weighs no load, so nothing is
    calibrated. Only the ``perf/`` reports read this; ROADMAP item 1
    removes it."""
    return {"source": "default"}


def choose_backend(*, terminals: int, rate: float | None,
                   pseudo: bool = False, batch: int = 1) -> str:
    """The core ``auto`` tries first for a unit of ``batch`` points:
    ``batched`` for two or more, else ``vectorized``. ``terminals``,
    ``rate`` and ``pseudo`` are accepted and ignored. Only the
    ``perf/`` ledger's ``auto_*`` probe calls this; ROADMAP item 1
    removes it."""
    return "batched" if batch > 1 else "vectorized"


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
