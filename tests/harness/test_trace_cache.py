"""The per-user trace cache (``harness/traces.py``).

An extraction is kept on disk, one sealed record per (benchmark, cycles,
warmup, seed) under a salt of the package's sources and the interpreter.
A hit must be the extraction exactly; any entry that is not this code's
answer for this key is a miss that re-extracts and heals the entry; an
unusable directory costs an extraction and nothing else; and a process
answered from the cache loads neither the CMP nor the array core.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.harness import traces
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.figures import QUICK_BENCHMARKS
from repro.store.sealed import seal, unseal

SRC = os.path.dirname(os.path.dirname(repro.__file__))
KEY = ("radix", 150, 100, 3)


@pytest.fixture
def runs(monkeypatch, tmp_path):
    """A private cache home and memo; the keys the CMP was run for."""
    monkeypatch.setattr(traces, "cache_home", lambda: str(tmp_path))
    monkeypatch.setattr(traces, "_extractions", {})
    seen = []
    real = traces._run

    def counted(*key):
        seen.append(key)
        return real(*key)

    monkeypatch.setattr(traces, "_run", counted)
    return seen


def _fresh(key=KEY):
    """``key``'s extraction with the process memo forgotten."""
    traces.clear_caches()
    return traces.extract(*key)


def _same(a, b) -> None:
    assert a.trace.records == b.trace.records
    assert a.trace.num_terminals == b.trace.num_terminals
    assert a.trace.benchmark == b.trace.benchmark
    assert a.e2e_locality == b.e2e_locality
    assert a.xbar_locality == b.xbar_locality


def _entry(key=KEY) -> str:
    return traces._entry_path(key)


def _digest(extraction) -> str:
    trace = extraction.trace
    return hashlib.sha256(repr((
        trace.num_terminals, trace.benchmark, extraction.e2e_locality,
        extraction.xbar_locality,
        [tuple(vars(r).values()) for r in trace.records])).encode()
    ).hexdigest()


def _env(home) -> dict:
    """A fresh interpreter's environment on cache home ``home``: the CMP
    on the scalar core, so nothing compiles, and the same trace."""
    return dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(home),
                CC="false")


def _python(code: str, home, *args: str) -> list:
    """The lines a fresh interpreter on cache home ``home`` prints."""
    out = subprocess.run([sys.executable, "-c", code, *args], check=True,
                         capture_output=True, text=True, env=_env(home),
                         timeout=300)
    return out.stdout.splitlines()


@pytest.mark.parametrize("bench", QUICK_BENCHMARKS)
def test_a_hit_is_the_extraction(bench, runs):
    key = (bench, 150, 100, 3)
    extracted = _fresh(key)
    hit = _fresh(key)
    assert runs == [key]
    _same(hit, extracted)
    assert [type(r) for r in hit.trace.records] == [
        type(r) for r in extracted.trace.records]
    point = ExperimentConfig(topology="cmesh", kx=4, ky=4, concentration=4,
                             benchmark=bench, trace_cycles=150,
                             trace_warmup=100, seed=3, backend="scalar")
    from_hit = run_experiment(point, use_cache=False)
    traces._extractions[key] = extracted
    from_run = run_experiment(point, use_cache=False)
    assert replace(from_hit, manifest=None) == replace(from_run,
                                                       manifest=None)


def _corrupt(path):
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 1
    open(path, "wb").write(bytes(data))


def _truncate(path):
    data = open(path, "rb").read()
    open(path, "wb").write(data[:len(data) // 2])


def _resealed(path, **envelope):
    record = unseal(open(path, "rb").read(), traces.SCHEMA)
    fields = {k: v for k, v in record.envelope.items() if k != "sha256"}
    open(path, "w").write(seal({**fields, **envelope}, record.text) + "\n")


def _another_key(path):
    other = ("fft", 150, 100, 3)
    traces.extract(*other)
    shutil.copyfile(_entry(other), path)


BAD = {
    "corrupt": _corrupt,
    "truncated": _truncate,
    "another-key": _another_key,
    "another-schema": lambda p: _resealed(p, schema="repro.trace-entry/0"),
    "another-salt": lambda p: _resealed(p, salt="0" * 64),
    "another-key-field": lambda p: _resealed(p, key='["radix",150,100,4]'),
}


@pytest.mark.parametrize("spoil", BAD.values(), ids=BAD)
def test_a_bad_entry_misses_and_is_healed(spoil, runs):
    extracted = _fresh()
    path = _entry()
    spoil(path)
    assert traces._read(path, KEY) is None
    runs.clear()
    _same(_fresh(), extracted)
    assert runs == [KEY]
    _same(traces._read(path, KEY), extracted)
    runs.clear()
    _same(_fresh(), extracted)
    assert runs == []


def test_the_salt_follows_every_source_byte_and_the_interpreter(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(os.path.dirname(repro.__file__), tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    version = sys.version_info[:2]
    first = traces.source_salt(str(tree), version)
    assert first is not None
    assert traces.source_salt(str(tree), version) == first
    assert traces.source_salt(str(tree), (version[0], version[1] + 1)) \
        != first
    source = tree / "network" / "vectorized" / "kernel.c"
    data = bytearray(source.read_bytes())
    data[-2] ^= 1
    source.write_bytes(bytes(data))
    assert traces.source_salt(str(tree), version) not in (first, None)
    (tree / "notes.txt").write_text("not a source")
    changed = traces.source_salt(str(tree), version)
    assert traces.source_salt(str(tree), version) == changed
    assert traces.source_salt(str(tmp_path / "missing"), version) is None


def test_unreadable_sources_switch_the_cache_off(runs, monkeypatch):
    monkeypatch.setattr(traces, "salt", lambda: None)
    _fresh()
    _fresh()
    assert runs == [KEY, KEY]


@pytest.mark.parametrize("mode", [0o777, 0o750, 0o702])
def test_a_directory_open_to_others_is_not_used(mode, runs, tmp_path):
    folder = tmp_path / "repro" / "traces"
    folder.mkdir(parents=True)
    folder.chmod(mode)
    _fresh()
    _fresh()
    assert runs == [KEY, KEY]
    assert list(folder.iterdir()) == []


@pytest.mark.parametrize("step", ["mkstemp", "replace"])
def test_a_full_disk_leaves_nothing_behind(step, runs, monkeypatch,
                                           tmp_path):
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    module = traces.tempfile if step == "mkstemp" else traces.os
    monkeypatch.setattr(module, step, full)
    extracted = _fresh()
    monkeypatch.undo()
    folder = tmp_path / "repro" / "traces"
    assert [p for p in folder.rglob("*") if p.is_file()] == []
    assert runs == [KEY]
    _same(extracted, traces._run(*KEY))


def test_a_new_salt_evicts_the_others_and_leaves_the_kernel(runs,
                                                            tmp_path):
    cache = tmp_path / "repro"
    (cache / "traces").mkdir(parents=True, mode=0o700)
    stale = cache / "traces" / "0123456789abcdef"
    stale.mkdir()
    (stale / "old.json").write_text("{}")
    (cache / "kernel").mkdir(mode=0o700)
    (cache / "kernel" / "step-x.so").write_text("artifact")
    _fresh()
    current = os.path.basename(os.path.dirname(_entry()))
    assert [p.name for p in (cache / "traces").iterdir()] == [current]
    assert (cache / "kernel" / "step-x.so").read_text() == "artifact"
    # Writing under an existing salt directory evicts nothing.
    stale.mkdir()
    _fresh(("fft", 150, 100, 3))
    assert stale.exists()


_EXTRACT = (
    "import hashlib, sys\n"
    "from repro.harness.traces import extract\n"
    "e = extract('radix', 150, 100, int(sys.argv[1]))\n"
    "print(hashlib.sha256(repr((e.trace.num_terminals, e.trace.benchmark,"
    " e.e2e_locality, e.xbar_locality,"
    " [tuple(vars(r).values()) for r in e.trace.records])).encode())"
    ".hexdigest())\n")


def test_two_processes_racing_on_one_key_agree(tmp_path, monkeypatch):
    procs = [subprocess.Popen([sys.executable, "-c", _EXTRACT, "5"],
                              stdout=subprocess.PIPE, text=True,
                              env=_env(tmp_path))
             for _ in range(2)]
    outs = [proc.communicate(timeout=300)[0].split() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    monkeypatch.setattr(traces, "cache_home", lambda: str(tmp_path))
    monkeypatch.setattr(traces, "_extractions", {})
    key = ("radix", 150, 100, 5)
    cached = traces._read(traces._entry_path(key), key)
    assert outs[0] == outs[1] == [_digest(cached)]
    assert _digest(cached) == _digest(traces._run(*key))
    files = [p.name for p in tmp_path.rglob("*") if p.is_file()
             and "traces" in p.parts]
    assert len(files) == 1 and files[0].endswith(".json")


def test_a_warm_cache_loads_neither_the_cmp_nor_the_array_core(tmp_path):
    cold = _python(_EXTRACT, tmp_path, "6")[-1]
    code = (
        "import json, sys\n"
        "from repro.harness import traces\n"
        "def refuse(*key):\n"
        "    raise AssertionError(f'extracted {key}')\n"
        "traces._run = refuse\n"
        + _EXTRACT.replace("from repro.harness.traces import extract\n",
                           "extract = traces.extract\n")
        + "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith(('repro.cmp', 'repro.network.vectorized')))))\n")
    out = _python(code, tmp_path, "6")
    assert out[0] == cold
    assert json.loads(out[-1]) == []


def _stub(benchmark, cycles, warmup, seed):
    """A small extraction of the same size for every key, no CMP run."""
    from repro.traffic.trace import Trace, TraceRecord
    records = [TraceRecord(c, 0, 1, 1, "read_req") for c in range(50)]
    return traces.Extraction(Trace(16, benchmark, records), 0.5, 0.25)


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    """A private cache home and memo over ``_stub`` extractions."""
    monkeypatch.setattr(traces, "cache_home", lambda: str(tmp_path))
    monkeypatch.setattr(traces, "_extractions", {})
    monkeypatch.setattr(traces, "_run", _stub)
    return [("radix", 100, 0, seed) for seed in range(6)]


def _cached(keys) -> list:
    return [key for key in keys if os.path.exists(_entry(key))]


def test_the_budget_evicts_the_least_recently_used(stubbed, monkeypatch):
    keys = stubbed
    for age, key in enumerate(keys[:3], 1):
        _fresh(key)
        os.utime(_entry(key), ns=(age * 10**9, age * 10**9))
    size = os.path.getsize(_entry(keys[0]))
    monkeypatch.setattr(traces, "BUDGET", 3 * size)
    _fresh(keys[0])  # a hit: the oldest entry becomes the newest
    _fresh(keys[3])
    assert _cached(keys) == [keys[0], keys[2], keys[3]]
    _fresh(keys[4])
    assert _cached(keys) == [keys[0], keys[3], keys[4]]
    # The entry just written stays even when it alone is over budget.
    monkeypatch.setattr(traces, "BUDGET", size - 1)
    _fresh(keys[5])
    assert _cached(keys) == [keys[5]]


def test_another_writers_temporary_file_is_left_alone(stubbed,
                                                     monkeypatch):
    """A ``write-*.tmp`` file is another process's entry in flight: the
    budget neither counts nor removes it."""
    keys = stubbed
    _fresh(keys[0])
    folder = os.path.dirname(_entry(keys[0]))
    size = os.path.getsize(_entry(keys[0]))
    in_flight = os.path.join(folder, "write-other.tmp")
    with open(in_flight, "w") as fh:
        fh.write("x" * 10 * size)
    monkeypatch.setattr(traces, "BUDGET", 2 * size)
    _fresh(keys[1])
    assert _cached(keys) == keys[:2]
    assert os.path.exists(in_flight)


def test_a_hit_whose_mtime_cannot_be_refreshed_still_answers(stubbed,
                                                             monkeypatch):
    key = stubbed[0]
    written = _fresh(key)

    def refuse(*args, **kwargs):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(traces, "_run", None)  # a miss would fail
    monkeypatch.setattr(traces.os, "utime", refuse)
    _same(_fresh(key), written)
