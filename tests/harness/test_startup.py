"""Start-up loads only what a run uses.

Each check runs in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``,
as a process that compiles every module it imports: a point on the
compiled core loads neither the scalar core nor any tool it never calls,
and the workers of a pooled sweep inherit every ``repro`` module they
run from the parent instead of compiling it again.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.harness import parallel

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: What an XY point on a mesh, run on the compiled core, never calls.
NEVER_LOADED = (
    *(f"repro.network.{name}" for name in (
        "router", "simulator", "nic", "link", "ports", "vc", "credits",
        "arbiters")),
    *(f"repro.telemetry.{name}" for name in (
        "report", "top", "trace_export", "stream")),
    *(f"repro.instrument.{name}" for name in (
        "overhead", "series", "tracer", "probe")),
    *(f"repro.topology.{name}" for name in (
        "fbfly", "mecs", "hetero", "chiplet", "kite")),
    "repro.traffic.trace", "repro.traffic.benchmarks",
    "repro.routing.weighted", "repro.routing.o1turn",
    "repro.core.violation",
    "repro.harness.bench",
    "repro.network.vectorized.obs",
)
#: Packages a point on the compiled core loads no module of. (The
#: energy model is not here: every ``Result`` is priced with it.)
NEVER_LOADED_PACKAGES = ("repro.cmp", "repro.evc", "repro.monitor",
                         "concurrent.futures")


def _run(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code, *args], check=True,
                         capture_output=True, text=True, env=env,
                         timeout=300)
    return out.stdout.splitlines()[-1]


def test_an_auto_point_on_the_compiled_core_loads_nothing_it_never_calls():
    pytest.importorskip("numpy")
    code = (
        "import json, sys\n"
        "from repro.harness import ExperimentConfig, run_experiments\n"
        "point = ExperimentConfig(topology='mesh', kx=4, ky=4,"
        " concentration=1, routing='xy', vc_policy='static',"
        " pattern='uniform', rate=0.1, synth_cycles=200, synth_warmup=40,"
        " backend='auto')\n"
        "(result,) = run_experiments([point], max_workers=1)\n"
        "print(json.dumps([result.manifest['backend'],"
        " sorted(sys.modules)]))\n")
    backend, modules = json.loads(_run(code))
    assert backend == "vectorized"
    assert [name for name in modules if name in NEVER_LOADED
            or ".".join(name.split(".")[:2]) in NEVER_LOADED_PACKAGES] == []


def test_pool_workers_import_no_repro_module(tmp_path):
    """An audit hook the forked workers inherit logs every module a
    process other than the parent imports, and every ``repro`` class a
    worker unpickles (which shows it ran a chunk)."""
    log = tmp_path / "workers.log"
    code = (
        "import os, sys\n"
        "parent, log = os.getpid(), sys.argv[1]\n"
        "def hook(event, args):\n"
        "    if os.getpid() == parent:\n"
        "        return\n"
        "    if event == 'import' or (event == 'pickle.find_class'\n"
        "                             and args[0].startswith('repro')):\n"
        "        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)\n"
        "        os.write(fd, f'{event} {args[0]}\\n'.encode())\n"
        "        os.close(fd)\n"
        "sys.addaudithook(hook)\n"
        "from repro.harness import ExperimentConfig, run_experiments\n"
        "points = [ExperimentConfig(topology='mesh', kx=4, ky=4,"
        " concentration=1, routing='xy', pattern='uniform', rate=0.05,"
        " synth_cycles=100, synth_warmup=20, seed=seed, backend='scalar')"
        " for seed in range(4)]\n"
        "results = run_experiments(points, max_workers=2, chunk_size=1)\n"
        "print(sum(result.packets > 0 for result in results))\n")
    assert _run(code, str(log)) == "4"
    events = log.read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("pickle.find_class") for line in events)
    assert [line for line in events
            if line.startswith("import repro")] == []


class TestDefaultWorkers:
    def test_the_affinity_set_bounds_the_default(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert parallel.default_workers() == 1

    def test_without_an_affinity_set_every_cpu_counts(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert parallel.default_workers() == 3
