"""Tests for the CLI and the sensitivity-sweep module."""

import pytest

from repro.__main__ import main
from repro.harness.experiment import ExperimentConfig, run_batch_experiments
from repro.harness.sweep import sweep_load, sweep_vcs
from repro.network import backend
from repro.network.backend import BackendUnsupportedError


@pytest.fixture
def process_backend(monkeypatch):
    """``main`` installs ``--backend`` process-wide: put it back after."""
    monkeypatch.setattr(backend, "_default_backend",
                        backend.default_backend())


def test_cli_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "crossbar" in out and "Table II" in out


def test_cli_run_single_scheme(capsys):
    assert main(["run", "--kx", "4", "--ky", "4", "--scheme", "pseudo_sb",
                 "--rate", "0.05", "--cycles", "300"]) == 0
    out = capsys.readouterr().out
    assert "Pseudo+S+B" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_sweep(capsys):
    assert main(["sweep", "--kind", "load"]) == 0
    assert "sensitivity sweep" in capsys.readouterr().out


def test_sweep_load_reuse_decays_with_contention():
    rows = sweep_load(loads=(0.05, 0.25), synth_cycles=600, synth_warmup=150)
    assert rows[0]["reusability"] > rows[-1]["reusability"]
    for row in rows:
        assert row["reduction"] > 0


def test_sweep_vcs_rows_complete():
    rows = sweep_vcs(vc_counts=(2, 4), synth_cycles=400, synth_warmup=100,
                     kx=4, ky=4)
    assert [r["num_vcs"] for r in rows] == [2, 4]
    for row in rows:
        assert row["latency"] > 0 and 0 <= row["reusability"] <= 1


def test_sweeps_pass_every_scheduler_keyword_through():
    """``chunk_size`` is ``run_experiments``' keyword, not a config field:
    a sweep hands it — and whatever keyword the scheduler grows next —
    to the scheduler."""
    rows = sweep_load(loads=(0.05,), chunk_size=2, max_workers=2, kx=4,
                      ky=4, synth_cycles=200, synth_warmup=50)
    assert [row["load"] for row in rows] == [0.05]


def test_cli_trace_writes_all_outputs(tmp_path, capsys):
    import json

    prefix = str(tmp_path / "smoke")
    assert main(["trace", "--kx", "4", "--ky", "4", "--pattern", "uniform",
                 "--rate", "0.1", "--cycles", "200", "--out", prefix]) == 0
    out = capsys.readouterr().out
    assert "events over" in out
    with open(prefix + ".trace.json", encoding="utf-8") as fh:
        doc = json.load(fh)  # Perfetto-loadable round trip
    assert doc["traceEvents"]
    with open(prefix + ".jsonl", encoding="utf-8") as fh:
        first = json.loads(next(fh))
    assert "ev" in first and "cycle" in first
    with open(prefix + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["pattern"] == "uniform"
    with open(prefix + ".series.csv", encoding="utf-8") as fh:
        assert fh.readline().startswith("start,end,router")
    with open(prefix + ".heatmap.json", encoding="utf-8") as fh:
        assert json.load(fh)["kx"] == 4


def test_cli_run_trace_needs_single_scheme(capsys):
    assert main(["run", "--trace", "x", "--scheme", "all"]) == 2
    assert "single --scheme" in capsys.readouterr().err


@pytest.mark.parametrize("core, refusal", [
    ("batched", "error: argument --backend: invalid choice: 'batched'"),
    ("vectorized", "error: a flit trace records per-flit events"),
], ids=["batched", "vectorized"])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_cli_flit_trace_on_an_array_core_exits_2(command, core, refusal,
                                                 tmp_path, capsys,
                                                 process_backend):
    """Only the scalar core emits per-flit events: both commands refuse
    an array core up front, with no output file, whether or not this
    machine could build it. The removed batched core is refused by the
    parser itself; the vectorized one by a single line naming scalar."""
    prefix = str(tmp_path / "t")
    argv = [command, "--scheme", "pseudo_sb", "--cycles", "50",
            "--backend", core]
    argv += ["--trace", prefix] if command == "run" else ["--out", prefix]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert refusal in err.splitlines()[-1]
    if core == "vectorized":
        assert err.startswith(refusal)
        assert "--backend scalar" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_run_with_series(tmp_path, capsys):
    prefix = str(tmp_path / "r")
    assert main(["run", "--kx", "4", "--ky", "4", "--scheme", "pseudo_sb",
                 "--rate", "0.05", "--cycles", "200",
                 "--series", prefix]) == 0
    assert (tmp_path / "r.series.csv").exists()
    assert (tmp_path / "r.series.json").exists()


def test_cli_sweep_out_writes_manifest(tmp_path, capsys):
    import json

    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--kind", "load", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["rows"]
    with open(str(tmp_path / "sweep.manifest.json"), encoding="utf-8") as fh:
        assert json.load(fh)["config"]["command"] == "sweep"


@pytest.mark.parametrize("argv, named", [
    (["run", "--cycle", "10"], "--cycle 10"),  # prefix of --cycles
    (["bench", "--gate"], "--gate"),           # removed with the timing bench
    (["fig12", "--resume"], "--resume"),       # a store hit needs no flag
    (["run", "--backend", "batched"], "batched"),  # auto groups lanes
], ids=["abbreviated", "removed", "removed-figure-resume",
        "removed-batched-backend"])
def test_cli_matches_flags_exactly(argv, named, capsys):
    """Prefix matching is off and removed flags have no shim: either
    exits 2 naming the flag instead of binding to a surviving one."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("topology, routing, accepted", [
    ("mesh", "weighted", "xy | yx | o1turn"),
    ("chiplet", "xy", "weighted"),
], ids=["mesh-weighted", "chiplet-xy"])
def test_cli_refuses_unlisted_routing(topology, routing, accepted, capsys):
    """A pair the topology registry does not list exits 2 naming the
    routings the topology takes, before any point is built."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--topology", topology, "--routing", routing,
              "--kx", "2", "--ky", "2", "--cycles", "50"])
    assert exc.value.code == 2
    assert f"takes --routing {accepted}, not {routing!r}" in (
        capsys.readouterr().err)


class TestBenchRoundTrip:
    """``repro bench`` through ``main()``: the cold gates and nothing else."""

    def test_report_holds_the_gates_and_no_timings(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--cycles", "120", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        gate = report["overhead_gate"]
        assert gate["probes_cold"] and gate["stats_identical"]
        assert gate["telemetry"]["results_identical"]
        assert report["meta"]["backend"] == "scalar"
        assert "workloads" not in report and "self_check" not in report
        manifest = json.loads((tmp_path / "bench.manifest.json").read_text())
        assert manifest["config"]["driver"] == "bench"
        assert f"wrote {out}" in capsys.readouterr().out

    def test_writes_nothing_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--cycles", "120"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert "wrote" not in capsys.readouterr().out

    def test_vectorized_backend_adds_the_vector_gate(self, capsys):
        pytest.importorskip("numpy")
        from repro.harness.bench import run_bench
        for name in ("vectorized", "auto"):
            report = run_bench(cycles=120, backend=name, show=False)
            assert report["meta"]["backend"] == name
            vec = report["overhead_gate"]["vectorized_overhead"]
            assert vec["probes_cold"] and vec["stats_identical"]
            assert vec["step_kernel"].startswith("c:")
        assert capsys.readouterr().out == ""

    def test_auto_without_a_compiler_records_the_refusal(
            self, tmp_path, monkeypatch, capsys, process_backend):
        """``auto`` lands on the scalar core when the array core cannot
        be built: its gate's refusal is printed and recorded, and the
        command succeeds. An explicit ``vectorized`` and a grouped unit's
        lane core still fail on it."""
        import json

        pytest.importorskip("numpy")
        monkeypatch.setenv("CC", "false")
        out = tmp_path / "bench.json"
        assert main(["bench", "--cycles", "120", "--backend", "auto",
                     "--out", str(out)]) == 0
        gate = json.loads(out.read_text())["overhead_gate"]
        assert gate["probes_cold"] and gate["telemetry"]["results_identical"]
        assert "no-compiler" in gate["vectorized_overhead"]["refused"]
        assert ("vectorized overhead gate: refused"
                in capsys.readouterr().out)
        with pytest.raises(BackendUnsupportedError, match="no-compiler"):
            main(["bench", "--cycles", "120", "--backend", "vectorized"])
        with pytest.raises(BackendUnsupportedError, match="no-compiler"):
            run_batch_experiments(
                [ExperimentConfig(pattern="uniform", backend="auto",
                                  seed=seed) for seed in (1, 2)])

    def test_hot_probe_fails_the_run(self, monkeypatch):
        from repro.instrument import FlitTracer, overhead
        from repro.instrument.overhead import OverheadGateError
        cold_build = overhead.build_network

        def hot_build(*args, **kwargs):
            kwargs.setdefault("probe", FlitTracer())
            return cold_build(*args, **kwargs)

        monkeypatch.setattr(overhead, "build_network", hot_build)
        with pytest.raises(OverheadGateError, match="probe by default"):
            main(["bench", "--cycles", "120"])
