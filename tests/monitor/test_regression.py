"""Regression reports: flattening, threshold rules, compare CLI."""

import json
import math

from repro.__main__ import main
from repro.monitor import compare_docs, flatten, render_report


class TestFlatten:
    def test_nested_paths_and_skips(self):
        flat = flatten({
            "a": {"b": 1, "c": 2.5},
            "skip_bool": True,
            "skip_nan": math.nan,
            "skip_str": "text",
            "top": 3,
        })
        assert flat == {"a.b": 1.0, "a.c": 2.5, "top": 3.0}

    def test_lists_index_by_name_or_label(self):
        flat = flatten({"workloads": [
            {"name": "low", "wall_s": 0.5},
            {"label": "sat", "wall_s": 2.0},
            {"wall_s": 1.0},
        ]})
        assert flat["workloads.low.wall_s"] == 0.5
        assert flat["workloads.sat.wall_s"] == 2.0
        assert flat["workloads.2.wall_s"] == 1.0


class TestRules:
    def test_identical_docs_all_ok(self):
        doc = {"run": {"avg_latency": 20.0, "reusability": 0.7}}
        report = compare_docs(doc, doc)
        assert report["regressed"] == 0 and report["rows"] == []

    def test_latency_regression_and_improvement(self):
        old = {"avg_latency": 100.0}
        assert compare_docs(old, {"avg_latency": 110.0})["rows"][0][
            "status"] == "regressed"
        assert compare_docs(old, {"avg_latency": 90.0})["rows"][0][
            "status"] == "improved"
        # Within the 3% tolerance: neither.
        assert compare_docs(old, {"avg_latency": 102.0})["rows"] == []

    def test_violations_have_zero_tolerance(self):
        report = compare_docs({"violation_count": 0},
                              {"violation_count": 1})
        assert report["rows"][0]["status"] == "regressed"
        # ... and fewer violations is an improvement.
        report = compare_docs({"violation_count": 3},
                              {"violation_count": 0})
        assert report["rows"][0]["status"] == "improved"

    def test_higher_is_better_for_reuse(self):
        report = compare_docs({"run": {"reusability": 0.70}},
                              {"run": {"reusability": 0.60}})
        assert report["rows"][0]["status"] == "regressed"
        report = compare_docs({"run": {"reusability": 0.60}},
                              {"run": {"reusability": 0.70}})
        assert report["rows"][0]["status"] == "improved"

    def test_wall_clock_tolerates_ten_percent(self):
        old = {"workloads": [{"name": "sat", "wall_s": 1.0}]}
        assert compare_docs(old, {"workloads": [
            {"name": "sat", "wall_s": 1.05}]})["rows"] == []
        report = compare_docs(old, {"workloads": [
            {"name": "sat", "wall_s": 1.5}]})
        assert report["rows"][0]["status"] == "regressed"

    def test_threshold_override_keeps_direction(self):
        old = {"avg_latency": 100.0}
        new = {"avg_latency": 110.0}
        report = compare_docs(old, new, {"*latency*": 0.5})
        assert report["rows"] == []  # 10% < 50% override
        report = compare_docs(old, {"avg_latency": 160.0},
                              {"*latency*": 0.5})
        assert report["rows"][0]["status"] == "regressed"

    def test_identity_keys_are_ignored(self):
        old = {"meta": {"generated_unix": 1}, "avg_latency": 10.0}
        new = {"meta": {"generated_unix": 999}, "avg_latency": 10.0}
        report = compare_docs(old, new)
        assert report["compared"] == 1

    def test_missing_and_added_metrics_reported(self):
        report = compare_docs({"a": 1, "gone": 2}, {"a": 1, "fresh": 3})
        assert report["missing_metrics"] == ["gone"]
        assert report["added_metrics"] == ["fresh"]

    def test_render_report_mentions_regressions(self):
        report = compare_docs({"avg_latency": 100.0},
                              {"avg_latency": 150.0})
        text = render_report(report)
        assert "avg_latency" in text and "regressed" in text


class TestCompareCli:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"avg_latency": 10.0})
        new = self._write(tmp_path / "new.json", {"avg_latency": 10.1})
        assert main(["compare", old, new, "--show-ok"]) == 0
        assert "compared" in capsys.readouterr().out

    def test_exit_one_on_regression_and_writes_report(self, tmp_path,
                                                      capsys):
        old = self._write(tmp_path / "old.json", {"violation_count": 0})
        new = self._write(tmp_path / "new.json", {"violation_count": 2})
        out = tmp_path / "report.json"
        assert main(["compare", old, new, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["regressed"] == 1
        assert "violation_count" in capsys.readouterr().out

    def test_threshold_flag_parses_overrides(self, tmp_path):
        old = self._write(tmp_path / "old.json", {"avg_latency": 100.0})
        new = self._write(tmp_path / "new.json", {"avg_latency": 120.0})
        assert main(["compare", old, new]) == 1
        assert main(["compare", old, new,
                     "--threshold", "*latency*=0.5"]) == 0

    def test_bad_threshold_spec_errors(self, tmp_path):
        old = self._write(tmp_path / "old.json", {})
        assert main(["compare", old, old, "--threshold", "nonsense"]) == 2


class TestBenchDocCompat:
    def test_flattens_a_bench_style_report(self):
        doc = {
            "meta": {"cycles": 1500, "git_sha": "abc"},
            "summary": {"speedup_vectorized_sat": 1.4},
            "workloads": [{"name": "sat", "wall_s": 1.5,
                           "stats_identical": True}],
        }
        flat = flatten(doc)
        assert flat["workloads.sat.wall_s"] == 1.5
        assert "workloads.sat.stats_identical" not in flat  # bool skipped
        report = compare_docs(doc, doc)
        assert report["regressed"] == 0


class TestBackendIdentity:
    def test_document_backend_lookup_paths(self):
        from repro.monitor import document_backend
        assert document_backend({"backend": "vectorized"}) == "vectorized"
        assert document_backend({"meta": {"backend": "auto"}}) == "auto"
        assert document_backend({"runs": [
            {"backend": "scalar"}, {"backend": "scalar"}]}) == "scalar"
        assert document_backend({"runs": [
            {"backend": "scalar"}, {"backend": "batched"}]}) == \
            "mixed(batched,scalar)"
        assert document_backend({}) is None  # pre-stamp documents

    def test_compare_stamps_backends_and_flags_mismatch(self, tmp_path):
        from repro.monitor import compare_files, render_report
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({"backend": "scalar",
                                   "avg_latency": 10.0}))
        new.write_text(json.dumps({"backend": "vectorized",
                                   "avg_latency": 10.0}))
        report = compare_files(str(old), str(new))
        docs = report["documents"]
        assert docs["old"]["backend"] == "scalar"
        assert docs["new"]["backend"] == "vectorized"
        assert report["backend_mismatch"]
        text = render_report(report)
        assert "(backend scalar)" in text
        assert "different backends" in text
        # Backend strings are identity, not metrics: nothing compared.
        assert report["regressed"] == 0

    def test_same_backend_is_not_a_mismatch(self, tmp_path):
        from repro.monitor import compare_files, render_report
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(json.dumps(
                {"backend": "vectorized", "avg_latency": 1.0}))
        report = compare_files(str(tmp_path / "a.json"),
                               str(tmp_path / "b.json"))
        assert not report["backend_mismatch"]
        assert "different backends" not in render_report(report)

    def test_unstamped_documents_stay_quiet(self, tmp_path):
        from repro.monitor import compare_files
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(json.dumps({"avg_latency": 1.0}))
        report = compare_files(str(tmp_path / "a.json"),
                               str(tmp_path / "b.json"))
        assert not report["backend_mismatch"]
        assert report["documents"]["old"]["backend"] is None
