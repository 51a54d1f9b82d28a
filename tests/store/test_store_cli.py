"""End-to-end tests of ``python -m repro store ...`` through ``main()``."""

import json
import os
import shutil

import pytest

from repro.__main__ import main
from repro.store import ResultStore

PAYLOAD = {"schema": "repro.result-payload/1", "value": 1}
KEY = "ab" + "0" * 62


@pytest.fixture
def store_dir(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.put(KEY, PAYLOAD, label="test entry")
    return store.root


class TestStoreCli:
    def test_ls(self, store_dir, capsys):
        assert main(["store", "--dir", store_dir, "ls"]) == 0
        out = capsys.readouterr().out
        assert KEY[:16] in out
        assert "test entry" in out
        assert "1 entries" in out

    def test_verify_clean_exits_zero(self, store_dir, capsys):
        assert main(["store", "--dir", store_dir, "verify"]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_verify_corrupt_exits_one(self, store_dir, capsys):
        store = ResultStore(store_dir)
        with open(store._entry_path(KEY), "w", encoding="utf-8") as fh:
            fh.write("garbage")
        assert main(["store", "--dir", store_dir, "verify"]) == 1
        assert "1 quarantined" in capsys.readouterr().out

    def test_verify_lists_stale_schema_entries_and_exits_zero(
            self, store_dir, capsys):
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "store_entry_v1.json")
        with open(fixture, encoding="utf-8") as fh:
            key = json.load(fh)["key"]
        path = ResultStore(store_dir)._entry_path(key)
        os.makedirs(os.path.dirname(path))
        shutil.copy(fixture, path)
        assert main(["store", "--dir", store_dir, "verify"]) == 0
        out = capsys.readouterr().out
        assert "1 ok, 1 stale, 0 quarantined" in out
        assert f"stale {key}" in out
        assert main(["store", "--dir", store_dir, "gc"]) == 0
        assert "removed 1 stale-salt" in capsys.readouterr().out

    def test_gc(self, store_dir, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_SALT", "pc-sim-other")
        assert main(["store", "--dir", store_dir, "gc"]) == 0
        assert "removed 1 stale-salt" in capsys.readouterr().out

    def test_export(self, store_dir, tmp_path, capsys):
        bundle = str(tmp_path / "bundle.json")
        assert main(["store", "--dir", store_dir, "export", bundle]) == 0
        with open(bundle, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["entry_count"] == 1
        assert doc["entries"][0]["key"] == KEY

    def test_repro_store_env_is_the_default_dir(self, store_dir, capsys,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_STORE", store_dir)
        from repro.__main__ import build_parser
        args = build_parser().parse_args(["store", "ls"])
        assert args.dir == store_dir
