"""Row pins for every experiment figure at a tiny scale.

Each figure runs inline on the default core and the SHA-256 of its rows
(as sorted-key JSON) must match the digest recorded below: a change to a
figure's points, their order or the arithmetic of its rows shows here.
A row's ``result`` key, if present, is left out of the digest.
"""

import hashlib
import json

import pytest

from repro.harness import figures
from repro.harness.experiment import clear_cache, set_default_store
from repro.store import ResultStore

TRACE = {"benchmarks": ("radix",), "trace_cycles": 200}
ONE_TRACE = {"benchmark": "radix", "trace_cycles": 200}

#: The figure and the keyword arguments of each pinned run.
RUNS = {
    "fig1": (figures.fig1, {"benchmarks": ("radix",), "cycles": 200}),
    "fig8": (figures.fig8, TRACE),
    "fig9": (figures.fig9, TRACE),
    "fig10": (figures.fig10, TRACE),
    "fig11": (figures.fig11, TRACE),
    "fig12": (figures.fig12, {"patterns": ("uniform",),
                              "loads": (0.05, 0.15), "cycles": 200}),
    "fig13": (figures.fig13, ONE_TRACE),
    "fig14": (figures.fig14, ONE_TRACE),
    "chiplet": (figures.chiplet, {"link_latencies": (1, 4), "cycles": 200}),
}

#: SHA-256 of each run's rows. Figs. 9 and 10 return the same grid.
DIGESTS = {
    "fig1":
        "8c75fc0faa3eb56d3575f5eaa5028ea0a2647572ed1277e461ded2637d6c92cb",
    "fig8":
        "ef60fd47b711953e777b261f146aa86f278fe78f78f87386a14e313bfcae81ff",
    "fig9":
        "85db8949d8ab07148f86bfb0884f3182949f0f16d6f9ca60150d3196587313ef",
    "fig10":
        "85db8949d8ab07148f86bfb0884f3182949f0f16d6f9ca60150d3196587313ef",
    "fig11":
        "d55e516fe3d869a003312320fad085b52f33c5443f96050e63d4cc9b97bf9de8",
    "fig12":
        "3268a02784930f3034258b11ecb72f62684aebeffaebaab68acea05c092e9586",
    "fig13":
        "2c4371e7ee474c982f943f42f60b4e60c70d787cfb812d1eab09f85b88896f18",
    "fig14":
        "fe1b6e9620108903a14123e217f56f2e6c7b200e49efb09835a85b9ae4d97651",
    "chiplet":
        "4a6b48a899998c20662ac240170d8623f632d23bd67b89d4da4c619097317f4e",
}


def rows_digest(rows) -> str:
    kept = [{k: v for k, v in row.items() if k != "result"} for row in rows]
    text = json.dumps(kept, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_figure(name, **overrides):
    """Figure ``name``'s pinned run, inline where it simulates points
    (Fig. 1 reads its trace extractions and has no workers)."""
    fn, kwargs = RUNS[name]
    inline = {} if name == "fig1" else {"max_workers": 1}
    return fn(**kwargs, show=False, **{**inline, **overrides})


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()
    set_default_store(None)


@pytest.mark.parametrize("name", list(RUNS))
def test_figure_rows_match_their_digest(name):
    assert rows_digest(run_figure(name)) == DIGESTS[name]


def test_figures_over_the_grid_of_fig9_put_nothing_new(tmp_path):
    """Figs. 10 and 11 ask only for points of Fig. 9's grid, so after
    Fig. 9 every one of them is already in the store."""
    store = ResultStore(str(tmp_path / "store"))
    set_default_store(store)
    run_figure("fig9")
    puts = store.stats["puts"]
    assert puts > 0
    clear_cache()
    run_figure("fig10")
    run_figure("fig11")
    assert store.stats["puts"] == puts


def test_pooled_fig12_returns_the_inline_rows():
    inline = run_figure("fig12")
    clear_cache()
    assert run_figure("fig12", max_workers=2) == inline
