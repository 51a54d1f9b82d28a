"""Test fixtures and path setup."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.metrics.stats import NetworkStats
from repro.network.config import NetworkConfig
from repro.network.flit import Packet


@pytest.fixture(scope="session", autouse=True)
def _private_kernel_cache(tmp_path_factory):
    """The compiled router step (``network/vectorized/kernel.py``) and
    the extracted CMP traces (``harness/traces.py``) are cached in this
    session's own place: the suite neither reads nor leaves anything
    under the user's ``~/.cache``, and workers it forks or spawns
    inherit the same place."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture
def stats():
    return NetworkStats()


@pytest.fixture
def config():
    return NetworkConfig()


def make_packet(src=0, dst=1, size=1, cycle=0, msg_type="data"):
    return Packet(src, dst, size, cycle, msg_type=msg_type)


@pytest.fixture
def packet():
    return make_packet()
