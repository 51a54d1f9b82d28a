"""The sizing tool checks itself.

``benchmarks/kernel_dump.py`` writes a network's ``Chip`` as its
window's kernel call would start, and ``benchmarks/kernel_driver.c``
runs that dump through ``run()`` without Python: the window, then the
drain, then the end-of-run check. Here a 4-lane 4x4 chip is dumped for
200 cycles under each scheme, the driver is compiled and run on it --
bare, and walking the live chip every 3 cycles -- and the cycles it ran,
its flit-hops and its digest of ``counts``, ``hist`` and ``state`` must
equal the same chip's run through ``VectorNetwork``, and no walk, live
or of the drained chip, may find anything. A change to
``CHIP_ARRAYS`` or ``CHIP_SCALARS`` that the dump or the driver does not
follow fails here. Skips without a C compiler.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.network.vectorized import kernel

BENCH = Path(__file__).resolve().parents[2] / "benchmarks"
SRC = BENCH.parent / "src"
CHIP = ("4", "0.25", "4", "200")


def _dump_module():
    spec = importlib.util.spec_from_file_location(
        "kernel_dump", BENCH / "kernel_dump.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dump(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, str(BENCH / "kernel_dump.py"),
                           *args], capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def driver(_private_kernel_cache, tmp_path_factory):
    compiler = kernel._find_compiler(os.environ.get("CC"))
    if compiler is None or not kernel.load().status.startswith("c:"):
        pytest.skip("no C compiler on this machine")
    binary = tmp_path_factory.mktemp("driver") / "kernel_driver"
    subprocess.run([*compiler[0], "-O2", "-o", str(binary),
                    str(BENCH / "kernel_driver.c")], check=True,
                   capture_output=True)
    return binary


def _driven_as_vector_network(driver, tmp_path, scheme, *walk):
    """Dump the chip under ``scheme``, drive it (``walk``: the driver's
    live-walk stride) and compare with the same chip's Python run."""
    path = tmp_path / f"{scheme}.chip"
    made = _dump(str(path), *CHIP, scheme)
    assert made.returncode == 0, made.stderr
    said = subprocess.run([str(driver), str(path), "2", *walk],
                          capture_output=True, text=True,
                          check=True).stdout
    cycles, hops, digest, verdict = re.fullmatch(
        r"(\d+) cycles run, (\d+) flit-hops: \S+ us/cycle, \S+ "
        r"ns/flit-hop, digest ([0-9a-f]{16}); drained check (-?\d+) in "
        r"\S+ us\n", said).groups()
    assert verdict == "0"

    dump = _dump_module()
    net, window = dump.chip(*CHIP, scheme)
    window()
    net.drain()
    stats = [net.lane_stats(lane) for lane in range(net.lanes)]
    assert all(lane.ejected_packets for lane in stats)
    assert int(cycles) == net._state[net._S_STEPPED]
    assert int(hops) == sum(lane.flit_hops for lane in stats)
    assert digest == dump.digest(net)


@pytest.mark.parametrize("scheme", ["baseline", "pseudo"])
def test_driver_runs_the_dump_as_vector_network_does(driver, tmp_path,
                                                     scheme):
    _driven_as_vector_network(driver, tmp_path, scheme)


@pytest.mark.parametrize("scheme", ["baseline", "pseudo"])
def test_a_live_walk_every_3_cycles_changes_nothing_and_finds_nothing(
        driver, tmp_path, scheme):
    _driven_as_vector_network(driver, tmp_path, scheme, "3")


def test_dump_refuses_an_unknown_scheme(tmp_path):
    path = tmp_path / "typo.chip"
    made = _dump(str(path), *CHIP, "psuedo")
    assert made.returncode == 2
    assert "'psuedo': one of baseline, pseudo" in made.stderr
    assert not path.exists()
