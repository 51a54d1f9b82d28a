"""Narrowed ``Chip`` arrays never wrap.

Most arrays of the compiled cycle's ``Chip`` are 32-bit (``kernel.c``'s
``CHIP_ARRAYS`` is the one statement of each width). A chip whose id
spaces, pools or cycle window a 32-bit array could not hold is refused
by name — ``BackendUnsupportedError`` naming the array and its width —
before anything is written: at layout build, when a pool grows, at
``inject`` and at ``run`` / ``fast_forward``. Each refusal is hit here
with the limit (``kernel.I32_MAX``) patched down to a 4x4 mesh's size.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.network.backend import BackendUnsupportedError
from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.flit import Packet
from repro.network.vectorized import BatchNetwork, VectorNetwork, kernel
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic

# A 4x4 mesh: 384 credit indices (320 router-side, 64 at the NICs), 320
# input VCs, 256 source-destination pairs; pools of 512 packet slots and
# 1 024 flits at construction.
MESH = ("mesh", 4, 4, 1)


@pytest.fixture(autouse=True)
def compiled(_private_kernel_cache):
    loaded = kernel.load()
    if not loaded.status.startswith("c:"):
        pytest.skip(f"no compiled cycle on this machine: {loaded.refusal()}")


def _net(cls=VectorNetwork, **kw):
    return cls(make_topology(*MESH), NetworkConfig(pseudo=PSEUDO_SB), **kw)


def _refused(array):
    return pytest.raises(BackendUnsupportedError,
                         match=rf"kernel array {array}, whose elements are "
                               rf"32-bit integers")


def test_every_array_has_its_kernel_width():
    """What the ``Chip`` points into is what ``CHIP_ARRAYS`` declares:
    state and ids in 32 bits, the MT19937 words unsigned, counters,
    histogram, whole-chip scalars and masks in 64."""
    table = kernel.dtypes()
    assert kernel.I32_MAX == 2 ** 31 - 1
    assert {table[name] for name in ("vc_state", "buf_fid", "cred",
                                     "p_create", "f_link", "arr_fid",
                                     "route_out", "ip_router")} == {"int32"}
    assert table["src_mt"] == "uint32"
    assert {table[name] for name in ("counts", "hist", "state", "src",
                                     "ej_out", "prof_ns", "ip_occ",
                                     "r_map", "port_mask")} == {"int64"}
    net = _net(BatchNetwork, seeds=(1, 2))
    for name, array in net._kernel._arrays.items():
        assert array.dtype == table[name], name


def test_id_spaces_past_the_width_are_refused_at_layout_build(monkeypatch):
    monkeypatch.setattr(kernel, "I32_MAX", 383)
    with _refused("vc_out_cred"):
        _net()
    monkeypatch.setattr(kernel, "I32_MAX", 1500)
    with _refused("vc_out_cred"):   # four lanes: 1 536 credit indices
        _net(BatchNetwork, seeds=range(4))


def test_pools_past_the_width_are_refused_when_they_grow(monkeypatch):
    monkeypatch.setattr(kernel, "I32_MAX", 511)
    with _refused("p_next"):
        _net()                  # 512 packet slots at construction
    monkeypatch.setattr(kernel, "I32_MAX", 1100)
    net = _net()
    for k in range(1024):       # the packet pool doubles to 1 024
        net.inject(Packet(k % 16, (k + 1) % 16, 1, 0))
    with _refused("p_next"):
        net.inject(Packet(0, 1, 1, 0))
    # The flit pool grows before the cycle a packet of 1 200 flits
    # could start in.
    net = _net()
    net.inject(Packet(0, 5, 1200, 0))
    with _refused("f_link"):
        net.step()


def test_cycles_past_the_width_are_refused(monkeypatch):
    monkeypatch.setattr(kernel, "I32_MAX", 5000)
    net = _net()
    with _refused("p_create"):
        net.fast_forward(6000)  # an idle chip skips to its bound
    net.fast_forward(5000)
    assert net.cycle == 5000
    with _refused("p_create"):
        net.run(1)
    assert net.cycle == 5000    # stopped at the last cycle that fits
    with _refused("p_create"):
        net.inject(Packet(0, 1, 5, 5001))
    # A drain's window passes 5 000 cycles, but it ends well before.
    net = _net()
    net.run(100, SyntheticTraffic("uniform", 16, 0.1, 5, seed=3))
    net.drain()
    assert net.quiescent() and net.stats.ejected_packets
