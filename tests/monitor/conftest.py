"""Shared helpers for the monitor tests: small monitored mesh runs."""

from repro.network.config import PSEUDO_SB, NetworkConfig
from repro.network.simulator import Network
from repro.topology import make_topology
from repro.traffic.synthetic import SyntheticTraffic


def monitored_net(probe, kx=4, ky=4, rate=0.2, cycles=200, seed=3,
                  scheme=PSEUDO_SB, num_vcs=4, buffer_depth=4):
    """Run a small mesh under uniform traffic with ``probe`` attached and
    return the (still loaded, undrained) network."""
    config = NetworkConfig(num_vcs=num_vcs, buffer_depth=buffer_depth,
                           pseudo=scheme)
    topo = make_topology("mesh", kx, ky, 1)
    net = Network(topo, config, seed=seed)
    net.bind_probe(probe)
    traffic = SyntheticTraffic("uniform", topo.num_terminals, rate, 5,
                               seed=seed)
    net.run(cycles, traffic)
    return net


def occupied_buffers(net):
    """Yield (router, in_port, vc) objects with at least one buffered
    flit."""
    for router in net.routers:
        for ip in router.in_ports:
            for vc in ip.vcs:
                if vc.buffer:
                    yield router, ip, vc
