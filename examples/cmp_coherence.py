"""CMP coherence traffic: extract a trace, replay it under every scheme.

Reproduces the paper's methodology end-to-end on one benchmark:

1. run the closed-loop CMP substrate (32 cores + 32 L2 banks, directory
   MSI, 4 MSHRs per core) on a 4x4 concentrated mesh and record the
   injection trace;
2. replay the trace against the baseline router and the four
   pseudo-circuit schemes with NIC-level self-throttling.

Run:  python examples/cmp_coherence.py [benchmark]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ALL_SCHEMES, ConcentratedMesh, Network, NetworkConfig
from repro.cmp import CmpSystem
from repro.traffic import TraceReplayTraffic


def main():
    bench = sys.argv[1] if len(sys.argv) > 1 else "fma3d"
    print(f"Extracting a trace from the CMP substrate running {bench}...")
    system = CmpSystem(bench, seed=3)
    system.run(2500, record_trace=True, warmup=500)
    trace = system.trace
    summary = system.summary()
    print(f"  {len(trace)} messages, offered load "
          f"{trace.offered_load():.3f} flits/terminal/cycle, "
          f"L1 miss rate {summary['l1_miss_rate']:.1%}, "
          f"{summary['invals']} invalidations "
          f"(on the {summary['backend']} core)\n")

    print("Replaying against each router scheme (XY + static VA):")
    baseline_latency = None
    for scheme in ALL_SCHEMES:
        net = Network(ConcentratedMesh(4, 4, 4),
                      NetworkConfig(pseudo=scheme, mshrs=4),
                      routing="xy", vc_policy="static", seed=11)
        replay = TraceReplayTraffic(trace)
        while not replay.exhausted:
            replay.tick(net, net.cycle)
            net.step()
        net.drain()
        stats = net.stats
        if baseline_latency is None:
            baseline_latency = stats.avg_latency
        print(f"  {scheme.label:12s} latency {stats.avg_latency:6.2f} "
              f"({1 - stats.avg_latency / baseline_latency:+6.1%})  "
              f"reusability {stats.reusability:6.1%}")


if __name__ == "__main__":
    main()
