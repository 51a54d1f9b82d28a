"""Synthetic workload traffic (paper Section VI.B).

The paper evaluates three patterns on an 8x8 mesh with 5-flit packets:

* **uniform random (UR)** — every injection picks a fresh uniformly random
  destination, giving equal utilization of all links;
* **bit complement (BC)** — node ``s`` always sends to ``~s``; longer
  average Manhattan distance, so the network saturates earlier;
* **bit permutation (BP)** — matrix transpose; same average distance as UR
  but all traffic crosses the diagonal, saturating earliest under DOR.

Injection is open-loop Bernoulli: each terminal starts a packet with
probability ``rate / packet_size`` per cycle so that ``rate`` is the offered
load in flits/node/cycle. A few extra classic patterns (tornado, shuffle,
hotspot, neighbor) are provided beyond the paper's set.
"""

from __future__ import annotations

import math
import random

from ..network.flit import Packet


class SyntheticTraffic:
    """Open-loop Bernoulli injection with a fixed destination pattern."""

    def __init__(self, pattern: str, num_terminals: int, rate: float,
                 packet_size: int = 5, seed: int = 42):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0,1] flits/node/cycle: {rate}")
        if num_terminals < 2:
            raise ValueError("need at least two terminals")
        if packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        self.pattern = pattern
        self.num_terminals = num_terminals
        self.rate = rate
        self.packet_size = packet_size
        self.rng = random.Random(seed)
        self._dest_fn = destination_function(pattern, num_terminals)
        self.generated = 0
        # Injections drawn ahead of the tick clock (cycle -> [(src,
        # dst), ...], keys ascending). ``next_injection_cycle``
        # pre-draws future cycles in the exact tick order (cycle-major,
        # terminal-minor), so the injection sequence is bit-identical
        # whether the driver ticks every cycle or fast-forwards over
        # the empty ones.
        self._drawn: dict[int, list] = {}
        self._drawn_until = -1

    def _draw_cycle(self) -> None:
        """Draw the Bernoulli outcomes of the next undrawn cycle."""
        c = self._drawn_until + 1
        prob = self.rate / self.packet_size
        rng = self.rng
        row = None
        for src in range(self.num_terminals):
            if rng.random() >= prob:
                continue
            dst = self._dest_fn(src, rng)
            if dst is None or dst == src:
                continue
            if row is None:
                row = self._drawn[c] = []
            row.append((src, dst))
        self._drawn_until = c

    def tick(self, network, cycle: int) -> None:
        while self._drawn_until < cycle:
            self._draw_cycle()
        row = self._drawn.pop(cycle, None)
        if row is not None:
            for src, dst in row:
                network.inject(Packet(src, dst, self.packet_size, cycle))
            self.generated += len(row)
        while self._drawn and (first := next(iter(self._drawn))) < cycle:
            del self._drawn[first]  # a cycle nobody ticked: never offered

    def export_stream(self, cycle: int, terminals: int) -> dict | None:
        """What ``tick(cycle)`` onwards depends on, for a driver of
        ``terminals`` that draws the stream itself (the array cores'
        ``source_tick``) and hands it back to ``restore_stream``: the
        generator's words, the Bernoulli threshold on the 53 bits of
        ``random()``, ``draw`` or the destination ``table`` (-1: none),
        the row drawn ahead as ``src * n + dst``. ``None`` from a subclass,
        for another terminal count, or if a row waits for a cycle that is
        not the last one drawn: those streams ``source_tick`` cannot draw."""
        rows = {c: row for c, row in self._drawn.items() if c >= cycle}
        n, draw = self.num_terminals, getattr(self._dest_fn, "draw", "table")
        if (type(self) is not SyntheticTraffic or n != terminals
                or rows.keys() - {self._drawn_until}):
            return None
        return dict(
            mt=self.rng.getstate()[1], size=self.packet_size,
            threshold=math.ceil(self.rate / self.packet_size * 2 ** 53),
            drawn_until=self._drawn_until, generated=self.generated,
            draw=draw, table=-1 if draw != "table" else [
                -1 if (dst := self._dest_fn(src, None)) is None else dst
                for src in range(n)],
            row=[src * n + dst
                 for src, dst in rows.get(self._drawn_until, ())])

    def restore_stream(self, mt, drawn_until, row, generated) -> None:
        """Take the stream back as ``export_stream``'s driver left it."""
        self.rng.setstate((self.rng.VERSION, tuple(mt), self.rng.gauss_next))
        self._drawn_until, self.generated = drawn_until, generated
        n = self.num_terminals
        self._drawn = {drawn_until: [divmod(p, n) for p in row]} if row else {}

    def next_injection_cycle(self, cycle: int,
                             lookahead: int = 4096) -> int | None:
        """Earliest cycle >= the next pending injection, or ``None``.

        Lets fast-forwarding drivers skip idle stretches at low load
        instead of paying the full per-cycle pipeline for an empty
        chip. The contract is one-sided: the returned cycle is never
        *later* than the true next injection, but may be earlier (the
        ``lookahead`` horizon caps how far ahead outcomes are drawn per
        call; the driver simply asks again from there). ``None`` means
        no injection will ever arrive (rate 0).
        """
        if self.rate == 0.0:
            return None
        while self._drawn_until < cycle:
            self._draw_cycle()
        limit = cycle + lookahead
        while not self._drawn and self._drawn_until < limit:
            self._draw_cycle()
        if self._drawn:
            return next(iter(self._drawn))
        return self._drawn_until + 1


def _bits_for(n: int) -> int:
    bits = (n - 1).bit_length()
    if 1 << bits != n:
        raise ValueError(
            f"bit-based patterns need a power-of-two terminal count, got {n}")
    return bits


def destination_function(pattern: str, num_terminals: int):
    """Return ``f(src, rng) -> dst | None`` for a named pattern. One that
    draws from ``rng`` says how in ``f.draw``; the rest are a table."""
    n = num_terminals

    if pattern in ("uniform", "ur", "uniform_random"):
        def uniform(src: int, rng: random.Random) -> int:
            dst = rng.randrange(n - 1)
            return dst if dst < src else dst + 1
        uniform.draw = "uniform"
        return uniform

    if pattern in ("bitcomp", "bc", "bit_complement"):
        mask = n - 1
        _bits_for(n)
        return lambda src, rng: (~src) & mask

    if pattern in ("transpose", "bp", "bit_permutation"):
        bits = _bits_for(n)
        if bits % 2:
            raise ValueError("transpose needs an even number of id bits")
        half = bits // 2
        lo_mask = (1 << half) - 1

        def transpose(src: int, rng: random.Random) -> int | None:
            dst = ((src & lo_mask) << half) | (src >> half)
            return None if dst == src else dst
        return transpose

    if pattern == "tornado":
        def tornado(src: int, rng: random.Random) -> int:
            return (src + (n // 2 - 1)) % n
        return tornado

    if pattern == "shuffle":
        bits = _bits_for(n)
        mask = n - 1

        def shuffle(src: int, rng: random.Random) -> int | None:
            dst = ((src << 1) | (src >> (bits - 1))) & mask
            return None if dst == src else dst
        return shuffle

    if pattern == "neighbor":
        def neighbor(src: int, rng: random.Random) -> int:
            return (src + 1) % n
        return neighbor

    if pattern == "hotspot":
        # 50% of traffic targets a small set of hot terminals.
        hot = [0, n // 2]

        def hotspot(src: int, rng: random.Random) -> int:
            if rng.random() < 0.5:
                dst = rng.choice(hot)
            else:
                dst = rng.randrange(n)
            return None if dst == src else dst
        hotspot.draw = "hotspot"
        return hotspot

    raise ValueError(f"unknown traffic pattern {pattern!r}")


PAPER_PATTERNS = ("uniform", "bitcomp", "transpose")
