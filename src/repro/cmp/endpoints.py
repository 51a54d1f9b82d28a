"""Core and L2-bank endpoints of the CMP coherence substrate.

Cores run a profile-shaped address stream through a real L1 model; misses
and write-throughs become network transactions bounded by a 4-entry MSHR
file (self-throttling). L2 banks hold the directory (sharer sets) and run
the simplified MSI protocol the paper uses: write-through with
write-invalidation.
"""

from __future__ import annotations

import heapq
import itertools
import random

from .address_stream import AddressStream
from .cache import SetAssociativeCache
from .config import CmpConfig
from .messages import (INV_ACK, INVAL, READ_REQ, READ_RESP, WRITE_ACK,
                       WRITE_REQ)
from .mshr import MshrFile

_seq = itertools.count()


def _mshr_key(block: int, is_write: bool) -> int:
    """Reads and writes to the same block occupy distinct registers."""
    return (block << 1) | int(is_write)


class Core:
    """One out-of-order core: L1 + MSHRs + synthetic instruction stream."""

    def __init__(self, core_id: int, terminal: int, config: CmpConfig,
                 stream: AddressStream, rng: random.Random):
        self.core_id = core_id
        self.terminal = terminal
        self.config = config
        self.stream = stream
        self.rng = rng
        self.l1 = SetAssociativeCache(config.l1d_size, config.l1d_assoc,
                                      config.block_size)
        self.mshrs = MshrFile(config.mshrs_per_core)
        #: The access the core stalls on, ``(block, is_write)``, and
        #: whether an MSHR was released since it stalled: until one is,
        #: a retry stalls again.
        self._stalled: tuple[int, bool] | None = None
        self._released = False
        # Statistics.
        self.accesses = 0
        self.reads = 0
        self.writes = 0
        self.l1_hits = 0
        self.stall_cycles = 0

    # -- accesses -----------------------------------------------------------
    # ``CmpSystem.tick`` is the per-cycle loop: a core that is not
    # stalled draws whether it accesses memory, a stalled one retries.

    def _issue(self, system, cycle: int, block: int, is_write: bool) -> None:
        """A new access: a read that hits the L1 ends there; a write
        (write-through) or a read miss takes an MSHR (``_request``)."""
        if not is_write and self.l1.lookup(block):
            self.accesses += 1
            self.reads += 1
            self.l1_hits += 1
            return
        self._request(system, cycle, block, is_write)

    def _retry(self, system, cycle: int) -> None:
        """Issue the access the core stalled on again. It goes straight
        to the MSHR file: a read missed the L1 when it stalled, and no
        fill can bring its block while the core stalls (none of its
        MSHRs holds that block, or the read would have merged)."""
        block, is_write = self._stalled
        self._stalled = None
        self._request(system, cycle, block, is_write)

    def _request(self, system, cycle: int, block: int,
                 is_write: bool) -> None:
        """Track a miss in the MSHR file and send its request. An access
        to a block that already has an MSHR merges into it (stores
        coalesce); with every MSHR busy the core stalls on the access
        (self-throttling) and counts it once it is issued. The core
        tells the home bank whether a store keeps an L1 copy (updated
        in place) so the directory stays precise."""
        key = _mshr_key(block, is_write)
        merged = self.mshrs.outstanding(key)
        if not self.mshrs.allocate(key, is_write):
            self._stalled = (block, is_write)
            self._released = False
            return
        self.accesses += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        if merged:
            return
        if is_write:
            system.send(self.terminal, system.bank_terminal_for(block),
                        WRITE_REQ, block, cycle,
                        payload=(block, self.l1.contains(block)))
        else:
            system.send(self.terminal, system.bank_terminal_for(block),
                        READ_REQ, block, cycle)

    # -- message handling -----------------------------------------------------

    def on_message(self, system, packet, cycle: int) -> None:
        msg = packet.msg_type
        block = packet.payload if isinstance(packet.payload, int) else \
            packet.payload[0]
        if msg == READ_RESP:
            self.l1.fill(block)
            self.mshrs.release(_mshr_key(block, False))
            self._released = True
        elif msg == WRITE_ACK:
            self.mshrs.release(_mshr_key(block, True))
            self._released = True
        elif msg == INVAL:
            self.l1.invalidate(block)
            system.send(self.terminal, packet.src, INV_ACK, block, cycle)
        else:
            raise ValueError(f"core {self.core_id}: unexpected {msg!r}")


class L2Bank:
    """One S-NUCA L2 bank with its slice of the directory."""

    def __init__(self, bank_id: int, terminal: int, config: CmpConfig,
                 l2_miss_rate: float, rng: random.Random):
        self.bank_id = bank_id
        self.terminal = terminal
        self.config = config
        self.l2_miss_rate = l2_miss_rate
        self.rng = rng
        self.directory: dict[int, set[int]] = {}
        # In-flight write transactions: block -> [writer_terminal, acks_left].
        self._pending_writes: dict[int, list] = {}
        # Requests serialized behind a busy block.
        self._waiting: dict[int, list] = {}
        # Delayed actions (bank access / memory latency).
        self._due: list[tuple[int, int, tuple]] = []
        # Statistics.
        self.read_reqs = 0
        self.write_reqs = 0
        self.invals_sent = 0
        self.l2_misses = 0

    # -- message handling -----------------------------------------------------

    def on_message(self, system, packet, cycle: int) -> None:
        msg = packet.msg_type
        if msg == READ_REQ:
            block = packet.payload
            if block in self._pending_writes:
                self._waiting.setdefault(block, []).append(
                    (READ_REQ, packet.src, block))
            else:
                self._start_read(system, cycle, packet.src, block)
        elif msg == WRITE_REQ:
            block, keeps_copy = packet.payload
            if block in self._pending_writes:
                self._waiting.setdefault(block, []).append(
                    (WRITE_REQ, packet.src, (block, keeps_copy)))
            else:
                self._start_write(system, cycle, packet.src, block,
                                  keeps_copy)
        elif msg == INV_ACK:
            block = packet.payload
            self._ack(system, cycle, block)
        else:
            raise ValueError(f"bank {self.bank_id}: unexpected {msg!r}")

    def _start_read(self, system, cycle: int, requester: int,
                    block: int) -> None:
        self.read_reqs += 1
        delay = self.config.l2_bank_latency
        if self.rng.random() < self.l2_miss_rate:
            self.l2_misses += 1
            delay += self.config.memory_latency
        self.directory.setdefault(block, set()).add(requester)
        self._schedule(cycle + delay, (READ_RESP, requester, block))

    def _start_write(self, system, cycle: int, writer: int, block: int,
                     keeps_copy: bool) -> None:
        self.write_reqs += 1
        sharers = self.directory.get(block, set()) - {writer}
        self.directory[block] = {writer} if keeps_copy else set()
        if sharers:
            self._pending_writes[block] = [writer, len(sharers)]
            for sharer in sharers:
                self.invals_sent += 1
                system.send(self.terminal, sharer, INVAL, block, cycle)
        else:
            self._schedule(cycle + self.config.l2_bank_latency,
                           (WRITE_ACK, writer, block))

    def _ack(self, system, cycle: int, block: int) -> None:
        pending = self._pending_writes.get(block)
        if pending is None:
            raise RuntimeError(
                f"bank {self.bank_id}: stray INV_ACK for block {block:#x}")
        pending[1] -= 1
        if pending[1] == 0:
            writer = pending[0]
            del self._pending_writes[block]
            self._schedule(cycle + self.config.l2_bank_latency,
                           (WRITE_ACK, writer, block))
            self._drain_waiters(system, cycle, block)

    def _drain_waiters(self, system, cycle: int, block: int) -> None:
        waiters = self._waiting.pop(block, [])
        while waiters:
            kind, src, payload = waiters.pop(0)
            if kind == READ_REQ:
                self._start_read(system, cycle, src, payload)
            else:
                blk, keeps = payload
                self._start_write(system, cycle, src, blk, keeps)
                if blk in self._pending_writes:
                    # Busy again: the rest stays queued behind the new write.
                    self._waiting.setdefault(block, []).extend(waiters)
                    return

    # -- delayed actions ------------------------------------------------------

    def _schedule(self, when: int, action: tuple) -> None:
        heapq.heappush(self._due, (when, next(_seq), action))

    def tick(self, system, cycle: int) -> None:
        due = self._due
        while due and due[0][0] <= cycle:
            _, _, (msg, dst, block) = heapq.heappop(due)
            system.send(self.terminal, dst, msg, block, cycle)

    @property
    def idle(self) -> bool:
        return not self._due and not self._pending_writes
