"""Traffic generators.

The paper crafts input traffic per application so as to *maximize* each
application's sensitivity to contention (Section 2.1): uniformly random
destination addresses for IP forwarding (random trie paths), random
addresses drawn from a fixed population for NetFlow (a live table of a
known size), non-matching addresses for the firewall (every packet scans
all rules), and content with a controlled redundancy fraction for
redundancy elimination. Each generator here reproduces one of those
input classes.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Iterable, List, Sequence, Tuple

from ..constants import DEFAULT_PAYLOAD_BYTES
from ..rngmemo import rng_memo
from .packet import Packet


class TrafficSource:
    """Interface: an unbounded (or replayed) stream of packets."""

    def next_packet(self) -> Packet:
        """Produce the next packet."""
        raise NotImplementedError

    def __iter__(self):
        while True:
            yield self.next_packet()

    def take(self, n: int) -> List[Packet]:
        """The next ``n`` packets as a list (test/example helper)."""
        return [self.next_packet() for _ in range(n)]


class UniformRandomTraffic(TrafficSource):
    """Uniformly random src/dst addresses; static payload.

    This is the paper's input for IP forwarding: random destinations
    maximize routing-trie path diversity and hence cache sensitivity.
    """

    def __init__(self, rng: random.Random,
                 payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                 sport: int = 1000, dport: int = 2000, addr_bits: int = 32):
        self.rng = rng
        self.payload = b"\xa5" * payload_bytes
        self.sport = sport
        self.dport = dport
        self.addr_bits = addr_bits

    def next_packet(self) -> Packet:
        rng = self.rng
        bits = self.addr_bits
        return Packet.udp(
            src=rng.getrandbits(bits), dst=rng.getrandbits(bits),
            sport=self.sport, dport=self.dport, payload=self.payload,
        )


#: Distinct populations :class:`FlowPopulationTraffic` keeps (LRU).
POPULATION_MEMO_SIZE = 16

#: Population memo: key -> (shared population, RNG state after).
_POPULATION_MEMO: "OrderedDict[tuple, Tuple[Tuple[tuple, ...], tuple]]" = (
    OrderedDict())


class FlowPopulationTraffic(TrafficSource):
    """Random draws from a fixed population of 5-tuples.

    The paper sizes NetFlow's input "such that the NetFlow hash table
    contains 100000 entries"; a fixed population of that size reproduces
    a live table of exactly that many flows, each accessed uniformly.
    The population is a pure function of ``n_flows``, ``addr_bits`` and
    the RNG state, so it is memoized (:func:`~repro.rngmemo.rng_memo`)
    as one shared, read-only tuple per distinct input.
    """

    def __init__(self, rng: random.Random, n_flows: int,
                 payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                 addr_bits: int = 32):
        if n_flows <= 0:
            raise ValueError("population must have at least one flow")
        self.rng = rng
        self.payload = b"\x5a" * payload_bytes
        self.addr_bits = addr_bits
        self.population: Tuple[tuple, ...] = rng_memo(
            _POPULATION_MEMO, POPULATION_MEMO_SIZE, (n_flows, addr_bits), rng,
            lambda: tuple(
                (rng.getrandbits(addr_bits), rng.getrandbits(addr_bits),
                 rng.randrange(1024, 65536), rng.randrange(1, 1024))
                for _ in range(n_flows)))

    def next_packet(self) -> Packet:
        src, dst, sport, dport = self.rng.choice(self.population)
        return Packet.udp(src=src, dst=dst, sport=sport, dport=dport,
                          payload=self.payload)


class RedundantTraffic(TrafficSource):
    """Traffic whose payload repeats recently-seen content.

    ``redundancy`` is the probability that a packet's payload is a repeat
    of one of the last ``pool_size`` distinct payloads — the traffic class
    redundancy elimination exists to compress.
    """

    def __init__(self, rng: random.Random, redundancy: float = 0.5,
                 payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                 pool_size: int = 128, n_flows: int = 4096,
                 addr_bits: int = 32):
        if not 0.0 <= redundancy <= 1.0:
            raise ValueError("redundancy must be in [0, 1]")
        self.rng = rng
        self.redundancy = redundancy
        self.payload_bytes = payload_bytes
        self.pool: List[bytes] = []
        self.pool_size = pool_size
        self.n_flows = n_flows
        self.addr_bits = addr_bits

    def next_packet(self) -> Packet:
        rng = self.rng
        if self.pool and rng.random() < self.redundancy:
            payload = rng.choice(self.pool)
        else:
            payload = rng.randbytes(self.payload_bytes)
            self.pool.append(payload)
            if len(self.pool) > self.pool_size:
                self.pool.pop(0)
        bits = self.addr_bits
        return Packet.udp(
            src=rng.getrandbits(bits), dst=rng.getrandbits(bits),
            sport=rng.randrange(1024, 65536),
            dport=rng.randrange(1, 1024) % self.n_flows + 1,
            payload=payload,
        )


class ReplaySource(TrafficSource):
    """Replay a fixed packet sequence, cyclically by default."""

    def __init__(self, packets: Sequence[Packet], cycle: bool = True):
        if not packets:
            raise ValueError("nothing to replay")
        self.packets = list(packets)
        self.cycle = cycle
        self._i = 0

    def next_packet(self) -> Packet:
        if self._i >= len(self.packets):
            if not self.cycle:
                raise StopIteration("replay exhausted")
            self._i = 0
        pkt = self.packets[self._i]
        self._i += 1
        return pkt

    @classmethod
    def from_sources(cls, sources: Iterable[TrafficSource], n_each: int,
                     cycle: bool = True) -> "ReplaySource":
        """Pre-capture ``n_each`` packets from each source into one replay."""
        captured: List[Packet] = []
        for src in sources:
            captured.extend(src.take(n_each))
        return cls(captured, cycle=cycle)
