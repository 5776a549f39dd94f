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
        return Packet.udp(rng.getrandbits(bits), rng.getrandbits(bits),
                          self.sport, self.dport, self.payload)


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
        self._bits = n_flows.bit_length()

    def next_packet(self) -> Packet:
        # rng.choice(self.population), drawn inline (see SynApp.run_packet).
        getrandbits = self.rng.getrandbits
        population = self.population
        n = len(population)
        k = self._bits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        src, dst, sport, dport = population[r]
        return Packet.udp(src, dst, sport, dport, self.payload)


#: RedundantTraffic's port ranges, [1024, 65536) and [1, 1024): span and
#: the bits ``randrange`` draws for it.
_SPORT_SPAN = 65536 - 1024
_SPORT_BITS = _SPORT_SPAN.bit_length()
_DPORT_SPAN = 1024 - 1
_DPORT_BITS = _DPORT_SPAN.bit_length()


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
        # Every draw is inline and consumes what rng.choice(pool),
        # rng.randrange(1024, 65536) and rng.randrange(1, 1024) would.
        rng = self.rng
        getrandbits = rng.getrandbits
        pool = self.pool
        if pool and rng.random() < self.redundancy:
            n = len(pool)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            payload = pool[r]
        else:
            payload = rng.randbytes(self.payload_bytes)
            pool.append(payload)
            if len(pool) > self.pool_size:
                pool.pop(0)
        bits = self.addr_bits
        src = getrandbits(bits)
        dst = getrandbits(bits)
        sport = getrandbits(_SPORT_BITS)
        while sport >= _SPORT_SPAN:
            sport = getrandbits(_SPORT_BITS)
        dport = getrandbits(_DPORT_BITS)
        while dport >= _DPORT_SPAN:
            dport = getrandbits(_DPORT_BITS)
        return Packet.udp(src, dst, 1024 + sport,
                          (1 + dport) % self.n_flows + 1, payload)


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
