"""Deterministic discrete-event simulation of a classifier-fronted link.

Pipeline per packet: source emits -> sender encapsulates (if the flow is
protected) -> multi-field classifier remarks DSCP -> bottleneck link with
per-class strict-priority queues serves or tail-drops -> receiver
decapsulates -> the run's record.

Sources emit on a uniformly jittered grid: packet k of a rate-r flow leaves at
start + (k + u_k)/r with seeded u_k in [0, 1), which keeps packet counts
exact while breaking the phase lockstep that rigid periodic arrivals show
under tail drop.  Encapsulation and classification take zero simulated time;
latency is dequeue completion minus emission.

Sources are open loop, so the whole emission schedule is known before the
run, and the link has at most one completion pending.  simulate owns the
whole link: the packet in service, its completion time and the waiting
room, one FIFO per class that tail-drops an arrival finding queue_limit
packets ahead of it.  The server is work-conserving and non-preemptive: an
idle link serves an arrival at once, and each service end takes the oldest
packet of the highest non-empty class.  The walk sorts every emission by
(time, flow-major number) and takes them in that order, first finishing each
service whose completion time is < the emission's time; at equal times the
emission goes first.  That is the order of one event heap holding every
emission numbered flow by flow and each completion numbered after them, so a
given (config, seed) always produces a byte-identical record.  The
event-driven reference model, with its own strict-priority waiting room,
lives in tests/test_netsim.py and checks this walk record for record.  The
seeded rng draws all jitter, flow by flow, and then one payload per flow,
which every packet of that flow carries; datagrams differ by IP
identification (and, when protected, by sequence number and IV).

simulate returns the record: one plain tuple (flow, ident, emitted, done,
wire_len, verdict) per emitted packet, appended when its fate is settled,
so each flow's deliveries appear in completion order.  flow indexes
config.sources and ident numbers the flow's packets from 1; done is the
completion time (None if the packet never crossed the link), wire_len the
length classified (0 if it never reached the link), and verdict None if
delivered, else the drop reason.  run_simulation folds it into FlowStats.
"""

from __future__ import annotations

import heapq
import math
import random
import re
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable

from . import classifier, engine, wire
from .errors import ConfigError, QespLabError, check_int
from .sadb import SEED_MAX, FiveTuple, ProtocolVariant, Sadb, SecurityAssociation, first_match
from .wire import DEFAULT_TTL, IPPROTO_TCP, IPPROTO_UDP

MAX_PAYLOAD_SIZE = 65000
# simulate holds every emission in memory, so a run may offer at most
# this many packets over all its sources.
MAX_PACKETS_PER_RUN = 2 ** 20


def _check_number(value: float, what: str) -> None:
    """Reject a value that is not an int or a float: a bool would compare as
    0 or 1, and a string would fail the range check with a bare TypeError."""
    if type(value) not in (int, float):
        raise ConfigError(f"{what} must be a number, got {value!r}")


def check_positive(value: float, what: str) -> None:
    """Reject a rate, duration or capacity that is not a finite number > 0."""
    _check_number(value, what)
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"{what} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TrafficSource:
    """Open-loop constant-rate source for one flow.

    payload_size is the transport payload in bytes; the synthesized datagram
    adds the IP header and a UDP (8 B) or TCP (20 B) header around it.
    protection_spi declares the SPI of the SA that the selectors pick for
    the flow, or None for plaintext; the run picks by selector alone.  The
    selectors match shown_five_tuple, the five-tuple the source's datagrams
    show, as encap's SA lookup reads it.
    The source emits within [start, stop], stop defaulting to the run's
    duration; ExperimentConfig, below, checks stop and protection_spi.  The
    five-tuple's addresses, protocol and ports, which every datagram carries,
    are checked here, not by FiveTuple, which the classifier builds for every
    flow it reads.
    """

    flow_id: str
    five_tuple: FiveTuple
    rate_pps: float
    payload_size: int
    start: float = 0.0
    stop: float | None = None
    protection_spi: int | None = None

    def __post_init__(self) -> None:
        ft = self.five_tuple
        for name, value, top in (("src_addr", ft.src_addr, 0xFFFFFFFF),
                                 ("dst_addr", ft.dst_addr, 0xFFFFFFFF),
                                 ("protocol", ft.protocol, 255), ("src_port", ft.src_port, 0xFFFF),
                                 ("dst_port", ft.dst_port, 0xFFFF)):
            check_int(value, name, 0, top)
        check_positive(self.rate_pps, "rate_pps")
        _check_number(self.start, "start")
        if not self.start >= 0:  # NaN fails too
            raise ConfigError(f"start must be >= 0, got {self.start}")
        if self.stop is not None:  # ExperimentConfig compares it with the duration
            _check_number(self.stop, "stop")
        check_int(self.payload_size, "payload_size", 1, MAX_PAYLOAD_SIZE)

    @property
    def shown_five_tuple(self) -> FiveTuple:
        """five_tuple as the datagrams show it: a portless protocol's ports are
        None (wire's no-port rule), whatever ports the source configures."""
        ft = self.five_tuple
        if ft.protocol in wire.PORT_PROTOCOLS:
            return ft
        return FiveTuple(ft.src_addr, ft.dst_addr, ft.protocol, None, None)


@dataclass(frozen=True)
class LinkConfig:
    """Bottleneck link: bits/second, per-class packet limit, DSCP map.

    class_map sends a DSCP to a strict-priority class index in [0, 63]
    (higher index is served first); unmapped DSCPs fall into class 0.
    """

    capacity_bps: float
    queue_limit: int
    class_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive(self.capacity_bps, "capacity_bps")
        if type(self.queue_limit) is not int:
            raise ConfigError(f"queue_limit must be an int, got {self.queue_limit!r}")
        if self.queue_limit < 1:
            raise ConfigError(f"queue_limit must be >= 1, got {self.queue_limit}")
        for dscp, cls in self.class_map.items():
            # 64 classes give every DSCP its own; the link allocates max + 1 queues
            check_int(dscp, "class_map key", 0, 63)
            check_int(cls, f"class_map[{dscp}]", 0, 63)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  Besides its own duration and seed (0..SEED_MAX) it checks
    the rules that span its lists: at least one source, unique SPIs and flow_ids,
    every source's stop within the run, and its protection equal to the SPI of
    the SA the selectors pick for the five-tuple its datagrams show (first
    match; None if none), as runs and encap do."""

    sas: tuple[SecurityAssociation, ...]
    rules: classifier.RuleTable
    sources: tuple[TrafficSource, ...]
    link: LinkConfig
    duration: float
    seed: int
    output: str | None = None

    def __post_init__(self) -> None:
        check_positive(self.duration, "duration")
        check_int(self.seed, "seed", 0, SEED_MAX)
        if not self.sources:
            raise ConfigError("needs at least one traffic source")
        if len({sa.spi for sa in self.sas}) != len(self.sas):
            raise ConfigError("duplicate SPI values")
        if len({src.flow_id for src in self.sources}) != len(self.sources):
            raise ConfigError("duplicate flow_id values")
        for src in self.sources:
            if src.stop is not None and not src.stop <= self.duration:
                raise ConfigError(f"source {src.flow_id}: stop {src.stop} is after "
                                  f"duration {self.duration}")
            spi = getattr(first_match(self.sas, src.shown_five_tuple), "spi", None)
            if src.protection_spi != spi:
                raise ConfigError(f"source {src.flow_id}: protection {src.protection_spi}, "
                                  f"but the SA selectors pick {spi}")

    def build_sadb(self) -> Sadb:
        """Fresh copies of the SAs, which are templates that no run touches, so
        repeated runs never share sequence, replay or IV state."""
        sadb = Sadb()
        for sa in self.sas:
            sadb.add_sa(replace(sa))
        return sadb

    def with_variant(self, variant: ProtocolVariant) -> ExperimentConfig:
        """Every SA re-keyed to another protocol variant (for A/B runs)."""
        qesp = variant is ProtocolVariant.QESP
        return replace(self, sas=tuple(replace(sa, variant=variant,
                                               extended_auth=sa.extended_auth and qesp)
                                       for sa in self.sas))


@dataclass(frozen=True)
class FlowStats:
    """Per-flow measurement over one run: run_simulation's fold of the record.

    delivered_bytes/offered_bytes count transport payload (goodput);
    delivered_plain_bytes and delivered_wire_bytes count whole datagrams
    before and after encapsulation (the throughput subcommand's
    overhead_bytes).  offered counts the flow's entries, dropped those with
    a verdict; drop_reasons keep first-seen order, and the latency sum runs
    in record order.
    """

    flow_id: str
    offered_packets: int
    offered_bytes: int
    delivered_packets: int
    delivered_bytes: int
    delivered_plain_bytes: int
    delivered_wire_bytes: int
    dropped_packets: int
    drop_reasons: dict[str, int]
    mean_latency_s: float
    throughput_kbps: float
    wire_kbps: float


class EventScheduler:
    """Time-ordered callback heap; ties break by scheduling order.

    simulate needs no heap (see the module docstring); this is the
    general event-driven form of the same discipline.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = 0
        self.now = 0.0

    def schedule(self, time: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time, self._counter, fn))
        self._counter += 1

    def run(self) -> None:
        heap, pop = self._heap, heapq.heappop
        while heap:
            time, _, fn = pop(heap)
            self.now = time
            fn()


def _camel_to_snake(name: str) -> str:
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name).lower()


def build_datagram(ft: FiveTuple, payload: bytes, ident: int = 0) -> bytes:
    """Synthesize a plain IPv4 datagram for a five-tuple.

    UDP gets a real 8-byte header, TCP a minimal 20-byte header; other
    protocols carry the payload bare.  Transport checksums are zero (not
    modeled; the simulator's integrity story is the ICV).
    """
    if ft.protocol == IPPROTO_UDP:
        segment = struct.pack(">HHHH", ft.src_port, ft.dst_port, 8 + len(payload), 0) + payload
    elif ft.protocol == IPPROTO_TCP:
        segment = struct.pack(">HHIIBBHHH", ft.src_port, ft.dst_port, ident, 0,
                              5 << 4, 0, 8192, 0, 0) + payload
    else:
        segment = payload
    return wire.pack_ipv4(0, ident & 0xFFFF, 0, DEFAULT_TTL, ft.protocol, ft.src_addr,
                          ft.dst_addr, segment)


def simulate(config: ExperimentConfig) -> list[tuple]:
    """Run one experiment to completion and return its record.  The run
    drains fully, so the record settles every emitted packet; pipeline
    errors never abort the run."""
    sadb = config.build_sadb()
    rng = random.Random(config.seed)
    capacity = config.link.capacity_bps
    queue_limit = config.link.queue_limit
    class_map = config.link.class_map
    # the link's waiting room: one FIFO per class, served highest class first
    queues = [deque() for _ in range(max(class_map.values(), default=0) + 1)]
    highest_first = queues[::-1]

    counts = []
    for src in config.sources:
        stop = src.stop if src.stop is not None else config.duration
        # epsilon keeps the count stable against float rounding; the clamp
        # keeps int() off a product that overflowed to +-inf
        expected = min(max((stop - src.start) * src.rate_pps, 0.0), MAX_PACKETS_PER_RUN + 1)
        counts.append(int(expected + 1e-9))
    if sum(counts) > MAX_PACKETS_PER_RUN:
        raise ConfigError(f"the sources offer more than {MAX_PACKETS_PER_RUN} packets "
                          f"in one run; lower rate_pps or duration")

    # (time, ident, flow); a stable sort by time keeps equal times flow-major.
    emissions = []
    for flow, (src, count) in enumerate(zip(config.sources, counts)):
        emissions += [(src.start + (k + rng.random()) / src.rate_pps, k + 1, flow)
                      for k in range(count)]
    # (five_tuple, payload, sa) of each flow
    flows = [(src.five_tuple, rng.randbytes(src.payload_size),
              sadb.lookup_outbound(src.shown_five_tuple)) for src in config.sources]
    emissions.sort(key=itemgetter(0))
    emissions.append((math.inf, 0, None))  # drains the link (done may be inf), ends the walk

    record = []
    in_service = None  # (flow, ident, emit time, wire bytes) of the packet on the link
    done = 0.0  # its completion time
    for now, ident, flow in emissions:
        while in_service is not None and (done < now or flow is None):
            owner, number, emitted_at, sent = in_service
            verdict = None
            try:
                if flows[owner][2] is not None:
                    engine.inbound(sadb, sent)
            except QespLabError as exc:
                verdict = _camel_to_snake(type(exc).__name__)
            record.append((owner, number, emitted_at, done, len(sent), verdict))
            in_service = None
            for queue in highest_first:
                if queue:
                    in_service = queue.popleft()
                    done += len(in_service[3]) * 8 / capacity
                    break
        if flow is None:
            break
        five_tuple, payload, sa = flows[flow]
        plain = build_datagram(five_tuple, payload, ident)
        try:
            sent = plain if sa is None else engine.outbound(sa, plain)
            dscp, marked = classifier.classify_and_remark(config.rules, sent)
        except QespLabError as exc:
            record.append((flow, ident, now, None, 0, _camel_to_snake(type(exc).__name__)))
            continue
        if in_service is None:
            in_service = (flow, ident, now, marked)
            done = now + len(marked) * 8 / capacity
        else:
            queue = queues[class_map.get(dscp, 0)]
            if len(queue) < queue_limit:
                queue.append((flow, ident, now, marked))
            else:
                record.append((flow, ident, now, None, len(marked), "queue_full"))
    return record


def run_simulation(config: ExperimentConfig) -> list[FlowStats]:
    """Per-flow statistics of one experiment: the fold of simulate's record."""
    by_flow = [[] for _ in config.sources]
    for entry in simulate(config):
        by_flow[entry[0]].append(entry)
    stats = []
    for src, entries in zip(config.sources, by_flow):
        delivered, wire_bytes, latency_sum, drop_reasons = 0, 0, 0.0, {}
        for _, _, emitted, done, wire_len, verdict in entries:  # in completion order
            if verdict is None:
                delivered += 1
                wire_bytes += wire_len
                latency_sum += done - emitted
            else:
                drop_reasons[verdict] = drop_reasons.get(verdict, 0) + 1
        offered, size = len(entries), src.payload_size
        stats.append(FlowStats(
            flow_id=src.flow_id,
            offered_packets=offered,
            offered_bytes=offered * size,
            delivered_packets=delivered,
            delivered_bytes=delivered * size,
            delivered_plain_bytes=delivered * len(build_datagram(src.five_tuple, bytes(size))),
            delivered_wire_bytes=wire_bytes,
            dropped_packets=offered - delivered,
            drop_reasons=drop_reasons,
            mean_latency_s=latency_sum / delivered if delivered else 0.0,
            throughput_kbps=delivered * size * 8 / config.duration / 1000,
            wire_kbps=wire_bytes * 8 / config.duration / 1000))
    return stats
