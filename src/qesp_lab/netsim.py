"""Deterministic discrete-event simulation of a classifier-fronted link.

Pipeline per packet: source emits -> sender encapsulates (if the flow is
protected) -> multi-field classifier remarks DSCP -> bottleneck link with
per-class strict-priority queues serves or tail-drops -> receiver
decapsulates -> per-flow stats.

Everything is driven by one event heap ordered by (time, tie-break number),
so a given (config, seed) always produces byte-identical statistics.  Sources
emit on a uniformly jittered grid: packet k of a rate-r flow leaves at
start + (k + u_k)/r with seeded u_k in [0, 1), which keeps packet counts
exact while breaking the phase lockstep that rigid periodic arrivals show
under tail drop.  Encapsulation and classification take zero simulated time;
latency is dequeue completion minus emission.

The schedule is lazy: all jitter is drawn up front, flow by flow, and each
emission keeps the tie-break number of its flow-major position (completions
are numbered after all emissions), but the heap holds only each source's next
emission and the link's one completion.  Pops match a heap of every emission:
a source's times never fall with k (k + u_k < k + 1; rounding can only tie
them) and its numbers rise, so its next emission is its least pending one.
"""

from __future__ import annotations

import heapq
import random
import re
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

from . import classifier, engine, wire
from .errors import ConfigError, QespLabError
from .sadb import FiveTuple
from .wire import DEFAULT_TTL, IPPROTO_TCP, IPPROTO_UDP

if TYPE_CHECKING:
    from .config import ExperimentConfig

MAX_PAYLOAD_SIZE = 65000


@dataclass(frozen=True)
class TrafficSource:
    """Open-loop constant-rate source for one flow.

    payload_size is the transport payload in bytes; the synthesized datagram
    adds the IP header and a UDP (8 B) or TCP (20 B) header around it.
    protection_spi names the SA the sender runs the flow through, or None
    for plaintext.
    """

    flow_id: str
    five_tuple: FiveTuple
    rate_pps: float
    payload_size: int
    start: float = 0.0
    stop: float | None = None
    protection_spi: int | None = None

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ConfigError(f"source {self.flow_id}: rate must be > 0")
        if not 1 <= self.payload_size <= MAX_PAYLOAD_SIZE:
            raise ConfigError(
                f"source {self.flow_id}: payload_size must be in [1, {MAX_PAYLOAD_SIZE}]")


@dataclass(frozen=True)
class LinkConfig:
    """Bottleneck link: bits/second, per-class packet limit, DSCP map.

    class_map sends a DSCP to a strict-priority class index (higher index is
    served first); unmapped DSCPs fall into class 0.
    """

    capacity_bps: float
    queue_limit: int
    class_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ConfigError("link.capacity_bps must be > 0")
        if self.queue_limit < 1:
            raise ConfigError("link.queue_limit must be >= 1")
        for dscp, cls in self.class_map.items():
            if not 0 <= dscp <= 63 or cls < 0:
                raise ConfigError(f"link.class_map entry {dscp}:{cls} out of range")


@dataclass(frozen=True)
class FlowStats:
    """Per-flow measurement over one run.

    delivered_bytes/offered_bytes count transport payload (goodput);
    delivered_plain_bytes and delivered_wire_bytes count whole datagrams
    before and after encapsulation, which makes encapsulation overhead
    directly observable.  delivered + dropped == offered packets, always.
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
    """Time-ordered callback heap; ties break by scheduling order or reserve()d number."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = 0
        self.now = 0.0

    def reserve(self, count: int) -> int:
        """Set aside count tie-break numbers for later events; returns the first."""
        first = self._counter
        self._counter += count
        return first

    def schedule(self, time: float, fn: Callable[[], None], order: int | None = None) -> None:
        if order is None:
            order = self._counter
            self._counter += 1
        heapq.heappush(self._heap, (time, order, fn))

    def run(self) -> None:
        heap, pop = self._heap, heapq.heappop
        while heap:
            time, _, fn = pop(heap)
            self.now = time
            fn()


@dataclass
class LinkPacket:
    """One packet in flight: who sent it, when, and its wire bytes."""

    flow_id: str
    emit_time: float
    wire: bytes
    dscp: int


class PriorityLink:
    """Work-conserving strict-priority server with per-class FIFO tail drop.

    Non-preemptive: a packet in service finishes even if a higher class
    arrives meanwhile.  Service time is wire bits over capacity.
    """

    def __init__(self, cfg: LinkConfig, scheduler: EventScheduler,
                 deliver: Callable[[LinkPacket, float], None]) -> None:
        self._capacity = cfg.capacity_bps
        self._queue_limit = cfg.queue_limit
        self._class_map = dict(cfg.class_map)
        n_classes = max(self._class_map.values(), default=0) + 1
        self._queues: list[deque[LinkPacket]] = [deque() for _ in range(n_classes)]
        self._scheduler = scheduler
        self._deliver = deliver
        self._in_service: LinkPacket | None = None

    def class_of(self, dscp: int) -> int:
        return self._class_map.get(dscp, 0)

    def enqueue(self, packet: LinkPacket, now: float) -> bool:
        """Accept a packet into its class queue; False means tail-dropped."""
        queue = self._queues[self.class_of(packet.dscp)]
        if len(queue) >= self._queue_limit:
            return False
        queue.append(packet)
        if self._in_service is None:
            self._start_next(now)
        return True

    def _start_next(self, now: float) -> None:
        for queue in reversed(self._queues):  # highest class first
            if queue:
                packet = self._in_service = queue.popleft()
                done = now + len(packet.wire) * 8 / self._capacity
                self._scheduler.schedule(done, self._complete)
                return

    def _complete(self) -> None:
        now = self._scheduler.now
        packet, self._in_service = self._in_service, None
        self._deliver(packet, now)
        if self._in_service is None:  # deliver() must not have restarted us
            self._start_next(now)


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


def plain_datagram_len(source: TrafficSource) -> int:
    """Length of the flow's synthesized datagram before any encapsulation."""
    ft = source.five_tuple
    transport = 8 if ft.protocol == IPPROTO_UDP else 20 if ft.protocol == IPPROTO_TCP else 0
    return wire.IPV4_HEADER_LEN + transport + source.payload_size


@dataclass
class _FlowState:
    source: TrafficSource
    plain_len: int = 0
    emit_times: list[float] = field(default_factory=list)
    first_order: int = 0  # tie-break number of emission 0
    emit_next: Callable[[], None] | None = None
    emitted: int = 0
    offered_packets: int = 0
    delivered_packets: int = 0
    delivered_payload: int = 0
    delivered_plain: int = 0
    delivered_wire: int = 0
    dropped: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)
    latency_sum: float = 0.0

    def drop(self, reason: str) -> None:
        self.dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1


def run_simulation(config: "ExperimentConfig") -> list[FlowStats]:
    """Run one experiment to completion and return per-flow statistics.

    The event loop drains fully: every emitted packet is either delivered or
    dropped (with a reason tag) by the time this returns.  Pipeline errors
    never abort the run.
    """
    sadb = config.build_sadb()
    table = config.rules
    rng = random.Random(config.seed)
    scheduler = EventScheduler()

    flows = {src.flow_id: _FlowState(src, plain_len=plain_datagram_len(src))
             for src in config.sources}
    by_flow = list(flows.values())
    for fl in by_flow:
        spi = fl.source.protection_spi
        if spi is not None and sadb.lookup_by_spi(spi) is None:
            raise ConfigError(f"source {fl.source.flow_id}: protection SPI "
                              f"0x{spi:x} not in the SA list")

    def on_delivered(packet: LinkPacket, now: float) -> None:
        fl = flows[packet.flow_id]
        if fl.source.protection_spi is not None:
            try:
                engine.inbound(sadb, packet.wire)
            except QespLabError as exc:
                fl.drop(_camel_to_snake(type(exc).__name__))
                return
        fl.delivered_packets += 1
        fl.delivered_payload += fl.source.payload_size
        fl.delivered_plain += fl.plain_len
        fl.delivered_wire += len(packet.wire)
        fl.latency_sum += now - packet.emit_time

    link = PriorityLink(config.link, scheduler, on_delivered)

    def emit(fl: _FlowState) -> None:
        now = scheduler.now
        fl.offered_packets += 1
        fl.emitted += 1
        if fl.emitted < len(fl.emit_times):
            scheduler.schedule(fl.emit_times[fl.emitted], fl.emit_next,
                               fl.first_order + fl.emitted)
        payload = rng.randbytes(fl.source.payload_size)
        plain = build_datagram(fl.source.five_tuple, payload, ident=fl.emitted)
        try:
            if fl.source.protection_spi is not None:
                sa = sadb.lookup_by_spi(fl.source.protection_spi)
                sent = engine.outbound(sa, plain)
            else:
                sent = plain
            dscp, marked = classifier.classify_and_remark(table, sent)
        except QespLabError as exc:
            fl.drop(_camel_to_snake(type(exc).__name__))
            return
        packet = LinkPacket(flow_id=fl.source.flow_id, emit_time=now,
                            wire=marked, dscp=dscp)
        if not link.enqueue(packet, now):
            fl.drop("queue_full")

    duration = config.duration
    for fl in by_flow:
        stop = fl.source.stop if fl.source.stop is not None else duration
        # epsilon keeps the emission count stable against float rounding
        count = int((stop - fl.source.start) * fl.source.rate_pps + 1e-9)
        fl.emit_times = [fl.source.start + (k + rng.random()) / fl.source.rate_pps
                         for k in range(count)]
        fl.first_order = scheduler.reserve(count)
        fl.emit_next = partial(emit, fl)
        if count:
            scheduler.schedule(fl.emit_times[0], fl.emit_next, fl.first_order)

    scheduler.run()

    stats = []
    for fl in by_flow:
        delivered = fl.delivered_packets
        stats.append(FlowStats(
            flow_id=fl.source.flow_id,
            offered_packets=fl.offered_packets,
            offered_bytes=fl.offered_packets * fl.source.payload_size,
            delivered_packets=delivered,
            delivered_bytes=fl.delivered_payload,
            delivered_plain_bytes=fl.delivered_plain,
            delivered_wire_bytes=fl.delivered_wire,
            dropped_packets=fl.dropped,
            drop_reasons=dict(fl.drop_reasons),
            mean_latency_s=fl.latency_sum / delivered if delivered else 0.0,
            throughput_kbps=fl.delivered_payload * 8 / duration / 1000,
            wire_kbps=fl.delivered_wire * 8 / duration / 1000,
        ))
    return stats
