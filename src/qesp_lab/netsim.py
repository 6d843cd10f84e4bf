"""Deterministic discrete-event simulation of a classifier-fronted link.

Pipeline per packet: source emits -> sender encapsulates (if the flow is
protected) -> multi-field classifier remarks DSCP -> bottleneck link with
per-class strict-priority queues serves or tail-drops -> receiver
decapsulates -> per-flow stats.

Sources emit on a uniformly jittered grid: packet k of a rate-r flow leaves at
start + (k + u_k)/r with seeded u_k in [0, 1), which keeps packet counts
exact while breaking the phase lockstep that rigid periodic arrivals show
under tail drop.  Encapsulation and classification take zero simulated time;
latency is dequeue completion minus emission.

Sources are open loop, so the whole emission schedule is known before the
run, and the link has at most one completion pending.  run_simulation sorts
every emission by (time, flow-major number) and walks them in that order,
first finishing each service whose completion time is < the emission's time;
at equal times the emission goes first.  That is the order of one event heap
holding every emission numbered flow by flow and each completion numbered
after them, so a given (config, seed) always produces byte-identical
statistics.  The seeded rng draws all jitter, flow by flow, and then one
payload per flow, which every packet of that flow carries; datagrams differ
by IP identification (and, when protected, by sequence number and IV).
"""

from __future__ import annotations

import heapq
import math
import random
import re
import struct
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable

from . import classifier, engine, wire
from .errors import ConfigError, QespLabError
from .sadb import FiveTuple, SecurityAssociation
from .wire import DEFAULT_TTL, IPPROTO_TCP, IPPROTO_UDP

if TYPE_CHECKING:
    from .config import ExperimentConfig

MAX_PAYLOAD_SIZE = 65000
# run_simulation holds every emission in memory, so a run may offer at most
# this many packets over all its sources.
MAX_PACKETS_PER_RUN = 2 ** 20


def check_positive(value: float, what: str) -> None:
    """Reject a rate, duration or capacity that is not finite and > 0."""
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"{what} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TrafficSource:
    """Open-loop constant-rate source for one flow.

    payload_size is the transport payload in bytes; the synthesized datagram
    adds the IP header and a UDP (8 B) or TCP (20 B) header around it.
    protection_spi names the SA the sender runs the flow through, or None
    for plaintext.  The source emits within [start, stop], stop defaulting
    to the run's duration; ExperimentConfig keeps stop within the run and
    protection_spi in its SA list.  The five-tuple's addresses, protocol and
    ports, which every datagram carries, are checked here, not by FiveTuple,
    which the classifier builds for every flow it reads.
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
            if type(value) is not int or not 0 <= value <= top:
                raise ConfigError(f"{name} must be an int in 0..{top}, got {value!r}")
        check_positive(self.rate_pps, "rate_pps")
        if not self.start >= 0:  # NaN fails too
            raise ConfigError(f"start must be >= 0, got {self.start}")
        size = self.payload_size
        if type(size) is not int or not 1 <= size <= MAX_PAYLOAD_SIZE:
            raise ConfigError(f"payload_size must be an int in 1..{MAX_PAYLOAD_SIZE}, got {size!r}")


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
        if self.queue_limit < 1:
            raise ConfigError(f"queue_limit must be >= 1, got {self.queue_limit}")
        for dscp, cls in self.class_map.items():
            # 64 classes give every DSCP its own; the link allocates max + 1 queues
            if not (0 <= dscp <= 63 and 0 <= cls <= 63):
                raise ConfigError(f"class_map entry {dscp}:{cls} out of range")


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
    """Time-ordered callback heap; ties break by scheduling order.

    run_simulation needs no heap (see the module docstring); this is the
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


class PriorityLink:
    """Waiting room of a strict-priority link: per-class FIFO with tail drop.

    The server itself is the caller's: it is work-conserving and
    non-preemptive, takes dequeue() whenever a service ends, and offers a
    packet to enqueue() only while a packet is in service (an idle link
    serves an arrival at once).  Entries are opaque to the link.
    """

    def __init__(self, cfg: LinkConfig) -> None:
        self._queue_limit = cfg.queue_limit
        self._class_map = dict(cfg.class_map)
        n_classes = max(self._class_map.values(), default=0) + 1
        self._queues: list[deque[Any]] = [deque() for _ in range(n_classes)]
        self._highest_first = self._queues[::-1]

    def enqueue(self, entry: Any, dscp: int) -> bool:
        """Queue an entry in its DSCP's class; False means tail-dropped."""
        queue = self._queues[self._class_map.get(dscp, 0)]
        if len(queue) >= self._queue_limit:
            return False
        queue.append(entry)
        return True

    def dequeue(self) -> Any:
        """Oldest entry of the highest non-empty class, or None when all are empty."""
        for queue in self._highest_first:
            if queue:
                return queue.popleft()
        return None


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


@dataclass(slots=True)
class _FlowState:
    source: TrafficSource
    five_tuple: FiveTuple
    sa: SecurityAssociation | None
    payload: bytes = b""
    offered_packets: int = 0
    delivered_packets: int = 0
    delivered_wire: int = 0
    dropped: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)
    latency_sum: float = 0.0

    def drop(self, reason: str) -> None:
        self.dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1


def run_simulation(config: "ExperimentConfig") -> list[FlowStats]:
    """Run one experiment to completion and return per-flow statistics.

    The run drains fully: every emitted packet is either delivered or
    dropped (with a reason tag) by the time this returns.  Pipeline errors
    never abort the run.
    """
    sadb = config.build_sadb()
    table = config.rules
    rng = random.Random(config.seed)
    duration = config.duration
    capacity = config.link.capacity_bps
    link = PriorityLink(config.link)

    flows = [_FlowState(src, src.five_tuple, sadb.lookup_by_spi(src.protection_spi))
             for src in config.sources]

    for fl in flows:
        src = fl.source
        stop = src.stop if src.stop is not None else duration
        # epsilon keeps the count stable against float rounding; the clamp
        # keeps int() off a product that overflowed to +-inf
        expected = min(max((stop - src.start) * src.rate_pps, 0.0), MAX_PACKETS_PER_RUN + 1)
        fl.offered_packets = int(expected + 1e-9)
    if sum(fl.offered_packets for fl in flows) > MAX_PACKETS_PER_RUN:
        raise ConfigError(f"the sources offer more than {MAX_PACKETS_PER_RUN} packets "
                          f"in one run; lower rate_pps or duration")

    # (time, ident, flow); a stable sort by time keeps equal times flow-major.
    emissions = []
    for fl in flows:
        src = fl.source
        emissions += [(src.start + (k + rng.random()) / src.rate_pps, k + 1, fl)
                      for k in range(fl.offered_packets)]
    for fl in flows:
        fl.payload = rng.randbytes(fl.source.payload_size)
    emissions.sort(key=itemgetter(0))
    emissions.append((math.inf, 0, None))  # drains the link, then ends the walk

    in_service = None  # (flow, emit time, wire bytes) of the packet on the link
    done = 0.0  # its completion time
    for now, ident, fl in emissions:
        while in_service is not None and done < now:
            owner, emitted_at, sent = in_service
            try:
                if owner.sa is not None:
                    engine.inbound(sadb, sent)
            except QespLabError as exc:
                owner.drop(_camel_to_snake(type(exc).__name__))
            else:
                owner.delivered_packets += 1
                owner.delivered_wire += len(sent)
                owner.latency_sum += done - emitted_at
            in_service = link.dequeue()
            if in_service is not None:
                done += len(in_service[2]) * 8 / capacity
        if fl is None:
            break
        plain = build_datagram(fl.five_tuple, fl.payload, ident)
        try:
            sent = plain if fl.sa is None else engine.outbound(fl.sa, plain)
            dscp, marked = classifier.classify_and_remark(table, sent)
        except QespLabError as exc:
            fl.drop(_camel_to_snake(type(exc).__name__))
            continue
        if in_service is None:
            in_service = (fl, now, marked)
            done = now + len(marked) * 8 / capacity
        elif not link.enqueue((fl, now, marked), dscp):
            fl.drop("queue_full")

    stats = []
    for fl in flows:
        src, delivered = fl.source, fl.delivered_packets
        plain_len = len(build_datagram(fl.five_tuple, fl.payload)) if delivered else 0
        stats.append(FlowStats(
            flow_id=src.flow_id,
            offered_packets=fl.offered_packets,
            offered_bytes=fl.offered_packets * src.payload_size,
            delivered_packets=delivered,
            delivered_bytes=delivered * src.payload_size,
            delivered_plain_bytes=delivered * plain_len,
            delivered_wire_bytes=fl.delivered_wire,
            dropped_packets=fl.dropped,
            drop_reasons=dict(fl.drop_reasons),
            mean_latency_s=fl.latency_sum / delivered if delivered else 0.0,
            throughput_kbps=delivered * src.payload_size * 8 / duration / 1000,
            wire_kbps=fl.delivered_wire * 8 / duration / 1000,
        ))
    return stats
