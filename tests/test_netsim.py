"""Simulator: link discipline against a hand-stepped trace, conservation,
determinism, priority monotonicity, the FlowStats fold, and simulate's
record against an event-driven reference."""

from __future__ import annotations

import heapq
import math
import random
import re
from dataclasses import replace
from functools import partial
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, JitterDrawn
from qesp_lab import classifier, engine, netsim
from qesp_lab.classifier import ClassifierRule, RuleTable
from qesp_lab.config import load_config
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.errors import ConfigError, QespLabError
from qesp_lab.netsim import (
    EventScheduler,
    ExperimentConfig,
    FlowStats,
    LinkConfig,
    TrafficSource,
    run_simulation,
)
from qesp_lab.sadb import (
    FiveTuple,
    Ipv4Net,
    ProtocolVariant,
    Sadb,
    SaMode,
    SecurityAssociation,
    Selector,
)
from qesp_lab.wire import IPPROTO_QESP, IPPROTO_TCP, IPPROTO_UDP, addr_to_int


def flow(flow_id: str, dst_port: int, rate: float, size: int,
         spi: int | None = None, protocol: int = IPPROTO_UDP, **kwargs) -> TrafficSource:
    return TrafficSource(
        flow_id=flow_id,
        five_tuple=FiveTuple(src_addr=addr_to_int("10.0.0.1"),
                             dst_addr=addr_to_int("10.0.9.9"),
                             protocol=protocol, src_port=4000, dst_port=dst_port),
        rate_pps=rate, payload_size=size, protection_spi=spi, **kwargs)


def null_sa_spec(spi: int, dst_ports: tuple[int, int] | None,
                 variant: ProtocolVariant = ProtocolVariant.QESP) -> SecurityAssociation:
    """A NULL/NULL transport SA for the flows whose dst_port lies in dst_ports
    (None: every flow); a source it matches must name spi as its protection."""
    return SecurityAssociation(spi=spi, variant=variant, mode=SaMode.TRANSPORT,
                               cipher=CipherAlg.NULL, cipher_key=b"",
                               mac=MacAlg.NULL, mac_key=b"",
                               selector=Selector(dst_ports=dst_ports))


def simple_config(sources, link=None, sas=(), rules=RuleTable(), duration=10.0,
                  seed=1) -> ExperimentConfig:
    return ExperimentConfig(
        sas=tuple(sas), rules=rules, sources=tuple(sources),
        link=link or LinkConfig(capacity_bps=10e6, queue_limit=64),
        duration=duration, seed=seed)


class ReferenceServer:
    """A strict-priority link whose every completion is an EventScheduler
    event: the event-driven form of simulate's link, with a waiting
    room of its own.

    The waiting room is one list of (class, arrival number, entry).  A
    service end takes the entry of the highest class that arrived first; an
    arrival whose class already holds queue_limit entries is tail-dropped.
    Entries are tuples whose last item is the wire bytes.
    """

    def __init__(self, cfg: LinkConfig, scheduler: EventScheduler, deliver) -> None:
        self.cfg = cfg
        self.scheduler = scheduler
        self.deliver = deliver
        self.in_service = None
        self.waiting: list[tuple[int, int, tuple]] = []
        self.arrivals = 0

    def arrive(self, entry, dscp: int, now: float) -> bool:
        """Serve at once on an idle link, else queue; False means tail-dropped."""
        if self.in_service is None:
            self._start(entry, now)
            return True
        cls = self.cfg.class_map.get(dscp, 0)
        if [c for c, _, _ in self.waiting].count(cls) >= self.cfg.queue_limit:
            return False
        self.waiting.append((cls, self.arrivals, entry))
        self.arrivals += 1
        return True

    def _start(self, entry, now: float) -> None:
        self.in_service = entry
        self.scheduler.schedule(now + len(entry[-1]) * 8 / self.cfg.capacity_bps,
                                self._complete)

    def _complete(self) -> None:
        entry, self.in_service = self.in_service, None
        now = self.scheduler.now
        self.deliver(entry, now)
        if self.waiting:
            chosen = max(self.waiting, key=lambda waiting: (waiting[0], -waiting[1]))
            self.waiting.remove(chosen)
            self._start(chosen[2], now)


def reference_run(config: ExperimentConfig, scheduler: EventScheduler | None = None,
                  rng_class=random.Random) -> list[tuple]:
    """simulate's record, stepped one heap event at a time.

    The rng draws every flow's jitter, flow by flow, then one payload per
    flow.  Every emission is scheduled up front in flow-major order, so equal
    times pop flow-major and ahead of any completion (scheduled later).
    """
    scheduler = scheduler or EventScheduler()
    sadb = config.build_sadb()
    rng = rng_class(config.seed)
    sas = [sadb.lookup_outbound(src.shown_five_tuple) for src in config.sources]
    record = []

    def deliver(entry, now: float) -> None:
        flow, ident, emitted_at, sent = entry
        verdict = None
        try:
            if sas[flow] is not None:
                engine.inbound(sadb, sent)
        except QespLabError as exc:
            verdict = netsim._camel_to_snake(type(exc).__name__)
        record.append((flow, ident, emitted_at, now, len(sent), verdict))

    server = ReferenceServer(config.link, scheduler, deliver)

    def emit(flow: int, payload: bytes, ident: int) -> None:
        now = scheduler.now
        plain = netsim.build_datagram(config.sources[flow].five_tuple, payload, ident)
        try:
            sent = plain if sas[flow] is None else engine.outbound(sas[flow], plain)
            dscp, marked = classifier.classify_and_remark(config.rules, sent)
        except QespLabError as exc:
            record.append((flow, ident, now, None, 0,
                           netsim._camel_to_snake(type(exc).__name__)))
            return
        if not server.arrive((flow, ident, now, marked), dscp, now):
            record.append((flow, ident, now, None, len(marked), "queue_full"))

    grids = []
    for src in config.sources:
        stop = config.duration if src.stop is None else src.stop
        count = int((stop - src.start) * src.rate_pps + 1e-9)
        grids.append([src.start + (k + rng.random()) / src.rate_pps for k in range(count)])
    payloads = [rng.randbytes(src.payload_size) for src in config.sources]
    for flow, (grid, payload) in enumerate(zip(grids, payloads)):
        for k, t in enumerate(grid):
            scheduler.schedule(t, partial(emit, flow, payload, k + 1))
    scheduler.run()
    return record


class TestLinkHandSteppedTrace:
    """Three packets, two classes, one tail drop: every service decision,
    drop, and latency checked against a trace stepped by hand.

    Capacity 8000 bps; every packet is 100 wire bytes, so service takes
    exactly 0.1 s.  Class queue limit is 1.

    t=0.00  A (class 0) arrives, server idle -> in service until 0.10
    t=0.02  B (class 0) arrives -> queued (class 0 now holds 1)
    t=0.03  C (class 1) arrives -> queued in class 1
    t=0.04  D (class 0) arrives -> class 0 full -> dropped
    t=0.10  A done (latency 0.10); C outranks B -> served until 0.20
    t=0.20  C done (latency 0.17); B served until 0.30
    t=0.30  B done (latency 0.28)
    """

    def test_trace(self):
        scheduler = EventScheduler()
        deliveries: list[tuple[str, float]] = []
        server = ReferenceServer(
            LinkConfig(capacity_bps=8000, queue_limit=1, class_map={46: 1}),
            scheduler, lambda entry, now: deliveries.append((entry[0], now)))
        accepted: dict[str, bool] = {}

        def arrive(name: str, t: float, dscp: int) -> None:
            entry = (name, t, bytes(100))
            scheduler.schedule(t, lambda: accepted.__setitem__(
                name, server.arrive(entry, dscp, scheduler.now)))

        arrive("A", 0.00, 0)
        arrive("B", 0.02, 0)
        arrive("C", 0.03, 46)
        arrive("D", 0.04, 0)
        scheduler.run()

        assert accepted == {"A": True, "B": True, "C": True, "D": False}
        assert [name for name, _ in deliveries] == ["A", "C", "B"]
        times = dict(deliveries)
        assert math.isclose(times["A"], 0.10)
        assert math.isclose(times["C"], 0.20)
        assert math.isclose(times["B"], 0.30)
        latencies = [times["A"] - 0.00, times["C"] - 0.03, times["B"] - 0.02]
        assert [round(l, 6) for l in latencies] == [0.10, 0.17, 0.28]

    def test_single_packet_service_time(self):
        scheduler = EventScheduler()
        done = []
        server = ReferenceServer(LinkConfig(capacity_bps=8000, queue_limit=4),
                                 scheduler, lambda entry, now: done.append(now))
        entry = ("x", 0.0, bytes(250))
        scheduler.schedule(0.0, lambda: server.arrive(entry, 0, scheduler.now))
        scheduler.run()
        assert math.isclose(done[0], 250 * 8 / 8000)

    def test_non_preemptive(self):
        """High-class arrival waits for the packet in service to finish."""
        scheduler = EventScheduler()
        deliveries = []
        server = ReferenceServer(LinkConfig(capacity_bps=8000, queue_limit=4,
                                            class_map={46: 1}),
                                 scheduler, lambda entry, now: deliveries.append((entry[0], now)))
        low, high = ("low", 0.0, bytes(100)), ("high", 0.0, bytes(100))
        scheduler.schedule(0.00, lambda: server.arrive(low, 0, scheduler.now))
        scheduler.schedule(0.01, lambda: server.arrive(high, 46, scheduler.now))
        scheduler.run()
        assert deliveries == [("low", pytest.approx(0.1)), ("high", pytest.approx(0.2))]

    def test_run_simulation_steps_the_same_trace(self, monkeypatch):
        """The trace above through simulate's own queues: each packet is a
        one-packet plaintext flow emitted on the grid, 72 B UDP payloads make
        100 wire bytes, and C's port is the one marked 46.  The record settles
        D at its arrival and the others in completion order."""
        monkeypatch.setattr(netsim, "random", type("Rng", (), {"Random": ZeroJitter}))
        rules = RuleTable(rules=(ClassifierRule(
            selector=Selector(dst_ports=(5060, 5060)), dscp=46),))
        sources = [flow(name, port, 100, 72, start=t, stop=t + 0.01)
                   for name, port, t in (("A", 9000, 0.00), ("B", 9001, 0.02),
                                         ("C", 5060, 0.03), ("D", 9002, 0.04))]
        cfg = simple_config(sources, rules=rules, duration=1.0,
                            link=LinkConfig(capacity_bps=8000, queue_limit=1, class_map={46: 1}))
        assert [(sources[flow].flow_id, verdict)
                for flow, _, _, _, _, verdict in netsim.simulate(cfg)] == [
            ("D", "queue_full"), ("A", None), ("C", None), ("B", None)]
        stats = {s.flow_id: s for s in run_simulation(cfg)}
        assert {name: (s.offered_packets, s.delivered_packets, s.drop_reasons)
                for name, s in stats.items()} == {
            "A": (1, 1, {}), "B": (1, 1, {}), "C": (1, 1, {}), "D": (1, 0, {"queue_full": 1})}
        assert {name: round(stats[name].mean_latency_s, 6) for name in "ACB"} == {
            "A": 0.10, "C": 0.17, "B": 0.28}


class TestFold:
    """run_simulation is the FlowStats fold of simulate's record, whatever
    walk made it: every field pinned against a record built by hand."""

    def test_every_field(self, monkeypatch):
        sources = [flow("udp", 5060, 10, 100), flow("tcp", 80, 10, 100, protocol=IPPROTO_TCP),
                   flow("bare", 0, 10, 100, protocol=1)]
        record = [(0, 1, 0.0, 0.1, 150, None),
                  (0, 2, 0.0, None, 0, "oversize_packet"),  # dropped at emission
                  (1, 1, 0.5, 0.75, 200, None),
                  (0, 3, 0.0, None, 150, "queue_full"),
                  (0, 4, 0.0, 0.2, 150, None),
                  (0, 5, 0.0, 0.25, 150, "auth_failure"),  # crossed the link, failed decap
                  (2, 1, 1.0, 1.5, 120, None),
                  (0, 6, 0.0, 0.3, 150, None),
                  (0, 7, 0.0, None, 150, "queue_full")]
        monkeypatch.setattr(netsim, "simulate", lambda config: record)
        udp, tcp, bare = run_simulation(simple_config(sources, duration=2.0))
        assert list(udp.drop_reasons.items()) == [  # first-seen order
            ("oversize_packet", 1), ("queue_full", 2), ("auth_failure", 1)]
        # latencies summed in record order: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert udp.mean_latency_s == (0.1 + 0.2 + 0.3) / 3 != (0.3 + 0.2 + 0.1) / 3
        assert udp == FlowStats(
            flow_id="udp", offered_packets=7, offered_bytes=700, delivered_packets=3,
            delivered_bytes=300, delivered_plain_bytes=3 * 128, delivered_wire_bytes=450,
            dropped_packets=4, drop_reasons={"oversize_packet": 1, "queue_full": 2,
                                             "auth_failure": 1},
            mean_latency_s=(0.1 + 0.2 + 0.3) / 3, throughput_kbps=1.2, wire_kbps=1.8)
        assert tcp == FlowStats("tcp", 1, 100, 1, 100, 140, 200, 0, {}, 0.25, 0.4, 0.8)
        assert bare == FlowStats("bare", 1, 100, 1, 100, 120, 120, 0, {}, 0.5, 0.4, 0.48)


class TestRunSimulation:
    def test_uncongested_goodput_is_rate_times_size(self):
        """100 pps of 1024-byte payloads on 10 Mbps: 819.2 Kbps goodput."""
        stats = run_simulation(simple_config([flow("f", 9000, 100, 1024)]))[0]
        assert stats.offered_packets == 1000
        assert stats.delivered_packets == 1000
        assert stats.throughput_kbps == pytest.approx(819.2)

    def test_strict_priority_shares_congested_link(self):
        """Two 600-Kbps flows into 1 Mbps: the marked flow keeps its rate."""
        rules = RuleTable(rules=(ClassifierRule(
            selector=Selector(dst_ports=(5060, 5060)), dscp=46),))
        link = LinkConfig(capacity_bps=1_000_000, queue_limit=32, class_map={46: 1})
        # 750-byte payloads at 100 pps: 600 Kbps goodput, 622.4 Kbps wire
        cfg = simple_config([flow("high", 5060, 100, 750),
                             flow("low", 9000, 100, 750)], link=link, rules=rules)
        high, low = run_simulation(cfg)
        assert high.dropped_packets == 0
        assert high.throughput_kbps == pytest.approx(600.0)
        # leftover steady-state share is 600 * (1000-622.4)/622.4 = 364 Kbps;
        # the fill transient and end-of-run queue drain add up to ~queue_limit
        # packets (19.2 Kbps over 10 s) on top of that
        steady = 600 * (1000 - 622.4) / 622.4
        assert steady * 0.95 <= low.throughput_kbps <= steady + 25

    def test_packet_conservation(self):
        for seed in (1, 2, 3):
            cfg = simple_config([flow("a", 5060, 130, 900), flow("b", 9000, 130, 900)],
                                link=LinkConfig(capacity_bps=1_000_000, queue_limit=8),
                                seed=seed)
            for stats in run_simulation(cfg):
                assert stats.delivered_packets + stats.dropped_packets == stats.offered_packets
                assert stats.offered_bytes == stats.offered_packets * 900

    def test_determinism(self):
        cfg = simple_config([flow("a", 5060, 100, 500), flow("b", 9000, 140, 700)],
                            link=LinkConfig(capacity_bps=800_000, queue_limit=8),
                            seed=42)
        assert run_simulation(cfg) == run_simulation(cfg)

    def test_seed_changes_interleaving(self):
        cfg = simple_config([flow("a", 5060, 100, 500), flow("b", 9000, 140, 700)],
                            link=LinkConfig(capacity_bps=800_000, queue_limit=8))
        a = run_simulation(replace(cfg, seed=1))
        b = run_simulation(replace(cfg, seed=2))
        assert a != b  # drop pattern shifts with emission jitter

    def test_protected_flow_decapsulates(self):
        cfg = simple_config([flow("p", 5060, 50, 300, spi=0x11)],
                            sas=[null_sa_spec(0x11, (5060, 5060))], duration=2.0)
        stats = run_simulation(cfg)[0]
        assert stats.delivered_packets == 100
        assert stats.drop_reasons == {}

    def test_wire_accounting_shows_overhead(self):
        cfg = simple_config([flow("p", 5060, 50, 300, spi=0x11)],
                            sas=[null_sa_spec(0x11, (5060, 5060))], duration=2.0)
        stats = run_simulation(cfg)[0]
        assert stats.delivered_packets == 100
        # NULL/NULL Q-ESP transport on a 308-byte segment: header 16 + pad 3 + trailer 1
        assert stats.delivered_wire_bytes - stats.delivered_plain_bytes == 100 * 20

    def test_unknown_protection_spi_rejected(self):
        """The config that names the source refuses it, before any run."""
        with pytest.raises(ConfigError, match="^source p: protection 153, but the SA "
                                              "selectors pick None$"):
            simple_config([flow("p", 5060, 50, 300, spi=0x99)])

    def test_source_validation(self):
        with pytest.raises(ConfigError):
            flow("bad", 5060, 0, 300)
        with pytest.raises(ConfigError):
            flow("bad", 5060, 10, 0)

    @pytest.mark.parametrize("fields,message", [
        (dict(dst_port=70000), "dst_port must be an int in 0..65535, got 70000"),
        (dict(src_port=None), "src_port must be an int in 0..65535, got None"),
        (dict(src_port=True), "src_port must be an int in 0..65535, got True"),
        (dict(protocol=300), "protocol must be an int in 0..255, got 300"),
        (dict(src_addr=2 ** 32), "src_addr must be an int in 0..4294967295, got 4294967296"),
        (dict(dst_addr=-1), "dst_addr must be an int in 0..4294967295, got -1")])
    def test_five_tuple_out_of_range_rejected(self, fields, message):
        """Refused at construction, before build_datagram would pack the value."""
        source = flow("f", 5060, 10, 100)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            replace(source, five_tuple=replace(source.five_tuple, **fields))

    @pytest.mark.parametrize("start", [-0.5, -math.inf, math.nan])
    def test_start_before_the_run_rejected(self, start):
        with pytest.raises(ConfigError, match="start must be >= 0"):
            flow("early", 5060, 10, 100, start=start)

    @pytest.mark.parametrize("stop", [1.5, math.inf, math.nan])
    def test_stop_after_the_run_rejected(self, stop):
        """Throughput divides by duration, so emissions after it would inflate it."""
        with pytest.raises(ConfigError, match="is after duration 1.0"):
            simple_config([flow("late", 5060, 10, 100, stop=stop)], duration=1.0)

    def test_window_edges_accepted(self):
        stats = run_simulation(simple_config([flow("f", 5060, 10, 100, start=0.0, stop=1.0)],
                                             duration=1.0))
        assert stats[0].offered_packets == 10

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rates_durations_capacities_finite_and_positive(self, bad):
        """Checked by the objects themselves, so the config file and the CLI
        (which builds them directly) share one check."""
        with pytest.raises(ConfigError, match="rate_pps must be finite and > 0"):
            flow("bad", 5060, bad, 300)
        with pytest.raises(ConfigError, match="duration must be finite and > 0"):
            simple_config([flow("f", 5060, 10, 300)], duration=bad)
        with pytest.raises(ConfigError, match="capacity_bps must be finite and > 0"):
            LinkConfig(capacity_bps=bad, queue_limit=1)

    # Each number a constructor checks, built in code as (what, build(value)).
    NUMBERS = [("rate_pps", lambda v: flow("f", 5060, v, 100)),
               ("start", lambda v: flow("f", 5060, 10, 100, start=v)),
               ("stop", lambda v: flow("f", 5060, 10, 100, stop=v)),
               ("capacity_bps", lambda v: LinkConfig(capacity_bps=v, queue_limit=1)),
               ("duration", lambda v: simple_config([flow("f", 5060, 10, 100)], duration=v))]

    @pytest.mark.parametrize("bad", ["1", True, b"1"], ids=["str", "bool", "bytes"])
    @pytest.mark.parametrize("what,build", NUMBERS, ids=[what for what, _ in NUMBERS])
    def test_numbers_built_in_code_are_type_checked(self, what, build, bad):
        """A string once raised a bare TypeError and True passed as 1; the
        config reader hands these constructors floats only."""
        with pytest.raises(ConfigError, match=f"^{what} must be a number, got {bad!r}$"):
            build(bad)

    @pytest.mark.parametrize("fields,message", [
        *[(dict(queue_limit=bad), f"queue_limit must be an int, got {bad!r}")
          for bad in ("4", True, 1.5)],
        (dict(class_map={46: 1.5}), "class_map[46] must be an int in 0..63, got 1.5"),
        (dict(class_map={46: True}), "class_map[46] must be an int in 0..63, got True"),
        (dict(class_map={46: 64}), "class_map[46] must be an int in 0..63, got 64"),
        (dict(class_map={"46": 1}), "class_map key must be an int in 0..63, got '46'"),
        (dict(class_map={-1: 1}), "class_map key must be an int in 0..63, got -1")])
    def test_link_ints_built_in_code_are_checked(self, fields, message):
        """class_map {46: 1.5} once aborted a run inside the link's queues."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            LinkConfig(**{"capacity_bps": 1e6, "queue_limit": 1, **fields})


class TestPacketCeiling:
    """A run may offer at most MAX_PACKETS_PER_RUN packets over all its
    sources; beyond that it is refused before any emission is built."""

    LIMIT = netsim.MAX_PACKETS_PER_RUN

    def test_at_the_ceiling_the_run_starts(self, no_draws):
        with pytest.raises(JitterDrawn):
            run_simulation(simple_config([flow("f", 5060, self.LIMIT, 100)], duration=1.0))

    def test_just_above_is_refused(self, no_draws):
        with pytest.raises(ConfigError, match=f"more than {self.LIMIT} packets"):
            run_simulation(simple_config([flow("f", 5060, self.LIMIT + 1, 100)],
                                         duration=1.0))

    def test_sources_count_together(self, no_draws):
        half = self.LIMIT // 2
        sources = [flow("a", 5060, half, 100), flow("b", 9000, half + 1, 100)]
        with pytest.raises(ConfigError, match=f"more than {self.LIMIT} packets"):
            run_simulation(simple_config(sources, duration=1.0))

    @pytest.mark.parametrize("rate,duration", [(1e300, 10.0), (50.0, 1e300), (1e300, 1e300)])
    def test_huge_products_are_refused(self, no_draws, rate, duration):
        """rate x duration may overflow to inf; the count must not reach int()."""
        with pytest.raises(ConfigError, match=f"more than {self.LIMIT} packets"):
            run_simulation(simple_config([flow("f", 5060, rate, 100)], duration=duration))

    def test_huge_negative_span_offers_nothing(self):
        late = flow("late", 5060, 1e300, 100, start=1e308, stop=-1e308)
        stats = run_simulation(simple_config([late, flow("f", 9000, 50, 100)], duration=1.0))
        assert (stats[0].offered_packets, stats[1].offered_packets) == (0, 50)


class TestPriorityMonotonicity:
    """Raising a flow's class (into its own queue) never reduces delivery."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_scenarios(self, seed):
        import random
        rng = random.Random(seed)
        sources = [flow("subject", 5060, rng.randint(40, 120), rng.randint(200, 1200)),
                   flow("cross1", 9000, rng.randint(40, 120), rng.randint(200, 1200)),
                   flow("cross2", 9001, rng.randint(40, 120), rng.randint(200, 1200))]
        link = LinkConfig(capacity_bps=rng.choice((500_000, 1_000_000)),
                          queue_limit=rng.randint(4, 32),
                          class_map={46: 1, 40: 2, 8: 3})
        # each flow gets a private class; the subject's DSCP decides its rank
        base_rules = [ClassifierRule(selector=Selector(dst_ports=(9000, 9000)), dscp=40),
                      ClassifierRule(selector=Selector(dst_ports=(9001, 9001)), dscp=8)]

        delivered = []
        for subject_dscp in (0, 46):  # class 0 -> class 1, others at 2 and 3
            rules = RuleTable(rules=tuple(base_rules + [ClassifierRule(
                selector=Selector(dst_ports=(5060, 5060)), dscp=subject_dscp)]))
            cfg = simple_config(sources, link=link, rules=rules, duration=5.0, seed=seed)
            stats = {s.flow_id: s for s in run_simulation(cfg)}
            delivered.append(stats["subject"].delivered_bytes)
        assert delivered[1] >= delivered[0]


class TestHelpers:
    def test_plain_datagram_len(self):
        """delivered_plain_bytes counts each delivered datagram as built:
        20 B of IPv4, a UDP (8 B) or TCP (20 B) header, and the payload."""
        sources = [flow("udp", 1, 5, 100), flow("tcp", 2, 5, 100, protocol=IPPROTO_TCP),
                   flow("icmp", 3, 5, 100, protocol=1)]
        stats = run_simulation(simple_config(sources, duration=2.0))
        assert [s.delivered_packets for s in stats] == [10, 10, 10]
        assert [s.delivered_plain_bytes for s in stats] == [1280, 1400, 1200]


class RecordingScheduler(EventScheduler):
    """Counts pushes, tracks the heap's peak size and records every
    (time, number) the heap pops."""

    def __init__(self) -> None:
        super().__init__()
        self.pushes, self.peak, self.popped = 0, 0, []

    def schedule(self, time, fn) -> None:
        super().schedule(time, fn)
        self.pushes += 1
        self.peak = max(self.peak, len(self._heap))

    def run(self) -> None:
        while self._heap:
            time, order, fn = heapq.heappop(self._heap)
            self.popped.append((time, order))
            self.now = time
            fn()


class ZeroJitter(random.Random):
    """Seeded as usual, but every jitter draw is 0: emissions sit on the grid."""

    def random(self) -> float:
        return 0.0


def pipeline_calls(monkeypatch) -> list[tuple[str, bytes]]:
    """Record in call order every datagram classified (one per emission) and
    decapsulated (one per protected service end)."""
    calls = []
    real_classify, real_inbound = classifier.classify_and_remark, engine.inbound

    def classify(table, datagram):
        calls.append(("classify", datagram))
        return real_classify(table, datagram)

    def inbound(sadb, datagram):
        calls.append(("inbound", datagram))
        return real_inbound(sadb, datagram)

    monkeypatch.setattr(classifier, "classify_and_remark", classify)
    monkeypatch.setattr(engine, "inbound", inbound)
    return calls


def matches_reference(config, monkeypatch, rng_class=random.Random):
    """simulate == reference_run, record for record and in the order it
    drives the pipeline; returns run_simulation's fold of that record and
    the reference's scheduler."""
    calls = pipeline_calls(monkeypatch)
    monkeypatch.setattr(netsim, "random", type("Rng", (), {"Random": rng_class}))
    record = netsim.simulate(config)
    merged = list(calls)
    calls.clear()
    scheduler = RecordingScheduler()
    assert record == reference_run(config, scheduler, rng_class)
    assert merged == calls
    with monkeypatch.context() as patch:
        patch.setattr(netsim, "simulate", lambda _: record)
        return run_simulation(config), scheduler


# The class maps random_scenario draws, under rules that mark voice 46 and
# TCP 10: voice over TCP, no map (one class), one class above a gap, an
# explicit class 0 (every DSCP in class 0), and TCP over voice.
SCENARIO_CLASS_MAPS = ({46: 2, 10: 1}, {}, {46: 5}, {0: 0}, {10: 3, 46: 1})
SCENARIO_SEEDS = range(12)


def random_scenario(seed: int) -> ExperimentConfig:
    """A congested link of a drawn class map and queue limit (often 1),
    staggered sources, TCP/UDP/portless protocols, plain and protected flows,
    some sharing an SA across classes.

    SA 0x21 takes the TCP and UDP flows to ports 80..5060 (classes 0, 1 and
    2), the tunnel SA 0x22 the other TCP flows, the ESP SA 0x23 every
    protocol-47 flow, whose datagrams show no ports, and the rest run in clear."""
    rng = random.Random(seed)
    sas = [null_sa_spec(0x21, (80, 5060)), SecurityAssociation(
        spi=0x22, variant=rng.choice(list(ProtocolVariant)), mode=SaMode.TUNNEL,
        cipher=CipherAlg.AES_128_CBC, cipher_key=bytes(16), mac=MacAlg.HMAC_MD5_96,
        mac_key=bytes(16), selector=Selector(protocol=IPPROTO_TCP),
        tunnel_src=addr_to_int("192.0.2.1"), tunnel_dst=addr_to_int("192.0.2.2"), iv_seed=seed),
        replace(null_sa_spec(0x23, None, ProtocolVariant.ESP), selector=Selector(protocol=47))]
    sources = []
    for i in range(rng.randint(2, 5)):
        start = rng.choice((0.0, rng.uniform(0, 1)))
        stop = rng.choice((None, start + rng.uniform(0.5, 2)))
        port = rng.choice((5060, 9000, 80))
        protocol = rng.choice((IPPROTO_UDP, IPPROTO_TCP, 47))
        spi = (0x23 if protocol == 47 else 0x21 if port != 9000
               else 0x22 if protocol == IPPROTO_TCP else None)
        sources.append(flow(f"f{i}", port, rng.uniform(20, 150), rng.randint(16, 1200),
                            spi=spi, protocol=protocol, start=start, stop=stop))
    rules = RuleTable(rules=(
        ClassifierRule(selector=Selector(dst_ports=(5060, 5060)), dscp=46),
        ClassifierRule(selector=Selector(protocol=IPPROTO_TCP), dscp=10)))
    link = LinkConfig(capacity_bps=rng.uniform(2e5, 1.5e6),
                      queue_limit=rng.choice((1, rng.randint(2, 12))),
                      class_map=dict(rng.choice(SCENARIO_CLASS_MAPS)))
    return simple_config(sources, link=link, sas=sas, rules=rules, duration=3.0, seed=seed)


class TestAgainstEventDrivenReference:
    """simulate walks the sorted emissions and the link's one pending
    completion; a heap of every emission and completion must pop the same
    events in the same order, which shows as the same record, entry for
    entry, and the same sequence of classify and decap calls."""

    def test_congested_staggered_sources(self, monkeypatch):
        sources = [flow("a", 5060, 130, 900), flow("b", 9000, 170, 600, start=0.5),
                   flow("c", 7000, 90, 1200, stop=3.0)]
        stats, scheduler = matches_reference(simple_config(
            sources, link=LinkConfig(capacity_bps=1_000_000, queue_limit=4), duration=5.0),
            monkeypatch)
        offered = sum(s.offered_packets for s in stats)
        delivered = sum(s.delivered_packets for s in stats)
        assert sum(s.dropped_packets for s in stats) > 0  # the link is congested
        # all emissions go on the heap up front; the link adds at most one completion
        assert scheduler.peak <= offered + 1
        assert scheduler.pushes == len(scheduler.popped) == offered + delivered
        assert all(a < b for a, b in zip(scheduler.popped, scheduler.popped[1:]))
        # every emission number (flow-major) pops once; completions come after
        assert sorted(order for _, order in scheduler.popped)[:offered] == list(range(offered))

    @pytest.mark.parametrize("variant", list(ProtocolVariant))
    @pytest.mark.parametrize("seed", [3, 11])
    def test_mixed_traffic_fixture(self, variant, seed, monkeypatch):
        """TCP, protocol 47, plaintext flows, start/stop windows, Q-ESP
        transport and a tunnel SA, and two flows on one SA in two classes."""
        cfg = load_config(str(FIXTURES / "mixed_priority.json"))
        stats, _ = matches_reference(replace(cfg.with_variant(variant), seed=seed), monkeypatch)
        assert sum(s.dropped_packets for s in stats) > 0

    def test_service_times_that_overflow_to_inf(self, monkeypatch):
        """A finite capacity so small that every service time overflows to inf:
        the first completion never comes before an emission, yet the link still
        drains at the end, so no packet is lost from the count."""
        cfg = load_config(str(resources.files("qesp_lab").joinpath("data/priority.json")))
        stats, _ = matches_reference(replace(cfg, link=replace(cfg.link, capacity_bps=1e-320)),
                                     monkeypatch)
        assert [s.delivered_packets for s in stats] == [21, 20]
        assert all(s.delivered_packets + s.dropped_packets == s.offered_packets for s in stats)

    def test_shared_sa_reordered_into_replay_drops(self, monkeypatch):
        """Two flows on one SA in different classes: the low class waits so
        long that its sequence numbers fall out of the replay window."""
        rules = RuleTable(rules=(ClassifierRule(
            selector=Selector(dst_ports=(5060, 5060)), dscp=46),))
        sas = [null_sa_spec(0x31, None)]
        sources = [flow("high", 5060, 110, 1000, spi=0x31), flow("low", 9000, 60, 1000, spi=0x31)]
        cfg = simple_config(sources, sas=sas, rules=rules, duration=3.0, link=LinkConfig(
            capacity_bps=1_000_000, queue_limit=100, class_map={46: 1}))
        stats, _ = matches_reference(cfg, monkeypatch)
        assert stats[1].drop_reasons.get("replay_rejected", 0) > 0

    @pytest.mark.parametrize("seed", SCENARIO_SEEDS)
    def test_random_scenarios(self, seed, monkeypatch):
        matches_reference(random_scenario(seed), monkeypatch)

    def test_random_scenarios_draw_every_link(self):
        """The seeds above cover every class map, and queue limit 1 on a link
        with more than one class that tail-drops."""
        links = {seed: random_scenario(seed).link for seed in SCENARIO_SEEDS}
        drawn = [link.class_map for link in links.values()]
        assert all(class_map in drawn for class_map in SCENARIO_CLASS_MAPS)
        assert any(link.queue_limit == 1 and len(set(link.class_map.values())) > 1
                   and sum(s.drop_reasons.get("queue_full", 0)
                           for s in run_simulation(random_scenario(seed))) > 0
                   for seed, link in links.items())

    def test_exact_ties_put_the_emission_first(self, monkeypatch):
        """Zero jitter: plaintext UDP, 1000 B datagrams, 128 pps each on 1.024
        Mbps, so service time is 1/128 s and every completion after the first
        lands exactly on an emission.  The emissions go first, so at t = 1/128
        both arrivals find the one queue slot taken (A1 and B1 drop); from
        then on A_k takes the slot just freed and B_k drops.  Completion
        first would serve B0 at once and deliver every A.
        """
        sources = [flow("A", 5060, 128, 972), flow("B", 9000, 128, 972)]
        cfg = simple_config(sources, duration=1.0,
                            link=LinkConfig(capacity_bps=1_024_000, queue_limit=1))
        a, b = matches_reference(cfg, monkeypatch, ZeroJitter)[0]
        assert (a.offered_packets, a.delivered_packets, a.drop_reasons) == (128, 127,
                                                                            {"queue_full": 1})
        assert a.mean_latency_s == 1 / 128  # exact: every A waits one service
        assert (b.offered_packets, b.delivered_packets, b.drop_reasons) == (128, 1,
                                                                            {"queue_full": 127})
        assert b.mean_latency_s == 2 / 128  # B0 waits behind A0

    def test_equal_times_across_flows_pop_flow_major(self, monkeypatch):
        """Zero jitter, rates 128, 64 and 32 pps: A_2k, B_k and C_k/2 share a
        time, and flow order (not packet number) decides which takes the one
        queue slot: A always does, after B0 took it at t = 0."""
        sources = [flow("A", 5060, 128, 972), flow("B", 9000, 64, 972),
                   flow("C", 7000, 32, 972)]
        cfg = simple_config(sources, duration=1.0,
                            link=LinkConfig(capacity_bps=1_024_000, queue_limit=1))
        a, b, c = matches_reference(cfg, monkeypatch, ZeroJitter)[0]
        assert (a.delivered_packets, b.delivered_packets, c.delivered_packets) == (127, 1, 0)


class TestPayloads:
    def test_one_payload_per_flow_drawn_after_the_jitter(self, monkeypatch):
        """The rng draws every flow's jitter, then one payload per flow, so a
        plaintext protocol-253 source shows the classifier one Q-ESP clear
        header (its first 16 payload bytes) on every packet."""
        sources = [flow("x", 0, 50, 40, protocol=IPPROTO_QESP),
                   flow("y", 0, 30, 24, protocol=IPPROTO_QESP)]
        calls = pipeline_calls(monkeypatch)
        run_simulation(simple_config(sources, duration=2.0, seed=5))
        rng = random.Random(5)
        for _ in range(100 + 60):
            rng.random()
        expected = {40: rng.randbytes(40), 24: rng.randbytes(24)}
        seen: dict[int, set[bytes]] = {}
        for _, datagram in calls:
            seen.setdefault(len(datagram) - 20, set()).add(datagram[20:])
        assert seen == {size: {payload} for size, payload in expected.items()}

    def test_datagrams_differ_by_identification(self, monkeypatch):
        calls = pipeline_calls(monkeypatch)
        run_simulation(simple_config([flow("f", 5060, 50, 100)], duration=1.0))
        assert [int.from_bytes(d[4:6], "big") for _, d in calls] == list(range(1, 51))
        assert len({d[20:] for _, d in calls}) == 1


def test_stop_before_start_offers_nothing():
    stats = run_simulation(simple_config([flow("late", 5060, 50, 100, start=3.0, stop=1.0),
                                          flow("f", 9000, 50, 100)], duration=4.0))
    assert (stats[0].offered_packets, stats[0].dropped_packets) == (0, 0)
    assert stats[1].offered_packets == 200


POLICY_PORTS = (80, 443, 5060, 9000)
POLICY_SELECTORS = st.builds(
    Selector,
    src_net=st.sampled_from((Ipv4Net(0, 0), Ipv4Net(addr_to_int("10.0.1.0"), 24))),
    protocol=st.sampled_from((None, IPPROTO_UDP, IPPROTO_TCP, 47)),
    dst_ports=st.one_of(st.none(), st.tuples(st.sampled_from(POLICY_PORTS[:2]),
                                             st.sampled_from(POLICY_PORTS[2:]))))
POLICY_SAS = st.lists(st.tuples(POLICY_SELECTORS, st.sampled_from(list(ProtocolVariant)),
                                st.sampled_from(list(SaMode)),
                                st.sampled_from((CipherAlg.NULL, CipherAlg.AES_128_CBC))),
                      max_size=4)
# (source address, protocol, dst_port, declared protection: "picked" or an SA index or None)
POLICY_SOURCES = st.lists(st.tuples(st.sampled_from(("10.0.0.1", "10.0.1.1")),
                                    st.sampled_from((IPPROTO_UDP, IPPROTO_TCP, 47)),
                                    st.sampled_from(POLICY_PORTS),
                                    st.one_of(st.just("picked"), st.none(), st.integers(0, 3))),
                          min_size=1, max_size=4)


class TestOnePolicy:
    """The SA selectors are the one security policy: ExperimentConfig accepts
    a config exactly when every source's protection names the SA that the
    first-match walk picks for the five-tuple its datagrams show, as encap
    picks it (ports None for protocol 47), and run_simulation protects
    exactly the flows that walk picks an SA for, under that SA."""

    @given(sa_specs=POLICY_SAS, source_specs=POLICY_SOURCES)
    @settings(max_examples=60, deadline=None)
    def test_protection_agrees_with_the_selectors(self, sa_specs, source_specs):
        sas = [SecurityAssociation(
            spi=0x40 + i, variant=variant, mode=mode, cipher=cipher,
            cipher_key=bytes(cipher.key_len), mac=MacAlg.HMAC_SHA1_96, mac_key=bytes(20),
            selector=selector, tunnel_src=1, tunnel_dst=2, iv_seed=i)
            for i, (selector, variant, mode, cipher) in enumerate(sa_specs)]
        sadb = Sadb()
        for sa in sas:
            sadb.add_sa(replace(sa))
        sources, picked = [], {}
        for i, (src, protocol, dst_port, declared) in enumerate(source_specs):
            ft = FiveTuple(addr_to_int(src), addr_to_int("10.0.9.9"), protocol, 4000, dst_port)
            shown = engine.five_tuple_of(netsim.build_datagram(ft, bytes(100)))
            picked[f"f{i}"] = sa = sadb.lookup_outbound(shown)
            spi = None if sa is None else sa.spi
            if declared == "picked":
                declared = spi
            elif declared is not None:
                declared += 0x40
            sources.append(TrafficSource(flow_id=f"f{i}", five_tuple=ft, rate_pps=20,
                                         payload_size=100, protection_spi=declared))
        disagreeing = [src for src in sources if src.protection_spi != (
            None if picked[src.flow_id] is None else picked[src.flow_id].spi)]
        if disagreeing:
            with pytest.raises(ConfigError, match=f"^source {disagreeing[0].flow_id}: "
                                                  "protection .*, but the SA selectors pick"):
                simple_config(sources, sas=sas, duration=0.5)
            return
        cfg = simple_config(sources, sas=sas, duration=0.5)
        stats = run_simulation(cfg)
        for src, flow_stats in zip(sources, stats):
            plain = netsim.build_datagram(src.five_tuple, bytes(src.payload_size))
            sa = picked[src.flow_id]
            sent = plain if sa is None else engine.outbound(replace(sa), plain)
            assert flow_stats.delivered_packets == flow_stats.offered_packets == 10
            assert flow_stats.delivered_wire_bytes == 10 * len(sent)
        # the run reads the selectors, never the declaration
        for src in cfg.sources:
            object.__setattr__(src, "protection_spi", None)
        assert run_simulation(cfg) == stats
