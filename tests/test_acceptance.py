"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion (a pytest FAILED line marks the criterion that missed).
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import replace

import pytest

import oracle
from conftest import (
    ALL_CIPHERS,
    ALL_MACS,
    ALL_MODES,
    ALL_VARIANTS,
    make_datagram,
    make_sa,
    sadb_with,
)
from test_classifier import random_plain_packet, random_rule
from test_sadb import ReplayOracle

from qesp_lab import classifier, cli, config, crypto, engine, netsim
from qesp_lab.classifier import ClassifierRule, RuleTable
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.errors import AuthFailure, InvalidHeader, UnknownSpi
from qesp_lab.sadb import ProtocolVariant, Selector

# Reference goodput for a 100 pps source, Kbps, by payload size: (esp, qesp).
REFERENCE_GOODPUT_KBPS = {
    64: (51.243, 51.191),
    128: (102.366, 102.366),
    256: (204.715, 204.834),
    512: (409.600, 409.463),
    1024: (819.268, 818.654),
    2048: (1638.127, 1637.444),
    4096: (3275.435, 3275.162),
}

ALL_CONFIGS = list(itertools.product(ALL_VARIANTS, ALL_MODES, ALL_CIPHERS, ALL_MACS))


def _passed(num: int, name: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def test_01_throughput_table_reproduction(tmp_path):
    """Goodput within 0.5% of every reference cell; |qesp-esp| <= 0.3%."""
    out = tmp_path / "throughput.csv"
    sizes = ",".join(str(s) for s in REFERENCE_GOODPUT_KBPS)
    rc = cli.main(["throughput", "--sizes", sizes, "--pps", "100",
                   "--variant", "both", "--out", str(out)])
    assert rc == 0
    measured: dict[tuple[int, str], float] = {}
    for line in out.read_text().splitlines()[1:]:
        size, variant, goodput, _, _ = line.split(",")
        measured[(int(size), variant)] = float(goodput)

    for size, (esp_ref, qesp_ref) in REFERENCE_GOODPUT_KBPS.items():
        esp_got = measured[(size, "esp")]
        qesp_got = measured[(size, "qesp")]
        assert abs(esp_got - esp_ref) / esp_ref <= 0.005, (size, esp_got, esp_ref)
        assert abs(qesp_got - qesp_ref) / qesp_ref <= 0.005, (size, qesp_got, qesp_ref)
        assert abs(qesp_got - esp_got) / esp_got <= 0.003, (size, qesp_got, esp_got)
    _passed(1, "throughput table reproduction")


def _random_datagrams(count: int, seed: int) -> list[bytes]:
    rng = random.Random(seed)
    datagrams = []
    for _ in range(count):
        datagrams.append(make_datagram(
            protocol=rng.choice((17, 17, 6, 1)),
            payload_len=rng.randint(0, 600),
            src_port=rng.randint(0, 65535), dst_port=rng.randint(0, 65535),
            tos_dscp=rng.randrange(256), ident=rng.randrange(65536),
            ttl=rng.randint(1, 255), rng=rng))
    return datagrams


def test_02_roundtrip_suite():
    """inbound(outbound(p)) == p: 1000 datagrams x 36 configurations."""
    datagrams = _random_datagrams(1000, seed=0x0BEEF)
    failures = 0
    for variant, mode, cipher, mac in ALL_CONFIGS:
        sa = make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac,
                     extended_auth=variant is ProtocolVariant.QESP)
        db = sadb_with(sa)
        for datagram in datagrams:
            if engine.inbound(db, engine.outbound(sa, datagram)) != datagram:
                failures += 1
    assert failures == 0
    _passed(2, "roundtrip suite (36 configurations x 1000 datagrams)")


def test_03_tamper_suite():
    """>=100 single-bit flips per MAC'd configuration all fail auth;
    DSCP remarking under extended coverage is tolerated.

    Every flip is rejected.  A few covered bytes are structurally validated
    before any key can be selected, so they reject with a parse/addressing
    error instead of AuthFailure: the 4 SPI bytes (UnknownSpi: the flip
    addresses a different SA) and, for Q-ESP, the clear protocol byte (any
    flip of 17 names a portless protocol under the nonzero ports 4000/5060)
    and the flags/reserved bytes (InvalidHeader).  All other positions must
    report AuthFailure, and at least 100 AuthFailure samples are collected
    per configuration.
    """
    rng = random.Random(0x7A3)
    datagram = make_datagram(payload_len=200)

    for variant, mode, cipher, mac in ALL_CONFIGS:
        if mac is MacAlg.NULL:
            continue
        sa = make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac,
                     extended_auth=variant is ProtocolVariant.QESP)
        db = sadb_with(sa)
        out = engine.outbound(sa, datagram)
        covered_end = len(out) - sa.mac.icv_len  # body under the ICV
        spi_bytes = range(20, 24)
        structural_bytes = range(32, 36) if variant is ProtocolVariant.QESP else ()
        auth_failures = 0
        while auth_failures < 100:
            tampered = bytearray(out)
            pos = rng.randrange(20, covered_end)
            bit = rng.randrange(8)
            tampered[pos] ^= 1 << bit
            with pytest.raises((AuthFailure, UnknownSpi, InvalidHeader)) as caught:
                engine.inbound(db, bytes(tampered))
            if pos in spi_bytes:
                assert caught.type is UnknownSpi
            elif pos not in structural_bytes:
                assert caught.type is AuthFailure, (pos, bit)
                auth_failures += 1
            elif pos == 32:
                assert caught.type is InvalidHeader, (pos, bit)
        engine.inbound(db, out)  # the intact packet still decapsulates

    # remarking tolerance: flip the DSCP bits arbitrarily in transit
    for cipher, mac in itertools.product(ALL_CIPHERS, ALL_MACS):
        for mode in ALL_MODES:
            sa = make_sa(mode=mode, cipher=cipher, mac=mac, extended_auth=True)
            out = engine.outbound(sa, datagram)
            header, body = oracle.parse(out)
            remarked = oracle.encode(header.with_dscp(rng.randrange(64)), body)
            engine.inbound(sadb_with(make_sa(
                mode=mode, cipher=cipher, mac=mac, extended_auth=True,
            )), remarked)
    _passed(3, "tamper suite (bit flips fail, DSCP remarking tolerated)")


def test_04_five_tuple_exposure():
    """classify(qesp(p)) == classify(p) over 1000 random pairs; every ESP
    packet hits the default class of a port-constrained table."""
    rng = random.Random(0x5A5A)
    for _ in range(1000):
        table = RuleTable(rules=tuple(random_rule(rng) for _ in range(3)),
                          default_dscp=rng.randint(0, 63))
        packet = random_plain_packet(rng)
        sa = make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        assert classifier.classify_and_remark(table, packet)[0] == \
            classifier.classify_and_remark(table, engine.outbound(sa, packet))[0]

    esp_sa_template = dict(variant=ProtocolVariant.ESP, spi=0x202)
    for _ in range(1000):
        rules = []
        for _ in range(3):
            rule = random_rule(rng)
            ports = rule.selector.dst_ports or (0, 65535)
            rules.append(ClassifierRule(
                selector=Selector(src_net=rule.selector.src_net,
                                  dst_net=rule.selector.dst_net,
                                  protocol=rng.choice((None, 6, 17)),
                                  src_ports=rule.selector.src_ports,
                                  dst_ports=ports),
                dscp=rule.dscp))
        table = RuleTable(rules=tuple(rules), default_dscp=rng.randint(0, 63))
        packet = random_plain_packet(rng)
        sa = make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL, **esp_sa_template)
        sent = engine.outbound(sa, packet)
        assert classifier.classify_and_remark(table, sent)[0] == table.default_dscp
    _passed(4, "five-tuple exposure and ESP degradation")


def test_05_priority_control_over_20_seeds():
    """Bundled scenario: high-priority flow >=95% delivery under Q-ESP; under
    ESP both flows within 10% of equal share.  Stable for seeds 1-20."""
    bundled = config.load_config(cli._bundled_priority_config())
    for seed in range(1, 21):
        cfg = replace(bundled, seed=seed)
        qesp_stats = {s.flow_id: s for s in netsim.run_simulation(
            cfg.with_variant(ProtocolVariant.QESP))}
        voice = qesp_stats["voice"]
        delivery = voice.delivered_packets / voice.offered_packets
        assert delivery >= 0.95, f"seed {seed}: voice delivery {delivery:.3f}"

        esp_stats = netsim.run_simulation(cfg.with_variant(ProtocolVariant.ESP))
        equal_share = sum(s.delivered_packets for s in esp_stats) / len(esp_stats)
        for stats in esp_stats:
            deviation = abs(stats.delivered_packets - equal_share) / equal_share
            assert deviation <= 0.10, f"seed {seed}: {stats.flow_id} {deviation:.3f}"
    _passed(5, "priority control (Q-ESP keeps priority, ESP loses it)")


def test_06_anti_replay_oracle_equivalence():
    """10,000 random sequence numbers: window decisions == set-based oracle."""
    rng = random.Random(0xCAFE)
    sa = make_sa()
    oracle = ReplayOracle()
    for _ in range(10_000):
        seq = rng.randint(1, 200)
        assert sa.replay_check_and_update(seq) == oracle.check_and_update(seq)
    _passed(6, "anti-replay oracle equivalence (10k decisions)")


def test_07_padding_oracle():
    """compute_pad_len equals brute-force minimum: sizes 0-512, blocks 4/8/16."""
    for block in (4, 8, 16):
        for trailer in (1, 2):
            for payload_len in range(513):
                brute = next(p for p in range(block)
                             if (payload_len + p + trailer) % block == 0)
                assert crypto.compute_pad_len(payload_len, trailer, block) == brute
    _passed(7, "padding minimality vs brute force")


def test_08_overhead_consistency():
    """Q-ESP puts 7 more bytes on the wire than ESP before padding, measured on
    outbound's packets: over effective_block consecutive payload lengths the
    padding differences sum to zero, for every cipher, MAC and mode."""
    rng = random.Random(0x0E0)
    for cipher, mac, mode in itertools.product(ALL_CIPHERS, ALL_MACS, ALL_MODES):
        qesp, esp = (make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac)
                     for variant in ALL_VARIANTS)
        start, block = rng.randint(0, 900), cipher.effective_block
        datagrams = [make_datagram(payload_len=n, rng=rng) for n in range(start, start + block)]
        delta = sum(len(engine.outbound(qesp, d)) - len(engine.outbound(esp, d))
                    for d in datagrams)
        assert delta == 7 * block, (cipher, mac, mode)
    _passed(8, "Q-ESP costs ESP's overhead + 7 bytes on the wire")


def test_09_crypto_throughput_ordering():
    """NULL > AES-128-CBC > 3DES-CBC encapsulation throughput at sizes >= 256."""
    for size in (256, 1024, 4096):
        ns = {c: cli.bench_encapsulation(ProtocolVariant.QESP, c, MacAlg.NULL,
                                         size, iters=150)
              for c in (CipherAlg.NULL, CipherAlg.AES_128_CBC, CipherAlg.TRIPLE_DES_CBC)}
        assert ns[CipherAlg.NULL] < ns[CipherAlg.AES_128_CBC] < ns[CipherAlg.TRIPLE_DES_CBC], (
            size, {c.value: round(v) for c, v in ns.items()})
    _passed(9, "crypto throughput ordering (NULL > AES > 3DES)")


def test_10_voice_latency_percentiles():
    """Bundled A/B run, seed 1, from simulate's record: Q-ESP voice loses no
    packet, and its p99 latency is below ESP voice's median."""
    cfg = replace(config.load_config(cli._bundled_priority_config()), seed=1)
    voice = [src.flow_id for src in cfg.sources].index("voice")
    percentiles = {}
    for variant in ALL_VARIANTS:
        entries = [e for e in netsim.simulate(cfg.with_variant(variant)) if e[0] == voice]
        if variant is ProtocolVariant.QESP:
            assert len(entries) == 800 and all(e[5] is None for e in entries)
        latencies = [done - emitted for _, _, emitted, done, _, verdict in entries
                     if verdict is None]
        percentiles[variant] = statistics.quantiles(latencies, n=100, method="inclusive")
    qesp_p99 = percentiles[ProtocolVariant.QESP][98]
    esp_p50 = percentiles[ProtocolVariant.ESP][49]
    assert qesp_p99 < esp_p50, (qesp_p99, esp_p50)  # 22.9 ms < 176.4 ms at seed 1
    _passed(10, "Q-ESP voice p99 latency below ESP voice median")
