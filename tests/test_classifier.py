"""Multi-field classifier: extraction, rule matching, remarking."""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

import oracle
from conftest import make_datagram, make_sa
from qesp_lab import classifier, engine
from qesp_lab.classifier import ClassifierRule, RuleTable
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.errors import ConfigError, MalformedPacket
from qesp_lab.sadb import Ipv4Net, ProtocolVariant, Selector

EF = 46

PORT_5060_RULE = ClassifierRule(
    selector=Selector(protocol=17, dst_ports=(5060, 5060)), dscp=EF)
VOICE_TABLE = RuleTable(rules=(PORT_5060_RULE,), default_dscp=0)


def qesp_of(datagram: bytes, **kwargs) -> bytes:
    return engine.outbound(make_sa(**kwargs), datagram)


def esp_of(datagram: bytes) -> bytes:
    return engine.outbound(make_sa(variant=ProtocolVariant.ESP, spi=0x202), datagram)


class TestExtraction:
    def test_plain_udp(self, udp_datagram):
        fields = classifier.extract_fields(udp_datagram)
        assert (fields.protocol, fields.src_port, fields.dst_port) == (17, 4000, 5060)

    def test_qesp_same_extraction_as_plain(self, udp_datagram):
        plain = classifier.extract_fields(udp_datagram)
        encapsulated = classifier.extract_fields(qesp_of(udp_datagram))
        assert (plain.protocol, plain.src_port, plain.dst_port) == \
               (encapsulated.protocol, encapsulated.src_port, encapsulated.dst_port)

    def test_esp_hides_ports(self, udp_datagram):
        fields = classifier.extract_fields(esp_of(udp_datagram))
        assert fields.protocol == 50
        assert fields.src_port is None and fields.dst_port is None

    def test_other_protocol_has_no_ports(self):
        fields = classifier.extract_fields(make_datagram(protocol=1))
        assert fields.protocol == 1
        assert fields.src_port is None

    def test_qesp_portless_inner_has_no_ports(self):
        """The clear 0/0 copies of a portless protocol read as no ports, as
        plain does, so a dst_ports (0, 0) rule marks neither copy."""
        plain = make_datagram(protocol=1)
        fields = classifier.extract_fields(qesp_of(plain))
        assert fields.protocol == 1
        assert (fields.src_port, fields.dst_port) == (None, None)
        table = RuleTable(rules=(ClassifierRule(Selector(dst_ports=(0, 0)), EF),))
        assert (classifier.classify_and_remark(table, plain)[0]
                == classifier.classify_and_remark(table, qesp_of(plain))[0] == 0)

    def test_malformed_rejected(self):
        with pytest.raises(MalformedPacket):
            classifier.extract_fields(b"\x45\x00junk")


class TestClassification:
    def test_qesp_keeps_voice_class(self, udp_datagram):
        assert classifier.classify_and_remark(VOICE_TABLE, udp_datagram)[0] == EF
        assert classifier.classify_and_remark(VOICE_TABLE, qesp_of(udp_datagram))[0] == EF

    def test_esp_falls_to_default(self, udp_datagram):
        assert classifier.classify_and_remark(VOICE_TABLE, esp_of(udp_datagram))[0] == 0

    def test_empty_table_is_default(self, udp_datagram):
        assert classifier.classify_and_remark(RuleTable(default_dscp=7), udp_datagram)[0] == 7

    def test_first_match_wins(self, udp_datagram):
        table = RuleTable(rules=(
            ClassifierRule(selector=Selector(protocol=17), dscp=10),
            PORT_5060_RULE), default_dscp=0)
        assert classifier.classify_and_remark(table, udp_datagram)[0] == 10

    def test_rule_on_esp_protocol_number_still_matches(self, udp_datagram):
        table = RuleTable(rules=(
            ClassifierRule(selector=Selector(protocol=50), dscp=20),), default_dscp=0)
        assert classifier.classify_and_remark(table, esp_of(udp_datagram))[0] == 20

    def test_port_rule_never_matches_unavailable_ports(self, udp_datagram):
        table = RuleTable(rules=(
            ClassifierRule(selector=Selector(src_ports=(0, 65535)), dscp=30),),
            default_dscp=0)
        # the rule is maximally permissive, but ESP ports are unavailable
        assert classifier.classify_and_remark(table, esp_of(udp_datagram))[0] == 0
        assert classifier.classify_and_remark(table, udp_datagram)[0] == 30


    @pytest.mark.parametrize("bad", [-1, 64, 1.5, True, "0"])
    def test_out_of_range_default_rejected(self, bad):
        """Checked once when the table is built, as a rule's DSCP is, instead
        of per packet while remarking: 1.5 once aborted a run with a bare
        TypeError, True marked DSCP 1 and "0" raised a bare TypeError."""
        message = f"^default_dscp must be an int in 0..63, got {re.escape(repr(bad))}$"
        with pytest.raises(ConfigError, match=message):
            RuleTable(default_dscp=bad)
        with pytest.raises(ConfigError, match=message):
            replace(VOICE_TABLE, default_dscp=bad)
        with pytest.raises(ConfigError, match=message.replace("default_dscp", "dscp")):
            replace(PORT_5060_RULE, dscp=bad)


class TestRemarking:
    def test_remark_sets_dscp_and_checksum(self, udp_datagram):
        dscp, marked = classifier.classify_and_remark(VOICE_TABLE, udp_datagram)
        assert dscp == EF
        header, _ = oracle.parse(marked)  # checksum verified by parse
        assert header.dscp == EF

    def test_remark_survives_extended_auth(self, udp_datagram):
        """Remarking at the edge never breaks Q-ESP authentication."""
        from conftest import sadb_with
        sa = make_sa(extended_auth=True)
        out = engine.outbound(sa, udp_datagram)
        _, marked = classifier.classify_and_remark(VOICE_TABLE, out)
        engine.inbound(sadb_with(sa), marked)  # must not raise


def random_rule(rng: random.Random) -> ClassifierRule:
    def net():
        if rng.random() < 0.5:
            return Ipv4Net(0, 0)
        return Ipv4Net(rng.getrandbits(32), rng.choice((8, 16, 24, 32)))

    def ports():
        if rng.random() < 0.5:
            return None
        lo = rng.randint(0, 65535)
        return lo, min(65535, lo + rng.randint(0, 2000))

    return ClassifierRule(
        selector=Selector(src_net=net(), dst_net=net(),
                          protocol=rng.choice((None, 6, 17)),
                          src_ports=ports(), dst_ports=ports()),
        dscp=rng.randint(0, 63))


def random_plain_packet(rng: random.Random) -> bytes:
    return make_datagram(
        protocol=rng.choice((6, 17)),
        payload_len=rng.randint(0, 200),
        src=f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
        dst=f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
        src_port=rng.randint(0, 65535), dst_port=rng.randint(0, 65535),
        rng=rng)


class TestClassifierEquivalence:
    def test_transport_qesp_equals_plain_over_random_tables(self):
        """Five-tuple rules cannot tell Q-ESP traffic from plaintext."""
        rng = random.Random(77)
        for i in range(300):
            table = RuleTable(rules=tuple(random_rule(rng) for _ in range(3)),
                              default_dscp=rng.randint(0, 63))
            packet = random_plain_packet(rng)
            encapsulated = qesp_of(packet, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
            assert classifier.classify_and_remark(table, packet)[0] == \
                classifier.classify_and_remark(table, encapsulated)[0], f"pair {i}"

    def test_port_constrained_tables_degrade_all_esp(self):
        rng = random.Random(78)
        for _ in range(100):
            rules = []
            for _ in range(3):
                rule = random_rule(rng)
                if rule.selector.src_ports is None and rule.selector.dst_ports is None:
                    rule = ClassifierRule(
                        selector=Selector(src_net=rule.selector.src_net,
                                          dst_net=rule.selector.dst_net,
                                          protocol=rule.selector.protocol,
                                          src_ports=(0, 65535),
                                          dst_ports=rule.selector.dst_ports),
                        dscp=rule.dscp)
                rules.append(rule)
            table = RuleTable(rules=tuple(rules), default_dscp=rng.randint(0, 63))
            packet = random_plain_packet(rng)
            assert classifier.classify_and_remark(table, esp_of(packet))[0] == table.default_dscp
