"""Per-packet path: the IPv4 validator/packer against the RFC 791 oracle and
other independent references, and one five-tuple truth across engine and
classifier."""

from __future__ import annotations

import ast
import collections
import struct
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import ALL_MODES, ALL_VARIANTS, make_sa, sadb_with
from qesp_lab import classifier, crypto, engine, sadb, wire
from qesp_lab.classifier import MEMO_LIMIT, ClassifierRule, RuleTable
from qesp_lab.config import load_config
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.errors import (
    BadChecksum,
    InvalidHeader,
    MalformedPacket,
    QespLabError,
    Truncated,
    UnsupportedOptions,
)
from qesp_lab.sadb import FiveTuple, Ipv4Net, ProtocolVariant, SaMode, Selector

SRC = wire.addr_to_int("10.0.0.1")
DST = wire.addr_to_int("10.0.9.9")

u8, u16, u32 = st.integers(0, 0xFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
protocols = st.sampled_from([wire.IPPROTO_TCP, wire.IPPROTO_UDP, 1, wire.IPPROTO_QESP]) | u8


def oracle_header(tos, ident, flags_frag, ttl, protocol, src, dst) -> oracle.Header:
    """The oracle's view of pack_ipv4's header arguments."""
    return oracle.Header(src=src, dst=dst, protocol=protocol, tos=tos, identification=ident,
                         flags=flags_frag >> 13, fragment_offset=flags_frag & 0x1FFF, ttl=ttl)


# pack_ipv4's header arguments: tos, ident, flags_frag, ttl, protocol, src, dst
header_fields = st.tuples(u8, u16, u16, u8, protocols, u32, u32)
# Its words sum to 0xFFFF, so the checksum is 0x0000 and 0xFFFF (the other
# ones-complement zero) must not verify in its place.
ZERO_SUM = ((0, 0xBAEB, 0, 0, 0, 0, 0), b"")


@st.composite
def packer_inputs(draw, max_payload: int = 64) -> tuple[tuple[int, ...], bytes]:
    """(header arguments, payload); half of them have checksum 0x0000."""
    fields, payload = draw(header_fields), draw(st.binary(max_size=max_payload))
    if draw(st.booleans()):
        # With identification 0 the checksum c makes the words sum to 0xFFFF - c,
        # so identification c makes them sum to 0xFFFF.
        with_ident_0 = oracle.encode(oracle_header(fields[0], 0, *fields[2:]), payload)
        fields = (fields[0], oracle.checksum(with_ident_0), *fields[2:])
    return fields, payload


def datagrams() -> st.SearchStrategy[bytes]:
    """Valid datagrams, built by the oracle."""
    return packer_inputs(max_payload=2000).map(
        lambda inputs: oracle.encode(oracle_header(*inputs[0]), inputs[1]))


port_ranges = st.none() | st.tuples(u16, u16).map(lambda p: (min(p), max(p)))
nets = st.builds(Ipv4Net, u32, st.integers(0, 32))
rules = st.builds(
    ClassifierRule,
    selector=st.builds(Selector, src_net=nets, dst_net=nets,
                       protocol=st.none() | st.sampled_from([1, 6, 17, 50, 253]),
                       src_ports=port_ranges, dst_ports=port_ranges),
    dscp=st.integers(0, 63))
tables = st.builds(RuleTable, rules=st.lists(rules, max_size=4).map(tuple),
                   default_dscp=st.integers(0, 63))


def outcome(fn, *args):
    """fn's result, or the QespLabError subclass it raised."""
    try:
        return fn(*args)
    except QespLabError as exc:
        return type(exc)


# --- independent references ---------------------------------------------------

def reference_in_net(net: Ipv4Net, addr: int) -> bool:
    mask = (0xFFFFFFFF << (32 - net.prefix)) & 0xFFFFFFFF
    return addr & mask == net.addr & mask


# The wire error class for each reason the oracle rejects a datagram.
READ_IPV4_ERRORS = {"short": Truncated, "version": InvalidHeader, "ihl": UnsupportedOptions,
                    "truncated": Truncated, "trailing": InvalidHeader,
                    "checksum": BadChecksum}


def reference_segment_error(protocol: int, segment: bytes) -> type | None:
    """The wire error class for a transport segment a port reader must
    reject, else None: a TCP/UDP segment too short for both ports, or a
    Q-ESP clear header that is short, names SPI 0 (RFC 4303 §2.1), sets a
    flag other than bit 0 (extended auth) or a nonzero reserved field, or
    names an inner protocol other than TCP and UDP with a nonzero port."""
    if protocol in (wire.IPPROTO_TCP, wire.IPPROTO_UDP):
        return Truncated if len(segment) < 4 else None
    if protocol == wire.IPPROTO_QESP:
        if len(segment) < 16:
            return Truncated
        spi, _, sport, dport, inner, flags, reserved = struct.unpack(">IIHHBBH", segment[:16])
        portless = inner not in (wire.IPPROTO_TCP, wire.IPPROTO_UDP)
        if spi == 0 or flags & 0xFE or reserved or portless and (sport or dport):
            return InvalidHeader
    return None


def reference_classify_and_remark(table: RuleTable, packet: bytes) -> tuple[int, bytes]:
    """Parse with the oracle, match field by field, re-encode with_dscp."""
    try:
        header, payload = oracle.parse(packet)
    except oracle.Rejected as exc:
        raise READ_IPV4_ERRORS[exc.reason](str(exc)) from None
    protocol, ports = header.protocol, (None, None)
    error = reference_segment_error(protocol, payload)
    if error is not None:
        raise error(f"protocol {protocol} segment rejected")
    if protocol in (wire.IPPROTO_TCP, wire.IPPROTO_UDP):
        ports = struct.unpack(">HH", payload[:4])
    elif protocol == wire.IPPROTO_QESP:
        *ports, protocol = struct.unpack(">HHB", payload[8:13])
        if protocol not in (wire.IPPROTO_TCP, wire.IPPROTO_UDP):
            ports = (None, None)
    dscp = table.default_dscp
    for rule in table.rules:
        sel = rule.selector
        if (reference_in_net(sel.src_net, header.src)
                and reference_in_net(sel.dst_net, header.dst)
                and sel.protocol in (None, protocol)
                and all(want is None or (port is not None and want[0] <= port <= want[1])
                        for want, port in ((sel.src_ports, ports[0]),
                                           (sel.dst_ports, ports[1])))):
            dscp = rule.dscp
            break
    return dscp, oracle.encode(header.with_dscp(dscp), payload)


# --- differential properties ----------------------------------------------------

class TestAgainstReferences:
    @given(packer_inputs())
    @example(ZERO_SUM)
    @settings(max_examples=300)
    def test_packer_equals_oracle(self, inputs):
        fields, payload = inputs
        assert wire.pack_ipv4(*fields, payload) == oracle.encode(oracle_header(*fields), payload)

    @given(inputs=packer_inputs(), stored=st.none() | st.sampled_from([0x0000, 0xFFFF]) | u16)
    @example(inputs=ZERO_SUM, stored=None)
    @example(inputs=ZERO_SUM, stored=0xFFFF)
    @settings(max_examples=300)
    def test_checksum_word_decides_acceptance(self, inputs, stored):
        """read_ipv4 accepts an oracle-built datagram iff its stored checksum
        word equals the oracle's checksum."""
        packet = bytearray(oracle.encode(oracle_header(*inputs[0]), inputs[1]))
        reference = oracle.checksum(packet)
        if stored is not None:
            struct.pack_into(">H", packet, 10, stored)
        if stored is None or stored == reference:
            assert wire.read_ipv4(bytes(packet))[7] == reference
        else:
            with pytest.raises(BadChecksum):
                wire.read_ipv4(bytes(packet))

    @given(st.one_of(st.binary(max_size=64), datagrams(),
                     st.tuples(datagrams(), st.integers(0, 19), u8).map(
                         lambda t: t[0][:t[1]] + bytes([t[2]]) + t[0][t[1] + 1:])))
    @example(oracle.encode(oracle_header(*ZERO_SUM[0]), b""))
    @example(bytes.fromhex("45000014baeb00000000ffff0000000000000000"))
    @settings(max_examples=300)
    def test_validator_agrees_with_oracle(self, blob):
        """read_ipv4 accepts what the oracle accepts, with the same fields, and
        rejects the rest with the error class of the oracle's reason."""
        fields = outcome(wire.read_ipv4, blob)
        try:
            header, payload = oracle.parse(blob)
        except oracle.Rejected as exc:
            assert fields is READ_IPV4_ERRORS[exc.reason]
        else:
            assert fields == (0x45, header.tos, header.total_length, header.identification,
                              header.flags_frag, header.ttl, header.protocol, header.checksum,
                              header.src, header.dst)
            assert payload == blob[wire.IPV4_HEADER_LEN:]

    @given(tables, datagrams())
    @settings(max_examples=300)
    def test_classify_and_remark_equals_reference(self, table, packet):
        assert (outcome(classifier.classify_and_remark, table, packet)
                == outcome(reference_classify_and_remark, table, packet))

    @given(tables, datagrams())
    # A 20-byte datagram of protocol 253: once encapsulated, classified as the
    # default, while plain classify rejected its missing Q-ESP header.
    @example(RuleTable(), b"E\x00\x00\x14\x00\x00\x00\x00\x00\xfd\xb9\xee" + bytes(8))
    def test_qesp_clear_header_classifies_like_plain(self, table, packet):
        """Ports agree, short segments and portless protocols included.

        The classifier reads one layer: a nested Q-ESP datagram shows inner
        protocol 253 and no ports, where plain classify reads its own clear
        header.
        """
        sa = make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        encapsulated = outcome(engine.outbound, sa, packet)
        plain = outcome(classifier.classify_and_remark, table, packet)
        if isinstance(encapsulated, type) or isinstance(plain, type):
            assert encapsulated is plain  # both layers reject it, with one class
        elif packet[9] == wire.IPPROTO_QESP:
            src, dst = struct.unpack_from(">II", packet, 12)
            one_layer = FiveTuple(src, dst, wire.IPPROTO_QESP, None, None)
            assert classifier.extract_fields(encapsulated) == one_layer
            assert (classifier.classify_and_remark(table, encapsulated)[0]
                    == table.dscp_for(one_layer))
        else:
            assert classifier.classify_and_remark(table, encapsulated)[0] == plain[0]

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("cipher,mac", [(CipherAlg.NULL, MacAlg.NULL),
                                            (CipherAlg.AES_128_CBC, MacAlg.HMAC_SHA1_96)])
    @given(packet=datagrams())
    @settings(max_examples=40, deadline=None)
    def test_inbound_inverts_outbound(self, variant, mode, cipher, mac, packet):
        sa = make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac,
                     extended_auth=variant is ProtocolVariant.QESP)
        sent = outcome(engine.outbound, sa, packet)
        # Outbound reads the ports under either variant: a short segment or an
        # invalid nested Q-ESP header is rejected, as the classifier rejects it.
        error = reference_segment_error(packet[9], packet[wire.IPV4_HEADER_LEN:])
        if error is not None:
            assert sent is error
        else:
            assert engine.inbound(sadb_with(sa), sent) == packet


# --- one five-tuple truth: a segment too short for what the classifier reads -----

SHORT_UDP = wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_UDP, SRC, DST, b"\x12\x34")
# A nested Q-ESP datagram with 15 of its 16 clear-header bytes.
SHORT_QESP = wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_QESP, SRC, DST, bytes(15))
SHORT = pytest.mark.parametrize("short", [SHORT_UDP, SHORT_QESP], ids=["udp", "qesp"])


def crafted_qesp(sa, inner: bytes) -> bytes:
    """NULL/NULL Q-ESP packet around inner, clear ports 0/0, as a forger would build it."""
    if sa.mode is SaMode.TUNNEL:
        plaintext, src, dst = inner, sa.tunnel_src, sa.tunnel_dst
    else:
        plaintext, src, dst = inner[wire.IPV4_HEADER_LEN:], SRC, DST
    pad_len = -(len(plaintext) + 1) % 4
    body = (wire.pack_qesp_header(sa.spi, 1, 0, 0, inner[9], 0) + plaintext
            + bytes(range(1, pad_len + 1)) + bytes([pad_len]))
    return wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_QESP, src, dst, body)


class TestShortSegmentIsMalformedEverywhere:
    @SHORT
    def test_plain_classify(self, short):
        with pytest.raises(MalformedPacket):
            classifier.classify_and_remark(RuleTable(), short)

    @SHORT
    def test_five_tuple_of(self, short):
        with pytest.raises(MalformedPacket):
            engine.five_tuple_of(short)

    @SHORT
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_outbound_consumes_no_sequence_number(self, variant, mode, short):
        sa = make_sa(variant=variant, mode=mode, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        with pytest.raises(MalformedPacket):
            engine.outbound(sa, short)
        assert sa.seq_next == 1

    @SHORT
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_qesp_decap_cross_check(self, mode, short):
        sa = make_sa(mode=mode, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        with pytest.raises(MalformedPacket):
            engine.inbound(sadb_with(sa), crafted_qesp(sa, short))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_tcp_too(self, variant):
        short_tcp = wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_TCP, SRC, DST, b"\x00\x50\x01")
        with pytest.raises(MalformedPacket):
            classifier.classify_and_remark(RuleTable(), short_tcp)
        sa = make_sa(variant=variant)
        with pytest.raises(MalformedPacket):
            engine.outbound(sa, short_tcp)
        assert sa.seq_next == 1

    def test_four_byte_segment_still_has_ports(self):
        udp = wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_UDP, SRC, DST, b"\x0f\xa0\x13\xc4")
        assert wire.extract_ports(wire.IPPROTO_UDP, udp, wire.IPV4_HEADER_LEN) == (4000, 5060)
        table = RuleTable(rules=(ClassifierRule(Selector(dst_ports=(5060, 5060)), 46),))
        sa = make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        assert classifier.classify_and_remark(table, udp)[0] == 46
        assert classifier.classify_and_remark(table, engine.outbound(sa, udp))[0] == 46


class TestPortlessProtocols:
    ICMP = wire.pack_ipv4(0, 1, 0, 64, 1, SRC, DST, b"\x08\x00\xf7\xff" + bytes(4))

    def test_five_tuple_of_reads_no_ports(self):
        ft = engine.five_tuple_of(self.ICMP)
        assert ft == FiveTuple(SRC, DST, 1, None, None) == classifier.extract_fields(self.ICMP)

    def test_port_constrained_sa_not_picked(self):
        db = sadb_with(make_sa(spi=0x301, selector=Selector(dst_ports=(0, 0))),
                       make_sa(spi=0x302))
        assert db.lookup_outbound(engine.five_tuple_of(self.ICMP)).spi == 0x302

    def test_nested_qesp_is_one_layer(self):
        inner = engine.outbound(make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL),
                                wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_UDP, SRC, DST,
                                               b"\x0f\xa0\x13\xc4"))
        one_layer = FiveTuple(SRC, DST, wire.IPPROTO_QESP, None, None)
        assert engine.five_tuple_of(inner) == one_layer
        outer_sa = make_sa(spi=0x303, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        outer = engine.outbound(outer_sa, inner)
        assert classifier.extract_fields(inner) == FiveTuple(SRC, DST, 17, 4000, 5060)
        assert classifier.extract_fields(outer) == one_layer
        assert engine.inbound(sadb_with(outer_sa), outer) == inner


class TestOnePortRule:
    """wire alone decides which ports a packet shows."""

    @given(datagrams())
    @example(TestPortlessProtocols.ICMP)
    @settings(max_examples=300, deadline=None)
    def test_every_layer_reads_the_ports_wire_reads(self, packet):
        """extract_ports, five_tuple_of and extract_fields (of the datagram
        and of its Q-ESP copy) agree on the ports, None for every protocol
        but TCP and UDP, and NULL/NULL decap returns every datagram encap
        accepts."""
        protocol = packet[9]
        ports = outcome(wire.extract_ports, protocol, packet, wire.IPV4_HEADER_LEN)
        selected = outcome(engine.five_tuple_of, packet)
        sa = make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        sent = outcome(engine.outbound, sa, packet)
        if isinstance(ports, type):
            assert selected is sent is ports
            return
        assert (ports == (None, None)) is (protocol not in (wire.IPPROTO_TCP, wire.IPPROTO_UDP))
        assert (selected.src_port, selected.dst_port) == ports
        if protocol != wire.IPPROTO_QESP:  # else the plain datagram shows its clear header
            assert classifier.extract_fields(packet) == selected
        assert classifier.extract_fields(sent) == selected
        assert engine.inbound(sadb_with(sa), sent) == packet


@pytest.mark.parametrize("module", [classifier, engine], ids=lambda m: m.__name__)
def test_port_protocols_named_only_in_wire(module):
    """No module but wire holds the no-port rule: classifier and engine
    name neither TCP nor UDP."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert not names & {"IPPROTO_TCP", "IPPROTO_UDP"}


@pytest.mark.parametrize("module,function", [
    (engine, "outbound"), (engine, "inbound"), (classifier, "classify_and_remark"),
    (sadb, "SecurityAssociation.seal"), (sadb, "SecurityAssociation.unseal")])
def test_per_packet_path_reads_no_enum_member(module, function):
    """Reading an Enum member (ProtocolVariant.QESP) costs about ten global
    reads under CPython 3.11; the per-packet functions test identity against
    module aliases, and read each variant and algorithm parameter off the SA's
    own members (sa.variant.header_len, sa.cipher.iv_len) instead."""
    body = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for name in function.split("."):
        body = next(node for node in body.body
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)
    enums = {"ProtocolVariant", "SaMode", "CipherAlg", "MacAlg"}
    reads = [ast.unparse(node) for node in ast.walk(body)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in enums]
    assert reads == []


@pytest.mark.parametrize("module", [sadb, engine], ids=lambda m: m.__name__)
def test_null_transforms_told_by_public_lengths(module):
    """sadb and engine tell a NULL transform by its row's iv_len or icv_len,
    never by a crypto state's private contexts."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    private = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr in ("_enc", "_dec", "_chain", "_inner", "_outer")}
    assert private == set()


class TestRemarkInPlace:
    def test_matching_tos_returns_input_unchanged(self):
        packet = wire.pack_ipv4(46 << 2 | 0x01, 7, 0, 64, 1, SRC, DST, b"ping")
        table = RuleTable(default_dscp=46)
        assert classifier.classify_and_remark(table, packet) == (46, packet)

    def test_only_tos_and_checksum_change(self):
        packet = wire.pack_ipv4(0x03, 7, 0x4000, 61, 1, SRC, DST, b"ping")
        _, marked = classifier.classify_and_remark(RuleTable(default_dscp=46), packet)
        assert marked[1] == 46 << 2 | 0x03
        assert marked[:1] + marked[2:10] + marked[12:] == packet[:1] + packet[2:10] + packet[12:]
        assert struct.unpack_from(">H", marked, 10)[0] == oracle.checksum(marked)


# --- the per-flow DSCP memo -------------------------------------------------------

VOICE = ClassifierRule(Selector(protocol=wire.IPPROTO_UDP, dst_ports=(5060, 5060)), 46)
ENCAPSULATIONS = [(variant, mode) for variant in ALL_VARIANTS for mode in ALL_MODES]
PLAIN, TRUNCATED, BAD_CHECKSUM = "plain", "truncated", "bad checksum"
packet_kinds = st.sampled_from([PLAIN, TRUNCATED, BAD_CHECKSUM, *ENCAPSULATIONS])


def null_sa(variant: ProtocolVariant, mode: SaMode):
    return make_sa(variant=variant, mode=mode, cipher=CipherAlg.NULL, mac=MacAlg.NULL)


def udp(src_port: int, dst_port: int, tos: int = 0, ident: int = 1) -> bytes:
    return wire.pack_ipv4(tos, ident, 0, 64, wire.IPPROTO_UDP, SRC, DST,
                          struct.pack(">HH", src_port, dst_port) + b"payload")


@st.composite
def flow_streams(draw) -> tuple[RuleTable, list[bytes]]:
    """One table and a stream of packets from a few repeated flows.

    Each packet is a flow's datagram with its own ToS, identification and
    tail, sent plain, encapsulated by a NULL/NULL Q-ESP or ESP SA in either
    mode, or made malformed.  Rules that name a flow's source and destination
    port sit among random ones, so flows differing in one field are told
    apart.
    """
    flows = draw(st.lists(st.tuples(u32, u32, protocols, u16, u16), min_size=1, max_size=4))
    named = [ClassifierRule(Selector(src_net=Ipv4Net(src, 32), dst_ports=(dport, dport)),
                            draw(st.integers(0, 63)))
             for src, _, _, _, dport in flows]
    mixed = draw(st.permutations(named + draw(st.lists(rules, max_size=3))))
    table = RuleTable(rules=tuple(mixed), default_dscp=draw(st.integers(0, 63)))
    sas = {kind: null_sa(*kind) for kind in ENCAPSULATIONS}
    stream = []
    for _ in range(draw(st.integers(1, 40))):
        src, dst, protocol, sport, dport = draw(st.sampled_from(flows))
        packet = wire.pack_ipv4(draw(u8), draw(u16), 0, 64, protocol, src, dst,
                                struct.pack(">HH", sport, dport) + draw(st.binary(max_size=24)))
        kind = draw(packet_kinds)
        if kind == TRUNCATED:
            packet = packet[:-1]
        elif kind == BAD_CHECKSUM:
            packet = packet[:10] + bytes([packet[10] ^ 0xFF]) + packet[11:]
        elif kind != PLAIN:
            packet = outcome(engine.outbound, sas[kind], packet)
            if not isinstance(packet, bytes):
                continue  # a Q-ESP datagram too short to nest: not sent
        stream.append(packet)
    return table, stream


class TestFlowMemo:
    @given(flow_streams())
    @settings(max_examples=150, deadline=None)
    def test_stream_equals_reference(self, table_and_stream):
        table, stream = table_and_stream
        for packet in stream:
            expected = outcome(reference_classify_and_remark, table, packet)
            assert outcome(classifier.classify_and_remark, table, packet) == expected

    def test_bounded_and_exact_past_the_limit(self):
        table = RuleTable(rules=(ClassifierRule(Selector(src_ports=(0, 999)), 10), VOICE),
                          default_dscp=1)
        flows = [(sport, 5060 if sport % 3 else 80) for sport in range(MEMO_LIMIT + 500)]
        largest = 0
        for sport, dport in flows + flows[:1000]:
            packet = udp(sport, dport)
            assert (classifier.classify_and_remark(table, packet)
                    == reference_classify_and_remark(table, packet))
            largest = max(largest, len(table._memo))
            assert len(table._memo) <= MEMO_LIMIT
        assert largest == MEMO_LIMIT

    def test_hit_does_not_walk_the_rules(self, monkeypatch):
        walked = []
        dscp_for = RuleTable.dscp_for
        monkeypatch.setattr(RuleTable, "dscp_for",
                            lambda self, ft: walked.append(ft) or dscp_for(self, ft))
        table = RuleTable(rules=(VOICE,))
        voice = [udp(4000, 5060, tos=tos, ident=tos) for tos in (0, 0xB8, 0x03)]
        assert [classifier.classify_and_remark(table, p)[0] for p in voice] == [46, 46, 46]
        # The Q-ESP copy shows the same flow key at its fixed offsets.
        qesp = engine.outbound(null_sa(ProtocolVariant.QESP, SaMode.TRANSPORT), voice[0])
        assert (classifier.classify_and_remark(table, voice[1])[0]
                == classifier.classify_and_remark(table, qesp)[0] == 46)
        assert walked == [FiveTuple(SRC, DST, wire.IPPROTO_UDP, 4000, 5060)]
        assert classifier.classify_and_remark(table, udp(4000, 80))[0] == 0
        assert len(walked) == 2

    def test_warm_memo_keeps_value_semantics(self):
        """The memo takes no part in equality, hashing, repr or replace()."""
        warm, fresh = RuleTable((VOICE,), 3), RuleTable((VOICE,), 3)
        assert classifier.classify_and_remark(warm, udp(4000, 5060))[0] == 46
        assert classifier.classify_and_remark(warm, udp(4000, 80))[0] == 3
        assert len(warm._memo) == 2 and not fresh._memo
        assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
        assert {fresh: "table"}[warm] == "table"
        assert replace(warm) == fresh and not replace(warm)._memo
        lowered = replace(warm, default_dscp=0)
        assert lowered == RuleTable((VOICE,), 0)
        assert classifier.classify_and_remark(lowered, udp(4000, 80))[0] == 0


# --- one Q-ESP header rule: a clear header decap rejects, no layer reads --------

BUNDLED = load_config(str(resources.files("qesp_lab").joinpath("data/priority.json")))
ACCEPTED = "accepted"
qesp_mutations = st.one_of(
    st.just(("none", None)),
    st.just(("spi", 0)),
    st.sampled_from([1 << bit for bit in range(1, 8)]).map(lambda bit: ("flags", bit)),
    st.integers(1, 0xFFFF).map(lambda reserved: ("reserved", reserved)),
    st.integers(0, 255).filter(lambda p: p not in (6, 17)).map(lambda p: ("protocol", p)),
    st.integers(0, wire.QESP_HEADER_LEN - 1).map(lambda n: ("truncate", n)))


def mutated_qesp(datagram: bytes, field: str, value: int | None) -> bytes:
    """A Q-ESP datagram with one clear-header field changed, or cut to value
    header bytes; the oracle re-encodes the IPv4 header, so its checksum holds."""
    header, body = oracle.parse(datagram)
    if field == "truncate":
        body = body[:value]
    elif field == "spi":
        body = bytes(4) + body[4:]
    elif field == "flags":
        body = body[:13] + bytes([body[13] | value]) + body[14:]
    elif field == "protocol":  # the packet's clear ports are nonzero
        body = body[:12] + bytes([value]) + body[13:]
    elif field == "reserved":
        body = body[:14] + value.to_bytes(2, "big") + body[16:]
    return oracle.encode(header, body)


def verdict(fn, *args):
    """ACCEPTED, or the QespLabError subclass fn raised."""
    result = outcome(fn, *args)
    return result if isinstance(result, type) else ACCEPTED


class TestQespHeaderRuleEverywhere:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @given(mutation=qesp_mutations, extended_auth=st.booleans())
    # ICMP under the voice ports: classify once accepted it, decap did not.
    @example(mutation=("protocol", 1), extended_auth=False)
    @settings(max_examples=60, deadline=None)
    def test_classify_select_nest_and_decap_agree(self, mode, mutation, extended_auth):
        """classify, five_tuple_of, Q-ESP outbound of the datagram as a nested
        one, and inbound all accept it or all raise one MalformedPacket subclass."""
        sa = make_sa(mode=mode, extended_auth=extended_auth)
        packet = mutated_qesp(engine.outbound(sa, udp(4000, 5060)), *mutation)
        outer_sa = make_sa(spi=0x303, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        verdicts = {verdict(classifier.classify_and_remark, BUNDLED.rules, packet),
                    verdict(engine.five_tuple_of, packet),
                    verdict(engine.outbound, outer_sa, packet),
                    verdict(engine.inbound, sadb_with(sa), packet)}
        field = mutation[0]
        expected = (ACCEPTED if field == "none" else
                    Truncated if field == "truncate" else InvalidHeader)
        assert verdicts == {expected}

    @pytest.mark.parametrize("field,value", [("spi", 0), ("flags", 0x80), ("reserved", 1)])
    def test_voice_with_invalid_clear_header_is_not_marked(self, field, value):
        """Each of these voice packets was once marked EF (46) by classify
        under the bundled voice rule while decap rejected it."""
        sadb = BUNDLED.build_sadb()
        voice = engine.outbound(sadb.lookup_by_spi(257), udp(4000, 5060))
        assert classifier.classify_and_remark(BUNDLED.rules, voice)[0] == 46
        packet = mutated_qesp(voice, field, value)
        with pytest.raises(InvalidHeader):
            classifier.classify_and_remark(BUNDLED.rules, packet)
        with pytest.raises(InvalidHeader):
            engine.inbound(sadb, packet)
        assert engine.inbound(sadb, voice) == udp(4000, 5060)


# --- NULL transforms cost no call ----------------------------------------------

# The per-packet crypto calls, where sadb and engine look them up.
CRYPTO_CALLS = ((sadb, "encrypt"), (sadb, "decrypt"), (crypto, "compute_icv"),
                (crypto, "verify_icv"), (crypto.IvGenerator, "next_iv"))


@pytest.mark.parametrize("variant,mode", ENCAPSULATIONS, ids=lambda v: v.value)
@pytest.mark.parametrize("cipher,mac", [(c, m) for c in CipherAlg for m in MacAlg],
                         ids=lambda a: a.value)
def test_null_transforms_cost_no_call(cipher, mac, variant, mode, monkeypatch):
    """One packet out and back in: the identity cipher draws no IV and calls
    neither encrypt nor decrypt, and the NULL MAC neither computes nor
    verifies an ICV; a keyed transform makes its calls once each way
    (verify_icv computes the ICV it compares)."""
    calls = collections.Counter()
    for owner, name in CRYPTO_CALLS:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, _name=name, _real=real: calls.update([_name])
                            or _real(*args))
    sa = make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac)
    datagram = udp(4000, 5060)
    assert engine.inbound(sadb_with(replace(sa)), engine.outbound(sa, datagram)) == datagram
    expected = collections.Counter()
    if cipher is not CipherAlg.NULL:
        expected.update(["next_iv", "encrypt", "decrypt"])
    if mac is not MacAlg.NULL:
        expected.update(["compute_icv", "compute_icv", "verify_icv"])
    assert calls == expected
