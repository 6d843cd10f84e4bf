"""Encapsulation engine: oracle differential, golden fixtures, tamper, overhead."""

from __future__ import annotations

import itertools
import random
import struct
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import (
    ALL_CIPHERS,
    ALL_MACS,
    ALL_MODES,
    ALL_VARIANTS,
    FIXTURES,
    make_datagram,
    make_sa,
    sadb_with,
)
from qesp_lab import engine, wire
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.errors import (
    AuthFailure,
    BadChecksum,
    BadPadding,
    FiveTupleMismatch,
    InvalidHeader,
    OversizePacket,
    QespLabError,
    ReplayRejected,
    SequenceExhausted,
    Truncated,
    UnknownSpi,
)
from qesp_lab.sadb import ProtocolVariant, SaMode

# fixed flow used by every golden fixture
GOLDEN_INPUT = make_datagram(payload_len=92, tos_dscp=0xB8, ttl=61)


def oracle_encap(sa, datagram: bytes, seq: int, iv: bytes) -> bytes:
    """oracle.encap under sa's parameters, passed as plain values."""
    return oracle.encap(datagram, variant=sa.variant.value, mode=sa.mode.value,
                        cipher=sa.cipher.value, cipher_key=sa.cipher_key,
                        mac=sa.mac.value, mac_key=sa.mac_key, spi=sa.spi, seq=seq, iv=iv,
                        extended=sa.extended_auth, tunnel_src=sa.tunnel_src,
                        tunnel_dst=sa.tunnel_dst)


def oracle_decap(sa, packet: bytes, seen: set[int]) -> bytes | str:
    """oracle.decap under sa's parameters, passed as plain values."""
    return oracle.decap(packet, variant=sa.variant.value, mode=sa.mode.value,
                        cipher=sa.cipher.value, cipher_key=sa.cipher_key, mac=sa.mac.value,
                        mac_key=sa.mac_key, spi=sa.spi, seen=seen, extended=sa.extended_auth)


def inbound_verdict(sadb, packet: bytes) -> bytes | str:
    """engine.inbound's datagram, or the name of the QespLabError it raised."""
    try:
        return engine.inbound(sadb, packet)
    except QespLabError as exc:
        return type(exc).__name__


# 2 modes x 3 ciphers x 3 MACs x {Q-ESP, Q-ESP with extended auth, ESP}
CONFIGURATIONS = [(variant, extended, mode, cipher, mac)
                  for variant, extended in ((ProtocolVariant.QESP, False),
                                            (ProtocolVariant.QESP, True),
                                            (ProtocolVariant.ESP, False))
                  for mode in ALL_MODES for cipher in ALL_CIPHERS for mac in ALL_MACS]

DATAGRAMS = st.lists(st.builds(
    make_datagram, protocol=st.sampled_from([6, 17, 1, 47]), payload_len=st.integers(0, 1200),
    src_port=st.integers(0, 0xFFFF), dst_port=st.integers(0, 0xFFFF),
    tos_dscp=st.integers(0, 255), ttl=st.integers(0, 255), ident=st.integers(0, 0xFFFF),
    rng=st.integers(0, 2 ** 32).map(random.Random)), min_size=1, max_size=8)


class TestOracleDifferential:
    @pytest.mark.parametrize("variant,extended,mode,cipher,mac", CONFIGURATIONS,
                             ids=lambda v: getattr(v, "value", v))
    @given(datagrams=DATAGRAMS, spi=st.integers(1, 0xFFFFFFFF),
           iv_seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=12, deadline=None)
    def test_engine_matches_oracle(self, variant, extended, mode, cipher, mac, datagrams,
                                   spi, iv_seed):
        """A fresh SA's packets equal the oracle's byte for byte and decap back,
        in the engine and in the oracle; both refuse a replay and a forgery alike."""
        sa = make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac, spi=spi,
                     extended_auth=extended, iv_seed=iv_seed)
        receiver, seen = sadb_with(replace(sa)), set()
        ivs = oracle.iv_stream(iv_seed, cipher.value)
        for seq, datagram in enumerate(datagrams, start=1):
            packet = engine.outbound(sa, datagram)
            assert packet == oracle_encap(sa, datagram, seq, next(ivs))
            assert engine.inbound(receiver, packet) == datagram
            assert oracle_decap(sa, packet, seen) == datagram
        forged = packet[:-1] + bytes([packet[-1] ^ 1])
        for refused in (packet, forged):
            assert inbound_verdict(receiver, refused) == oracle_decap(sa, refused, seen)


GOLDEN_CASES = {
    "qesp_transport_aes128_sha1": dict(
        variant=ProtocolVariant.QESP, mode=SaMode.TRANSPORT, spi=0x101, extended_auth=True),
    "qesp_tunnel_aes128_sha1": dict(
        variant=ProtocolVariant.QESP, mode=SaMode.TUNNEL, spi=0x102, extended_auth=True),
    "esp_transport_aes128_sha1": dict(
        variant=ProtocolVariant.ESP, mode=SaMode.TRANSPORT, spi=0x202),
    "esp_tunnel_aes128_sha1": dict(
        variant=ProtocolVariant.ESP, mode=SaMode.TUNNEL, spi=0x203),
}


def golden_sa(name: str):
    return make_sa(**GOLDEN_CASES[name], iv_seed=0xDEADBEEF)


class TestGoldenFixtures:
    """Engine output must equal the oracle composition and the frozen file."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_engine_matches_oracle_and_fixture(self, name):
        sa = golden_sa(name)
        produced = engine.outbound(sa, GOLDEN_INPUT)
        first_iv = next(oracle.iv_stream(sa.iv_seed, sa.cipher.value))
        assert produced == oracle_encap(sa, GOLDEN_INPUT, 1, first_iv)

        recorded_in, recorded_out = oracle.dump_from_hex(
            (FIXTURES / f"{name}.hex").read_text())
        assert recorded_in == GOLDEN_INPUT
        assert produced == recorded_out

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_fixture_decapsulates_to_input(self, name):
        recorded_in, recorded_out = oracle.dump_from_hex(
            (FIXTURES / f"{name}.hex").read_text())
        db = sadb_with(golden_sa(name))
        assert engine.inbound(db, recorded_out) == recorded_in
        assert oracle_decap(golden_sa(name), recorded_out, set()) == recorded_in


class TestNullNullLayout:
    """NULL transforms make the encapsulation layout fully visible."""

    def test_qesp_transport_layout(self):
        sa = make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        datagram = make_datagram(payload_len=100)
        segment = datagram[20:]
        out = engine.outbound(sa, datagram)

        pad_len = (4 - (len(segment) + 1) % 4) % 4
        assert out[9] == 253
        # outer header is the input header except total_length, protocol, checksum
        assert out[0:2] == datagram[0:2]
        assert out[4:9] == datagram[4:9]
        assert out[12:20] == datagram[12:20]
        assert out[20:36] == struct.pack(">IIHHBBH", sa.spi, 1, 4000, 5060, 17, 0, 0)
        assert out[36:36 + len(segment)] == segment
        assert out[36 + len(segment):] == bytes(range(1, pad_len + 1)) + bytes([pad_len])

    def test_esp_transport_hides_ports(self):
        sa = make_sa(variant=ProtocolVariant.ESP, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        datagram = make_datagram(payload_len=100)
        out = engine.outbound(sa, datagram)
        assert out[9] == 50
        # 8-byte ESP header carries SPI and seq only; ports sit inside the
        # (identity) ciphertext at offset 28, unreadable for a classifier
        # that cannot assume the cipher is NULL.
        assert out[20:28] == struct.pack(">II", sa.spi, 1)
        assert out[28:32] == struct.pack(">HH", 4000, 5060)

    def test_aes_sha1_length_arithmetic(self):
        """100-byte UDP segment: 20 + 16 + 16 + 112 + 12 = 176 bytes."""
        sa = make_sa()
        out = engine.outbound(sa, make_datagram(payload_len=92))
        assert len(out) == 176


class TestSharedSa:
    def test_concurrent_outbound_matches_fresh_contexts(self):
        """Threads sharing one SA share its CBC chaining state; serialized per
        SA, every packet is still the fresh-context CBC of its own IV."""
        sa = make_sa()  # Q-ESP transport, AES/SHA1
        threads, per_thread = 4, 150
        inputs = [[make_datagram(payload_len=rng.randint(0, 1000), rng=rng)
                   for _ in range(per_thread)]
                  for rng in (random.Random(t) for t in range(threads))]
        sent: list[tuple[bytes, bytes]] = []
        start = threading.Barrier(threads)

        def worker(datagrams):
            start.wait()
            out = [(datagram, engine.outbound(sa, datagram)) for datagram in datagrams]
            sent.extend(out)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pool = [threading.Thread(target=worker, args=(d,)) for d in inputs]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)

        assert len(sent) == threads * per_thread
        sent.sort(key=lambda pair: struct.unpack_from(">I", pair[1], 24))  # by seq
        receiver = sadb_with(make_sa())
        for seq, (datagram, packet) in enumerate(sent, start=1):
            assert packet == oracle_encap(sa, datagram, seq, iv=packet[36:52])
            assert engine.inbound(receiver, packet) == datagram

    def test_one_lock_serializes_both_packet_sides(self, udp_datagram):
        """While an SA's lock is held, outbound and inbound on that SA wait
        for it; another SA's outbound does not."""
        sa, other = make_sa(), make_sa(spi=0x102)
        db = sadb_with(sa)
        packet = engine.outbound(make_sa(), udp_datagram)  # seq 1, as sa's peer sends it
        results = {}

        def start(name, fn, *args):
            thread = threading.Thread(target=lambda: results.update({name: fn(*args)}))
            thread.start()
            return thread

        with sa._lock:
            waiting = [start("outbound", engine.outbound, sa, udp_datagram),
                       start("inbound", engine.inbound, db, packet)]
            for thread in waiting:
                thread.join(0.2)
            assert all(thread.is_alive() for thread in waiting)
            free = start("other", engine.outbound, other, udp_datagram)
            free.join(60)
            assert not free.is_alive() and "other" in results
            assert "outbound" not in results and "inbound" not in results
        for thread in waiting:
            thread.join(60)
        assert not any(thread.is_alive() for thread in waiting)
        assert results == {"outbound": packet, "inbound": udp_datagram,
                           "other": engine.outbound(make_sa(spi=0x102), udp_datagram)}


class TestInboundRejections:
    def test_tampered_ciphertext(self, udp_datagram):
        sa = make_sa()
        db = sadb_with(sa)
        out = bytearray(engine.outbound(sa, udp_datagram))
        out[40] ^= 0x80  # inside the IV
        with pytest.raises(AuthFailure):
            engine.inbound(db, bytes(out))

    def test_tampered_clear_header(self, udp_datagram):
        sa = make_sa()
        db = sadb_with(sa)
        out = bytearray(engine.outbound(sa, udp_datagram))
        out[28] ^= 0x01  # clear src_port copy, covered by the ICV
        with pytest.raises(AuthFailure):
            engine.inbound(db, bytes(out))

    def test_replay_rejected(self, udp_datagram):
        sa = make_sa()
        db = sadb_with(sa)
        out = engine.outbound(sa, udp_datagram)
        engine.inbound(db, out)
        with pytest.raises(ReplayRejected):
            engine.inbound(db, out)

    def test_unknown_spi(self, udp_datagram):
        sa = make_sa()
        out = engine.outbound(sa, udp_datagram)
        with pytest.raises(UnknownSpi):
            engine.inbound(sadb_with(), out)

    @pytest.mark.parametrize("variant,other,label", [
        (ProtocolVariant.QESP, ProtocolVariant.ESP, "Q-ESP"),
        (ProtocolVariant.ESP, ProtocolVariant.QESP, "ESP")])
    def test_spi_of_wrong_variant(self, udp_datagram, variant, other, label):
        out = engine.outbound(make_sa(variant=variant, spi=0x500), udp_datagram)
        with pytest.raises(UnknownSpi, match=f"^no {label} SA for SPI 0x500$"):
            engine.inbound(sadb_with(make_sa(variant=other, spi=0x500)), out)

    @pytest.mark.parametrize("variant,label,header_len", [
        (ProtocolVariant.QESP, "Q-ESP", 16), (ProtocolVariant.ESP, "ESP", 8)])
    def test_body_shorter_than_header_iv_icv_is_truncated(self, udp_datagram, variant,
                                                          label, header_len):
        """header + IV + ICV + one ciphertext byte is the shortest body."""
        sa = make_sa(variant=variant)  # AES-128: 16-byte IV; HMAC-SHA1-96: 12-byte ICV
        db = sadb_with(sa)
        out = engine.outbound(sa, udp_datagram)
        min_len = header_len + 16 + 12 + 1

        def cut(body_len: int) -> bytes:
            return wire.pack_ipv4(0, 1, 0, 64, out[9], 1, 2, out[20:20 + body_len])

        for body_len in (header_len, min_len - 1):
            with pytest.raises(Truncated, match=f"^{label} packet needs >= {min_len} "
                                                f"bytes, got {body_len}$"):
                engine.inbound(db, cut(body_len))
        with pytest.raises(AuthFailure):
            engine.inbound(db, cut(min_len))

    def test_forged_clear_port_with_null_mac(self, udp_datagram):
        """Cross-check catches clear-copy forgery when no MAC protects it."""
        sa = make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        db = sadb_with(sa)
        out = bytearray(engine.outbound(sa, udp_datagram))
        struct.pack_into(">H", out, 28, 4999)  # forge src_port copy
        with pytest.raises(FiveTupleMismatch):
            engine.inbound(db, bytes(out))

    def test_bad_padding_with_null_mac(self, udp_datagram):
        sa = make_sa(cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        db = sadb_with(sa)
        out = bytearray(engine.outbound(sa, udp_datagram))
        out[-1] = 0xFF  # pad_length byte claims 255 bytes of filler
        with pytest.raises(BadPadding):
            engine.inbound(db, bytes(out))

    @pytest.mark.parametrize("past", [1, 2])
    @pytest.mark.parametrize("variant", list(ProtocolVariant), ids=lambda v: v.value)
    def test_pad_length_just_past_the_payload(self, variant, past):
        """NULL/NULL: pad_length end + 1 (or + 2) would slice an empty (or
        one-byte) filler off the trailer's end, which the filler check alone
        passes, and rebuild a datagram from part of the trailer."""
        sa = make_sa(variant=variant, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        out = bytearray(engine.outbound(sa, make_datagram(payload_len=10)))
        header_len, trailer = (16, 1) if variant is ProtocolVariant.QESP else (8, 2)
        end = len(out) - wire.IPV4_HEADER_LEN - header_len - trailer
        out[-trailer] = end + past
        with pytest.raises(BadPadding, match=f"^pad_length {end + past} exceeds payload$"):
            engine.inbound(sadb_with(sa), bytes(out))

    def test_misaligned_ciphertext_is_bad_padding_after_the_replay_update(self, udp_datagram):
        """With no ICV, a body one byte short of the AES block reaches the
        decrypt; the replay window has already taken its seq by then."""
        sa = make_sa(mac=MacAlg.NULL)
        db = sadb_with(sa)
        out = engine.outbound(sa, udp_datagram)
        short = wire.pack_ipv4(0, 1, 0, 64, out[9], 1, 2, out[20:-1])
        ciphertext_len = len(out) - 20 - 16 - 16 - 1  # minus outer header, Q-ESP header, IV
        with pytest.raises(BadPadding, match=f"^aes-128-cbc input length {ciphertext_len} "
                                             f"not a multiple of 16$"):
            engine.inbound(db, short)
        with pytest.raises(ReplayRejected, match="^seq 1 rejected by replay window$"):
            engine.inbound(db, out)

    def test_body_shorter_than_its_trailer(self):
        """NULL/NULL ESP: one plaintext byte cannot hold pad_length and next_header."""
        db = sadb_with(make_sa(variant=ProtocolVariant.ESP, cipher=CipherAlg.NULL,
                               mac=MacAlg.NULL))
        packet = wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_ESP, 1, 2,
                                wire.pack_esp_header(0x101, 1) + b"\x04")
        with pytest.raises(BadPadding, match="^pad_length 4 exceeds payload$"):
            engine.inbound(db, packet)

    def test_esp_tunnel_inner_datagram_is_validated(self, udp_datagram):
        """NULL/NULL ESP tunnel: an inner datagram whose header checksum does
        not verify is malformed, though the outer packet is sound."""
        sa = make_sa(variant=ProtocolVariant.ESP, mode=SaMode.TUNNEL,
                     cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        out = bytearray(engine.outbound(sa, udp_datagram))
        out[20 + 8 + 10] ^= 0xFF  # the inner checksum, after outer and ESP headers
        with pytest.raises(BadChecksum):
            engine.inbound(sadb_with(sa), bytes(out))

    @pytest.mark.parametrize("fmt,offset,value", [(">H", 28, 4999), (">B", 32, wire.IPPROTO_TCP)],
                             ids=["src_port", "protocol"])
    def test_forged_clear_copy_in_tunnel_mode(self, udp_datagram, fmt, offset, value):
        """The tunnel-mode cross-check compares the clear copies with the
        inner datagram's own header and ports."""
        sa = make_sa(mode=SaMode.TUNNEL, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
        db = sadb_with(sa)
        out = bytearray(engine.outbound(sa, udp_datagram))
        struct.pack_into(fmt, out, offset, value)
        with pytest.raises(FiveTupleMismatch,
                           match="^clear five-tuple copies disagree with inner datagram$"):
            engine.inbound(db, bytes(out))

    def test_not_an_encapsulation(self, udp_datagram):
        with pytest.raises(InvalidHeader):
            engine.inbound(sadb_with(), udp_datagram)

    def test_sequence_exhaustion_propagates(self, udp_datagram):
        sa = make_sa()
        sa.seq_next = 0xFFFFFFFF
        with pytest.raises(SequenceExhausted):
            engine.outbound(sa, udp_datagram)

    def test_oversize_result(self):
        sa = make_sa()
        datagram = make_datagram(payload_len=65481)  # 65509-byte segment
        with pytest.raises(OversizePacket):
            engine.outbound(sa, datagram)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_oversize_refusal_spends_no_sa_state(self, variant, mode, udp_datagram):
        """A refused datagram spends no sequence number, IV or encryption: the
        SA's next packet is, byte for byte, the first packet of a fresh copy."""
        sa = make_sa(variant=variant, mode=mode)
        fresh = replace(sa)
        with pytest.raises(OversizePacket):
            engine.outbound(sa, make_datagram(payload_len=65500))  # a 65528 B datagram
        assert engine.outbound(sa, udp_datagram) == engine.outbound(fresh, udp_datagram)


# --- the receiver against oracle.decap, under a NULL MAC --------------------------

NESTED_SA = make_sa(spi=0x303, cipher=CipherAlg.NULL, mac=MacAlg.NULL)
PLAIN_DATAGRAMS = st.builds(
    make_datagram, protocol=st.sampled_from([6, 17, 1, 47]), payload_len=st.integers(0, 40),
    src_port=st.integers(0, 0xFFFF), dst_port=st.integers(0, 0xFFFF),
    ident=st.integers(0, 0xFFFF), rng=st.integers(0, 2 ** 32).map(random.Random))
# One in four TCP/UDP datagrams is sent as a Q-ESP datagram, whose clear
# header decap reads one layer deep.
INNER_DATAGRAMS = st.builds(
    lambda datagram, nest: (engine.outbound(replace(NESTED_SA), datagram)
                            if nest and datagram[9] in (6, 17) else datagram),
    PLAIN_DATAGRAMS, st.integers(0, 3).map(lambda k: k == 0))
MUTATION_KINDS = ["none", "length", "header", "clear_copy", "pad_byte", "pad_length",
                  "next_header", "ports", "plaintext"]
# (kind, where, mask): where picks a byte or a length change, mask is XORed in.
MUTATIONS = st.tuples(st.sampled_from(MUTATION_KINDS), st.integers(0, 2 ** 16),
                      st.integers(1, 255))


def mutated(sa, packet: bytes, what: str, where: int, value: int) -> bytes:
    """packet with one change: to its length, to a byte of its protocol
    header (Q-ESP's clear copies of the ports and protocol are bytes 8-12),
    or to its decrypted body (pad, pad_length, next_header, the segment's
    ports or a tunnel's inner header, or any byte), then encrypted again
    under its IV.  The outer IPv4 header is re-encoded, so it stays valid."""
    outer, body = oracle.parse(packet)
    header_len = 16 if sa.variant is ProtocolVariant.QESP else 8
    iv_end = header_len + sa.cipher.iv_len
    header, iv = bytearray(body[:header_len]), body[header_len:iv_end]
    padded = bytearray(oracle.cbc(sa.cipher.value, sa.cipher_key, iv, body[iv_end:],
                                  decrypt=True))
    end = len(padded) - (1 if sa.variant is ProtocolVariant.QESP else 2)
    if what == "length":  # cut 1..48 bytes or append 1..24
        change = where % 72 - 48
        body = body[:change] if change < 0 else body + bytes([value]) * (change + 1)
        return oracle.encode(outer, body)
    if what == "header":
        header[where % header_len] ^= value
    elif what == "clear_copy":  # ESP has none: its sequence number instead
        header[8 + where % 5 if header_len == 16 else 4 + where % 4] ^= value
    elif what == "pad_byte":  # the last payload byte when there is no pad
        padded[end - 1 - where % max(padded[end], 1)] ^= value
    elif what == "ports":  # or the inner header's first bytes, if shorter
        offset = wire.IPV4_HEADER_LEN if sa.mode is SaMode.TUNNEL else 0
        padded[min(offset + where % 4, end - 1)] ^= value
    elif what == "plaintext":
        padded[where % len(padded)] ^= value
    elif what == "pad_length":
        padded[end] ^= value
    elif what == "next_header":  # Q-ESP has none: its pad_length instead
        padded[-1] ^= value
    return oracle.encode(outer, header + iv
                         + oracle.cbc(sa.cipher.value, sa.cipher_key, iv, bytes(padded)))


class TestReceiverAgainstOracle:
    """Under a NULL MAC every receiver rule after the ICV is reachable: the
    engine gives oracle.decap's verdict on every mutated packet, in any
    delivery order, duplicates included."""

    @pytest.mark.parametrize("variant,mode,cipher",
                             [(variant, mode, cipher) for variant in ALL_VARIANTS
                              for mode in ALL_MODES for cipher in ALL_CIPHERS],
                             ids=lambda v: v.value)
    @given(sent=st.lists(st.tuples(INNER_DATAGRAMS, MUTATIONS), min_size=1, max_size=4),
           order=st.lists(st.integers(0, 3), min_size=1, max_size=6),
           extended=st.booleans())
    # An ESP tunnel next_header of 23 or 17, not IP-in-IP (4): drawn at some
    # seeds only, so pinned here for every seed.
    @example(sent=[(make_datagram(), ("next_header", 0, 0x13))], order=[0], extended=False)
    @example(sent=[(make_datagram(), ("next_header", 0, 4 ^ 17))], order=[0, 0], extended=False)
    @settings(max_examples=50, deadline=None)
    def test_inbound_gives_the_oracle_verdict(self, variant, mode, cipher, sent, order,
                                              extended):
        sa = make_sa(variant=variant, mode=mode, cipher=cipher, mac=MacAlg.NULL,
                     extended_auth=extended and variant is ProtocolVariant.QESP)
        receiver, seen = sadb_with(replace(sa)), set()
        packets = [mutated(sa, engine.outbound(sa, datagram), *mutation)
                   for datagram, mutation in sent]
        for index in order:
            packet = packets[index % len(packets)]
            assert inbound_verdict(receiver, packet) == oracle_decap(sa, packet, seen)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestInboundOrder:
    """RFC 4303 §3.4.3: the ICV is verified before the replay check, and the
    window advances only on authenticated packets."""

    def test_tampered_replay_is_auth_failure(self, udp_datagram, variant):
        sa = make_sa(variant=variant)
        db = sadb_with(sa)
        out = engine.outbound(sa, udp_datagram)
        engine.inbound(db, out)
        tampered = bytearray(out)
        tampered[-sa.mac.icv_len - 1] ^= 0x01  # last ciphertext byte
        with pytest.raises(AuthFailure):
            engine.inbound(db, bytes(tampered))

    def test_forged_far_ahead_seq_leaves_window(self, udp_datagram, variant):
        sa = make_sa(variant=variant)
        db = sadb_with(sa)
        out = engine.outbound(sa, udp_datagram)
        forged = bytearray(out)
        struct.pack_into(">I", forged, 24, 1000)  # Seq follows the SPI in both headers
        with pytest.raises(AuthFailure):
            engine.inbound(db, bytes(forged))
        assert engine.inbound(db, out) == udp_datagram  # seq 1 is still inside the window


class TestDscpHandling:
    @pytest.mark.parametrize("variant,mode", list(itertools.product(ALL_VARIANTS, ALL_MODES)))
    def test_outbound_preserves_dscp(self, variant, mode):
        sa = make_sa(variant=variant, mode=mode)
        datagram = make_datagram(tos_dscp=46 << 2)
        out = engine.outbound(sa, datagram)
        assert oracle.parse(out)[0].dscp == 46

    def test_remark_in_transit_survives_extended_coverage(self, udp_datagram):
        """A router rewriting DSCP (and checksum) must not break the ICV."""
        sa = make_sa(extended_auth=True)
        db = sadb_with(sa)
        out = engine.outbound(sa, udp_datagram)
        header, body = oracle.parse(out)
        remarked = oracle.encode(header.with_dscp(46), body)
        rebuilt = engine.inbound(db, remarked)
        assert oracle.parse(rebuilt)[0].dscp == 46  # remark sticks, decap succeeds

    def test_immutable_field_rewrite_fails_extended_coverage(self, udp_datagram):
        """Extended coverage pins the addresses even with a fixed checksum."""
        sa = make_sa(extended_auth=True)
        db = sadb_with(sa)
        out = engine.outbound(sa, udp_datagram)
        header, body = oracle.parse(out)
        rerouted = oracle.encode(replace(header, src=header.src ^ 1), body)
        with pytest.raises(AuthFailure):
            engine.inbound(db, rerouted)

    def test_esp_like_coverage_ignores_outer_header(self, udp_datagram):
        sa = make_sa(extended_auth=False)
        db = sadb_with(sa)
        out = engine.outbound(sa, udp_datagram)
        header, body = oracle.parse(out)
        remarked = oracle.encode(header.with_dscp(12), body)
        engine.inbound(db, remarked)  # must not raise


def encap_overhead(sa, datagram: bytes) -> int:
    """Bytes that outbound adds to datagram under sa."""
    return len(engine.outbound(sa, datagram)) - len(datagram)


class TestOverheadAccounting:
    """Lengths read off outbound's packets; TestOracleDifferential checks their bytes."""

    @pytest.mark.parametrize("variant,cipher,mac,segment_len,expected", [
        (ProtocolVariant.QESP, CipherAlg.AES_128_CBC, MacAlg.HMAC_SHA1_96, 100, 56),
        (ProtocolVariant.ESP, CipherAlg.AES_128_CBC, MacAlg.HMAC_SHA1_96, 100, 48),
        (ProtocolVariant.QESP, CipherAlg.NULL, MacAlg.NULL, 7, 17),
    ])
    def test_reference_values(self, variant, cipher, mac, segment_len, expected):
        """Transport mode on a GRE datagram, whose segment is all payload."""
        sa = make_sa(variant=variant, cipher=cipher, mac=mac)
        assert encap_overhead(sa, make_datagram(protocol=47, payload_len=segment_len)) == expected

    @pytest.mark.parametrize("mode,cipher,mac", list(itertools.product(
        ALL_MODES, ALL_CIPHERS, ALL_MACS)))
    def test_header_trailer_delta_is_seven_bytes(self, mode, cipher, mac):
        """Q-ESP's 16-byte header and 1-byte trailer cost 7 bytes more than ESP's
        8 and 2.  Over effective_block consecutive lengths each pad takes every
        residue once, so the padding differences sum to zero."""
        block = cipher.effective_block
        qesp, esp = (make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac)
                     for variant in ALL_VARIANTS)
        for start in (0, 37, 1000):
            datagrams = [make_datagram(payload_len=n) for n in range(start, start + block)]
            assert sum(encap_overhead(qesp, d) - encap_overhead(esp, d)
                       for d in datagrams) == 7 * block

    @pytest.mark.parametrize("variant,mode,cipher,mac", list(itertools.product(
        ALL_VARIANTS, ALL_MODES, ALL_CIPHERS, ALL_MACS)))
    def test_largest_payload_meets_the_size_limit(self, variant, mode, cipher, mac):
        """The largest UDP payload encapsulates to at most 65535 bytes and one
        byte more is OversizePacket.  Every result is 20 + header + IV +
        ciphertext aligned to lcm(block, 4) + ICV long, a multiple of 4, so the
        largest lands within one aligned block below 65535, never on it.  The
        overhead depends on the payload length only mod effective_block, so one
        short datagram per residue gives it for any length."""
        block = cipher.effective_block
        sa = make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac)
        overhead = [encap_overhead(sa, make_datagram(payload_len=n)) for n in range(block)]
        payload = 0xFFFF - 28
        while 28 + payload + overhead[payload % block] > 0xFFFF:
            payload -= 1
        datagram = make_datagram(payload_len=payload)
        out = engine.outbound(sa, datagram)
        assert len(out) - len(datagram) == overhead[payload % block]
        assert len(out) % 4 == 0 and 0 <= 0xFFFF - len(out) < cipher.effective_block
        with pytest.raises(OversizePacket):
            engine.outbound(sa, make_datagram(payload_len=payload + 1))
