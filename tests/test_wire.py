"""Byte-level wire format tests: exact offsets, endianness, totality."""

from __future__ import annotations

import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_sa, sadb_with
from qesp_lab import engine, wire
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.errors import (
    BadChecksum,
    InvalidHeader,
    QespLabError,
    Truncated,
    UnsupportedOptions,
)
from qesp_lab.sadb import ProtocolVariant, SaMode


class TestQespHeaderFormat:
    def test_known_encoding(self):
        """SPI, Seq, ports, protocol, flags land at their fixed offsets."""
        assert (wire.pack_qesp_header(0x00000101, 1, 5060, 5060, 17, 0x01).hex()
                == "000001010000000113c413c411010000")

    def test_saturated_encoding(self):
        assert (wire.pack_qesp_header(0xFFFFFFFF, 0xFFFFFFFF, 65535, 65535, 255, 0x01).hex()
                == "ff" * 13 + "010000")

    def test_out_of_range_field_rejected(self):
        with pytest.raises(InvalidHeader):
            wire.pack_qesp_header(0x101, 1, 65536, 5060, 17, 0)
        with pytest.raises(InvalidHeader):
            wire.pack_qesp_header(0x101, 1 << 32, 4000, 5060, 17, 0)

    def test_roundtrip_known(self):
        raw = wire.pack_qesp_header(0x101, 1, 5060, 5060, 17, 0x01)
        assert wire.read_qesp_header(raw) == (0x101, 1, 5060, 5060, 17, 0x01, 0)

    def test_truncated(self):
        with pytest.raises(Truncated, match="needs 16 bytes, got 15"):
            wire.read_qesp_header(b"\x00" * 15)

    def test_undefined_flag_bit_rejected(self):
        raw = bytearray(wire.pack_qesp_header(0x101, 1, 1, 2, 17, 0))
        raw[13] = 0x02
        with pytest.raises(InvalidHeader, match="undefined flag bits set: 0x02"):
            wire.read_qesp_header(bytes(raw))

    def test_nonzero_reserved_rejected(self):
        raw = bytearray(wire.pack_qesp_header(0x101, 1, 1, 2, 17, 0))
        raw[15] = 0x01
        with pytest.raises(InvalidHeader, match="reserved must be 0, got 1"):
            wire.read_qesp_header(bytes(raw))

    @given(spi=st.integers(1, 0xFFFFFFFF), seq=st.integers(0, 0xFFFFFFFF),
           sport=st.integers(0, 65535), dport=st.integers(0, 65535),
           proto=st.sampled_from([wire.IPPROTO_TCP, wire.IPPROTO_UDP]),
           flags=st.sampled_from([0, 1]))
    def test_roundtrip_property(self, spi, seq, sport, dport, proto, flags):
        """TCP and UDP ports round-trip exactly, 0 included."""
        encoded = wire.pack_qesp_header(spi, seq, sport, dport, proto, flags)
        assert len(encoded) == 16
        assert wire.read_qesp_header(encoded) == (spi, seq, sport, dport, proto, flags, 0)

    @given(spi=st.integers(1, 0xFFFFFFFF), seq=st.integers(0, 0xFFFFFFFF),
           ports=st.tuples(st.sampled_from([0, None]), st.sampled_from([0, None]))
           | st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
           proto=st.integers(0, 255).filter(lambda p: p not in (6, 17)),
           flags=st.sampled_from([0, 1]))
    def test_portless_roundtrip_property(self, spi, seq, ports, proto, flags):
        """A portless inner protocol reads ports None from 0 or None, and
        refuses a nonzero port."""
        encoded = wire.pack_qesp_header(spi, seq, *ports, proto, flags)
        if any(ports):
            with pytest.raises(InvalidHeader,
                               match=f"^protocol {proto} has no ports, got {ports[0]}/{ports[1]}$"):
                wire.read_qesp_header(encoded)
        else:
            assert encoded[8:12] == bytes(4)
            assert wire.read_qesp_header(encoded) == (spi, seq, None, None, proto, flags, 0)

    def test_five_tuple_at_fixed_datagram_offsets(self):
        """Ports/protocol are readable at bytes 28-33 of the datagram, no keys."""
        body = (wire.pack_qesp_header(0x101, 1, 4000, 5060, 17, 0)
                + bytes(16) + bytes(32) + bytes(12))  # IV, ciphertext, ICV
        datagram = wire.pack_ipv4(0, 0, 0, 64, wire.IPPROTO_QESP, 1, 2, body)
        assert int.from_bytes(datagram[28:30], "big") == 4000
        assert int.from_bytes(datagram[30:32], "big") == 5060
        assert datagram[32] == 17
        assert wire.read_qesp_header(datagram[20:]) == (0x101, 1, 4000, 5060, 17, 0, 0)


class TestEspHeaderFormat:
    def test_known_encoding(self):
        assert wire.pack_esp_header(0x201, 7).hex() == "0000020100000007"
        assert wire.read_esp_header(bytes.fromhex("0000020100000007") + b"iv") == (0x201, 7)

    def test_truncated(self):
        with pytest.raises(Truncated, match="^ESP body needs 8 bytes, got 7$"):
            wire.read_esp_header(bytes(7))


@pytest.mark.parametrize("read,header", [
    (wire.read_esp_header, wire.pack_esp_header(0, 1)),
    (wire.read_qesp_header, wire.pack_qesp_header(0, 1, 0, 0, 17, 0))], ids=["esp", "qesp"])
def test_both_header_readers_refuse_spi_zero(read, header):
    """RFC 4303 §2.1 reserves SPI 0; neither variant reads it as an SPI to look up."""
    with pytest.raises(InvalidHeader, match="^spi 0 is reserved for 'no SA'$"):
        read(header)


class TestIpv4:
    def test_minimal_datagram(self):
        encoded = wire.pack_ipv4(0, 0, 0, 64, 0, 0, 0, b"")
        assert len(encoded) == 20
        fields = wire.read_ipv4(encoded)
        assert encoded[wire.IPV4_HEADER_LEN:] == b""
        assert fields[2] == 20  # total_length

    def test_checksum_against_oracle(self):
        """Known datagram: 10.0.0.1 -> 10.0.0.2, UDP, 8-byte payload."""
        encoded = wire.pack_ipv4(0, 0, 0, 64, 17, wire.addr_to_int("10.0.0.1"),
                                 wire.addr_to_int("10.0.0.2"), b"\x00" * 8)
        stored = struct.unpack_from(">H", encoded, 10)[0]
        assert stored == oracle.checksum(encoded)
        assert stored == 0x66CF  # frozen from the oracle

    @given(st.binary(min_size=0, max_size=200),
           st.integers(0, 255), st.integers(0, 255), st.integers(0, 65535),
           st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF))
    def test_roundtrip_property(self, payload, tos, proto, ident, src, dst):
        encoded = wire.pack_ipv4(tos, ident, 0, 64, proto, src, dst, payload)
        fields = wire.read_ipv4(encoded)
        assert encoded[wire.IPV4_HEADER_LEN:] == payload
        assert fields == (0x45, tos, 20 + len(payload), ident, 0, 64, proto,
                          oracle.checksum(encoded), src, dst)
        # byte-level identity: re-packing the read fields gives the wire bytes
        assert wire.pack_ipv4(fields[1], *fields[3:7], *fields[8:], payload) == encoded

    # pack_ipv4(0, 0, 0, 64, 6, 1, 2, b"abcd"): 24 bytes, checksum 0x7ade.
    GOOD = bytes.fromhex("450000180000000040067ade000000010000000261626364")

    @pytest.mark.parametrize("ver_ihl,cut,tail,bad_sum,error,message", [
        # one fault each
        pytest.param(None, 0, b"", False, Truncated, "IPv4 header needs 20 bytes, got 0",
                     id="empty"),
        pytest.param(None, 19, b"", False, Truncated, "IPv4 header needs 20 bytes, got 19",
                     id="short"),
        pytest.param(0x65, None, b"", False, InvalidHeader, "version must be 4, got 6",
                     id="version"),
        pytest.param(0x46, None, b"", False, UnsupportedOptions, "ihl must be 5, got 6",
                     id="ihl"),
        pytest.param(None, 21, b"", False, Truncated, "total_length 24 exceeds buffer 21",
                     id="total_length"),
        pytest.param(None, None, b"junk", False, InvalidHeader,
                     "trailing bytes: total_length 24, buffer 28", id="trailing"),
        pytest.param(None, None, b"", True, BadChecksum,
                     "header checksum 0x7ede does not verify", id="checksum"),
        # two or more faults: the earliest check wins
        pytest.param(0x65, 19, b"", False, Truncated, "IPv4 header needs 20 bytes, got 19",
                     id="short+version"),
        pytest.param(0x66, None, b"", False, InvalidHeader, "version must be 4, got 6",
                     id="version+ihl"),
        pytest.param(0x65, 21, b"", True, InvalidHeader, "version must be 4, got 6",
                     id="version+total_length+checksum"),
        pytest.param(0x46, None, b"junk", True, UnsupportedOptions, "ihl must be 5, got 6",
                     id="ihl+trailing+checksum"),
        pytest.param(None, 21, b"", True, Truncated, "total_length 24 exceeds buffer 21",
                     id="total_length+checksum"),
        pytest.param(None, None, b"junk", True, InvalidHeader,
                     "trailing bytes: total_length 24, buffer 28", id="trailing+checksum"),
    ])
    def test_rejection_class_and_message(self, ver_ihl, cut, tail, bad_sum, error, message):
        """Each check of read_ipv4 in order: length, version, ihl, total_length
        against the buffer (short, then long), checksum."""
        raw = bytearray(self.GOOD)
        if ver_ihl is not None:
            raw[0] = ver_ihl
            struct.pack_into(">H", raw, 10, oracle.checksum(raw))
        if bad_sum:
            raw[10] ^= 0x04
        with pytest.raises(error) as caught:
            wire.read_ipv4(bytes(raw[:cut]) + tail)
        assert type(caught.value) is error and str(caught.value) == message

    def test_oversize_payload_rejected(self):
        """The length check names the payload; without it, struct would refuse
        total_length 65536 as an out-of-range field."""
        assert len(wire.pack_ipv4(0, 0, 0, 64, 6, 1, 2, bytes(65515))) == 0xFFFF
        with pytest.raises(InvalidHeader, match="^payload too long for IPv4: 65516$"):
            wire.pack_ipv4(0, 0, 0, 64, 6, 1, 2, bytes(65516))

    @pytest.mark.parametrize("index,value", [(0, 256), (1, -1), (2, 0x10000), (3, 256),
                                             (4, 256), (5, 2 ** 32), (6, None)],
                             ids=["tos", "ident", "flags_frag", "ttl", "protocol", "src",
                                  "dst"])
    def test_out_of_range_field_rejected(self, index, value):
        fields = [0, 0, 0, 64, 6, 1, 2]  # tos, ident, flags_frag, ttl, protocol, src, dst
        fields[index] = value
        with pytest.raises(InvalidHeader, match="^header field out of range: "):
            wire.pack_ipv4(*fields, b"")


class TestAddresses:
    @pytest.mark.parametrize("text", ["10.0.0", "10.0.0.1.2", "", "10"])
    def test_not_four_parts(self, text):
        with pytest.raises(ValueError, match="^not a dotted-quad IPv4 address: "):
            wire.addr_to_int(text)

    @pytest.mark.parametrize("text", ["10.0.0.256", "300.0.0.1"])
    def test_octet_out_of_range(self, text):
        with pytest.raises(ValueError, match=f"^octet out of range in {text!r}$"):
            wire.addr_to_int(text)

    def test_top_octet_reads(self):
        assert wire.addr_to_int("255.255.255.255") == 0xFFFFFFFF

    @pytest.mark.parametrize("text", ["1_0", "+8", " 8", "\u0668", ""])
    def test_decimal_is_ascii_digits_only(self, text):
        """int() alone takes each of these but the empty string."""
        with pytest.raises(ValueError, match=f"^not a decimal number: {re.escape(repr(text))}$"):
            wire.parse_decimal(text)


@pytest.mark.parametrize("protocol", [wire.IPPROTO_TCP, wire.IPPROTO_UDP])
def test_ports_need_four_segment_bytes(protocol):
    segment = struct.pack(">HH", 4000, 5060)
    assert wire.extract_ports(protocol, segment) == (4000, 5060)
    assert wire.extract_ports(protocol, bytes(20) + segment, 20) == (4000, 5060)
    with pytest.raises(Truncated, match="^transport segment too short for ports: 3$"):
        wire.extract_ports(protocol, bytes(20) + segment[:3], 20)


AES, SHA1 = CipherAlg.AES_128_CBC, MacAlg.HMAC_SHA1_96
NULL_CIPHER, NULL_MAC = CipherAlg.NULL, MacAlg.NULL
INBOUND_SAS = (
    (0x101, ProtocolVariant.QESP, SaMode.TRANSPORT, AES, SHA1),
    (0x102, ProtocolVariant.QESP, SaMode.TRANSPORT, NULL_CIPHER, NULL_MAC),
    (0x103, ProtocolVariant.QESP, SaMode.TUNNEL, NULL_CIPHER, NULL_MAC),
    (0x201, ProtocolVariant.ESP, SaMode.TRANSPORT, AES, SHA1),
    (0x202, ProtocolVariant.ESP, SaMode.TRANSPORT, NULL_CIPHER, NULL_MAC),
    (0x203, ProtocolVariant.ESP, SaMode.TUNNEL, NULL_CIPHER, NULL_MAC),
)
_spis = st.sampled_from([sa[0] for sa in INBOUND_SAS]) | st.integers(0, 0xFFFFFFFF)
_u32 = st.integers(0, 0xFFFFFFFF)
_tail = st.binary(max_size=40) | st.binary(min_size=40, max_size=300)
encapsulated_bodies = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda spi, seq, tail: struct.pack(">II", spi, seq) + tail, _spis, _u32, _tail),
    st.builds(lambda spi, seq, ports, proto, flags, tail:
              wire.pack_qesp_header(spi, seq, *ports, proto, flags) + tail,
              _spis, _u32, st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
              st.integers(0, 255), st.sampled_from([0, 1]), _tail),
)


class TestParserTotality:
    """Parsers reject arbitrary input with QespLabError, never anything else."""

    @given(st.binary(min_size=0, max_size=65536))
    @settings(max_examples=300)
    def test_parsers_total(self, blob):
        for parse in (wire.read_ipv4, wire.read_qesp_header, wire.read_esp_header):
            try:
                parse(blob)
            except QespLabError:
                pass

    @given(protocol=st.sampled_from([wire.IPPROTO_ESP, wire.IPPROTO_QESP]),
           tos=st.integers(0, 255), body=encapsulated_bodies)
    @settings(max_examples=300)
    def test_inbound_total(self, protocol, tos, body):
        """engine.inbound on a valid outer header and an arbitrary body; the
        bodies are biased to name a known SPI, so the AES/SHA1 SAs reach the
        ICV and the NULL/NULL SAs reach decrypt, padding and the
        post-decrypt checks."""
        db = sadb_with(*(make_sa(variant=variant, mode=mode, cipher=cipher, mac=mac,
                                 spi=spi, extended_auth=variant is ProtocolVariant.QESP)
                         for spi, variant, mode, cipher, mac in INBOUND_SAS))
        datagram = wire.pack_ipv4(tos, 1, 0, 64, protocol, 0x0A000001, 0x0A000909, body)
        try:
            engine.inbound(db, datagram)
        except QespLabError:
            pass
