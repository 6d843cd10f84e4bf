"""The test oracle itself: independent of the package, and right on known data."""

from __future__ import annotations

import ast
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from conftest import FIXTURES


class TestIndependence:
    def test_imports_nothing_from_the_package(self):
        source = Path(oracle.__file__).read_text(encoding="utf-8")
        imported = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
        assert imported, "the walk found no import at all"
        assert not [name for name in imported if name.split(".")[0] == "qesp_lab"]


class TestChecksum:
    def test_rfc1071_example(self):
        """RFC 1071 §3: the ones-complement sum of 0001 f203 f4f5 f6f7 is ddf2."""
        assert oracle.ones_complement_sum(bytes.fromhex("0001f203f4f5f6f7")) == 0xDDF2

    def test_known_header(self):
        header = bytes.fromhex("4500" "0073" "0000" "4000" "4011" "b861" "c0a80001" "c0a800c7")
        assert oracle.checksum(header) == 0xB861

    def test_words_summing_to_ffff_give_zero(self):
        """0xFFFF is the other ones-complement zero; a header whose other
        words sum to it has checksum 0x0000, not 0xFFFF."""
        assert oracle.checksum(bytes.fromhex("45000014baeb" + "00" * 14)) == 0x0000
        assert oracle.checksum(bytes(20)) == 0xFFFF


class TestModel:
    @given(st.builds(oracle.Header, src=st.integers(0, 0xFFFFFFFF),
                     dst=st.integers(0, 0xFFFFFFFF), protocol=st.integers(0, 255),
                     tos=st.integers(0, 255), identification=st.integers(0, 0xFFFF),
                     flags=st.integers(0, 7), fragment_offset=st.integers(0, 0x1FFF),
                     ttl=st.integers(0, 255)),
           st.binary(max_size=100))
    def test_parse_inverts_encode(self, header, payload):
        datagram = oracle.encode(header, payload)
        parsed, parsed_payload = oracle.parse(datagram)
        assert parsed_payload == payload
        assert parsed.total_length == len(datagram)
        assert parsed == replace(header, total_length=len(datagram),
                                 checksum=oracle.checksum(datagram))

    @pytest.mark.parametrize("edit,reason", [
        (lambda d: d[:19], "short"),
        (lambda d: b"\x65" + d[1:], "version"),
        (lambda d: b"\x46" + d[1:], "ihl"),
        (lambda d: d[:-1], "truncated"),
        (lambda d: d + b"x", "trailing"),
        (lambda d: d[:10] + bytes([d[10] ^ 1]) + d[11:], "checksum"),
    ])
    def test_rejections(self, edit, reason):
        datagram = oracle.encode(oracle.Header(src=1, dst=2, protocol=17), b"abcd")
        with pytest.raises(oracle.Rejected) as caught:
            oracle.parse(edit(datagram))
        assert caught.value.reason == reason

    def test_fields_must_fit(self):
        with pytest.raises(ValueError):
            oracle.encode(oracle.Header(src=1 << 32, dst=0, protocol=0), b"")
        with pytest.raises(ValueError):
            oracle.encode(oracle.Header(src=0, dst=0, protocol=0), bytes(65516))

    def test_dscp_helpers(self):
        h = oracle.Header(src=1, dst=2, protocol=6, tos=0xB9)
        assert h.dscp == 46
        remarked = h.with_dscp(0)
        assert remarked.tos == 0x01  # ECN bit preserved


# Each *.hex fixture is a golden record stream, except these, which hold one
# datagram as bare hex for `qesp-lab classify --in` or `qesp-lab decap --in`.
BARE_FIXTURES = ("qesp_reserved_set.hex", "qesp_portless_ports.hex",
                 "esp_tunnel_next_header_17.hex")
GOLDEN_FIXTURES = sorted(p for p in FIXTURES.glob("*.hex") if p.name not in BARE_FIXTURES)


class TestPacketDump:
    def test_roundtrip(self):
        packets = [b"", b"\x01", b"\xab" * 300]
        assert oracle.dump_from_hex(oracle.dump_to_hex(packets)) == packets

    def test_truncated_record(self):
        with pytest.raises(ValueError):
            oracle.dump_from_hex((struct.pack(">I", 10) + b"short").hex())

    def test_hex_fixtures_ignore_whitespace(self):
        packets = [b"\x00\x01", b"\xff" * 40]
        text = oracle.dump_to_hex(packets)
        assert oracle.dump_from_hex(text) == packets
        assert oracle.dump_from_hex("  " + text.replace("\n", " \t ")) == packets

    @given(st.text(alphabet="0123456789abcdefxyz \n\t", max_size=200))
    def test_hex_loader_total(self, text):
        try:
            oracle.dump_from_hex(text)
        except ValueError:
            pass

    @pytest.mark.parametrize("path", GOLDEN_FIXTURES, ids=lambda p: p.stem)
    def test_golden_fixtures_hold_valid_datagrams(self, path):
        """Each golden file: the plain input, then its encapsulation."""
        recorded = oracle.dump_from_hex(path.read_text())
        assert len(recorded) == 2
        assert oracle.dump_to_hex(recorded) == path.read_text()
        for datagram in recorded:
            oracle.parse(datagram)

    @pytest.mark.parametrize("name", BARE_FIXTURES)
    def test_bare_fixtures_hold_one_valid_datagram(self, name):
        oracle.parse(bytes.fromhex("".join((FIXTURES / name).read_text().split())))
