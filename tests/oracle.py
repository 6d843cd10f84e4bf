"""Independent models of the lab's wire formats, for differential tests.

It shares no code with the package: the IPv4 header, its checksum and the
Q-ESP/ESP encapsulation below are written from the RFCs and the layouts they
describe, with raw OpenSSL CBC and stdlib hmac/hashlib, so a test that
compares the package's output with this model compares two independent
implementations.  test_oracle.py keeps it that way: importing anything from
qesp_lab here fails the suite.

RFC 791 §3.1 header, no options (20 bytes)::

     0               1               2               3
    |Version|  IHL  |Type of Service|         Total Length          |
    |        Identification         |Flags|     Fragment Offset     |
    | Time to Live  |   Protocol    |        Header Checksum        |
    |                        Source Address                         |
    |                     Destination Address                       |

The DS field (RFC 2474) is the high six bits of the ToS octet; the low two
are ECN (RFC 3168).

encap() composes one packet of either encapsulation (RFC 4303 §2-3 for ESP,
IP protocol 50; Q-ESP is IP protocol 253)::

    Q-ESP  SPI(4) Seq(4) SrcPort(2) DstPort(2) Proto(1) Flags(1) Reserved(2)
           IV || CBC(payload || 1, 2, 3... || pad_length) || ICV
    ESP    SPI(4) Seq(4)
           IV || CBC(payload || 1, 2, 3... || pad_length || next_header) || ICV

The payload is the transport segment (transport mode, under the inner header
with its protocol rewritten) or the whole inner datagram (tunnel mode, under
a fresh header between the tunnel endpoints: the inner ToS, identification 0,
no flags, TTL 64; ESP's next_header is 4, IP-in-IP).  The pad brings the
encrypted part to a multiple of lcm(cipher block, 4).  The Q-ESP clear ports
are the inner TCP/UDP ports, 0/0 for any other protocol; flag bit 0 selects
extended auth.  The ICV is HMAC-MD5-96 or HMAC-SHA1-96 (the first 12 bytes)
over header || IV || ciphertext, preceded under extended auth by the outer
header with ToS, flags, fragment offset, TTL and checksum zeroed.

An SA's IVs are the stream iv_stream() yields: the first iv-length bytes of
SHA-256(seed || counter), both big-endian u64, the counter counting from 0.

decap() is the receiver (RFC 4303 §3.4) for a database holding one SA.  Its
checks come in the lab's order: outer IPv4 header, protocol header (SPI 0,
Q-ESP's undefined flags, reserved field and ports under a portless protocol),
SPI and variant, length (header, IV, one ciphertext byte, ICV), ICV, replay
window (RFC 4303 §3.4.3: 64 numbers, updated as soon as a packet passes it),
block alignment, pad (pad_length within the payload, then the filler 1, 2,
3...), then the post-decrypt checks: an ESP tunnel's next_header is 4, a
tunnel's inner datagram is a valid IPv4 datagram, and Q-ESP's clear protocol
and ports equal the segment's own (a nested Q-ESP segment must hold a valid
clear header).  It returns the datagram rebuilt, or the name of the lab's
error class for the first check that fails.

The golden packet fixtures (tests/fixtures/*.hex) are whitespace-insensitive
hex of a record stream: each record is a big-endian u32 byte count followed
by that many datagram bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

try:  # moved out of the primitives namespace in cryptography >= 43
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
except ImportError:  # pragma: no cover
    from cryptography.hazmat.primitives.ciphers.algorithms import TripleDES

HEADER_LEN = 20
# Version/IHL, ToS, Total Length, Identification, Flags/Fragment Offset, TTL,
# Protocol, Header Checksum, then the two addresses as raw octets.
_LAYOUT = struct.Struct("!BBHHHBBH4s4s")


class Rejected(Exception):
    """The model refuses a datagram.  reason names the first check parse()
    failed, in its order: short, version, ihl, truncated, trailing, checksum."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


def ones_complement_sum(data: bytes) -> int:
    """RFC 1071 §4.1: 16-bit ones-complement sum, an odd last byte padded."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return total


def checksum(header: bytes) -> int:
    """RFC 791 header checksum of the first 20 bytes, its own field read as zero."""
    zeroed = header[:10] + b"\x00\x00" + header[12:HEADER_LEN]
    return ~ones_complement_sum(zeroed) & 0xFFFF


@dataclass(frozen=True)
class Header:
    """The RFC 791 header fields.  encode() derives total_length and checksum;
    version and ihl are written as given, so a test can forge either."""

    src: int
    dst: int
    protocol: int
    tos: int = 0
    identification: int = 0
    flags: int = 0
    fragment_offset: int = 0
    ttl: int = 64
    version: int = 4
    ihl: int = 5
    total_length: int = 0
    checksum: int = 0

    @property
    def flags_frag(self) -> int:
        """The 16-bit word holding the 3 flag bits and the 13-bit offset."""
        return (self.flags << 13) | self.fragment_offset

    @property
    def dscp(self) -> int:
        return self.tos >> 2

    def with_dscp(self, dscp: int) -> "Header":
        """The header with a new DS code point and the ECN bits kept."""
        if not 0 <= dscp < 64:
            raise ValueError(f"dscp out of range: {dscp}")
        return replace(self, tos=(dscp << 2) | (self.tos & 0b11))


_BITS = {"version": 4, "ihl": 4, "tos": 8, "identification": 16, "flags": 3,
         "fragment_offset": 13, "ttl": 8, "protocol": 8, "src": 32, "dst": 32}


def encode(h: Header, payload: bytes) -> bytes:
    """20 header bytes then the payload; raises ValueError on a field that
    does not fit its width or a datagram longer than 65535 bytes."""
    for name, bits in _BITS.items():
        value = getattr(h, name)
        if not 0 <= value < 1 << bits:
            raise ValueError(f"{name} does not fit {bits} bits: {value}")
    total_length = HEADER_LEN + len(payload)
    if total_length > 0xFFFF:
        raise ValueError(f"datagram of {total_length} bytes")
    header = _LAYOUT.pack((h.version << 4) | h.ihl, h.tos, total_length, h.identification,
                          h.flags_frag, h.ttl, h.protocol, 0,
                          h.src.to_bytes(4, "big"), h.dst.to_bytes(4, "big"))
    return header[:10] + checksum(header).to_bytes(2, "big") + header[12:] + payload


def parse(datagram: bytes) -> tuple[Header, bytes]:
    """(header, payload) of a datagram with no options, or Rejected.

    Accepted: at least 20 bytes, version 4, IHL 5, total_length equal to the
    buffer length, and a header checksum that verifies.
    """
    if len(datagram) < HEADER_LEN:
        raise Rejected("short", f"{len(datagram)} bytes")
    (ver_ihl, tos, total_length, identification, flags_frag, ttl, protocol, stored,
     src, dst) = _LAYOUT.unpack_from(datagram)
    if ver_ihl >> 4 != 4:
        raise Rejected("version", str(ver_ihl >> 4))
    if ver_ihl & 0x0F != 5:
        raise Rejected("ihl", str(ver_ihl & 0x0F))
    if total_length > len(datagram):
        raise Rejected("truncated", f"total_length {total_length}, {len(datagram)} bytes")
    if total_length < len(datagram):
        raise Rejected("trailing", f"total_length {total_length}, {len(datagram)} bytes")
    if checksum(datagram) != stored:
        raise Rejected("checksum", f"0x{stored:04x}")
    header = Header(src=int.from_bytes(src, "big"), dst=int.from_bytes(dst, "big"),
                    protocol=protocol, tos=tos, identification=identification,
                    flags=flags_frag >> 13, fragment_offset=flags_frag & 0x1FFF, ttl=ttl,
                    total_length=total_length, checksum=stored)
    return header, datagram[HEADER_LEN:]


# --- Q-ESP and ESP encapsulation ----------------------------------------------

# cipher name -> (block size, IV length, OpenSSL algorithm); NULL is the identity
_CIPHERS = {"null": (1, 0, None), "aes-128-cbc": (16, 16, algorithms.AES),
            "3des-cbc": (8, 8, TripleDES)}
_HASHES = {"null": None, "hmac-md5-96": hashlib.md5, "hmac-sha1-96": hashlib.sha1}
_PROTOCOLS = {"qesp": 253, "esp": 50}


def iv_stream(seed: int, cipher: str) -> Iterator[bytes]:
    """The IVs an SA with this IV seed issues, one per packet (b"" for NULL)."""
    iv_len = _CIPHERS[cipher][1]
    for counter in itertools.count():
        yield hashlib.sha256(struct.pack(">QQ", seed % 2 ** 64, counter)).digest()[:iv_len]


def cbc(cipher: str, key: bytes, iv: bytes, data: bytes, *, decrypt: bool = False) -> bytes:
    """Block-aligned data CBC-encrypted (or decrypted) under key and iv; NULL is the identity."""
    algorithm = _CIPHERS[cipher][2]
    if algorithm is None:
        return data
    context = Cipher(algorithm(key), modes.CBC(iv))
    context = context.decryptor() if decrypt else context.encryptor()
    return context.update(data) + context.finalize()


def encap(datagram: bytes, *, variant: str, mode: str, cipher: str, cipher_key: bytes,
          mac: str, mac_key: bytes, spi: int, seq: int, iv: bytes, extended: bool = False,
          tunnel_src: int | None = None, tunnel_dst: int | None = None) -> bytes:
    """datagram encapsulated as packet seq of an SA: variant "qesp" or "esp",
    mode "transport" or "tunnel", cipher and mac by their config names."""
    inner, segment = parse(datagram)
    protocol = _PROTOCOLS[variant]
    if mode == "tunnel":
        outer = Header(src=tunnel_src, dst=tunnel_dst, protocol=protocol, tos=inner.tos)
        plaintext, next_header = datagram, 4
    else:
        outer = replace(inner, protocol=protocol)
        plaintext, next_header = segment, inner.protocol
    if variant == "qesp":
        ports = segment[:4] if inner.protocol in (6, 17) else bytes(4)
        header = struct.pack(">II4sBBH", spi, seq, ports, inner.protocol, extended, 0)
        tail = b""
    else:
        header, tail = struct.pack(">II", spi, seq), bytes([next_header])
    pad_len = -(len(plaintext) + 1 + len(tail)) % math.lcm(_CIPHERS[cipher][0], 4)
    padded = plaintext + bytes(range(1, pad_len + 1)) + bytes([pad_len]) + tail
    body = header + iv + cbc(cipher, cipher_key, iv, padded)
    if _HASHES[mac] is None:
        return encode(outer, body)
    return encode(outer, body + _icv(outer, body + bytes(12), mac, mac_key, extended))


def _icv(outer: Header, body: bytes, mac: str, mac_key: bytes, extended: bool) -> bytes:
    """The ICV of a packet whose body (ICV included, at any value) travels
    under outer: the truncated HMAC over the body less its ICV, preceded
    under extended auth by the zeroed outer header."""
    covered = body[:-12]
    if extended:
        zeroed = replace(outer, tos=0, flags=0, fragment_offset=0, ttl=0)
        prefix = encode(zeroed, body)[:HEADER_LEN]
        covered = prefix[:10] + bytes(2) + prefix[12:] + covered
    return hmac.new(mac_key, covered, _HASHES[mac]).digest()[:12]


# --- the receiver ---------------------------------------------------------------

# The lab's error class for each reason parse() rejects a datagram.
_PARSE_VERDICTS = {"short": "Truncated", "version": "InvalidHeader", "ihl": "UnsupportedOptions",
                   "truncated": "Truncated", "trailing": "InvalidHeader",
                   "checksum": "BadChecksum"}
REPLAY_WINDOW = 64


def _qesp_header_verdict(header: bytes) -> str | None:
    """Why a Q-ESP clear header is refused, else None: short, SPI 0, a flag
    other than bit 0, a nonzero reserved field, or a nonzero port under an
    inner protocol other than TCP and UDP."""
    if len(header) < 16:
        return "Truncated"
    spi, _, src_port, dst_port, inner, flags, reserved = struct.unpack(">IIHHBBH", header[:16])
    if spi == 0 or flags & 0xFE or reserved or inner not in (6, 17) and (src_port or dst_port):
        return "InvalidHeader"
    return None


def decap(datagram: bytes, *, variant: str, mode: str, cipher: str, cipher_key: bytes,
          mac: str, mac_key: bytes, spi: int, seen: set[int],
          extended: bool = False) -> bytes | str:
    """The receiver's verdict on datagram under the one SA these parameters
    (as for encap) describe: the original datagram, or the name of the lab's
    error class for the first check it fails.  seen holds the sequence
    numbers that passed the SA's replay check so far; a packet that passes
    it adds its own, whatever checks follow."""
    try:
        outer, body = parse(datagram)
    except Rejected as exc:
        return _PARSE_VERDICTS[exc.reason]
    arrived = {253: "qesp", 50: "esp"}.get(outer.protocol)
    if arrived is None:
        return "InvalidHeader"
    if arrived == "qesp":
        verdict = _qesp_header_verdict(body)
        if verdict:
            return verdict
        header_len, inner_protocol, clear_ports = 16, body[12], body[8:12]
    else:
        if len(body) < 8:
            return "Truncated"
        if body[:4] == bytes(4):
            return "InvalidHeader"
        header_len = 8
    got_spi, seq = struct.unpack(">II", body[:8])
    if got_spi != spi or arrived != variant:
        return "UnknownSpi"

    block, iv_len, _ = _CIPHERS[cipher]
    icv_len = 0 if _HASHES[mac] is None else 12
    if len(body) < header_len + iv_len + 1 + icv_len:
        return "Truncated"
    if icv_len and not hmac.compare_digest(_icv(outer, body, mac, mac_key, extended),
                                           body[-12:]):
        return "AuthFailure"
    top = max(seen, default=0)
    if seq == 0 or seq <= top and (top - seq >= REPLAY_WINDOW or seq in seen):
        return "ReplayRejected"
    seen.add(seq)

    iv = body[header_len:header_len + iv_len]
    ciphertext = body[header_len + iv_len:len(body) - icv_len]
    if len(ciphertext) % block:
        return "BadPadding"
    padded = cbc(cipher, cipher_key, iv, ciphertext, decrypt=True)
    trailer = 1 if variant == "qesp" else 2
    end = len(padded) - trailer
    if end < 0:
        return "BadPadding"
    pad_len = padded[end]
    if pad_len > end or padded[end - pad_len:end] != bytes(range(1, pad_len + 1)):
        return "BadPadding"
    payload = padded[:end - pad_len]
    if variant == "esp":
        inner_protocol = padded[-1]

    segment, segment_protocol = payload, inner_protocol
    if mode == "tunnel":
        if variant == "esp" and inner_protocol != 4:
            return "InvalidHeader"
        try:
            inner, segment = parse(payload)
        except Rejected as exc:
            return _PARSE_VERDICTS[exc.reason]
        segment_protocol = inner.protocol
    if variant == "qesp":
        shown = bytes(4)
        if segment_protocol in (6, 17):
            if len(segment) < 4:
                return "Truncated"
            shown = segment[:4]
        elif segment_protocol == 253:
            verdict = _qesp_header_verdict(segment)
            if verdict:
                return verdict
        if segment_protocol != inner_protocol or shown != clear_ports:
            return "FiveTupleMismatch"
    if mode == "tunnel":
        return payload
    return encode(replace(outer, protocol=inner_protocol), payload)


# --- golden fixture streams ---------------------------------------------------

def dump_to_hex(packets: list[bytes]) -> str:
    """A record stream as hex, 64 digits a line."""
    raw = b"".join(len(p).to_bytes(4, "big") + p for p in packets).hex()
    return "\n".join(raw[i:i + 64] for i in range(0, len(raw), 64)) + "\n"


def dump_from_hex(text: str) -> list[bytes]:
    """The records of a hex stream, whitespace ignored; ValueError if malformed."""
    raw = bytes.fromhex("".join(text.split()))
    packets, pos = [], 0
    while pos < len(raw):
        if pos + 4 > len(raw):
            raise ValueError("record length field cut short")
        length = int.from_bytes(raw[pos:pos + 4], "big")
        pos += 4
        if pos + length > len(raw):
            raise ValueError(f"record needs {length} bytes, got {len(raw) - pos}")
        packets.append(raw[pos:pos + length])
        pos += length
    return packets
