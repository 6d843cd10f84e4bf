"""Wire formats: IPv4 datagrams, Q-ESP packets, classic ESP packets.

All multi-byte fields are big-endian.  Encoders are deterministic; parsers
are total (any byte string yields a value or a QespLabError subclass) and
satisfy parse(encode(x)) == x for every valid x.

IPv4 has one validator and one packer, shared by every layer.  read_ipv4
checks a datagram (length accounting, version 4, ihl 5, header checksum) with
a single struct unpack and returns the raw header fields; pack_ipv4 builds a
header from fields, deriving total_length and the checksum.  The header
checksum rule is written in these two functions only.

Q-ESP layout (IP protocol 253)::

    outer IPv4 header (20 bytes, no options)
    Q-ESP header     SPI(4) Seq(4) SrcPort(2) DstPort(2) Proto(1) Flags(1) Reserved(2)
    IV               cipher-dependent
    ciphertext       Enc(payload || pad || pad_length)
    ICV              MAC-dependent

The Q-ESP header keeps cleartext copies of the inner source port, destination
port, and transport protocol, so a multi-field classifier can read the full
five-tuple at fixed offsets without keys.  Classic ESP (IP protocol 50) hides
those fields inside the ciphertext; it is implemented here as the baseline::

    ESP header       SPI(4) Seq(4)
    IV / ciphertext  Enc(payload || pad || pad_length || next_header)
    ICV

The trailer difference is deliberate: Q-ESP needs no next-header byte because
the protocol identifier travels in its clear header.

Every header read and write and every port read in the package goes through
this module, and every read failure is a MalformedPacket subclass (errors
module).  The no-port rule is written here alone, as PORT_PROTOCOLS: only a
TCP or UDP segment has ports, and every other protocol, ESP and Q-ESP
included, reads as ports None.  extract_ports applies it to a segment,
netsim to a configured flow, and read_qesp_header to a clear header, which
stores no ports as 0/0 (pack_qesp_header writes None as 0) and is refused if
it names a portless inner protocol with a nonzero port.  So the classifier,
SA selection, encap and decap read one five-tuple and reject the same
headers with the same class.  Neither body is self-describing (the SA
sets the IV and ICV lengths); engine.inbound splits it by the SA's
sadb.ProtocolVariant row and algorithm rows.
"""

from __future__ import annotations

import struct

from .errors import (
    BadChecksum,
    InvalidHeader,
    Truncated,
    UnsupportedOptions,
)

IPV4_HEADER_LEN = 20
DEFAULT_TTL = 64
QESP_HEADER_LEN = 16
ESP_HEADER_LEN = 8

IPPROTO_TCP = 6
IPPROTO_UDP = 17
IPPROTO_ESP = 50
# RFC 3692 experimentation number; unassigned, so it cannot collide with a
# real transport protocol inside the simulator.
IPPROTO_QESP = 253
# The no-port rule: only these protocols' segments carry ports.
PORT_PROTOCOLS = frozenset((IPPROTO_TCP, IPPROTO_UDP))

# Q-ESP flags: bit 0 selects extended (outer-header) auth coverage.
QESP_FLAG_EXTENDED_AUTH = 0x01
QESP_VALID_FLAGS = 0x01

_IPV4_STRUCT = struct.Struct(">BBHHHBBHII")
_QESP_STRUCT = struct.Struct(">IIHHBBH")
_ESP_STRUCT = struct.Struct(">II")
_PORTS = struct.Struct(">HH")


def parse_decimal(text: str) -> int:
    """Parse an ASCII decimal number; int() alone also takes "+8", " 8", "1_0" and "٨"."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal number: {text!r}")
    return int(text)


def addr_to_int(dotted: str) -> int:
    """Parse a dotted-quad IPv4 address into a 32-bit integer."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {dotted!r}")
    value = 0
    for part in parts:
        octet = parse_decimal(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def int_to_addr(value: int) -> str:
    """Format a 32-bit integer as a dotted-quad IPv4 address."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


# The header checksum (RFC 791, RFC 1071) is the ones-complement of the
# ones-complement sum of the ten 16-bit header words, the checksum word taken
# as zero.  As 2**16 == 1 (mod 0xFFFF), the folded sum of a total T > 0 is
# (T - 1) % 0xFFFF + 1, so the addresses are added whole and the checksum is
# 0xFFFE - (T - 1) % 0xFFFF; 0x44FF is the ver_ihl word 0x4500 (which keeps
# T > 0) less that 1.  A bare T % 0xFFFF would store 0xFFFF where the checksum
# is 0x0000.


def read_ipv4(b: bytes) -> tuple[int, ...]:
    """The IPv4 validator: checks length accounting, version, ihl and checksum.

    Returns the unpacked header (ver_ihl, tos, total_length, identification,
    flags_frag, ttl, protocol, checksum, src_addr, dst_addr); the payload is
    b[IPV4_HEADER_LEN:].
    """
    n = len(b)
    if n < IPV4_HEADER_LEN:
        raise Truncated(f"IPv4 header needs 20 bytes, got {n}")
    fields = _IPV4_STRUCT.unpack_from(b)
    ver_ihl, tos, total_length, ident, flags_frag, ttl, proto, checksum, src, dst = fields
    if ver_ihl != 0x45:
        if ver_ihl >> 4 != 4:
            raise InvalidHeader(f"version must be 4, got {ver_ihl >> 4}")
        raise UnsupportedOptions(f"ihl must be 5, got {ver_ihl & 0x0F}")
    if total_length != n:
        if total_length > n:
            raise Truncated(f"total_length {total_length} exceeds buffer {n}")
        raise InvalidHeader(f"trailing bytes: total_length {total_length}, buffer {n}")
    # the header checksum of these fields (see the note above)
    if 0xFFFE - (0x44FF + tos + total_length + ident + flags_frag + (ttl << 8) + proto
                 + src + dst) % 0xFFFF != checksum:
        raise BadChecksum(f"header checksum 0x{checksum:04x} does not verify")
    return fields


def pack_ipv4(tos: int, ident: int, flags_frag: int, ttl: int, protocol: int,
              src: int, dst: int, payload: bytes) -> bytes:
    """The IPv4 packer: version 4, ihl 5, total_length and checksum derived."""
    total_length = IPV4_HEADER_LEN + len(payload)
    if total_length > 0xFFFF:
        raise InvalidHeader(f"payload too long for IPv4: {len(payload)}")
    try:  # the header checksum, as in read_ipv4
        checksum = 0xFFFE - (0x44FF + tos + total_length + ident + flags_frag + (ttl << 8)
                             + protocol + src + dst) % 0xFFFF
        header = _IPV4_STRUCT.pack(0x45, tos, total_length, ident, flags_frag, ttl,
                                   protocol, checksum, src, dst)
    except (struct.error, TypeError) as exc:
        raise InvalidHeader(f"header field out of range: {exc}") from None
    return header + payload


def pack_esp_header(spi: int, seq: int) -> bytes:
    """Serialize the 8 ESP header bytes: SPI, Seq."""
    return _ESP_STRUCT.pack(spi, seq)


def read_esp_header(b: bytes) -> tuple[int, int]:
    """(spi, seq) from the ESP header at the start of b; rejects a short
    header and SPI 0."""
    if len(b) < ESP_HEADER_LEN:
        raise Truncated(f"ESP body needs 8 bytes, got {len(b)}")
    spi, seq = _ESP_STRUCT.unpack_from(b)
    if spi == 0:
        raise InvalidHeader("spi 0 is reserved for 'no SA'")
    return spi, seq


def pack_qesp_header(spi: int, seq: int, src_port: int | None, dst_port: int | None,
                     inner_protocol: int, flags: int) -> bytes:
    """Serialize the 16 header bytes: SPI, Seq, SrcPort, DstPort, Proto, Flags, Reserved.

    A None port is written as 0.  Field ranges are checked here; the engine
    derives every field from validated state, and read_qesp_header re-checks
    the header's invariants on the receiving side.
    """
    try:
        return _QESP_STRUCT.pack(spi, seq, src_port or 0, dst_port or 0, inner_protocol,
                                 flags, 0)
    except struct.error as exc:
        raise InvalidHeader(f"header field out of range: {exc}") from None


def read_qesp_header(b: bytes, offset: int = 0) -> tuple[int | None, ...]:
    """The Q-ESP header validator: rejects a short header, SPI 0, undefined
    flag bits, a nonzero reserved field and a nonzero port under a portless
    inner protocol in the 16 bytes at b[offset:].

    Returns (spi, seq, src_port, dst_port, inner_protocol, flags, reserved),
    the ports None for a portless inner protocol.
    """
    if len(b) - offset < QESP_HEADER_LEN:
        raise Truncated(f"Q-ESP header needs 16 bytes, got {len(b) - offset}")
    fields = _QESP_STRUCT.unpack_from(b, offset)
    spi, seq, src_port, dst_port, protocol, flags, reserved = fields
    if spi == 0:
        raise InvalidHeader("spi 0 is reserved for 'no SA'")
    if flags & ~QESP_VALID_FLAGS:
        raise InvalidHeader(f"undefined flag bits set: 0x{flags:02x}")
    if reserved != 0:
        raise InvalidHeader(f"reserved must be 0, got {reserved}")
    if protocol in PORT_PROTOCOLS:
        return fields
    if src_port or dst_port:
        raise InvalidHeader(f"protocol {protocol} has no ports, got {src_port}/{dst_port}")
    return spi, seq, None, None, protocol, flags, 0


def extract_ports(protocol: int, data: bytes,
                  offset: int = 0) -> tuple[int, int] | tuple[None, None]:
    """Source/destination ports of the segment at data[offset:]; None if portless.

    TCP and UDP both start with the two 16-bit ports; a segment too short to
    carry both is Truncated.  A Q-ESP segment is read one layer deep: its
    clear header must validate, and it has no ports.
    """
    if protocol in PORT_PROTOCOLS:
        if len(data) - offset < 4:
            raise Truncated(f"transport segment too short for ports: {len(data) - offset}")
        return _PORTS.unpack_from(data, offset)
    if protocol == IPPROTO_QESP:
        read_qesp_header(data, offset)
    return None, None
