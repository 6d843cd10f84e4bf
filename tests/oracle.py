"""An IPv4 model written from RFC 791, for differential tests.

It shares no code with the package: the header layout, the checksum and the
field checks below are written from the RFCs, so a test that compares the
package's IPv4 validator or packer with this model compares two independent
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

The golden packet fixtures (tests/fixtures/*.hex) are whitespace-insensitive
hex of a record stream: each record is a big-endian u32 byte count followed
by that many datagram bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

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
