"""Multi-field classifier: wire packet -> DSCP class, by rule table.

The classifier models active admission control at a link ingress: it reads
whatever five-tuple fields are readable from the packet itself (no keys) and
remarks the DSCP bits accordingly.

Each packet's IPv4 header is validated once (wire.read_ipv4); the fields are
then read at fixed datagram offsets.  Readability per outer protocol:

* plain TCP/UDP — ports at offset 20 (engine.extract_ports, so a segment too
  short for ports is MalformedPacket here as in the engine);
* Q-ESP (253)   — ports and inner protocol from the clear header at fixed
  offsets 28-32 of the datagram; ports unavailable when the inner protocol
  is neither TCP nor UDP, exactly as for the plain datagram.  One layer
  only: a well-formed nested Q-ESP datagram shows inner protocol 253 and no
  ports, not the nested clear header.  A body shorter than the 16-byte clear
  header is MalformedPacket, here as in the engine;
* ESP (50)      — ports unavailable (encrypted); protocol reported as 50 so
  rules may still match on the ESP protocol number itself;
* anything else — ports unavailable.

A rule that constrains a port can never match a packet whose ports are
unavailable, which is exactly how ESP traffic degrades to the default class.

Remarking rewrites only the ToS byte (ECN bits kept) and refreshes the header
checksum over the 20 header bytes; a packet whose ToS already carries the
chosen DSCP is returned unchanged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import engine, wire
from .errors import ConfigError, InvalidHeader, MalformedPacket, QespLabError
from .sadb import FiveTuple, Selector
from .wire import IPPROTO_QESP, IPPROTO_TCP, IPPROTO_UDP, IPV4_HEADER_LEN, QESP_HEADER_LEN

# Clear copies in the Q-ESP header (after its SPI and Seq): SrcPort, DstPort
# and Proto at datagram offsets 28-32.
_QESP_CLEAR = struct.Struct(">HHB")
_QESP_CLEAR_AT = IPV4_HEADER_LEN + 8
_CHECKSUM = struct.Struct(">H")


@dataclass(frozen=True)
class ClassifierRule:
    selector: Selector
    dscp: int

    def __post_init__(self) -> None:
        if not 0 <= self.dscp <= 63:
            raise ConfigError(f"dscp out of range: {self.dscp}")


@dataclass(frozen=True)
class RuleTable:
    """Ordered first-match rules with a default (best-effort) code point."""

    rules: tuple[ClassifierRule, ...] = ()
    default_dscp: int = 0

    def dscp_for(self, ft: FiveTuple) -> int:
        """The first matching rule's DSCP, else the default."""
        for rule in self.rules:
            if rule.selector.matches(ft):
                return rule.dscp
        return self.default_dscp


def _read_ipv4(packet: bytes) -> tuple[int, ...]:
    try:
        return wire.read_ipv4(packet)
    except QespLabError as exc:
        raise MalformedPacket(str(exc)) from None


def _five_tuple(packet: bytes, fields: tuple[int, ...]) -> FiveTuple:
    protocol, _, src, dst = fields[6:]
    if protocol == IPPROTO_QESP:
        if len(packet) < IPV4_HEADER_LEN + QESP_HEADER_LEN:
            raise MalformedPacket(
                f"Q-ESP header truncated: {len(packet) - IPV4_HEADER_LEN} bytes")
        src_port, dst_port, protocol = _QESP_CLEAR.unpack_from(packet, _QESP_CLEAR_AT)
        if protocol != IPPROTO_TCP and protocol != IPPROTO_UDP:
            src_port = dst_port = None  # the 0/0 copies of a portless protocol
    elif protocol == IPPROTO_TCP or protocol == IPPROTO_UDP:
        src_port, dst_port = engine.extract_ports(protocol, packet, IPV4_HEADER_LEN)
    else:
        src_port = dst_port = None  # encrypted (ESP) or not a port protocol
    return FiveTuple(src, dst, protocol, src_port, dst_port)


def extract_fields(packet: bytes) -> FiveTuple:
    """The five-tuple a keyless observer reads from one wire datagram."""
    return _five_tuple(packet, _read_ipv4(packet))


def classify(table: RuleTable, packet: bytes) -> int:
    """DSCP for one packet: first matching rule wins, else the default."""
    return table.dscp_for(extract_fields(packet))


def _remark(packet: bytes, tos: int, dscp: int) -> bytes:
    if not 0 <= dscp <= 63:
        raise InvalidHeader(f"dscp out of range: {dscp}")
    new_tos = (dscp << 2) | (tos & 0x03)
    if new_tos == tos:
        return packet
    header = bytearray(packet[:IPV4_HEADER_LEN])
    header[1] = new_tos
    _CHECKSUM.pack_into(header, 10, wire.ipv4_checksum(header))
    return bytes(header) + packet[IPV4_HEADER_LEN:]


def remark_dscp(packet: bytes, dscp: int) -> bytes:
    """Rewrite the DSCP bits (ECN untouched) and fix the header checksum."""
    return _remark(packet, _read_ipv4(packet)[1], dscp)


def classify_and_remark(table: RuleTable, packet: bytes) -> tuple[int, bytes]:
    """Classify, then write the chosen DSCP into the packet's ToS byte."""
    fields = _read_ipv4(packet)
    dscp = table.dscp_for(_five_tuple(packet, fields))
    return dscp, _remark(packet, fields[1], dscp)
