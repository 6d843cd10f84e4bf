"""Multi-field classifier: wire packet -> DSCP class, by rule table.

The classifier models active admission control at a link ingress: it reads
whatever five-tuple fields are readable from the packet itself (no keys) and
remarks the DSCP bits accordingly.

Every read goes through wire, which alone decides which ports a packet
shows (see its docstring): the IPv4 header is validated once
(wire.read_ipv4), a Q-ESP (253) datagram shows the inner protocol and ports
of its validated clear header (wire.read_qesp_header at offset 20, one layer
only), and any other datagram its own protocol and the ports
wire.extract_ports reads, so ESP (50) shows no ports.  A header that does
not read raises the wire's MalformedPacket subclass, the same class SA
selection, encap and decap raise for it.

A rule that constrains a port can never match a packet whose ports are
unavailable, which is exactly how ESP traffic degrades to the default class.

Each RuleTable memoises the DSCP per raw flow key.  classify_and_remark, the
one per-packet entry point, is the memo's one reader and writer: a known flow
costs one dict probe, a miss builds the FiveTuple for dscp_for and stores the
answer, so the memo pays off only when flows repeat.  It is exact (table,
rules and selectors are frozen, so dscp_for is pure), is emptied at MEMO_LIMIT
keys, and takes no part in equality, hashing or dataclasses.replace.

Remarking repacks the header with wire.pack_ipv4 from the fields read_ipv4
returned, with only the DSCP bits of the ToS byte changed (ECN bits kept), so
the packer derives the new checksum; a packet whose ToS already carries the
chosen DSCP is returned unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import wire
from .errors import check_int
from .sadb import FiveTuple, Selector, first_match
from .wire import IPPROTO_QESP, IPV4_HEADER_LEN

MEMO_LIMIT = 4096


@dataclass(frozen=True)
class ClassifierRule:
    selector: Selector
    dscp: int

    def __post_init__(self) -> None:
        check_int(self.dscp, "dscp", 0, 63)


@dataclass(frozen=True)
class RuleTable:
    """Ordered first-match rules with a default (best-effort) code point."""

    rules: tuple[ClassifierRule, ...] = ()
    default_dscp: int = 0
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_int(self.default_dscp, "default_dscp", 0, 63)

    def dscp_for(self, ft: FiveTuple) -> int:
        """The first matching rule's DSCP, else the default."""
        rule = first_match(self.rules, ft)
        return self.default_dscp if rule is None else rule.dscp


def _flow_key(packet: bytes, fields: tuple[int, ...]) -> tuple:
    """(src, dst, protocol, src_port, dst_port), in FiveTuple field order."""
    protocol, _, src, dst = fields[6:]
    if protocol == IPPROTO_QESP:
        _, _, src_port, dst_port, protocol, _, _ = wire.read_qesp_header(packet, IPV4_HEADER_LEN)
    else:
        src_port, dst_port = wire.extract_ports(protocol, packet, IPV4_HEADER_LEN)
    return src, dst, protocol, src_port, dst_port


def extract_fields(packet: bytes) -> FiveTuple:
    """The five-tuple a keyless observer reads from one wire datagram."""
    return FiveTuple(*_flow_key(packet, wire.read_ipv4(packet)))


def classify_and_remark(table: RuleTable, packet: bytes) -> tuple[int, bytes]:
    """Classify (first matching rule wins, else the default), then write the
    chosen DSCP into the packet's ToS byte."""
    fields = wire.read_ipv4(packet)
    key = _flow_key(packet, fields)
    dscp = table._memo.get(key)
    if dscp is None:
        dscp = table.dscp_for(FiveTuple(*key))
        if len(table._memo) >= MEMO_LIMIT:
            table._memo.clear()
        table._memo[key] = dscp
    _, tos, _, ident, flags_frag, ttl, protocol, _, src, dst = fields
    new_tos = (dscp << 2) | (tos & 0x03)
    if new_tos == tos:
        return dscp, packet
    return dscp, wire.pack_ipv4(new_tos, ident, flags_frag, ttl, protocol, src, dst,
                                packet[IPV4_HEADER_LEN:])
