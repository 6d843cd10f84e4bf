"""Q-ESP and ESP encapsulation/decapsulation, plus overhead accounting.

Both protocols follow encrypt-then-MAC.  Outbound transport mode protects the
transport segment in place under the original IP header (protocol number
rewritten); tunnel mode encrypts the whole inner datagram under a fresh outer
header between the tunnel endpoints.  DSCP bits are never altered by
encapsulation, so edge classifiers keep working.

Auth coverage comes in two variants:

* esp-like — protocol header || IV || ciphertext (classic ESP coverage);
* extended — zeroed-mutable outer IPv4 header || Q-ESP header || IV ||
  ciphertext, where tos_dscp, flags_frag, ttl and checksum read as zero.
  Q-ESP only, selected by header flag bit 0.  This adds AH-style protection
  of the immutable outer fields while leaving the DSCP remarkable in transit.

Inbound processing order: SPI lookup, ICV verification, anti-replay check,
decrypt, pad check, five-tuple cross-check (Q-ESP), rebuild.  The replay
window only ever advances on authenticated traffic.

Each direction validates the outer IPv4 header once (wire.read_ipv4) and
builds outer headers, extended coverage and rebuilt datagrams from those
validated fields (wire.pack_ipv4); every port read goes through
extract_ports.
"""

from __future__ import annotations

import struct

from . import crypto, wire
from .crypto import CipherAlg, MacAlg
from .errors import (
    AuthFailure,
    BadBlockAlignment,
    BadPadding,
    FiveTupleMismatch,
    InvalidHeader,
    MalformedPacket,
    OversizePacket,
    ReplayRejected,
    Truncated,
    UnknownSpi,
)
from .sadb import FiveTuple, ProtocolVariant, Sadb, SaMode, SecurityAssociation
from .wire import (
    DEFAULT_TTL,
    ESP_HEADER_LEN,
    IPPROTO_ESP,
    IPPROTO_QESP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPV4_HEADER_LEN,
    QESP_FLAG_EXTENDED_AUTH,
    QESP_HEADER_LEN,
)

IPPROTO_IPIP = 4  # ESP tunnel-mode next_header

QESP_TRAILER_FIXED = 1  # pad_length only; protocol identifier is in the clear header
ESP_TRAILER_FIXED = 2   # pad_length + next_header

_PORTS = struct.Struct(">HH")
_ESP_HEADER = struct.Struct(">II")
# Extended coverage: the outer header with its mutable fields (ToS,
# flags_frag, TTL, checksum) read as zero, so in-transit DSCP remarking, TTL
# decrement and checksum rewrites do not break the ICV.  Packs ver_ihl,
# total_length, identification, protocol, src, dst.
_ZEROED_OUTER = struct.Struct(">BxHH3xBxxII")


def extract_ports(protocol: int, data: bytes, offset: int = 0) -> tuple[int, int]:
    """Source/destination ports of the segment at data[offset:]; (0, 0) when portless.

    TCP and UDP both start with the two 16-bit ports; other protocols report
    0, which classifiers treat as "no port".  A TCP or UDP segment too short
    to carry both ports is malformed at every layer.
    """
    if protocol != IPPROTO_TCP and protocol != IPPROTO_UDP:
        return 0, 0
    if len(data) - offset < 4:
        raise MalformedPacket(f"transport segment too short for ports: {len(data) - offset}")
    return _PORTS.unpack_from(data, offset)


def _pad_and_encrypt(sa: SecurityAssociation, plaintext: bytes, trailer_fixed: int,
                     trailer_tail: bytes) -> tuple[bytes, bytes]:
    pad_len = crypto.compute_pad_len(len(plaintext), trailer_fixed, sa.cipher.effective_block)
    padded = plaintext + crypto.make_pad(pad_len) + bytes([pad_len]) + trailer_tail
    iv = sa.next_iv()
    return iv, crypto.encrypt(sa.cipher, sa.cipher_key, iv, padded, sa.cipher_algorithm)


def _checked_total(body_without_icv: bytes, icv_len: int) -> int:
    total = IPV4_HEADER_LEN + len(body_without_icv) + icv_len
    if total > 0xFFFF:
        raise OversizePacket(f"encapsulated datagram would be {total} bytes")
    return total


def outbound_qesp(sa: SecurityAssociation, datagram: bytes) -> bytes:
    """Encapsulate one IPv4 datagram under a Q-ESP SA.

    The Q-ESP header carries cleartext copies of the inner ports and
    transport protocol; the original segment (transport mode) or the whole
    inner datagram (tunnel mode) travels intact inside the ciphertext.
    """
    if sa.variant is not ProtocolVariant.QESP:
        raise InvalidHeader(f"SA 0x{sa.spi:x} is not a Q-ESP SA")
    _, tos, _, ident, flags_frag, ttl, protocol, _, src, dst = wire.read_ipv4(datagram)
    src_port, dst_port = extract_ports(protocol, datagram, IPV4_HEADER_LEN)

    if sa.mode is SaMode.TRANSPORT:
        plaintext = datagram[IPV4_HEADER_LEN:]
    else:
        plaintext = datagram
        ident, flags_frag, ttl, src, dst = 0, 0, DEFAULT_TTL, sa.tunnel_src, sa.tunnel_dst

    seq = sa.next_seq()
    iv, ciphertext = _pad_and_encrypt(sa, plaintext, QESP_TRAILER_FIXED, b"")

    body = wire.pack_qesp_header(
        sa.spi, seq, src_port, dst_port, protocol,
        QESP_FLAG_EXTENDED_AUTH if sa.extended_auth else 0) + iv + ciphertext

    total = _checked_total(body, sa.mac.icv_len)
    if sa.extended_auth:
        coverage = _ZEROED_OUTER.pack(0x45, total, ident, IPPROTO_QESP, src, dst) + body
    else:
        coverage = body
    icv = crypto.compute_icv(sa.mac, sa.mac_key, coverage)
    return wire.pack_ipv4(tos, ident, flags_frag, ttl, IPPROTO_QESP, src, dst, body + icv)


def _strip_trailer(padded: bytes, trailer_fixed: int) -> tuple[bytes, int]:
    """Split decrypted plaintext from its trailer; verifies the filler pad."""
    if len(padded) < trailer_fixed:
        raise BadPadding("decrypted payload shorter than its trailer")
    tail = padded[-1] if trailer_fixed == ESP_TRAILER_FIXED else 0
    pad_len = padded[-trailer_fixed]
    end = len(padded) - trailer_fixed
    if pad_len > end:
        raise BadPadding(f"pad_length {pad_len} exceeds payload")
    if not crypto.check_pad(padded[end - pad_len:end]):
        raise BadPadding("pad bytes are not the monotonic filler")
    return padded[:end - pad_len], tail


def _decrypt_checked(sa: SecurityAssociation, iv: bytes, ciphertext: bytes) -> bytes:
    try:
        return crypto.decrypt(sa.cipher, sa.cipher_key, iv, ciphertext, sa.cipher_algorithm)
    except BadBlockAlignment as exc:
        # Only reachable under a NULL MAC; a real ICV catches tampering first.
        raise BadPadding(str(exc)) from None


def inbound_qesp(sadb: Sadb, datagram: bytes) -> bytes:
    """Decapsulate one Q-ESP datagram back to the original IPv4 datagram."""
    return _inbound_qesp(sadb, datagram, wire.read_ipv4(datagram))


def _inbound_qesp(sadb: Sadb, datagram: bytes, fields: tuple[int, ...]) -> bytes:
    _, tos, total, ident, flags_frag, ttl, protocol, _, src, dst = fields
    if protocol != IPPROTO_QESP:
        raise InvalidHeader(f"IP protocol {protocol} is not Q-ESP")
    body = datagram[IPV4_HEADER_LEN:]
    qesp_header = wire.parse_qesp_header(body)
    sa = sadb.lookup_by_spi(qesp_header.spi)
    if sa is None or sa.variant is not ProtocolVariant.QESP:
        raise UnknownSpi(f"no Q-ESP SA for SPI 0x{qesp_header.spi:x}")

    packet = wire.parse_qesp_packet(body, sa.cipher.iv_len, sa.mac.icv_len)
    covered_body = body[:len(body) - sa.mac.icv_len]
    if sa.extended_auth:
        coverage = _ZEROED_OUTER.pack(0x45, total, ident, protocol, src, dst) + covered_body
    else:
        coverage = covered_body
    if not crypto.verify_icv(sa.mac, sa.mac_key, coverage, packet.icv):
        raise AuthFailure(f"ICV mismatch on SPI 0x{sa.spi:x}")
    if not sa.replay_check_and_update(qesp_header.seq):
        raise ReplayRejected(f"seq {qesp_header.seq} rejected by replay window")

    padded = _decrypt_checked(sa, packet.iv, packet.ciphertext)
    plaintext, _ = _strip_trailer(padded, QESP_TRAILER_FIXED)
    clear_ports = (qesp_header.src_port, qesp_header.dst_port)

    if sa.mode is SaMode.TRANSPORT:
        ports = extract_ports(qesp_header.inner_protocol, plaintext)
        if ports != clear_ports:
            raise FiveTupleMismatch(f"clear ports {clear_ports} != inner ports {ports}")
        return wire.pack_ipv4(tos, ident, flags_frag, ttl, qesp_header.inner_protocol,
                              src, dst, plaintext)

    inner_protocol = wire.read_ipv4(plaintext)[6]
    ports = extract_ports(inner_protocol, plaintext, IPV4_HEADER_LEN)
    if inner_protocol != qesp_header.inner_protocol or ports != clear_ports:
        raise FiveTupleMismatch("clear five-tuple copies disagree with inner datagram")
    return plaintext


def outbound_esp(sa: SecurityAssociation, datagram: bytes) -> bytes:
    """Encapsulate one IPv4 datagram under a classic ESP SA (the baseline).

    Ports and the transport protocol end up inside the ciphertext, which is
    exactly why ESP traffic defeats port-based classifiers.
    """
    if sa.variant is not ProtocolVariant.ESP:
        raise InvalidHeader(f"SA 0x{sa.spi:x} is not an ESP SA")
    _, tos, _, ident, flags_frag, ttl, protocol, _, src, dst = wire.read_ipv4(datagram)

    if sa.mode is SaMode.TRANSPORT:
        plaintext = datagram[IPV4_HEADER_LEN:]
        next_header = protocol
    else:
        plaintext = datagram
        next_header = IPPROTO_IPIP
        ident, flags_frag, ttl, src, dst = 0, 0, DEFAULT_TTL, sa.tunnel_src, sa.tunnel_dst

    seq = sa.next_seq()
    iv, ciphertext = _pad_and_encrypt(sa, plaintext, ESP_TRAILER_FIXED, bytes([next_header]))
    body = _ESP_HEADER.pack(sa.spi, seq) + iv + ciphertext

    _checked_total(body, sa.mac.icv_len)
    icv = crypto.compute_icv(sa.mac, sa.mac_key, body)
    return wire.pack_ipv4(tos, ident, flags_frag, ttl, IPPROTO_ESP, src, dst, body + icv)


def inbound_esp(sadb: Sadb, datagram: bytes) -> bytes:
    """Decapsulate one ESP datagram back to the original IPv4 datagram."""
    return _inbound_esp(sadb, datagram, wire.read_ipv4(datagram))


def _inbound_esp(sadb: Sadb, datagram: bytes, fields: tuple[int, ...]) -> bytes:
    _, tos, _, ident, flags_frag, ttl, protocol, _, src, dst = fields
    if protocol != IPPROTO_ESP:
        raise InvalidHeader(f"IP protocol {protocol} is not ESP")
    body = datagram[IPV4_HEADER_LEN:]
    if len(body) < ESP_HEADER_LEN:
        raise Truncated(f"ESP body needs 8 bytes, got {len(body)}")
    spi = _ESP_HEADER.unpack_from(body)[0]
    sa = sadb.lookup_by_spi(spi)
    if sa is None or sa.variant is not ProtocolVariant.ESP:
        raise UnknownSpi(f"no ESP SA for SPI 0x{spi:x}")

    packet = wire.parse_esp(body, sa.cipher.iv_len, sa.mac.icv_len)
    coverage = body[:len(body) - sa.mac.icv_len]
    if not crypto.verify_icv(sa.mac, sa.mac_key, coverage, packet.icv):
        raise AuthFailure(f"ICV mismatch on SPI 0x{sa.spi:x}")
    if not sa.replay_check_and_update(packet.seq):
        raise ReplayRejected(f"seq {packet.seq} rejected by replay window")

    padded = _decrypt_checked(sa, packet.iv, packet.ciphertext)
    plaintext, next_header = _strip_trailer(padded, ESP_TRAILER_FIXED)

    if sa.mode is SaMode.TRANSPORT:
        return wire.pack_ipv4(tos, ident, flags_frag, ttl, next_header, src, dst, plaintext)

    if next_header != IPPROTO_IPIP:
        raise BadPadding(f"tunnel-mode next_header {next_header} is not IP-in-IP")
    wire.read_ipv4(plaintext)  # validate before handing the datagram back
    return plaintext


def outbound(sa: SecurityAssociation, datagram: bytes) -> bytes:
    """Variant dispatch for callers holding an SA."""
    if sa.variant is ProtocolVariant.QESP:
        return outbound_qesp(sa, datagram)
    return outbound_esp(sa, datagram)


def inbound(sadb: Sadb, datagram: bytes) -> bytes:
    """Protocol dispatch on the outer IP protocol number."""
    fields = wire.read_ipv4(datagram)
    protocol = fields[6]
    if protocol == IPPROTO_QESP:
        return _inbound_qesp(sadb, datagram, fields)
    if protocol == IPPROTO_ESP:
        return _inbound_esp(sadb, datagram, fields)
    raise InvalidHeader(f"IP protocol {protocol} is not an encapsulation")


def per_packet_overhead(variant: ProtocolVariant, mode: SaMode, cipher: CipherAlg,
                        mac: MacAlg, transport_payload_len: int) -> int:
    """Bytes added to the wire packet by encapsulation.

    header + IV + pad + fixed trailer + ICV, plus 20 bytes for the fresh
    outer IP header in tunnel mode.  Q-ESP trades ESP's in-trailer
    next_header byte (and 8-byte header) for its 16-byte clear header:
    +7 bytes before padding effects.
    """
    if variant is ProtocolVariant.QESP:
        proto_header, trailer_fixed = QESP_HEADER_LEN, QESP_TRAILER_FIXED
    else:
        proto_header, trailer_fixed = ESP_HEADER_LEN, ESP_TRAILER_FIXED
    plaintext_len = transport_payload_len + (IPV4_HEADER_LEN if mode is SaMode.TUNNEL else 0)
    pad_len = crypto.compute_pad_len(plaintext_len, trailer_fixed, cipher.effective_block)
    tunnel_extra = IPV4_HEADER_LEN if mode is SaMode.TUNNEL else 0
    return proto_header + cipher.iv_len + pad_len + trailer_fixed + mac.icv_len + tunnel_extra


def five_tuple_of(datagram: bytes) -> FiveTuple:
    """Five-tuple of a plain (unencapsulated) IPv4 datagram."""
    protocol, _, src, dst = wire.read_ipv4(datagram)[6:]
    src_port, dst_port = extract_ports(protocol, datagram, IPV4_HEADER_LEN)
    return FiveTuple(src_addr=src, dst_addr=dst, protocol=protocol,
                     src_port=src_port, dst_port=dst_port)
