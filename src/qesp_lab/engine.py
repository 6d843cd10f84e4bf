"""Q-ESP and ESP encapsulation/decapsulation, plus overhead accounting.

One encap path (outbound) and one decap path (inbound) serve both protocols:
Q-ESP is classic ESP (RFC 4303) with a 16-byte clear header (SPI, Seq, inner
ports and protocol, flags) instead of ESP's 8-byte one, no next-header byte
in its trailer, and optional ICV coverage of the outer header.  LAYOUTS holds
the per-variant wire facts, which per_packet_overhead reads too; the paths
branch on the variant only to build or read the header, for ESP's
next-header tail and for the post-decrypt check (Q-ESP five-tuple
cross-check, ESP IP-in-IP check).

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

Inbound processing order (RFC 4303 §3.4.3): SPI lookup, length check, ICV
verification, then the anti-replay check and window update and the decrypt
under the SA's lock (sa.unseal), then pad check, post-decrypt check, rebuild.
The RFC allows a cheap replay pre-check ahead of the ICV; here the ICV comes
first, so a forged packet is AuthFailure whatever its sequence number, and
the replay window only ever advances on authenticated traffic.  Outbound
holds the lock once too, over seq, IV and encrypt (sa.seal).

Every header and port read and every header write is one wire call:
read_ipv4/pack_ipv4 for the IPv4 header, read_/pack_qesp_header or
read_/pack_esp_header for the protocol header, and extract_ports for the
ports (Q-ESP outbound, five_tuple_of, the decap cross-check).  wire alone
decides which packets have ports, so the engine and the classifier read one
five-tuple and reject a malformed packet with one MalformedPacket subclass.

The ICV coverage is hashed in place: the zeroed outer header of extended auth
goes to the MAC as a separate prefix, and decap passes the covered body as a
memoryview slice, so neither direction joins or copies the coverage.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from . import crypto, wire
from .crypto import CipherAlg, MacAlg
from .errors import (
    AuthFailure,
    BadBlockAlignment,
    BadPadding,
    FiveTupleMismatch,
    InvalidHeader,
    OversizePacket,
    Truncated,
    UnknownSpi,
)
from .sadb import FiveTuple, ProtocolVariant, Sadb, SaMode, SecurityAssociation
from .wire import (
    DEFAULT_TTL,
    ESP_HEADER_LEN,
    IPPROTO_ESP,
    IPPROTO_QESP,
    IPV4_HEADER_LEN,
    QESP_FLAG_EXTENDED_AUTH,
    QESP_HEADER_LEN,
)

IPPROTO_IPIP = 4  # ESP tunnel-mode next_header


class Layout(NamedTuple):
    """What one encapsulation variant puts on the wire."""

    ip_protocol: int    # outer IP protocol number
    header_len: int     # protocol header ahead of the IV
    trailer_fixed: int  # trailer bytes after the pad
    label: str          # protocol name in error messages


LAYOUTS = {
    # pad_length only: the protocol identifier travels in the clear header.
    ProtocolVariant.QESP: Layout(IPPROTO_QESP, QESP_HEADER_LEN, 1, "Q-ESP"),
    # pad_length + next_header.
    ProtocolVariant.ESP: Layout(IPPROTO_ESP, ESP_HEADER_LEN, 2, "ESP"),
}
_BY_PROTOCOL = {layout.ip_protocol: (variant, layout) for variant, layout in LAYOUTS.items()}

# Extended coverage: the outer header with its mutable fields (ToS,
# flags_frag, TTL, checksum) read as zero, so in-transit DSCP remarking, TTL
# decrement and checksum rewrites do not break the ICV.  Packs ver_ihl,
# total_length, identification, protocol, src, dst.
_ZEROED_OUTER = struct.Struct(">BxHH3xBxxII")


def outbound(sa: SecurityAssociation, datagram: bytes) -> bytes:
    """Encapsulate one IPv4 datagram under sa.

    Q-ESP carries cleartext copies of the inner ports and transport protocol
    in its header; ESP hides them inside the ciphertext, which is exactly why
    ESP traffic defeats port-based classifiers.  Either way the original
    segment (transport mode) or the whole inner datagram (tunnel mode)
    travels intact inside the ciphertext.
    """
    layout = LAYOUTS[sa.variant]
    _, tos, _, ident, flags_frag, ttl, protocol, _, src, dst = wire.read_ipv4(datagram)
    qesp = sa.variant is ProtocolVariant.QESP
    if qesp:
        # Read before a sequence number is spent on a malformed segment.
        src_port, dst_port = wire.extract_ports(protocol, datagram, IPV4_HEADER_LEN)

    if sa.mode is SaMode.TRANSPORT:
        plaintext = datagram[IPV4_HEADER_LEN:]
        next_header = protocol
    else:
        plaintext = datagram
        next_header = IPPROTO_IPIP
        ident, flags_frag, ttl, src, dst = 0, 0, DEFAULT_TTL, sa.tunnel_src, sa.tunnel_dst

    pad_len = crypto.compute_pad_len(len(plaintext), layout.trailer_fixed,
                                     sa.cipher_state.effective_block)
    trailer = crypto.make_pad(pad_len) + bytes([pad_len])
    if not qesp:
        trailer += bytes([next_header])
    seq, iv, ciphertext = sa.seal(plaintext + trailer)
    if qesp:
        header = wire.pack_qesp_header(sa.spi, seq, src_port, dst_port, protocol,
                                       QESP_FLAG_EXTENDED_AUTH if sa.extended_auth else 0)
    else:
        header = wire.pack_esp_header(sa.spi, seq)
    body = header + iv + ciphertext

    total = IPV4_HEADER_LEN + len(body) + sa.mac_state.icv_len
    if total > 0xFFFF:
        raise OversizePacket(f"encapsulated datagram would be {total} bytes")
    prefix = (_ZEROED_OUTER.pack(0x45, total, ident, layout.ip_protocol, src, dst)
              if sa.extended_auth else b"")
    icv = crypto.compute_icv(sa.mac_state, body, prefix)
    return wire.pack_ipv4(tos, ident, flags_frag, ttl, layout.ip_protocol, src, dst, body + icv)


def _strip_trailer(padded: bytes, trailer_fixed: int) -> bytes:
    """Split decrypted plaintext from its trailer; verifies the filler pad."""
    if len(padded) < trailer_fixed:
        raise BadPadding("decrypted payload shorter than its trailer")
    end = len(padded) - trailer_fixed
    pad_len = padded[end]
    if pad_len > end:
        raise BadPadding(f"pad_length {pad_len} exceeds payload")
    if not crypto.check_pad(padded[end - pad_len:end]):
        raise BadPadding("pad bytes are not the monotonic filler")
    return padded[:end - pad_len]


def _check_clear_copies(clear_ports: tuple[int, int], clear_protocol: int,
                        mode: SaMode, plaintext: bytes) -> None:
    """The Q-ESP clear five-tuple copies must equal the decrypted originals."""
    if mode is SaMode.TRANSPORT:
        ports = wire.extract_ports(clear_protocol, plaintext)
        if ports != clear_ports:
            raise FiveTupleMismatch(f"clear ports {clear_ports} != inner ports {ports}")
        return
    inner_protocol = wire.read_ipv4(plaintext)[6]
    ports = wire.extract_ports(inner_protocol, plaintext, IPV4_HEADER_LEN)
    if inner_protocol != clear_protocol or ports != clear_ports:
        raise FiveTupleMismatch("clear five-tuple copies disagree with inner datagram")


def inbound(sadb: Sadb, datagram: bytes) -> bytes:
    """Decapsulate one Q-ESP or ESP datagram (told apart by the outer IP
    protocol number) back to the original IPv4 datagram."""
    _, tos, total, ident, flags_frag, ttl, protocol, _, src, dst = wire.read_ipv4(datagram)
    if protocol not in _BY_PROTOCOL:
        raise InvalidHeader(f"IP protocol {protocol} is not an encapsulation")
    variant, layout = _BY_PROTOCOL[protocol]
    body = datagram[IPV4_HEADER_LEN:]
    if variant is ProtocolVariant.QESP:
        spi, seq, src_port, dst_port, inner_protocol, _, _ = wire.read_qesp_header(body)
    else:
        spi, seq = wire.read_esp_header(body)
    sa = sadb.lookup_by_spi(spi)
    if sa is None or sa.variant is not variant:
        raise UnknownSpi(f"no {layout.label} SA for SPI 0x{spi:x}")

    # The format is not self-describing: the IV and ICV lengths come from the
    # SA, and at least one ciphertext byte must sit between them.
    iv_end = layout.header_len + sa.cipher_state.iv_len
    icv_len = sa.mac_state.icv_len
    icv_start = len(body) - icv_len
    if icv_start <= iv_end:
        raise Truncated(f"{layout.label} packet needs >= {iv_end + icv_len + 1} "
                        f"bytes, got {len(body)}")
    prefix = (_ZEROED_OUTER.pack(0x45, total, ident, protocol, src, dst)
              if sa.extended_auth else b"")
    if not crypto.verify_icv(sa.mac_state, memoryview(body)[:icv_start], body[icv_start:],
                             prefix):
        raise AuthFailure(f"ICV mismatch on SPI 0x{sa.spi:x}")
    try:
        padded = sa.unseal(seq, body[layout.header_len:iv_end], body[iv_end:icv_start])
    except BadBlockAlignment as exc:
        # Only reachable under a NULL MAC; a real ICV catches tampering first.
        raise BadPadding(str(exc)) from None
    plaintext = _strip_trailer(padded, layout.trailer_fixed)

    if variant is ProtocolVariant.QESP:
        _check_clear_copies((src_port, dst_port), inner_protocol, sa.mode, plaintext)
    else:
        inner_protocol = padded[-1]  # the next_header tail
        if sa.mode is SaMode.TUNNEL:
            if inner_protocol != IPPROTO_IPIP:
                raise BadPadding(f"tunnel-mode next_header {inner_protocol} is not IP-in-IP")
            wire.read_ipv4(plaintext)  # validate before handing the datagram back
    if sa.mode is SaMode.TUNNEL:
        return plaintext
    return wire.pack_ipv4(tos, ident, flags_frag, ttl, inner_protocol, src, dst, plaintext)


def per_packet_overhead(variant: ProtocolVariant, mode: SaMode, cipher: CipherAlg,
                        mac: MacAlg, transport_payload_len: int) -> int:
    """Bytes added to the wire packet by encapsulation.

    header + IV + pad + fixed trailer + ICV, plus 20 bytes for the fresh
    outer IP header in tunnel mode.  Q-ESP trades ESP's in-trailer
    next_header byte (and 8-byte header) for its 16-byte clear header:
    +7 bytes before padding effects.
    """
    layout = LAYOUTS[variant]
    tunnel_extra = IPV4_HEADER_LEN if mode is SaMode.TUNNEL else 0
    pad_len = crypto.compute_pad_len(transport_payload_len + tunnel_extra,
                                     layout.trailer_fixed, cipher.effective_block)
    return (layout.header_len + cipher.iv_len + pad_len + layout.trailer_fixed
            + mac.icv_len + tunnel_extra)


def five_tuple_of(datagram: bytes) -> FiveTuple:
    """Five-tuple of an IPv4 datagram for outbound SA selection."""
    protocol, _, src, dst = wire.read_ipv4(datagram)[6:]
    return FiveTuple(src, dst, protocol, *wire.extract_ports(protocol, datagram, IPV4_HEADER_LEN))
