"""Security Association database.

An SA governs one direction of one tunnel: algorithms, keys, the outbound
sequence counter, the inbound anti-replay window, and the selector that
matches outbound traffic onto it.  The database resolves outbound packets by
first-match over selectors (insertion order) and inbound packets by SPI.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from .crypto import CipherAlg, CipherState, IvGenerator, MacAlg, MacState, decrypt, encrypt
from .errors import ConfigError, DuplicateSpi, ReplayRejected, SequenceExhausted, check_int
from .wire import (
    ESP_HEADER_LEN,
    IPPROTO_ESP,
    IPPROTO_QESP,
    QESP_HEADER_LEN,
    addr_to_int,
    parse_decimal,
)

REPLAY_WINDOW = 64
SEQ_MAX = 0xFFFFFFFF
_MASK64 = SEED_MAX = (1 << 64) - 1  # SEED_MAX: top run seed and IV seed


class ProtocolVariant(enum.Enum):
    """Encapsulation protocol of an SA: a row is (name, ip_protocol, header_len,
    trailer_fixed, label), the name its value.  header_len is the clear header
    ahead of the IV, trailer_fixed the trailer bytes after the pad, and label
    the protocol's name in error messages."""

    # pad_length only: the protocol identifier travels in the clear header.
    QESP = ("qesp", IPPROTO_QESP, QESP_HEADER_LEN, 1, "Q-ESP")
    # pad_length + next_header (RFC 4303 §2).
    ESP = ("esp", IPPROTO_ESP, ESP_HEADER_LEN, 2, "ESP")

    def __new__(cls, value: str, ip_protocol: int, header_len: int, trailer_fixed: int,
                label: str) -> ProtocolVariant:
        member = object.__new__(cls)
        member._value_ = value
        member.ip_protocol, member.header_len = ip_protocol, header_len
        member.trailer_fixed, member.label = trailer_fixed, label
        return member


class SaMode(enum.Enum):
    TRANSPORT = "transport"
    TUNNEL = "tunnel"


@dataclass(frozen=True)
class FiveTuple:
    """Flow identity: addresses, transport protocol and ports.

    Read from a packet, the ports are None where wire reads none.  No port
    constraint matches a None port.  Configured flows default to port 0, and
    a portless flow's configured ports are read as None for SA selection
    (netsim.TrafficSource.shown_five_tuple).
    """

    src_addr: int
    dst_addr: int
    protocol: int
    src_port: int | None = 0
    dst_port: int | None = 0


@dataclass(frozen=True)
class Ipv4Net:
    """Address prefix, e.g. 10.0.0.0/8; prefix 0 matches everything."""

    addr: int
    prefix: int
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.prefix <= 32:
            raise ConfigError(f"prefix out of range: {self.prefix}")
        object.__setattr__(self, "mask", (0xFFFFFFFF << (32 - self.prefix)) & 0xFFFFFFFF)

    @classmethod
    def parse(cls, text: str) -> "Ipv4Net":
        if text == "any":
            return cls(0, 0)
        addr_part, slash, prefix_part = text.partition("/")
        return cls(addr_to_int(addr_part), parse_decimal(prefix_part) if slash else 32)

    def contains(self, addr: int) -> bool:
        return (addr ^ self.addr) & self.mask == 0


ANY_NET = Ipv4Net(0, 0)

# Inclusive port range; None means "any".
PortRange = tuple[int, int]


@dataclass(frozen=True)
class Selector:
    """Five-tuple pattern with wildcards and inclusive port ranges."""

    src_net: Ipv4Net = ANY_NET
    dst_net: Ipv4Net = ANY_NET
    protocol: int | None = None
    src_ports: PortRange | None = None
    dst_ports: PortRange | None = None

    def __post_init__(self) -> None:
        if self.protocol is not None:
            check_int(self.protocol, "protocol", 0, 255)
        for name, ports in (("src_ports", self.src_ports), ("dst_ports", self.dst_ports)):
            if ports is not None:
                if type(ports) is not tuple or len(ports) != 2:
                    raise ConfigError(f"{name} must be a (lo, hi) tuple, got {ports!r}")
                check_int(ports[0], f"{name} lo", 0, 65535)
                check_int(ports[1], f"{name} hi", ports[0], 65535)

    def matches(self, ft: FiveTuple) -> bool:
        if self.protocol is not None and self.protocol != ft.protocol:
            return False
        ports, port = self.src_ports, ft.src_port
        if ports is not None and (port is None or not ports[0] <= port <= ports[1]):
            return False
        ports, port = self.dst_ports, ft.dst_port
        if ports is not None and (port is None or not ports[0] <= port <= ports[1]):
            return False
        return self.src_net.contains(ft.src_addr) and self.dst_net.contains(ft.dst_addr)


@dataclass
class SecurityAssociation:
    """One direction of one protected flow: one SAD entry.

    The constructor takes the SA's parameters only.  Its state (seq_next,
    the replay window, the IV stream and the keyed crypto contexts) is always
    built fresh, so dataclasses.replace(sa) yields a new SA with the same
    parameters and none of sa's state: configs keep SAs as templates and give
    each run such copies.  seq_next only ever increases and is never reused;
    replay_highest tracks the greatest authenticated sequence number seen
    inbound.

    cipher_state holds the persistent CBC contexts, which the SA's first
    encrypt or decrypt opens (see the crypto module), and mac_state the keyed
    HMAC pad states.  One lock guards all of the SA's mutable state (sequence,
    replay window, IV stream, CBC chain).  seal and unseal each take it once
    per packet, so one SA serializes its packets while distinct SAs may be
    processed concurrently.
    """

    spi: int
    variant: ProtocolVariant
    mode: SaMode
    cipher: CipherAlg
    cipher_key: bytes
    mac: MacAlg
    mac_key: bytes
    selector: Selector = Selector()
    extended_auth: bool = False
    tunnel_src: int | None = None
    tunnel_dst: int | None = None
    iv_seed: int = 0
    seq_next: int = field(default=1, init=False)
    replay_highest: int = field(default=0, init=False)
    replay_bitmap: int = field(default=0, init=False)
    cipher_state: CipherState = field(init=False, repr=False, compare=False)
    mac_state: MacState = field(init=False, repr=False, compare=False)
    _iv_gen: IvGenerator = field(init=False, repr=False, compare=False)
    _lock: threading.Lock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_int(self.spi, "spi", 1, 0xFFFFFFFF)
        check_int(self.iv_seed, "iv_seed", 0, SEED_MAX)
        self.cipher_state = CipherState(self.cipher, self.cipher_key)
        self.mac_state = MacState(self.mac, self.mac_key)
        if self.variant is ProtocolVariant.ESP and self.extended_auth:
            raise ConfigError("extended_auth is a Q-ESP feature; ESP never covers the outer header")
        if self.mode is SaMode.TUNNEL and (self.tunnel_src is None or self.tunnel_dst is None):
            raise ConfigError("tunnel mode needs tunnel src and dst")
        for name, addr in (("tunnel_src", self.tunnel_src), ("tunnel_dst", self.tunnel_dst)):
            if addr is not None:
                check_int(addr, name, 0, 0xFFFFFFFF)
        self._iv_gen = IvGenerator(self.iv_seed)
        self._lock = threading.Lock()

    def seal(self, data: bytes) -> tuple[int, bytes, bytes]:
        """Issue seq and IV and encrypt data under them, in one hold of the SA's lock.

        The identity cipher (iv_len 0) draws no IV and returns data as it is.
        """
        with self._lock:
            seq = self.next_seq()
            if not self.cipher.iv_len:
                return seq, b"", data
            iv = self.next_iv()
            return seq, iv, encrypt(self.cipher_state, iv, data)

    def unseal(self, seq: int, iv: bytes, ciphertext: bytes) -> bytes:
        """After ICV verification: replay check and update, then decrypt, in one
        lock hold; the identity cipher (iv_len 0) returns ciphertext as it is."""
        with self._lock:
            if not self.replay_check_and_update(seq):
                raise ReplayRejected(f"seq {seq} rejected by replay window")
            return decrypt(self.cipher_state, iv, ciphertext) if self.cipher.iv_len else ciphertext

    def next_seq(self) -> int:
        """Issue the next outbound sequence number from 1; the caller holds the SA's lock.

        Raises SequenceExhausted once the counter reaches its 32-bit ceiling;
        the SA must be rekeyed, there is no silent wrap.
        """
        if self.seq_next >= SEQ_MAX:
            raise SequenceExhausted(f"SA 0x{self.spi:x} sequence space used up")
        seq = self.seq_next
        self.seq_next += 1
        return seq

    def next_iv(self) -> bytes:
        """Next IV of the SA's stream; the caller holds the SA's lock."""
        return self._iv_gen.next_iv(self.cipher.iv_len)

    def replay_check_and_update(self, seq: int) -> bool:
        """Anti-replay decision after ICV verification; the caller holds the SA's lock.

        Window covers [replay_highest - 63, replay_highest].  Above the window
        the window advances; inside it, unseen numbers are marked and accepted,
        duplicates and anything older than the window are rejected.
        """
        if seq == 0:
            return False
        if seq > self.replay_highest:
            shift = seq - self.replay_highest
            if shift >= REPLAY_WINDOW:
                self.replay_bitmap = 1
            else:
                self.replay_bitmap = ((self.replay_bitmap << shift) | 1) & _MASK64
            self.replay_highest = seq
            return True
        diff = self.replay_highest - seq
        if diff >= REPLAY_WINDOW:
            return False
        bit = 1 << diff
        if self.replay_bitmap & bit:
            return False
        self.replay_bitmap |= bit
        return True


def first_match(entries, ft: FiveTuple):
    """The first of entries (SAs or classifier rules) whose selector matches ft, else None."""
    for entry in entries:
        if entry.selector.matches(ft):
            return entry
    return None


class Sadb:
    """SA registry indexed by SPI; the dict's insertion order is the
    selectors' first-match order."""

    def __init__(self) -> None:
        self._by_spi: dict[int, SecurityAssociation] = {}

    def add_sa(self, sa: SecurityAssociation) -> None:
        if sa.spi in self._by_spi:
            raise DuplicateSpi(f"SPI 0x{sa.spi:x} already registered")
        self._by_spi[sa.spi] = sa

    def lookup_by_spi(self, spi: int) -> SecurityAssociation | None:
        return self._by_spi.get(spi)

    def lookup_outbound(self, ft: FiveTuple) -> SecurityAssociation | None:
        """First SA (insertion order) whose selector matches; None = bypass."""
        return first_match(self._by_spi.values(), ft)
