"""Shared builders for the test suite."""

from __future__ import annotations

import random
import struct
from pathlib import Path

import pytest

import oracle
from qesp_lab import netsim, wire
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.sadb import (
    ProtocolVariant,
    Sadb,
    SaMode,
    SecurityAssociation,
    Selector,
)

FIXTURES = Path(__file__).parent / "fixtures"

# deterministic test keys, long enough for any algorithm
KEY_BYTES = bytes(range(64))

TUNNEL_SRC = wire.addr_to_int("192.0.2.1")
TUNNEL_DST = wire.addr_to_int("192.0.2.2")


def make_sa(variant=ProtocolVariant.QESP, mode=SaMode.TRANSPORT,
            cipher=CipherAlg.AES_128_CBC, mac=MacAlg.HMAC_SHA1_96,
            spi=0x101, extended_auth=False, iv_seed=0xDEADBEEF,
            selector=Selector()) -> SecurityAssociation:
    return SecurityAssociation(
        spi=spi, variant=variant, mode=mode,
        cipher=cipher, cipher_key=KEY_BYTES[:cipher.key_len],
        mac=mac, mac_key=KEY_BYTES[:mac.key_len],
        selector=selector, extended_auth=extended_auth,
        tunnel_src=TUNNEL_SRC if mode is SaMode.TUNNEL else None,
        tunnel_dst=TUNNEL_DST if mode is SaMode.TUNNEL else None,
        iv_seed=iv_seed)


def sadb_with(*sas: SecurityAssociation) -> Sadb:
    db = Sadb()
    for sa in sas:
        db.add_sa(sa)
    return db


def make_datagram(protocol=wire.IPPROTO_UDP, payload_len=100,
                  src="10.0.0.1", dst="10.0.9.9", src_port=4000, dst_port=5060,
                  tos_dscp=0, ttl=64, ident=0x1234, rng=None) -> bytes:
    """Plain IPv4 datagram with a synthetic transport segment."""
    rng = rng or random.Random(0)
    if protocol == wire.IPPROTO_UDP:
        body = rng.randbytes(payload_len)
        segment = struct.pack(">HHHH", src_port, dst_port, 8 + len(body), 0) + body
    elif protocol == wire.IPPROTO_TCP:
        body = rng.randbytes(payload_len)
        segment = struct.pack(">HHIIBBHHH", src_port, dst_port, 1, 0,
                              5 << 4, 0x10, 8192, 0, 0) + body
    else:
        segment = rng.randbytes(payload_len)
    header = oracle.Header(
        src=wire.addr_to_int(src), dst=wire.addr_to_int(dst),
        protocol=protocol, tos=tos_dscp, ttl=ttl, identification=ident)
    return oracle.encode(header, segment)


ALL_CIPHERS = tuple(CipherAlg)
ALL_MACS = tuple(MacAlg)
ALL_VARIANTS = (ProtocolVariant.QESP, ProtocolVariant.ESP)
ALL_MODES = (SaMode.TRANSPORT, SaMode.TUNNEL)


@pytest.fixture
def udp_datagram() -> bytes:
    return make_datagram()


class JitterDrawn(Exception):
    """simulate asked for its first jitter draw."""


class _NoDraws(random.Random):
    def random(self) -> float:
        raise JitterDrawn


@pytest.fixture
def no_draws(monkeypatch):
    """simulate raises JitterDrawn at its first jitter draw, so a test can
    show that a run was refused before it built any emission."""
    monkeypatch.setattr(netsim, "random", type("Rng", (), {"Random": _NoDraws}))
