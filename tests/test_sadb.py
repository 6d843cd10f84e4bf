"""SA database: lookups, sequence issuance, anti-replay window."""

from __future__ import annotations

import random
import re
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_sa, sadb_with
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.errors import ConfigError, DuplicateSpi, ReplayRejected, SequenceExhausted
from qesp_lab.sadb import (
    REPLAY_WINDOW,
    SEQ_MAX,
    FiveTuple,
    Ipv4Net,
    ProtocolVariant,
    SaMode,
    Selector,
)
from qesp_lab.wire import addr_to_int


class ReplayOracle:
    """Naive reference: remembers every accepted number, same window rule."""

    def __init__(self, window: int = REPLAY_WINDOW):
        self.window = window
        self.seen: set[int] = set()
        self.highest = 0

    def check_and_update(self, seq: int) -> bool:
        if seq == 0 or seq in self.seen or self.highest - seq >= self.window:
            return False
        self.seen.add(seq)
        self.highest = max(self.highest, seq)
        return True


class TestSelectors:
    def test_net_parse_and_contains(self):
        net = Ipv4Net.parse("10.0.0.0/8")
        assert net.contains(addr_to_int("10.1.2.3"))
        assert not net.contains(addr_to_int("11.0.0.1"))
        assert Ipv4Net.parse("any").contains(addr_to_int("8.8.8.8"))
        assert Ipv4Net.parse("192.0.2.7").prefix == 32

    def test_selector_match_example(self):
        sel = Selector(src_net=Ipv4Net.parse("10.0.0.0/8"), protocol=17,
                       dst_ports=(5060, 5060))
        packet = FiveTuple(src_addr=addr_to_int("10.1.2.3"),
                           dst_addr=addr_to_int("8.8.8.8"),
                           protocol=17, src_port=4000, dst_port=5060)
        assert sel.matches(packet)
        assert not sel.matches(replace(packet, dst_port=5061))

    @pytest.mark.parametrize("name", ["src_port", "dst_port"])
    def test_port_range_is_inclusive(self, name):
        sel = Selector(**{f"{name}s": (1000, 2000)})
        packet = FiveTuple(src_addr=1, dst_addr=2, protocol=17, src_port=0, dst_port=0)
        matched = [sel.matches(replace(packet, **{name: port})) for port in (999, 1000, 2000, 2001)]
        assert matched == [False, True, True, False]

    def test_unreadable_ports_match_no_port_constraint(self):
        esp = FiveTuple(src_addr=1, dst_addr=2, protocol=50, src_port=None, dst_port=None)
        assert not Selector(src_ports=(0, 65535)).matches(esp)
        assert not Selector(dst_ports=(0, 65535)).matches(esp)
        assert Selector(protocol=50).matches(esp)

    def test_prefix_edges(self):
        assert Ipv4Net(0xC0000207, 32).contains(0xC0000207)
        assert not Ipv4Net(0xC0000207, 32).contains(0xC0000206)
        assert Ipv4Net(0x80000000, 1).contains(0xFFFFFFFF)
        assert not Ipv4Net(0x80000000, 1).contains(0x7FFFFFFF)
        assert Ipv4Net(0x12345678, 0).contains(0)

    @pytest.mark.parametrize("prefix", [33, -1])
    def test_prefix_out_of_range(self, prefix):
        with pytest.raises(ConfigError, match=f"^prefix out of range: {prefix}$"):
            Ipv4Net(0x0A000000, prefix)

    def test_parsed_prefix_out_of_range(self):
        with pytest.raises(ConfigError, match="^prefix out of range: 33$"):
            Ipv4Net.parse("10.0.0.0/33")

    @pytest.mark.parametrize("ports,message", [
        ((10, 5), "{} hi must be an int in 10..65535, got 5"),
        ((0, 65536), "{} hi must be an int in 0..65535, got 65536"),
        ((-1, 0), "{} lo must be an int in 0..65535, got -1"),
        ((1.0, 2), "{} lo must be an int in 0..65535, got 1.0"),
        ((1,), "{} must be a (lo, hi) tuple, got (1,)"),
        ([1, 2], "{} must be a (lo, hi) tuple, got [1, 2]")])
    def test_bad_port_range(self, ports, message):
        """(1,) once raised a bare IndexError."""
        for name in ("src_ports", "dst_ports"):
            with pytest.raises(ConfigError, match=f"^{re.escape(message.format(name))}$"):
                Selector(**{name: ports})

    @pytest.mark.parametrize("protocol", [256, -1, "6", 6.0, True])
    def test_bad_protocol(self, protocol):
        """The string "6" once raised a bare TypeError."""
        with pytest.raises(ConfigError, match=re.escape(
                f"protocol must be an int in 0..255, got {protocol!r}")):
            Selector(protocol=protocol)

    @pytest.mark.parametrize("parse,text", [
        (addr_to_int, "\u0661\u0660.0.0.1"), (addr_to_int, "10.0.0.\u00b2"),
        (Ipv4Net.parse, "10.0.0.0/ 8"), (Ipv4Net.parse, "10.0.0.0/+8"),
        (Ipv4Net.parse, "10.0.0.0/\u0668"), (Ipv4Net.parse, "10.0.0.0/1_6"),
        (Ipv4Net.parse, "10.0.0.0/")])
    def test_octets_and_prefixes_are_ascii_decimal(self, parse, text):
        """int() alone takes signs, spaces, underscores and other scripts' digits."""
        with pytest.raises(ValueError, match="not a decimal number"):
            parse(text)


class TestSadbLookups:
    def test_duplicate_spi(self):
        db = sadb_with(make_sa(spi=0x101))
        with pytest.raises(DuplicateSpi):
            db.add_sa(make_sa(spi=0x101))

    def test_lookup_by_spi(self):
        sa = make_sa(spi=0x101)
        db = sadb_with(sa)
        assert db.lookup_by_spi(0x101) is sa
        assert db.lookup_by_spi(0x999) is None

    def test_disjoint_selectors_both_retrievable(self):
        a = make_sa(spi=1, selector=Selector(dst_ports=(80, 80)))
        b = make_sa(spi=2, selector=Selector(dst_ports=(443, 443)))
        db = sadb_with(a, b)
        http = FiveTuple(src_addr=1, dst_addr=2, protocol=6, src_port=9, dst_port=80)
        https = FiveTuple(src_addr=1, dst_addr=2, protocol=6, src_port=9, dst_port=443)
        assert db.lookup_outbound(http) is a
        assert db.lookup_outbound(https) is b

    def test_first_match_wins(self):
        first = make_sa(spi=1, selector=Selector())
        second = make_sa(spi=2, selector=Selector())
        db = sadb_with(first, second)
        ft = FiveTuple(src_addr=1, dst_addr=2, protocol=17)
        assert db.lookup_outbound(ft) is first

    def test_no_match_is_bypass(self):
        db = sadb_with(make_sa(selector=Selector(protocol=6)))
        assert db.lookup_outbound(FiveTuple(src_addr=1, dst_addr=2, protocol=17)) is None

    def test_esp_sa_rejects_extended_auth(self):
        with pytest.raises(ConfigError):
            make_sa(variant=ProtocolVariant.ESP, extended_auth=True)

    def test_tunnel_sa_needs_endpoints(self):
        from qesp_lab.sadb import SecurityAssociation
        with pytest.raises(ConfigError):
            SecurityAssociation(
                spi=0x300, variant=ProtocolVariant.QESP, mode=SaMode.TUNNEL,
                cipher=CipherAlg.NULL, cipher_key=b"",
                mac=MacAlg.NULL, mac_key=b"")

    @pytest.mark.parametrize("mode", list(SaMode))
    @pytest.mark.parametrize("fields,message", [
        (dict(tunnel_src=2 ** 32), "tunnel_src must be an int in 0..4294967295, got 4294967296"),
        (dict(tunnel_dst=-1), "tunnel_dst must be an int in 0..4294967295, got -1"),
        (dict(spi=257.0), "spi must be an int in 1..4294967295, got 257.0"),
        (dict(spi=0), "spi must be an int in 1..4294967295, got 0"),
        (dict(iv_seed=-1), "iv_seed must be an int in 0..18446744073709551615, got -1"),
        (dict(iv_seed=2 ** 64),
         "iv_seed must be an int in 0..18446744073709551615, got 18446744073709551616")])
    def test_int_fields_refused_at_construction(self, mode, fields, message):
        """Refused at construction: encap would fail every packet the SA carries
        (spi 257.0 dropped each as invalid_header), or an IV seed would alias
        another (-1 gave the stream of 2**64 - 1)."""
        sa = make_sa(mode=SaMode.TUNNEL)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            replace(sa, mode=mode, **fields)
        edges = replace(sa, mode=mode, tunnel_src=0, tunnel_dst=0xFFFFFFFF, iv_seed=2 ** 64 - 1)
        assert (edges.tunnel_dst, edges.iv_seed) == (0xFFFFFFFF, 2 ** 64 - 1)


class TestSequenceNumbers:
    def test_starts_at_one_and_increments(self):
        sa = make_sa()
        assert [sa.next_seq() for _ in range(3)] == [1, 2, 3]

    def test_exhaustion_at_ceiling(self):
        sa = make_sa()
        sa.seq_next = 0xFFFFFFFE
        assert sa.next_seq() == 0xFFFFFFFE
        with pytest.raises(SequenceExhausted):
            sa.next_seq()  # seq_next now 0xFFFFFFFF: rekey, no silent wrap

    def test_strictly_increasing_no_gaps(self):
        sa = make_sa()
        seqs = [sa.next_seq() for _ in range(1000)]
        assert seqs == list(range(1, 1001))

    def test_issuance_is_atomic_per_sa(self):
        """Threads sealing through one SA get each seq once, and seq n comes
        with the n-th IV of the SA's stream."""
        sa = make_sa()
        issued: list[list[tuple[int, bytes]]] = []

        def worker():
            issued.append([sa.seal(bytes(16))[:2] for _ in range(500)])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        combined = sorted(pair for chunk in issued for pair in chunk)
        assert [seq for seq, _ in combined] == list(range(1, 2001))  # no duplicates, no gaps
        ivs = oracle.iv_stream(sa.iv_seed, sa.cipher.value)
        assert [iv for _, iv in combined] == [next(ivs) for _ in range(2000)]


class TestIdentityCipher:
    """The NULL cipher skips the IV and the cipher, not the sequence and replay rules."""

    @pytest.mark.parametrize("mac", list(MacAlg), ids=lambda m: m.value)
    def test_spends_sequence_numbers_to_the_ceiling(self, mac):
        sa = make_sa(cipher=CipherAlg.NULL, mac=mac)
        assert sa.seal(b"abcd") == (1, b"", b"abcd")
        sa.seq_next = SEQ_MAX - 1
        assert sa.seal(b"abcd") == (SEQ_MAX - 1, b"", b"abcd")
        with pytest.raises(SequenceExhausted):
            sa.seal(b"abcd")  # seq_next now SEQ_MAX: rekey, no silent wrap
        assert sa.seq_next == SEQ_MAX

    @pytest.mark.parametrize("mac", list(MacAlg), ids=lambda m: m.value)
    def test_rejects_replays(self, mac):
        sa = make_sa(cipher=CipherAlg.NULL, mac=mac)
        assert sa.unseal(100, b"", b"abcd") == b"abcd"
        assert sa.unseal(37, b"", b"efgh") == b"efgh"
        for seq in (100, 37, 36, 0):  # duplicates, too old, zero
            with pytest.raises(ReplayRejected, match=f"^seq {seq} rejected by replay window$"):
                sa.unseal(seq, b"", b"abcd")
        assert (sa.replay_highest, sa.replay_bitmap) == (100, 1 | 1 << 63)


class TestAntiReplay:
    def test_fresh_sa_accepts_one(self):
        assert make_sa().replay_check_and_update(1)

    def test_duplicate_rejected(self):
        sa = make_sa()
        assert sa.replay_check_and_update(5)
        assert not sa.replay_check_and_update(5)

    def test_window_edges(self):
        sa = make_sa()
        assert sa.replay_check_and_update(100)
        assert sa.replay_check_and_update(37)      # highest-63: inside
        assert not sa.replay_check_and_update(36)  # highest-64: too old

    def test_seq_zero_rejected(self):
        assert not make_sa().replay_check_and_update(0)

    def test_oracle_equivalence_10k(self):
        """Frozen acceptance-scale trace: decisions equal the set-based oracle."""
        rng = random.Random(0xA11CE)
        sa = make_sa()
        oracle = ReplayOracle()
        accepted = set()
        for _ in range(10_000):
            seq = rng.randint(1, 200)
            got = sa.replay_check_and_update(seq)
            assert got == oracle.check_and_update(seq)
            if got:
                assert seq not in accepted, "a sequence number was accepted twice"
                accepted.add(seq)
        assert sa.replay_highest == max(accepted)

    @given(st.lists(st.integers(0, 400), min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_oracle_equivalence_property(self, seqs):
        sa = make_sa()
        oracle = ReplayOracle()
        for seq in seqs:
            assert sa.replay_check_and_update(seq) == oracle.check_and_update(seq)
        assert sa.replay_highest == oracle.highest
