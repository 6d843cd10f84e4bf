"""Cipher/MAC primitives: known-answer vectors, padding, truncation, and the
persistent per-SA CBC state against a fresh context per call."""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import os
import random
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import FIXTURES
from qesp_lab import crypto
from qesp_lab.crypto import CipherAlg, CipherState, IvGenerator, MacAlg, MacState
from qesp_lab.errors import BadBlockAlignment, BadIvLength, BadKeyLength
from qesp_lab.sadb import ProtocolVariant

try:
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
except ImportError:  # cryptography < 43
    from cryptography.hazmat.primitives.ciphers.algorithms import TripleDES

# NIST SP 800-38A F.2.1 (CBC-AES128.Encrypt), cross-checked against the
# openssl CLI before freezing.
AES_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
AES_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
AES_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")
AES_CT = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7")

# 3DES-CBC answer produced by `openssl enc -des-ede3-cbc` (legacy provider).
TDES_KEY = bytes.fromhex("0123456789abcdef23456789abcdef01456789abcdef0123")
TDES_IV = bytes.fromhex("1234567890abcdef")
TDES_PT = b"The quick brown "
TDES_CT = bytes.fromhex("5ba523a59a5109710da06400f058192a")


def fresh_cbc(alg: CipherAlg, key: bytes, iv: bytes, data: bytes, decrypt=False) -> bytes:
    """Reference: a new CBC context under iv for this one call."""
    algorithm = algorithms.AES(key) if alg is CipherAlg.AES_128_CBC else TripleDES(key)
    cipher = Cipher(algorithm, modes.CBC(iv))
    ctx = cipher.decryptor() if decrypt else cipher.encryptor()
    return ctx.update(data) + ctx.finalize()

class TestPadding:
    @pytest.mark.parametrize("payload_len,trailer,block,expected", [
        (100, 1, 16, 11),
        (100, 2, 16, 10),
        (6, 1, 4, 1),
        (0, 1, 4, 3),
        (15, 1, 16, 0),
    ])
    def test_examples(self, payload_len, trailer, block, expected):
        assert crypto.compute_pad_len(payload_len, trailer, block) == expected

    def test_exhaustive_against_bruteforce(self):
        """All payload lengths 0-512 for every block: minimal satisfying pad."""
        for block in (4, 8, 16):
            for trailer in (1, 2):
                for payload_len in range(513):
                    expected = next(
                        pad for pad in range(block)
                        if (payload_len + pad + trailer) % block == 0)
                    assert crypto.compute_pad_len(payload_len, trailer, block) == expected

    def test_pad_bytes_are_monotonic_filler(self):
        assert crypto.make_pad(0) == b""
        assert crypto.make_pad(4) == b"\x01\x02\x03\x04"
        assert crypto.check_pad(b"\x01\x02\x03")
        assert not crypto.check_pad(b"\x01\x02\x04")

    def test_longest_filler(self):
        assert crypto.make_pad(255) == bytes(range(1, 256))
        assert crypto.check_pad(bytes(range(1, 256)))
        assert not crypto.check_pad(bytes(range(1, 256))[:-1] + b"\x00")


# Each algorithm's parameters as its RFC gives them, kept apart from crypto's
# rows: (block size, IV, key, effective block) and (key, ICV, hash) in bytes.
RFC_CIPHERS = {
    "null": (1, 0, 0, 4),  # RFC 2410; ESP still aligns to 4 bytes
    "aes-128-cbc": (16, 16, 16, 16),  # RFC 3602
    "3des-cbc": (8, 8, 24, 8),  # RFC 2451
}
RFC_MACS = {
    "null": (0, 0, None),
    "hmac-md5-96": (16, 12, "md5"),  # RFC 2403
    "hmac-sha1-96": (20, 12, "sha1"),  # RFC 2404
}
# Each protocol variant's wire facts, kept apart from sadb's rows: (IP protocol,
# clear header, fixed trailer) in bytes, and the label of its error messages.
WIRE_VARIANTS = {
    "esp": (50, 8, 2, "ESP"),  # RFC 4303 §2: SPI, seq; pad length, next header
    "qesp": (253, 16, 1, "Q-ESP"),  # RFC 3692 experimentation number; pad length only
}


class TestAlgorithmRows:
    """Every member's row against the RFC tables; a member with no entry there fails."""

    @pytest.mark.parametrize("alg", list(CipherAlg))
    def test_cipher_row(self, alg):
        assert (alg.block_size, alg.iv_len, alg.key_len, alg.effective_block) == (
            RFC_CIPHERS[alg.value])
        assert CipherAlg(alg.value) is alg

    @pytest.mark.parametrize("alg", list(MacAlg))
    def test_mac_row(self, alg):
        digest = alg.digestmod and alg.digestmod().name
        assert (alg.key_len, alg.icv_len, digest) == RFC_MACS[alg.value]
        assert MacAlg(alg.value) is alg

    @pytest.mark.parametrize("variant", list(ProtocolVariant))
    def test_variant_row(self, variant):
        assert (variant.ip_protocol, variant.header_len, variant.trailer_fixed,
                variant.label) == WIRE_VARIANTS[variant.value]
        assert ProtocolVariant(variant.value) is variant

    def test_states_copy_nothing_from_their_rows(self):
        """A state holds keyed state only; every size is read off its row."""
        assert CipherState.__slots__ == ("alg", "_key", "_enc", "_dec", "_chain")
        assert MacState.__slots__ == ("_inner", "_outer")

    def test_every_rfc_entry_is_a_member(self):
        assert set(RFC_CIPHERS) == {alg.value for alg in CipherAlg}
        assert set(RFC_MACS) == {alg.value for alg in MacAlg}
        assert set(WIRE_VARIANTS) == {variant.value for variant in ProtocolVariant}


AES = CipherState(CipherAlg.AES_128_CBC, AES_KEY)
TDES = CipherState(CipherAlg.TRIPLE_DES_CBC, TDES_KEY)


class TestCiphers:
    def test_aes_cbc_known_answer(self):
        assert crypto.encrypt(AES, AES_IV, AES_PT) == AES_CT
        assert crypto.decrypt(AES, AES_IV, AES_CT) == AES_PT

    def test_aes_cbc_single_block(self):
        assert crypto.encrypt(AES, AES_IV, AES_PT[:16]) == AES_CT[:16]

    def test_3des_cbc_known_answer(self):
        assert crypto.encrypt(TDES, TDES_IV, TDES_PT) == TDES_CT
        assert crypto.decrypt(TDES, TDES_IV, TDES_CT) == TDES_PT

    @pytest.mark.parametrize("alg,key,iv,pt,ct", [
        (CipherAlg.AES_128_CBC, AES_KEY, AES_IV, AES_PT, AES_CT),
        (CipherAlg.TRIPLE_DES_CBC, TDES_KEY, TDES_IV, TDES_PT, TDES_CT),
    ])
    def test_state_gives_same_answers_across_packets(self, alg, key, iv, pt, ct):
        state = CipherState(alg, key)
        for _ in range(3):
            assert crypto.encrypt(state, iv, pt) == ct
            assert crypto.decrypt(state, iv, ct) == pt

    def test_sa_keeps_its_keyed_state(self):
        from conftest import make_sa
        sa = make_sa(cipher=CipherAlg.AES_128_CBC, mac=MacAlg.HMAC_SHA1_96)
        assert sa.cipher_state.alg is sa.cipher
        assert crypto.encrypt(sa.cipher_state, AES_IV, AES_PT) == fresh_cbc(
            sa.cipher, sa.cipher_key, AES_IV, AES_PT)
        assert crypto.compute_icv(sa.mac_state, b"Hi") == hmac_mod.new(
            sa.mac_key, b"Hi", hashlib.sha1).digest()[:12]

    def test_misaligned_plaintext_rejected(self):
        with pytest.raises(BadBlockAlignment):
            crypto.encrypt(AES, AES_IV, b"\x00" * 17)

    @pytest.mark.parametrize("op", [crypto.encrypt, crypto.decrypt], ids=["encrypt", "decrypt"])
    @pytest.mark.parametrize("iv,data,error,message", [
        (b"short", AES_PT[:16], BadIvLength, "aes-128-cbc needs a 16-byte IV, got 5"),
        (AES_IV, AES_PT[:17], BadBlockAlignment,
         "aes-128-cbc input length 17 not a multiple of 16"),
        # both wrong: the IV length is checked first
        (b"short", AES_PT[:17], BadIvLength, "aes-128-cbc needs a 16-byte IV, got 5"),
    ], ids=["iv", "alignment", "both"])
    def test_argument_errors(self, op, iv, data, error, message):
        with pytest.raises(error) as caught:
            op(AES, iv, data)
        assert type(caught.value) is error and str(caught.value) == message

    def test_bad_key_and_iv_lengths(self):
        with pytest.raises(BadKeyLength):
            CipherState(CipherAlg.AES_128_CBC, b"short")
        with pytest.raises(BadIvLength):
            crypto.encrypt(AES, b"short", AES_PT[:16])
        with pytest.raises(BadKeyLength):
            CipherState(CipherAlg.NULL, b"x")

    def test_roundtrip_1000_random_triples_per_algorithm(self):
        rng = random.Random(7)
        for alg in (CipherAlg.AES_128_CBC, CipherAlg.TRIPLE_DES_CBC):
            for _ in range(1000):
                state = CipherState(alg, rng.randbytes(alg.key_len))
                iv = rng.randbytes(alg.iv_len)
                pt = rng.randbytes(alg.block_size * rng.randint(1, 8))
                ct = crypto.encrypt(state, iv, pt)
                assert len(ct) == len(pt)
                assert crypto.decrypt(state, iv, ct) == pt

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16),
           st.binary(min_size=16, max_size=64).filter(lambda b: len(b) % 16 == 0))
    @settings(max_examples=50)
    def test_encrypt_decrypt_inverse_property(self, key, iv, pt):
        state = CipherState(CipherAlg.AES_128_CBC, key)
        ct = crypto.encrypt(state, iv, pt)
        assert crypto.decrypt(state, iv, ct) == pt


class TestPersistentCbcState:
    """One state across many calls gives what a fresh context per call gives."""

    @pytest.mark.parametrize("alg", [CipherAlg.AES_128_CBC, CipherAlg.TRIPLE_DES_CBC])
    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_calls_match_fresh_contexts(self, alg, seed):
        rng = random.Random(seed)
        key = rng.randbytes(alg.key_len)
        state = CipherState(alg, key)
        block = alg.block_size
        for _ in range(300):
            iv = rng.randbytes(alg.iv_len)
            data = rng.randbytes(block * rng.randint(0, 40))
            op = rng.randrange(4)
            if op == 0:
                assert crypto.encrypt(state, iv, data) == fresh_cbc(alg, key, iv, data)
            elif op == 1:
                assert (crypto.decrypt(state, iv, data)
                        == fresh_cbc(alg, key, iv, data, decrypt=True))
            elif op == 2:
                # Rejected before touching the contexts: later calls stay exact.
                with pytest.raises(BadIvLength):
                    rng.choice([crypto.encrypt, crypto.decrypt])(state, iv[:-1], data)
            else:
                with pytest.raises(BadBlockAlignment):
                    rng.choice([crypto.encrypt, crypto.decrypt])(
                        state, iv, data + rng.randbytes(rng.randint(1, block - 1)))

    @pytest.mark.parametrize("alg", [CipherAlg.AES_128_CBC, CipherAlg.TRIPLE_DES_CBC])
    @pytest.mark.parametrize("first", ["encrypt", "decrypt"])
    def test_either_call_may_come_first(self, alg, first):
        """The first call opens both contexts, whichever it is: what follows it
        still matches fresh contexts."""
        rng = random.Random(f"{alg.value} {first}")
        key = rng.randbytes(alg.key_len)
        state = CipherState(alg, key)
        for op in (first, "decrypt" if first == "encrypt" else "encrypt") * 2:
            iv, data = rng.randbytes(alg.iv_len), rng.randbytes(alg.block_size * 3)
            assert (getattr(crypto, op)(state, iv, data)
                    == fresh_cbc(alg, key, iv, data, decrypt=op == "decrypt"))


class TestIcv:
    @pytest.mark.parametrize("alg,key,data,full_hex", [
        (MacAlg.HMAC_MD5_96, b"\x0b" * 16, b"Hi There",
         "9294727a3638bb1c13f48ef8158bfc9d"),
        (MacAlg.HMAC_SHA1_96, b"\x0b" * 20, b"Hi There",
         "b617318655057264e28bc0b6fb378c8ef146be00"),
    ])
    def test_known_vectors_truncated(self, alg, key, data, full_hex):
        """ICV equals the first 12 bytes of the published HMAC output."""
        state = MacState(alg, key)
        icv = crypto.compute_icv(state, data)
        assert icv == bytes.fromhex(full_hex)[:12]
        assert crypto.verify_icv(state, data, icv)
        assert crypto.compute_icv(state, data) == icv  # the keyed state is reusable

    def test_truncation_is_prefix_of_full_mac(self):
        rng = random.Random(3)
        for alg, mod in ((MacAlg.HMAC_MD5_96, hashlib.md5),
                         (MacAlg.HMAC_SHA1_96, hashlib.sha1)):
            for _ in range(50):
                key = rng.randbytes(alg.key_len)
                data = rng.randbytes(rng.randint(0, 200))
                full = hmac_mod.new(key, data, mod).digest()
                assert full.startswith(crypto.compute_icv(MacState(alg, key), data))

    def test_flipped_bit_rejected(self):
        rng = random.Random(11)
        state = MacState(MacAlg.HMAC_SHA1_96, rng.randbytes(20))
        for _ in range(32):
            data = bytearray(rng.randbytes(64))
            icv = crypto.compute_icv(state, bytes(data))
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            assert not crypto.verify_icv(state, bytes(data), icv)

    def test_bad_key_length(self):
        with pytest.raises(BadKeyLength):
            MacState(MacAlg.HMAC_SHA1_96, b"short")

    @pytest.mark.parametrize("alg,digestmod", [(MacAlg.HMAC_MD5_96, hashlib.md5),
                                               (MacAlg.HMAC_SHA1_96, hashlib.sha1)])
    @given(key=st.binary(min_size=20, max_size=20), data=st.binary(max_size=4096),
           prefix=st.sampled_from([0, 20]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
           as_view=st.booleans())
    @settings(max_examples=150)
    def test_equals_stdlib_hmac(self, alg, digestmod, key, data, prefix, as_view):
        """compute_icv(state, data, prefix) is the stdlib HMAC of prefix || data,
        truncated; data may be a memoryview slice, as decap passes it."""
        key = key[:alg.key_len]
        expected = hmac_mod.new(key, prefix + data, digestmod).digest()[:12]
        buf = memoryview(b"<" + data + b">")[1:-1] if as_view else data
        state = MacState(alg, key)
        assert crypto.compute_icv(state, buf, prefix) == expected
        assert crypto.verify_icv(state, buf, expected, prefix)


class TestNullRule:
    """A row's length says whether its transform does any work: iv_len is 0
    exactly for the identity cipher and icv_len 0 exactly for the NULL MAC, so
    callers skip the calls on that test alone, and every keyed state works."""

    @pytest.mark.parametrize("alg", list(CipherAlg), ids=lambda a: a.value)
    def test_iv_len_is_zero_exactly_for_the_identity_cipher(self, alg):
        assert (alg.iv_len == 0) is (alg is CipherAlg.NULL)
        if alg.iv_len:
            state, data = CipherState(alg, bytes(alg.key_len)), bytes(range(48))
            iv = IvGenerator(1).next_iv(alg.iv_len)
            assert len(iv) == alg.iv_len
            ciphertext = crypto.encrypt(state, iv, data)
            assert ciphertext != data
            assert crypto.decrypt(state, iv, ciphertext) == data

    @pytest.mark.parametrize("alg", list(MacAlg), ids=lambda a: a.value)
    def test_icv_len_is_zero_exactly_for_the_null_mac(self, alg):
        assert (alg.icv_len == 0) is (alg is MacAlg.NULL)
        if alg.icv_len:
            state = MacState(alg, bytes(alg.key_len))
            icv = crypto.compute_icv(state, b"data", b"prefix")
            assert len(icv) == alg.icv_len
            assert crypto.verify_icv(state, b"data", icv, b"prefix")
            assert not crypto.verify_icv(state, b"data", b"", b"prefix")


# Run in a fresh interpreter: this one has `cryptography` loaded already
# (this module and tests/oracle.py import it).
LOADING_RULE_SCRIPT = textwrap.dedent("""
    import struct, sys
    from qesp_lab import cli, classifier, engine, wire
    from qesp_lab.classifier import ClassifierRule, RuleTable
    from qesp_lab.crypto import CipherAlg, MacAlg
    from qesp_lab.sadb import ProtocolVariant, Sadb, SaMode, SecurityAssociation, Selector

    VOICE = Selector(protocol=17, dst_ports=(5060, 5060))
    TABLE = RuleTable(rules=(ClassifierRule(VOICE, 46),))
    BODY = bytes(range(64))
    DATAGRAM = wire.pack_ipv4(0, 1, 0, 64, 17, 0x0A000001, 0x0A000909,
                              struct.pack(">HHHH", 4000, 5060, 8 + len(BODY), 0) + BODY)

    def round_trip(variant, mode, cipher, mac):
        tunnel = 0xC0000201 if mode is SaMode.TUNNEL else None
        sa = SecurityAssociation(
            spi=0x101, variant=variant, mode=mode, cipher=cipher,
            cipher_key=bytes(range(cipher.key_len)), mac=mac,
            mac_key=bytes(range(mac.key_len)), tunnel_src=tunnel, tunnel_dst=tunnel)
        sadb = Sadb()
        sadb.add_sa(sa)
        dscp, packet = classifier.classify_and_remark(TABLE, engine.outbound(sa, DATAGRAM))
        assert dscp == (46 if variant is ProtocolVariant.QESP else 0), (sa, dscp)
        assert engine.inbound(sadb, packet)[20:] == DATAGRAM[20:], sa

    for variant in ProtocolVariant:
        for mode in SaMode:
            for mac in (MacAlg.NULL, MacAlg.HMAC_SHA1_96):
                round_trip(variant, mode, CipherAlg.NULL, mac)
    assert cli.main(["throughput", "--cipher", "null", "--mac", "null", "--mode", "tunnel",
                     "--sizes", "64,1024", "--duration", "2", "--seed", "1",
                     "--out", sys.argv[1]]) == 0
    assert "cryptography" not in sys.modules, "a NULL-cipher run loaded cryptography"

    round_trip(ProtocolVariant.QESP, SaMode.TRANSPORT, CipherAlg.AES_128_CBC,
               MacAlg.HMAC_SHA1_96)
    assert "cryptography" in sys.modules, "an AES-128-CBC SA ran without cryptography"
    round_trip(ProtocolVariant.ESP, SaMode.TUNNEL, CipherAlg.TRIPLE_DES_CBC,
               MacAlg.HMAC_MD5_96)
""")


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run script with args in a fresh interpreter that imports qesp_lab from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True)


def test_cryptography_loads_only_for_a_block_cipher_sa(tmp_path):
    """Importing every module and running NULL-cipher SAs through encap,
    classify_and_remark and decap (and the NULL/NULL throughput sweep)
    never imports `cryptography`; an AES or 3DES SA loads it."""
    out = tmp_path / "throughput.csv"
    result = run_fresh(LOADING_RULE_SCRIPT, str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (FIXTURES / "cli_throughput_null_null_tunnel.csv").read_bytes()


KEYLESS_CLASSIFY_SCRIPT = textwrap.dedent("""
    import sys
    from qesp_lab import cli

    assert cli.main(["classify", "--config", sys.argv[1], "--in", sys.argv[2]]) == 0
    assert "cryptography" not in sys.modules, "the keyless classifier loaded cryptography"
""")


def test_keyless_classify_never_loads_cryptography(tmp_path):
    """qesp-lab classify reads the golden Q-ESP packet's clear header under the
    bundled AES-128-CBC config without loading `cryptography`: loading a
    config opens no CBC context."""
    _, packet = oracle.dump_from_hex((FIXTURES / "qesp_transport_aes128_sha1.hex").read_text())
    packet_file = tmp_path / "golden.hex"
    packet_file.write_text(packet.hex())
    bundled = str(resources.files("qesp_lab").joinpath("data/priority.json"))
    result = run_fresh(KEYLESS_CLASSIFY_SCRIPT, bundled, str(packet_file))
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("src=10.0.0.1 dst=10.0.9.9 protocol=17 "
                             "src_port=4000 dst_port=5060 dscp=46\n")


class TestIvGenerator:
    def test_deterministic_per_seed(self):
        a, b = IvGenerator(42), IvGenerator(42)
        assert [a.next_iv(16) for _ in range(5)] == [b.next_iv(16) for _ in range(5)]

    def test_stream_never_repeats_within_run(self):
        gen = IvGenerator(1)
        ivs = [gen.next_iv(16) for _ in range(200)]
        assert len(set(ivs)) == len(ivs)

    def test_seed_changes_stream(self):
        assert IvGenerator(1).next_iv(16) != IvGenerator(2).next_iv(16)

    def test_zero_length(self):
        assert IvGenerator(1).next_iv(0) == b""
