"""Cipher and MAC primitives behind algorithm-agnostic interfaces.

Algorithms are the era-typical IPsec suite: {NULL, AES-128-CBC, 3DES-CBC}
ciphers and {NULL, HMAC-MD5-96, HMAC-SHA1-96} authenticators.  The NULL
variants are identity transforms used to isolate encapsulation cost from
crypto cost in benchmarks, and to make layouts visible in tests.

Block ciphers are delegated to OpenSSL via the `cryptography` package; MACs
are HMAC (RFC 2104) built here on stdlib hashlib.  Padding, truncation, and
IV generation are implemented here too.

The loading rule: `cryptography` is imported by the first encrypt or decrypt
under a block cipher (AES-128-CBC or 3DES-CBC), which opens that state's CBC
contexts.  So a process that never ciphers a packet (the keyless classifier,
a config load, NULL-cipher runs) never loads OpenSSL's cipher bindings.

Keyed state is per SA, not per packet: a CipherState holds one
persistent CBC encryptor and one persistent CBC decryptor, a MacState the
hash states keyed with K ^ ipad and K ^ opad (RFC 2104 §4), which each packet
copies and feeds its coverage in place.  A state holds keyed state only; every
size is read off its algorithm's row.  SA keys (16/20 B) are shorter than
the 64-byte block, so RFC 2104's long-key branch cannot occur.

The persistent CBC contexts give byte for byte what a fresh context under
the packet's IV would, by two CBC identities:

* encrypt — the encryptor chains from its previous output block C, so
  XORing iv ^ C into the first plaintext block makes it start from iv; the
  last ciphertext block becomes the next C;
* decrypt — feeding iv ahead of the ciphertext makes iv the chaining block
  of the first real block; the output block for iv itself is dropped.

The encryptor's chaining block is mutable per-SA state.  A CipherState is
not thread-safe and takes no lock: its SA serializes encrypt and decrypt
under the one lock that also guards sequence, replay and IV state.

The NULL rule is a zero in the row: CipherAlg.iv_len is 0 exactly for the
NULL (identity) cipher, and MacAlg.icv_len is 0 exactly for the NULL MAC.
The per-packet callers (sadb's seal and unseal, engine's ICV steps) test
sa.cipher.iv_len and sa.mac.icv_len once per packet and then call neither
IvGenerator.next_iv, encrypt, decrypt, compute_icv nor verify_icv, so a NULL
transform costs no call.  The functions here serve the block ciphers and the
HMACs only.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import math
import struct
from typing import Callable

from .errors import BadBlockAlignment, BadIvLength, BadKeyLength

# ESP keeps ciphertext 32-bit aligned even for block size 1, so padding is
# computed against lcm(block_size, 4).
WORD_ALIGN = 4

ICV_TRUNC_LEN = 12  # 96-bit MAC truncation


class CipherAlg(enum.Enum):
    """Payload encryption algorithm of an SA: a row is (name, block_size, iv_len,
    key_len), the name its value; effective_block is lcm(block_size, 4)."""

    NULL = ("null", 1, 0, 0)  # RFC 2410
    AES_128_CBC = ("aes-128-cbc", 16, 16, 16)  # RFC 3602
    TRIPLE_DES_CBC = ("3des-cbc", 8, 8, 24)  # RFC 2451

    def __new__(cls, value: str, block_size: int, iv_len: int, key_len: int) -> CipherAlg:
        member = object.__new__(cls)
        member._value_ = value
        member.block_size, member.iv_len, member.key_len = block_size, iv_len, key_len
        member.effective_block = math.lcm(block_size, WORD_ALIGN)
        return member


class MacAlg(enum.Enum):
    """Integrity algorithm of an SA: a row is (name, key_len, digestmod), the name
    its value, digestmod the HMAC's hash (None for NULL); icv_len is 12 or 0."""

    NULL = ("null", 0, None)
    HMAC_MD5_96 = ("hmac-md5-96", 16, hashlib.md5)  # RFC 2403
    HMAC_SHA1_96 = ("hmac-sha1-96", 20, hashlib.sha1)  # RFC 2404

    def __new__(cls, value: str, key_len: int, digestmod: Callable | None) -> MacAlg:
        member = object.__new__(cls)
        member._value_ = value
        member.key_len, member.digestmod = key_len, digestmod
        member.icv_len = ICV_TRUNC_LEN if digestmod else 0
        return member


# RFC 2104 pads over the 64-byte MD5/SHA-1 block, as translate() tables.
_HMAC_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _check_key(alg: CipherAlg | MacAlg, key: bytes) -> None:
    if len(key) != alg.key_len:
        raise BadKeyLength(f"{alg.value} needs a {alg.key_len}-byte key, got {len(key)}")


class CipherState:
    """One SA's keyed cipher: its algorithm row, key, and CBC contexts, opened by
    the first encrypt or decrypt."""

    __slots__ = ("alg", "_key", "_enc", "_dec", "_chain")

    def __init__(self, alg: CipherAlg, key: bytes) -> None:
        _check_key(alg, key)
        self.alg = alg
        self._key = key
        self._enc = self._dec = None
        self._chain = 0  # last ciphertext block as an int; 0 is the start IV


def _open_cbc(state: CipherState) -> None:
    """Open a block cipher state's CBC encryptor and decryptor, both from a zero IV."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    if state.alg is CipherAlg.AES_128_CBC:
        algorithm = algorithms.AES(state._key)
    else:
        try:  # moved out of the primitives namespace in cryptography >= 43
            from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
        except ImportError:  # pragma: no cover
            from cryptography.hazmat.primitives.ciphers.algorithms import TripleDES
        algorithm = TripleDES(state._key)
    cipher = Cipher(algorithm, modes.CBC(bytes(state.alg.block_size)))
    state._enc, state._dec = cipher.encryptor(), cipher.decryptor()


class MacState:
    """One SA's keyed MAC: inner and outer padded-key hash states (None for NULL)."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, alg: MacAlg, key: bytes) -> None:
        _check_key(alg, key)
        self._inner = self._outer = None
        if alg is MacAlg.NULL:
            return
        block = key.ljust(_HMAC_BLOCK, b"\0")
        self._inner = alg.digestmod(block.translate(_IPAD))
        self._outer = alg.digestmod(block.translate(_OPAD))


def compute_pad_len(payload_len: int, trailer_fixed: int, effective_block: int) -> int:
    """Smallest pad >= 0 making payload + pad + trailer a block multiple.

    trailer_fixed is 1 for Q-ESP (pad_length byte only) and 2 for ESP
    (pad_length + next_header).  Always < effective_block, hence <= 255.
    """
    return -(payload_len + trailer_fixed) % effective_block


_FILLER = bytes(range(1, 256))


def make_pad(pad_len: int) -> bytes:
    """ESP-style monotonic filler 1, 2, 3, ..., pad_len (at most 255)."""
    return _FILLER[:pad_len]


def check_pad(pad: bytes) -> bool:
    """True when pad is exactly the monotonic filler for its length."""
    return pad == _FILLER[:len(pad)]


def _check_cipher_args(alg: CipherAlg, iv: bytes, data: bytes) -> None:
    """Raise the error for bad cipher arguments; called only once a length test failed."""
    if len(iv) != alg.iv_len:
        raise BadIvLength(f"{alg.value} needs a {alg.iv_len}-byte IV, got {len(iv)}")
    raise BadBlockAlignment(
        f"{alg.value} input length {len(data)} not a multiple of {alg.block_size}")


def encrypt(state: CipherState, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt block-aligned plaintext under iv."""
    alg = state.alg
    block = alg.block_size
    if len(iv) != alg.iv_len or len(plaintext) % block:
        _check_cipher_args(alg, iv, plaintext)
    enc = state._enc
    if enc is None:
        _open_cbc(state)
        enc = state._enc
    if not plaintext:  # no first block to chain
        return plaintext
    first = int.from_bytes(plaintext[:block], "big") ^ int.from_bytes(iv, "big") ^ state._chain
    ciphertext = enc.update(first.to_bytes(block, "big") + plaintext[block:])
    state._chain = int.from_bytes(ciphertext[-block:], "big")
    return ciphertext


def decrypt(state: CipherState, iv: bytes, ciphertext: bytes) -> bytes:
    """Inverse of encrypt()."""
    alg = state.alg
    if len(iv) != alg.iv_len or len(ciphertext) % alg.block_size:
        _check_cipher_args(alg, iv, ciphertext)
    dec = state._dec
    if dec is None:
        _open_cbc(state)
        dec = state._dec
    return dec.update(iv + ciphertext)[alg.block_size:]


def compute_icv(state: MacState, data: bytes, prefix: bytes = b"") -> bytes:
    """First 12 bytes of the HMAC over prefix || data, data hashed where it
    lies (any contiguous buffer, memoryview included)."""
    inner = state._inner.copy()
    if prefix:
        inner.update(prefix)
    inner.update(data)
    outer = state._outer.copy()
    outer.update(inner.digest())
    return outer.digest()[:ICV_TRUNC_LEN]


def verify_icv(state: MacState, data: bytes, icv: bytes, prefix: bytes = b"") -> bool:
    """Constant-time ICV verification of prefix || data."""
    return hmac.compare_digest(compute_icv(state, data, prefix), icv)


class IvGenerator:
    """Deterministic per-SA IV stream.

    IVs are drawn from SHA-256(seed || counter), both 64-bit (the SA checks
    the seed's range), so that fixtures and simulation runs are
    reproducible.  CBC IV unpredictability is outside this lab's threat model.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._counter = 0

    def next_iv(self, iv_len: int) -> bytes:
        block = hashlib.sha256(struct.pack(">QQ", self._seed, self._counter)).digest()
        self._counter += 1
        return block[:iv_len]
