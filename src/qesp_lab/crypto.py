"""Cipher and MAC primitives behind algorithm-agnostic interfaces.

Algorithms are the era-typical IPsec suite: {NULL, AES-128-CBC, 3DES-CBC}
ciphers and {NULL, HMAC-MD5-96, HMAC-SHA1-96} authenticators.  The NULL
variants are identity transforms used to isolate encapsulation cost from
crypto cost in benchmarks, and to make layouts visible in tests.

Block ciphers are delegated to OpenSSL via the `cryptography` package; MACs
are HMAC (RFC 2104) built here on stdlib hashlib.  Padding, truncation, and
IV generation are implemented here too.

Keyed state is built once per SA, not per packet: a CipherState holds one
persistent CBC encryptor and one persistent CBC decryptor, a MacState the
hash states keyed with K ^ ipad and K ^ opad (RFC 2104 §4), which each packet
copies and feeds its coverage in place.  SA keys (16/20 B) are shorter than
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
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import math
import struct

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

try:  # moved out of the primitives namespace in cryptography >= 43
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
except ImportError:  # pragma: no cover
    from cryptography.hazmat.primitives.ciphers.algorithms import TripleDES

from .errors import BadBlockAlignment, BadIvLength, BadKeyLength

# ESP keeps ciphertext 32-bit aligned even for block size 1, so padding is
# computed against lcm(block_size, 4).
WORD_ALIGN = 4

ICV_TRUNC_LEN = 12  # 96-bit MAC truncation


class CipherAlg(enum.Enum):
    """Payload encryption algorithm of an SA."""

    NULL = "null"
    AES_128_CBC = "aes-128-cbc"
    TRIPLE_DES_CBC = "3des-cbc"

    @property
    def block_size(self) -> int:
        return _CIPHER_PARAMS[self][0]

    @property
    def iv_len(self) -> int:
        return _CIPHER_PARAMS[self][1]

    @property
    def key_len(self) -> int:
        return _CIPHER_PARAMS[self][2]

    @property
    def effective_block(self) -> int:
        """Padding granularity: lcm(block_size, 4)."""
        return math.lcm(self.block_size, WORD_ALIGN)


# (block_size, iv_len, key_len)
_CIPHER_PARAMS = {
    CipherAlg.NULL: (1, 0, 0),
    CipherAlg.AES_128_CBC: (16, 16, 16),
    CipherAlg.TRIPLE_DES_CBC: (8, 8, 24),
}


class MacAlg(enum.Enum):
    """Integrity algorithm of an SA; ICV is the 96-bit truncated MAC."""

    NULL = "null"
    HMAC_MD5_96 = "hmac-md5-96"
    HMAC_SHA1_96 = "hmac-sha1-96"

    @property
    def icv_len(self) -> int:
        return 0 if self is MacAlg.NULL else ICV_TRUNC_LEN

    @property
    def key_len(self) -> int:
        return _MAC_KEY_LEN[self]


_MAC_KEY_LEN = {
    MacAlg.NULL: 0,
    MacAlg.HMAC_MD5_96: 16,
    MacAlg.HMAC_SHA1_96: 20,
}

_MAC_HASH = {
    MacAlg.HMAC_MD5_96: hashlib.md5,
    MacAlg.HMAC_SHA1_96: hashlib.sha1,
}

# RFC 2104 pads over the 64-byte MD5/SHA-1 block, as translate() tables.
_HMAC_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _check_key(alg: CipherAlg | MacAlg, key: bytes) -> None:
    if len(key) != alg.key_len:
        raise BadKeyLength(f"{alg.value} needs a {alg.key_len}-byte key, got {len(key)}")


class CipherState:
    """One SA's keyed cipher: persistent CBC contexts plus the constants the
    per-packet path reads (block_size, iv_len, effective_block)."""

    __slots__ = ("alg", "block_size", "iv_len", "effective_block", "_enc", "_dec", "_chain")

    def __init__(self, alg: CipherAlg, key: bytes) -> None:
        _check_key(alg, key)
        self.alg = alg
        self.block_size = alg.block_size
        self.iv_len = alg.iv_len
        self.effective_block = alg.effective_block
        self._enc = self._dec = None
        self._chain = 0  # last ciphertext block as an int; 0 is the start IV
        if alg is CipherAlg.NULL:
            return
        algorithm = algorithms.AES(key) if alg is CipherAlg.AES_128_CBC else TripleDES(key)
        start = modes.CBC(bytes(self.block_size))
        self._enc = Cipher(algorithm, start).encryptor()
        self._dec = Cipher(algorithm, start).decryptor()


class MacState:
    """One SA's keyed MAC: inner and outer padded-key hash states, and icv_len."""

    __slots__ = ("icv_len", "_inner", "_outer")

    def __init__(self, alg: MacAlg, key: bytes) -> None:
        _check_key(alg, key)
        self.icv_len = alg.icv_len
        self._inner = self._outer = None
        if alg is MacAlg.NULL:
            return
        block = key.ljust(_HMAC_BLOCK, b"\0")
        self._inner = _MAC_HASH[alg](block.translate(_IPAD))
        self._outer = _MAC_HASH[alg](block.translate(_OPAD))


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


def _check_cipher_args(state: CipherState, iv: bytes, data: bytes) -> None:
    if len(iv) != state.iv_len:
        raise BadIvLength(f"{state.alg.value} needs a {state.iv_len}-byte IV, got {len(iv)}")
    if len(data) % state.block_size:
        raise BadBlockAlignment(
            f"{state.alg.value} input length {len(data)} not a multiple of {state.block_size}")


def encrypt(state: CipherState, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt block-aligned plaintext under iv; NULL is the identity."""
    _check_cipher_args(state, iv, plaintext)
    enc = state._enc
    if enc is None or not plaintext:  # NULL, or no first block to chain
        return plaintext
    block = state.block_size
    first = int.from_bytes(plaintext[:block], "big") ^ int.from_bytes(iv, "big") ^ state._chain
    ciphertext = enc.update(first.to_bytes(block, "big") + plaintext[block:])
    state._chain = int.from_bytes(ciphertext[-block:], "big")
    return ciphertext


def decrypt(state: CipherState, iv: bytes, ciphertext: bytes) -> bytes:
    """Inverse of encrypt()."""
    _check_cipher_args(state, iv, ciphertext)
    if state._dec is None:
        return ciphertext
    return state._dec.update(iv + ciphertext)[state.block_size:]


def compute_icv(state: MacState, data: bytes, prefix: bytes = b"") -> bytes:
    """First 12 bytes of the HMAC over prefix || data, data hashed where it
    lies (any contiguous buffer, memoryview included); empty for the NULL MAC."""
    inner = state._inner
    if inner is None:
        return b""
    inner = inner.copy()
    inner.update(prefix)
    inner.update(data)
    outer = state._outer.copy()
    outer.update(inner.digest())
    return outer.digest()[:ICV_TRUNC_LEN]


def verify_icv(state: MacState, data: bytes, icv: bytes, prefix: bytes = b"") -> bool:
    """Constant-time ICV verification of prefix || data; NULL MAC accepts
    exactly the empty ICV."""
    return hmac.compare_digest(compute_icv(state, data, prefix), icv)


class IvGenerator:
    """Deterministic per-SA IV stream.

    IVs are drawn from SHA-256(seed || counter) so that fixtures and
    simulation runs are reproducible.  CBC IV unpredictability is outside
    this lab's threat model.
    """

    def __init__(self, seed: int):
        self._seed = seed & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    def next_iv(self, iv_len: int) -> bytes:
        if iv_len == 0:
            return b""
        block = hashlib.sha256(struct.pack(">QQ", self._seed, self._counter)).digest()
        self._counter += 1
        return block[:iv_len]
