"""Cipher and MAC primitives behind algorithm-agnostic interfaces.

Algorithms are the era-typical IPsec suite: {NULL, AES-128-CBC, 3DES-CBC}
ciphers and {NULL, HMAC-MD5-96, HMAC-SHA1-96} authenticators.  The NULL
variants are identity transforms used to isolate encapsulation cost from
crypto cost in benchmarks, and to make layouts visible in tests.

Block ciphers are delegated to OpenSSL via the `cryptography` package; MACs
use the stdlib hmac/hashlib.  Padding, truncation, and IV generation are
implemented here.
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


def _check_cipher_args(alg: CipherAlg, key: bytes, iv: bytes, data: bytes) -> None:
    if len(key) != alg.key_len:
        raise BadKeyLength(f"{alg.value} needs a {alg.key_len}-byte key, got {len(key)}")
    if len(iv) != alg.iv_len:
        raise BadIvLength(f"{alg.value} needs a {alg.iv_len}-byte IV, got {len(iv)}")
    if alg.block_size > 1 and len(data) % alg.block_size:
        raise BadBlockAlignment(
            f"{alg.value} input length {len(data)} not a multiple of {alg.block_size}")


def cipher_algorithm(alg: CipherAlg, key: bytes):
    """The keyed block-cipher object behind alg (None for NULL).

    Build it once per SA: only the CBC mode object is per packet, because the
    IV changes.
    """
    if alg is CipherAlg.NULL:
        return None
    if alg is CipherAlg.AES_128_CBC:
        return algorithms.AES(key)
    return TripleDES(key)


def encrypt(alg: CipherAlg, key: bytes, iv: bytes, plaintext: bytes,
            algorithm=None) -> bytes:
    """Encrypt block-aligned plaintext; NULL is the identity transform.

    algorithm is cipher_algorithm(alg, key) when the caller keeps one.
    """
    _check_cipher_args(alg, key, iv, plaintext)
    if alg is CipherAlg.NULL:
        return plaintext
    enc = Cipher(algorithm or cipher_algorithm(alg, key), modes.CBC(iv)).encryptor()
    return enc.update(plaintext) + enc.finalize()


def decrypt(alg: CipherAlg, key: bytes, iv: bytes, ciphertext: bytes,
            algorithm=None) -> bytes:
    """Inverse of encrypt()."""
    _check_cipher_args(alg, key, iv, ciphertext)
    if alg is CipherAlg.NULL:
        return ciphertext
    dec = Cipher(algorithm or cipher_algorithm(alg, key), modes.CBC(iv)).decryptor()
    return dec.update(ciphertext) + dec.finalize()


def compute_icv(alg: MacAlg, key: bytes, data: bytes) -> bytes:
    """First 12 bytes of the HMAC over data; empty for the NULL MAC."""
    if len(key) != alg.key_len:
        raise BadKeyLength(f"{alg.value} needs a {alg.key_len}-byte key, got {len(key)}")
    if alg is MacAlg.NULL:
        return b""
    return hmac.new(key, data, _MAC_HASH[alg]).digest()[:ICV_TRUNC_LEN]


def verify_icv(alg: MacAlg, key: bytes, data: bytes, icv: bytes) -> bool:
    """Constant-time ICV verification; NULL MAC accepts exactly the empty ICV."""
    return hmac.compare_digest(compute_icv(alg, key, data), icv)


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
