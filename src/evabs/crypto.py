"""Byte-level primitives the handshake is built from.

Four operations and a nonce source:

  * encrypt_block / decrypt_block: AES-256 on exactly one 16-byte block,
    raw codebook operation. Determinism is load-bearing: the server indexes
    vehicle records by encrypt_block(id, key), so equal inputs must give
    equal outputs. Do not add an IV or a mode here.
  * xor_blocks: 16-byte XOR, the involution that lets a nonce be stripped
    by whoever knows it.
  * compute_mac / verify_mac: HMAC-SHA-256 tags over frame fields;
    verification is constant-time.
  * NonceSource: seedable xorshift128+ stream; one 128-bit nonce is two
    successive 64-bit outputs, big-endian, in draw order. Deterministic by
    construction so a run seed reproduces every frame byte.

All sizes are fixed: 16-byte blocks and nonces, 32-byte keys and tags.
The block cipher and the xorshift128+ step run in a kernel module bound
here as `kernels`; BACKEND names it. That is evabs._osslkernels, AES from
the libcrypto hashlib already loaded, when it imports and passes its
known-answer check, and otherwise evabs._pykernels, the reference kernel.
The choice depends only on the host; both give the same bytes.

Each byte-string argument is checked once, by errors.checked_bytes, which
raises InvalidInput naming it. encrypt_block and decrypt_block only
forward: the kernel checks key and block, where a wrong one would reach C.
"""

import hmac as _hmac

try:
    from evabs import _osslkernels as kernels
except (ImportError, OSError, AttributeError):
    from evabs import _pykernels as kernels
from evabs.errors import InvalidInput, InvalidSeed, checked_bytes, checked_int

__all__ = [
    "BACKEND",
    "BLOCK_SIZE",
    "KEY_SIZE",
    "NONCE_SIZE",
    "TAG_SIZE",
    "encrypt_block",
    "decrypt_block",
    "xor_blocks",
    "compute_mac",
    "verify_mac",
    "NonceSource",
    "splitmix64",
    "SPLITMIX64_GAMMA",
]

BLOCK_SIZE = 16
KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 32

BACKEND = kernels.BACKEND

_MASK64 = (1 << 64) - 1
# splitmix64's state advances by this odd constant per step, so output k of
# the stream seeded with x is the mix of x + (k + 1) * SPLITMIX64_GAMMA
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15


def encrypt_block(block, key):
    """E(block, key): one deterministic AES-256 block encryption."""
    return kernels.aes256_encrypt_block(key, block)


def decrypt_block(block, key):
    """D(block, key): inverse of encrypt_block under the same key."""
    return kernels.aes256_decrypt_block(key, block)


def xor_blocks(a, b):
    """Bytewise XOR of two 16-byte blocks."""
    a = checked_bytes("a", a, BLOCK_SIZE)
    b = checked_bytes("b", b, BLOCK_SIZE)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(BLOCK_SIZE, "big")


def compute_mac(key, data):
    """HMAC-SHA-256 tag over data. Protocol keys are 32 bytes, but the
    construction pads or hashes any non-empty key itself, and the public
    test vectors use shorter keys, so only emptiness is rejected here."""
    key = checked_bytes("key", key)
    if not key:
        raise InvalidInput("MAC key must be non-empty")
    data = checked_bytes("data", data)
    if not data:
        raise InvalidInput("MAC input must be non-empty")
    return _hmac.digest(key, data, "sha256")


def verify_mac(key, data, tag):
    """Constant-time check of a 32-byte tag. Returns bool, never raises on mismatch."""
    tag = checked_bytes("tag", tag, TAG_SIZE)
    return _hmac.compare_digest(compute_mac(key, data), tag)


def splitmix64(x):
    """One splitmix64 step: state -> (new_state, output). Seed expander only."""
    x = (x + SPLITMIX64_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x, (z ^ (z >> 31)) & _MASK64


class NonceSource:
    """Deterministic xorshift128+ stream of 64-bit words and 128-bit nonces.

    next_bytes(n) is the stream's next n / 8 words, each big-endian, in
    draw order, stepped in one pass and encoded once. So one draw of 64
    bytes equals draws of 16, 32 and 16 in turn, and next_nonce() is
    next_bytes(16).

    Agents only need next_nonce()/next_u64(), so anything with that shape
    can be swapped in (tests inject fixed-output sources to force nonce
    collisions). State is two 64-bit words; the all-zero state is the
    generator's fixed point and is rejected.
    """

    __slots__ = ("_s0", "_s1")

    def __init__(self, s0, s1):
        checked_int("s0", s0, 0, _MASK64, InvalidSeed)
        checked_int("s1", s1, 0, _MASK64, InvalidSeed)
        if s0 == 0 and s1 == 0:
            raise InvalidSeed("all-zero state is the xorshift fixed point")
        self._s0 = s0
        self._s1 = s1

    @classmethod
    def from_seed(cls, seed):
        """Expand one 64-bit seed into the two state words via splitmix64."""
        state, s0 = splitmix64(checked_int("seed", seed, 0, _MASK64, InvalidSeed))
        _, s1 = splitmix64(state)
        return cls(s0, s1)

    @property
    def state(self):
        return (self._s0, self._s1)

    def next_u64(self):
        out, self._s0, self._s1 = kernels.xorshift128p_next(self._s0, self._s1)
        return out

    def next_nonce(self):
        return self.next_bytes(NONCE_SIZE)

    def next_bytes(self, n):
        """n bytes from successive outputs; n must be a positive multiple of 8."""
        if checked_int("byte count", n, 8) % 8:
            raise InvalidInput(f"byte count must be a multiple of 8, got {n}")
        step = kernels.xorshift128p_next  # per draw, so a patched kernels is seen
        s0, s1 = self._s0, self._s1
        acc = 0
        for _ in range(n // 8):
            out, s0, s1 = step(s0, s1)
            acc = (acc << 64) | out
        self._s0, self._s1 = s0, s1
        return acc.to_bytes(n, "big")
