"""AES-256 block kernels from OpenSSL's libcrypto, reached through ctypes.

The library is the one hashlib already loaded: ctypes.CDLL on the _hashlib
extension returns a handle whose symbol lookup also searches the libraries
it links, so EVP_* resolve to libcrypto without loading anything new,
compiling anything or searching the file system. Same contract as
evabs._pykernels, the reference kernel: raw codebook operation on one
block, no padding, no IV, no mode.

Every call builds, uses and frees its own EVP context. ctypes releases the
GIL around foreign calls, so a context shared between calls would be shared
between threads; this module keeps no mutable state. The xorshift128+ step
stays in Python: one foreign call costs more than the step itself.

Importing runs the FIPS-197 C.3 vector both ways and raises ImportError on
a mismatch, so evabs.crypto falls back to the reference kernel.
"""

import ctypes

import _hashlib

from evabs._pykernels import xorshift128p_next

__all__ = ["BACKEND", "aes256_encrypt_block", "aes256_decrypt_block", "xorshift128p_next"]

BACKEND = "openssl"

_lib = ctypes.CDLL(_hashlib.__file__)
_ptr, _int = ctypes.c_void_p, ctypes.c_int


def _bind(name, restype, *argtypes):
    fn = getattr(_lib, name)
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


_ctx_new = _bind("EVP_CIPHER_CTX_new", _ptr)
_ctx_free = _bind("EVP_CIPHER_CTX_free", None, _ptr)
_init = _bind("EVP_CipherInit_ex", _int, _ptr, _ptr, _ptr, ctypes.c_char_p, ctypes.c_char_p, _int)
_set_padding = _bind("EVP_CIPHER_CTX_set_padding", _int, _ptr, _int)
_update = _bind(
    "EVP_CipherUpdate", _int, _ptr, ctypes.c_char_p, ctypes.POINTER(_int), ctypes.c_char_p, _int
)
_AES_256_ECB = _bind("EVP_aes_256_ecb", _ptr)()
if not _AES_256_ECB:
    raise ImportError("libcrypto has no AES-256-ECB")


def _cipher(key, block, enc):
    key, block = bytes(key), bytes(block)
    if len(key) != 32:
        raise ValueError("aes256: key must be 32 bytes")
    if len(block) != 16:
        raise ValueError("aes256: block must be 16 bytes")
    out = ctypes.create_string_buffer(32)  # room for a block more than the input
    outl = _int(0)
    ctx = _ctx_new()
    if not ctx:
        raise MemoryError("EVP_CIPHER_CTX_new failed")
    try:
        if (
            _init(ctx, _AES_256_ECB, None, key, None, enc) != 1
            or _set_padding(ctx, 0) != 1
            or _update(ctx, out, ctypes.byref(outl), block, 16) != 1
            or outl.value != 16
        ):
            raise OSError("libcrypto AES-256-ECB call failed")
    finally:
        _ctx_free(ctx)
    return out.raw[:16]


def aes256_encrypt_block(key, block):
    """One-block AES-256 encryption. key: 32 bytes, block: 16 bytes."""
    return _cipher(key, block, 1)


def aes256_decrypt_block(key, block):
    """One-block AES-256 decryption. key: 32 bytes, block: 16 bytes."""
    return _cipher(key, block, 0)


def _known_answer():
    # FIPS-197 appendix C.3
    key = bytes(range(32))
    plain = bytes.fromhex("00112233445566778899aabbccddeeff")
    cipher = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    if aes256_encrypt_block(key, plain) != cipher or aes256_decrypt_block(key, cipher) != plain:
        raise ImportError("libcrypto AES-256 fails the FIPS-197 C.3 vector")


_known_answer()
