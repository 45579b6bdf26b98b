"""AES-256 block kernels from OpenSSL's libcrypto, reached through ctypes.

The library is the one hashlib already loaded: ctypes.CDLL on the _hashlib
extension returns a handle whose symbol lookup also searches the libraries
it links, so EVP_* resolve to libcrypto without loading anything new,
compiling anything or searching the file system. Same contract as
evabs._pykernels, the reference kernel: raw codebook operation on one
block, no padding, no IV, no mode.

Each thread keeps one EVP context and one output buffer in a
threading.local. A thread's first call makes the context and sets it up
once, for AES-256-ECB with padding off; every call after that makes two
foreign calls, a re-key with the cipher left as it is and one update.
ctypes releases the GIL around foreign calls, so a context is never shared
between threads. A context is freed by a weakref.finalize when its
thread's storage goes away; that finalizer does not run at interpreter
exit, where a daemon thread may still be using its context and the
process releases the memory anyway. The xorshift128+ step stays in Python:
one foreign call costs more than the step itself.

Importing runs the FIPS-197 C.3 vector both ways and raises ImportError on
a mismatch, so evabs.crypto falls back to the reference kernel.
"""

import ctypes
import threading
import weakref

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

_local = threading.local()


def _thread_state():
    """This thread's (context, output buffer, output length), made and set
    up for AES-256-ECB without padding on the thread's first call."""
    ctx = _ctx_new()
    if not ctx:
        raise MemoryError("EVP_CIPHER_CTX_new failed")
    if _init(ctx, _AES_256_ECB, None, None, None, 1) != 1 or _set_padding(ctx, 0) != 1:
        _ctx_free(ctx)
        raise OSError("libcrypto AES-256-ECB set-up failed")
    out = ctypes.create_string_buffer(32)  # room for a block more than the input
    weakref.finalize(out, _ctx_free, ctx).atexit = False
    _local.state = state = (ctx, out, _int(0))
    return state


def _cipher(key, block, enc):
    if type(key) is not bytes:
        key = bytes(key)
    if type(block) is not bytes:
        block = bytes(block)
    if len(key) != 32:
        raise ValueError("aes256: key must be 32 bytes")
    if len(block) != 16:
        raise ValueError("aes256: block must be 16 bytes")
    try:
        ctx, out, outl = _local.state
    except AttributeError:
        ctx, out, outl = _thread_state()
    if (
        _init(ctx, None, None, key, None, enc) != 1
        or _update(ctx, out, outl, block, 16) != 1
        or outl.value != 16
    ):
        del _local.state  # the next call on this thread starts from a new context
        raise OSError("libcrypto AES-256-ECB call failed")
    return out[:16]


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
