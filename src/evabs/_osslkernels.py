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

The re-key and the update are bound without argtypes, so a call converts
no argument: the context is held as a c_void_p and the output length as a
byref made once per thread, and key and block reach C as the bytes objects
they are, after checked_bytes has checked their type and size, the one
check either argument gets on its way from evabs.crypto. A wrong one raises
InvalidInput, a ValueError, before any pointer reaches C.

Importing runs the FIPS-197 C.3 vector both ways and raises ImportError on
a mismatch, so evabs.crypto falls back to the reference kernel.
"""

import ctypes
import threading
import weakref

import _hashlib

from evabs._pykernels import xorshift128p_next
from evabs.errors import checked_bytes

__all__ = ["BACKEND", "aes256_encrypt_block", "aes256_decrypt_block", "xorshift128p_next"]

BACKEND = "openssl"

_lib = ctypes.CDLL(_hashlib.__file__)
_ptr, _int = ctypes.c_void_p, ctypes.c_int


def _bind(name, restype, *argtypes):
    """The foreign function `name`; with no argtypes, ctypes converts no
    argument, so each one must already be a ctypes object, bytes, None or
    an int that fits a C int."""
    fn = getattr(_lib, name)
    fn.restype = restype
    if argtypes:
        fn.argtypes = argtypes
    return fn


_ctx_new = _bind("EVP_CIPHER_CTX_new", _ptr)
_ctx_free = _bind("EVP_CIPHER_CTX_free", None, _ptr)
_set_padding = _bind("EVP_CIPHER_CTX_set_padding", _int, _ptr, _int)
# the per-block pair: (ctx, cipher, engine, key, iv, enc) and
# (ctx, out, &outl, in, inl)
_init = _bind("EVP_CipherInit_ex", _int)
_update = _bind("EVP_CipherUpdate", _int)
_AES_256_ECB = _ptr(_bind("EVP_aes_256_ecb", _ptr)())
if not _AES_256_ECB.value:
    raise ImportError("libcrypto has no AES-256-ECB")

_local = threading.local()


def _thread_state():
    """This thread's (context, output buffer, output length, reference to
    the output length), made and set up for AES-256-ECB without padding on
    the thread's first call. The context is a c_void_p: passed as a bare
    int, a pointer would be cut to a 32-bit C int."""
    ctx = _ptr(_ctx_new())
    if not ctx.value:
        raise MemoryError("EVP_CIPHER_CTX_new failed")
    if _init(ctx, _AES_256_ECB, None, None, None, 1) != 1 or _set_padding(ctx, 0) != 1:
        _ctx_free(ctx)
        raise OSError("libcrypto AES-256-ECB set-up failed")
    out = ctypes.create_string_buffer(32)  # room for a block more than the input
    weakref.finalize(out, _ctx_free, ctx).atexit = False
    outl = _int(0)
    _local.state = state = (ctx, out, outl, ctypes.byref(outl))
    return state


def _cipher(key, block, enc):
    block = checked_bytes("block", block, 16)
    key = checked_bytes("key", key, 32)
    try:
        ctx, out, outl, outl_ref = _local.state
    except AttributeError:
        ctx, out, outl, outl_ref = _thread_state()
    if (
        _init(ctx, None, None, key, None, enc) != 1
        or _update(ctx, out, outl_ref, block, 16) != 1
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
