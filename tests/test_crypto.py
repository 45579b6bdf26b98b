"""Crypto layer tests.

Three layers of evidence, none of which shares code with the implementation:

* frozen known-answer vectors from FIPS-197 appendix C.3 and RFC 4231,
* cross-checks of the reference kernel (evabs._pykernels) against OpenSSL via
  the cryptography package, and of HMAC against a from-definition HMAC built
  out of hashlib alone and against the standard library's hmac.digest,
* property tests over the reference kernel, called directly and through crypto.

crypto itself may be bound to the libcrypto kernel; test_kernels.py checks
that one against the reference kernel.
"""

import hashlib
import hmac
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evabs import crypto
from evabs import _pykernels
from evabs.errors import InvalidInput, InvalidSeed

block = st.binary(min_size=16, max_size=16)
key256 = st.binary(min_size=32, max_size=32)
word64 = st.integers(min_value=0, max_value=2**64 - 1)


# FIPS-197 appendix C.3 (AES-256 example vector).
FIPS_KEY = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
)
FIPS_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHER = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")

# RFC 4231 HMAC-SHA-256 test cases 1 through 4, 6 and 7: (key, data, tag).
# Case 5 truncates its tag; 6 and 7 key with more than one 64-byte block,
# the one case where HMAC hashes the key first.
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)),
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (
        b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger than "
        b"block-size data. The key needs to be hashed before being used by the "
        b"HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]

# xorshift128+ stream for seed 1, frozen from an independent reimplementation
# of the published generator (splitmix64 seeding, sum-before-shift output).
XS_SEED1_STATE = (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67)
XS_SEED1_WORDS = [
    0x4FF5BB8DEE914928,
    0x9890A08CC61D98A5,
    0x91A182125B3DFDC4,
    0xD3E5DBE3CB93DD47,
    0x5B51B331603C7565,
    0xBA51C0B779B65118,
]
XS_SEED1_NONCES = [
    "4ff5bb8dee9149289890a08cc61d98a5",
    "91a182125b3dfdc4d3e5dbe3cb93dd47",
]


class TestBlockCipherVectors:
    def test_fips_197_c3_encrypt(self):
        assert crypto.encrypt_block(FIPS_PLAIN, FIPS_KEY) == FIPS_CIPHER

    def test_fips_197_c3_decrypt(self):
        assert crypto.decrypt_block(FIPS_CIPHER, FIPS_KEY) == FIPS_PLAIN

    def test_fips_197_c3_kernels(self):
        assert _pykernels.aes256_encrypt_block(FIPS_KEY, FIPS_PLAIN) == FIPS_CIPHER
        assert _pykernels.aes256_decrypt_block(FIPS_KEY, FIPS_CIPHER) == FIPS_PLAIN

    def test_matches_openssl_on_random_inputs(self):
        cryptography = pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.ciphers import (
            Cipher,
            algorithms,
            modes,
        )

        rng = random.Random(0xEC8)
        for _ in range(200):
            key = rng.randbytes(32)
            pt = rng.randbytes(16)
            enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
            expected = enc.update(pt) + enc.finalize()
            assert _pykernels.aes256_encrypt_block(key, pt) == expected
            assert _pykernels.aes256_decrypt_block(key, expected) == pt
            # decrypt checked on its own, not only as encrypt's inverse
            ct = rng.randbytes(16)
            dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
            assert _pykernels.aes256_decrypt_block(key, ct) == dec.update(ct) + dec.finalize()

    @settings(max_examples=50)
    @given(key=key256, pt=block)
    def test_roundtrip(self, key, pt):
        ct = _pykernels.aes256_encrypt_block(key, pt)
        assert len(ct) == 16
        assert _pykernels.aes256_decrypt_block(key, ct) == pt

    def test_deterministic(self):
        a = crypto.encrypt_block(FIPS_PLAIN, FIPS_KEY)
        b = crypto.encrypt_block(FIPS_PLAIN, FIPS_KEY)
        assert a == b == FIPS_CIPHER

    @pytest.mark.parametrize("size", [0, 1, 15, 17, 32])
    def test_rejects_bad_block_size(self, size):
        with pytest.raises(InvalidInput):
            crypto.encrypt_block(b"\x00" * size, FIPS_KEY)
        with pytest.raises(InvalidInput):
            crypto.decrypt_block(b"\x00" * size, FIPS_KEY)

    @pytest.mark.parametrize("size", [0, 16, 31, 33, 64])
    def test_rejects_bad_key_size(self, size):
        with pytest.raises(InvalidInput):
            crypto.encrypt_block(FIPS_PLAIN, b"\x00" * size)

    def test_rejects_non_bytes(self):
        with pytest.raises(InvalidInput):
            crypto.encrypt_block("00" * 16, FIPS_KEY)
        with pytest.raises(InvalidInput):
            crypto.encrypt_block(FIPS_PLAIN, 42)


class TestXorBlocks:
    @settings(max_examples=50)
    @given(a=block, b=block)
    def test_involution_and_commutes(self, a, b):
        c = crypto.xor_blocks(a, b)
        assert crypto.xor_blocks(c, b) == a
        assert crypto.xor_blocks(b, a) == c

    @given(a=block)
    def test_zero_is_identity(self, a):
        assert crypto.xor_blocks(a, bytes(16)) == a
        assert crypto.xor_blocks(a, a) == bytes(16)

    def test_rejects_short_input(self):
        with pytest.raises(InvalidInput):
            crypto.xor_blocks(b"\x01" * 15, b"\x02" * 16)


class TestMac:
    @pytest.mark.parametrize("key,data,tag_hex", RFC4231)
    def test_rfc_4231_vectors(self, key, data, tag_hex):
        assert crypto.compute_mac(key, data).hex() == tag_hex
        assert crypto.verify_mac(key, data, bytes.fromhex(tag_hex))

    @settings(max_examples=80)
    @given(
        key=st.binary(min_size=1, max_size=200),
        data=st.binary(min_size=1, max_size=200),
        wrap_key=st.sampled_from([bytes, bytearray, memoryview]),
        wrap_data=st.sampled_from([bytes, bytearray, memoryview]),
    )
    @example(key=b"\x5a" * 64, data=b"m", wrap_key=bytes, wrap_data=bytes)
    @example(key=b"\x5a" * 65, data=b"m", wrap_key=memoryview, wrap_data=bytearray)
    def test_matches_from_definition_hmac(self, key, data, wrap_key, wrap_data):
        # HMAC(K, m) = H((K' ^ opad) || H((K' ^ ipad) || m)) built from
        # hashlib alone, with no shared code path; K' is K, hashed first
        # when longer than the 64-byte block, zero-padded to the block.
        # The examples pin 64 and 65 bytes, either side of the hashing.
        kp = hashlib.sha256(key).digest() if len(key) > 64 else key
        kp += b"\x00" * (64 - len(kp))
        ipad = bytes(b ^ 0x36 for b in kp)
        opad = bytes(b ^ 0x5C for b in kp)
        inner = hashlib.sha256(ipad + data).digest()
        expected = hashlib.sha256(opad + inner).digest()
        tag = crypto.compute_mac(wrap_key(key), wrap_data(data))
        assert tag == expected
        # the standard library's HMAC is an implementation of its own
        assert tag == hmac.digest(key, data, "sha256")

    @settings(max_examples=30)
    @given(
        key=key256,
        data=st.binary(min_size=1, max_size=64),
        index=st.integers(min_value=0),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_verify_rejects_flipped_bit(self, key, data, index, bit):
        tag = crypto.compute_mac(key, data)
        assert crypto.verify_mac(key, data, tag)
        mutated = bytearray(data)
        mutated[index % len(data)] ^= 1 << bit
        assert not crypto.verify_mac(key, bytes(mutated), tag)

    def test_rejects_empty_data(self):
        with pytest.raises(InvalidInput):
            crypto.compute_mac(b"\x01" * 32, b"")

    def test_rejects_empty_key(self):
        with pytest.raises(InvalidInput):
            crypto.compute_mac(b"", b"payload")

    def test_rejects_bad_tag_size(self):
        with pytest.raises(InvalidInput):
            crypto.verify_mac(b"\x01" * 32, b"payload", b"\x00" * 31)


class TestNonceSource:
    def test_seed_1_state_words(self):
        assert crypto.NonceSource.from_seed(1).state == XS_SEED1_STATE

    def test_seed_1_output_words(self):
        src = crypto.NonceSource.from_seed(1)
        assert [src.next_u64() for _ in XS_SEED1_WORDS] == XS_SEED1_WORDS

    def test_seed_1_nonces(self):
        src = crypto.NonceSource.from_seed(1)
        assert [src.next_nonce().hex() for _ in range(2)] == XS_SEED1_NONCES

    def test_step_function_kernel(self):
        s0, s1 = XS_SEED1_STATE
        out, s0, s1 = _pykernels.xorshift128p_next(s0, s1)
        assert out == XS_SEED1_WORDS[0]
        out, _, _ = _pykernels.xorshift128p_next(s0, s1)
        assert out == XS_SEED1_WORDS[1]

    @given(seed=word64)
    def test_same_seed_same_stream(self, seed):
        a = crypto.NonceSource.from_seed(seed)
        b = crypto.NonceSource.from_seed(seed)
        assert [a.next_nonce() for _ in range(4)] == [
            b.next_nonce() for _ in range(4)
        ]

    def test_clone_advances_independently(self):
        src = crypto.NonceSource.from_seed(9)
        src.next_u64()
        twin = crypto.NonceSource(*src.state)
        assert twin.next_nonce() == src.next_nonce()
        src.next_u64()
        assert twin.state != src.state

    def test_state_roundtrip(self):
        src = crypto.NonceSource.from_seed(3)
        src.next_nonce()
        resumed = crypto.NonceSource(*src.state)
        assert resumed.next_nonce() == src.next_nonce()

    def test_nonces_distinct(self):
        src = crypto.NonceSource.from_seed(2)
        seen = {src.next_nonce() for _ in range(2000)}
        assert len(seen) == 2000

    def test_next_bytes(self):
        src = crypto.NonceSource.from_seed(1)
        assert src.next_bytes(16).hex() == XS_SEED1_NONCES[0]
        with pytest.raises(InvalidInput):
            src.next_bytes(12)
        with pytest.raises(InvalidInput):
            src.next_bytes(0)

    @settings(max_examples=200)
    @given(seed=word64, words=st.integers(min_value=1, max_value=16))
    def test_next_bytes_joins_the_words_of_a_clone(self, seed, words):
        src = crypto.NonceSource.from_seed(seed)
        twin = crypto.NonceSource(*src.state)
        drawn = src.next_bytes(8 * words)
        assert drawn == b"".join(twin.next_u64().to_bytes(8, "big") for _ in range(words))
        assert src.state == twin.state

    @given(seed=word64)
    def test_next_nonce_is_a_16_byte_draw(self, seed):
        src = crypto.NonceSource.from_seed(seed)
        twin = crypto.NonceSource(*src.state)
        assert src.next_nonce() == twin.next_bytes(16)
        assert src.state == twin.state

    @pytest.mark.parametrize("size", [0, -8, 12, 16.0, True])
    def test_next_bytes_refuses_size(self, size):
        src = crypto.NonceSource.from_seed(1)
        with pytest.raises(InvalidInput):
            src.next_bytes(size)
        assert src.state == XS_SEED1_STATE

    def test_rejects_all_zero_state(self):
        with pytest.raises(InvalidSeed):
            crypto.NonceSource(0, 0)

    @pytest.mark.parametrize("bad", [-1, 2**64, "1", None, 1.5, True])
    def test_rejects_bad_seed(self, bad):
        with pytest.raises(InvalidSeed):
            crypto.NonceSource.from_seed(bad)

    @pytest.mark.parametrize("state", [(2**64, 1), (True, 0), (0, True), (1, -1)])
    def test_rejects_bad_state_word(self, state):
        with pytest.raises(InvalidSeed):
            crypto.NonceSource(*state)

    def test_splitmix64_is_mask64(self):
        state, out = crypto.splitmix64(2**64 - 1)
        assert 0 <= state < 2**64
        assert 0 <= out < 2**64


def test_only_crypto_names_the_aes_kernels():
    # the registry and the agents reach AES through encrypt_block and
    # decrypt_block, so each argument is checked once, by the kernel
    package = pathlib.Path(crypto.__file__).parent
    naming = [p.name for p in sorted(package.glob("*.py")) if "kernels.aes256_" in p.read_text()]
    assert naming == ["crypto.py"]
