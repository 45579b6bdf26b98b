"""The reference kernel, in pure Python: AES-256 on one 16-byte block, in
FIPS-197's rounds, and the xorshift128+ generator, run for as many steps as
one draw needs. evabs.crypto calls whichever kernel module it bound
(evabs._osslkernels when the host's libcrypto serves, this one otherwise),
and everything above crypto reaches the kernels through crypto. Each block
function checks its key and block once, with checked_bytes; a wrong one
raises InvalidInput, a ValueError. The tests check the libcrypto kernel
against this one.

The block functions are raw codebook operation on one block: deterministic
by design, because the server indexes vehicle records by E(id, key) and an
equal input must map to an equal ciphertext. No padding, no IV, no mode.
"""

from functools import lru_cache

from evabs.errors import checked_bytes

BACKEND = "pure-python"

_MASK64 = (1 << 64) - 1


def _build_tables():
    # GF(2^8) antilog/log over generator 0x03, then the S-box from the
    # multiplicative inverse plus the affine transform.
    alog = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        alog[i] = x
        log[x] = i
        x ^= ((x << 1) ^ (0x1B if x & 0x80 else 0)) & 0xFF
    sbox = [0] * 256
    sbox[0] = 0x63
    for a in range(1, 256):
        inv = alog[(255 - log[a]) % 255]
        b = inv
        r = inv
        for _ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            r ^= b
        sbox[a] = r ^ 0x63
    inv_sbox = [0] * 256
    for a, s in enumerate(sbox):
        inv_sbox[s] = a

    def gmul(a, b):
        if a == 0 or b == 0:
            return 0
        return alog[(log[a] + log[b]) % 255]

    mul = {n: [gmul(n, a) for a in range(256)] for n in (2, 3, 9, 11, 13, 14)}
    return sbox, inv_sbox, mul


_SBOX, _INV_SBOX, _MUL = _build_tables()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40]


def _sub_word(t):
    return (
        _SBOX[(t >> 24) & 0xFF] << 24
        | _SBOX[(t >> 16) & 0xFF] << 16
        | _SBOX[(t >> 8) & 0xFF] << 8
        | _SBOX[t & 0xFF]
    )


@lru_cache(maxsize=1024)
def _round_keys(key):
    # 8 input words expand to 60; round key r is words 4r..4r+3 laid out
    # column-major so its flat index matches the state layout below.
    w = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(8)]
    for i in range(8, 60):
        t = w[i - 1]
        if i % 8 == 0:
            t = _sub_word(((t << 8) | (t >> 24)) & 0xFFFFFFFF) ^ (_RCON[i // 8 - 1] << 24)
        elif i % 8 == 4:
            t = _sub_word(t)
        w.append(w[i - 8] ^ t)
    return [list(b"".join(x.to_bytes(4, "big") for x in w[r : r + 4])) for r in range(0, 60, 4)]


# State is flat in input order: byte i sits at row i % 4, column i // 4.
# ShiftRows (FIPS-197 5.1.2) moves row r left by r: new[r + 4c] = old[r + 4((c + r) % 4)].
_SHIFT = tuple(r + 4 * ((c + r) % 4) for c in range(4) for r in range(4))
_UNSHIFT = tuple(_SHIFT.index(i) for i in range(16))


def aes256_encrypt_block(key, block):
    """One-block AES-256 encryption. key: 32 bytes, block: 16 bytes."""
    block = checked_bytes("block", block, 16)
    rks = _round_keys(checked_bytes("key", key, 32))
    sbox = _SBOX
    m2, m3 = _MUL[2], _MUL[3]
    s = [b ^ k for b, k in zip(block, rks[0])]
    for rk in rks[1:14]:
        s = [sbox[s[i]] for i in _SHIFT]
        t = [0] * 16
        for c in (0, 4, 8, 12):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            t[c] = m2[a0] ^ m3[a1] ^ a2 ^ a3 ^ rk[c]
            t[c + 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3 ^ rk[c + 1]
            t[c + 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3] ^ rk[c + 2]
            t[c + 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3] ^ rk[c + 3]
        s = t
    return bytes(sbox[s[i]] ^ k for i, k in zip(_SHIFT, rks[14]))


def aes256_decrypt_block(key, block):
    """One-block AES-256 decryption. key: 32 bytes, block: 16 bytes."""
    block = checked_bytes("block", block, 16)
    rks = _round_keys(checked_bytes("key", key, 32))
    inv = _INV_SBOX
    m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
    s = [b ^ k for b, k in zip(block, rks[14])]
    for rk in rks[13:0:-1]:
        s = [inv[s[i]] ^ k for i, k in zip(_UNSHIFT, rk)]
        t = [0] * 16
        for c in (0, 4, 8, 12):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            t[c] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
            t[c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
            t[c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
            t[c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
        s = t
    return bytes(inv[s[i]] ^ k for i, k in zip(_UNSHIFT, rks[0]))


def xorshift128p_next(s0, s1, words=1):
    """`words` xorshift128+ steps: (s0, s1) -> (output, s0', s1').

    Shift triple (23, 17, 26); a step's output is the 64-bit sum of the two
    state words before the shuffle. The output returned joins the steps'
    outputs big-endian in step order, with the state after the last step,
    so one call of k steps gives what k chained one-step calls give.
    """
    out = 0
    while words > 0:  # not range(): a one-step call costs about a quarter less
        out = (out << 64) | ((s0 + s1) & _MASK64)
        x = s0 ^ ((s0 << 23) & _MASK64)
        s0, s1 = s1, x ^ s1 ^ (x >> 17) ^ (s1 >> 26)
        words -= 1
    return out, s0, s1
