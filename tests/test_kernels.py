"""Kernel module tests: the libcrypto kernel against the reference kernel.

evabs._pykernels is the reference. evabs._osslkernels must agree with it
byte for byte, refuse wrong sizes before any pointer reaches native code,
stay correct when threads share it and when one thread's context is re-keyed
call after call, free a thread's context when the thread ends, and, when it
cannot be imported, leave evabs on the reference kernel with identical
output.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evabs
from evabs import _pykernels, crypto
from evabs.scenario import run_named_scenario

from conftest import seeded_bytes, seeded_registry

try:
    from evabs import _osslkernels
except (ImportError, OSError, AttributeError):
    _osslkernels = None

needs_openssl = pytest.mark.skipif(
    _osslkernels is None, reason="the libcrypto kernel does not import on this host"
)
KERNELS = [
    pytest.param(_pykernels, id="pure-python"),
    pytest.param(_osslkernels, id="openssl", marks=needs_openssl),
]

block = st.binary(min_size=16, max_size=16)
key256 = st.binary(min_size=32, max_size=32)
buffer_type = st.sampled_from([bytes, bytearray, memoryview])

# FIPS-197 appendix C.3 (AES-256 example vector).
FIPS_KEY = bytes(range(32))
FIPS_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHER = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")


@needs_openssl
class TestAgreement:
    def test_fips_197_c3(self):
        assert _osslkernels.BACKEND == "openssl"
        assert _osslkernels.aes256_encrypt_block(FIPS_KEY, FIPS_PLAIN) == FIPS_CIPHER
        assert _osslkernels.aes256_decrypt_block(FIPS_KEY, FIPS_CIPHER) == FIPS_PLAIN

    @settings(max_examples=200)
    @given(key=key256, data=block, key_type=buffer_type, block_type=buffer_type)
    def test_encrypt_and_decrypt_match_the_reference(self, key, data, key_type, block_type):
        k, b = key_type(key), block_type(data)
        ossl, ref = _osslkernels, _pykernels
        assert ossl.aes256_encrypt_block(k, b) == ref.aes256_encrypt_block(key, data)
        # any block decrypts, not only one that was encrypted first
        assert ossl.aes256_decrypt_block(k, b) == ref.aes256_decrypt_block(key, data)

    @settings(max_examples=100)
    @given(key=key256, data=block, key_type=buffer_type)
    def test_roundtrip_across_kernels(self, key, data, key_type):
        ct = _osslkernels.aes256_encrypt_block(key_type(key), data)
        assert _pykernels.aes256_decrypt_block(key, ct) == data
        assert _osslkernels.aes256_decrypt_block(key_type(key), ct) == data

    def test_xorshift_is_the_reference_step(self):
        assert _osslkernels.xorshift128p_next is _pykernels.xorshift128p_next

    def test_crypto_uses_the_libcrypto_kernel(self):
        assert crypto.kernels is _osslkernels
        assert evabs.BACKEND == crypto.BACKEND == "openssl"


@pytest.mark.parametrize("kernel", KERNELS)
class TestSizeChecks:
    @pytest.mark.parametrize("size", [0, 31, 33])
    def test_bad_key_size_is_a_value_error(self, kernel, size):
        with pytest.raises(ValueError):
            kernel.aes256_encrypt_block(bytes(size), FIPS_PLAIN)
        with pytest.raises(ValueError):
            kernel.aes256_decrypt_block(bytes(size), FIPS_CIPHER)

    @pytest.mark.parametrize("size", [15, 17])
    def test_bad_block_size_is_a_value_error(self, kernel, size):
        with pytest.raises(ValueError):
            kernel.aes256_encrypt_block(FIPS_KEY, bytes(size))
        with pytest.raises(ValueError):
            kernel.aes256_decrypt_block(FIPS_KEY, bytes(size))


@needs_openssl
def test_threads_with_distinct_keys_get_the_reference_bytes():
    threads_n, rounds = 8, 40
    work = []
    for t in range(threads_n):
        key = seeded_bytes(100 + t, 32)
        blocks = [seeded_bytes(1000 * t + i, 16) for i in range(16)]
        expected = [_pykernels.aes256_encrypt_block(key, b) for b in blocks]
        work.append((key, blocks, expected))
    errors = []
    start = threading.Barrier(threads_n)

    def run(key, blocks, expected):
        start.wait()
        for _ in range(rounds):
            for b, ct in zip(blocks, expected):
                if _osslkernels.aes256_encrypt_block(key, b) != ct:
                    errors.append(("encrypt", key.hex()[:8]))
                if _osslkernels.aes256_decrypt_block(key, ct) != b:
                    errors.append(("decrypt", key.hex()[:8]))

    threads = [threading.Thread(target=run, args=item, daemon=True) for item in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


@needs_openssl
@settings(max_examples=100)
@given(
    keys=st.lists(key256, min_size=4, max_size=4),
    calls=st.lists(st.tuples(st.booleans(), st.integers(0, 3), block), min_size=1, max_size=24),
)
def test_call_sequences_with_changing_keys_match_the_reference(keys, calls):
    # one thread, one reused context: each call re-keys it and may flip
    # its direction, and no call may see state left by the one before
    for encrypt, index, data in calls:
        if encrypt:
            got = _osslkernels.aes256_encrypt_block(keys[index], data)
            want = _pykernels.aes256_encrypt_block(keys[index], data)
        else:
            got = _osslkernels.aes256_decrypt_block(keys[index], data)
            want = _pykernels.aes256_decrypt_block(keys[index], data)
        assert got == want


@needs_openssl
@pytest.mark.parametrize(
    "bad_key,bad_block",
    [(bytes(31), FIPS_CIPHER), (bytes(33), FIPS_CIPHER), (FIPS_KEY, bytes(15)), (FIPS_KEY, bytes(17))],
    ids=["key-31", "key-33", "block-15", "block-17"],
)
def test_call_rejected_for_size_leaves_the_next_result_alone(bad_key, bad_block):
    other_key = seeded_bytes(5, 32)
    first = _osslkernels.aes256_decrypt_block(other_key, FIPS_PLAIN)
    assert first == _pykernels.aes256_decrypt_block(other_key, FIPS_PLAIN)
    with pytest.raises(ValueError):
        _osslkernels.aes256_decrypt_block(bad_key, bad_block)
    assert _osslkernels.aes256_encrypt_block(FIPS_KEY, FIPS_PLAIN) == FIPS_CIPHER


@needs_openssl
def test_failed_foreign_call_gives_the_thread_a_new_context(monkeypatch):
    assert _osslkernels.aes256_encrypt_block(FIPS_KEY, FIPS_PLAIN) == FIPS_CIPHER
    monkeypatch.setattr(_osslkernels, "_update", lambda *args: 0)
    with pytest.raises(OSError):
        _osslkernels.aes256_encrypt_block(FIPS_KEY, FIPS_PLAIN)
    assert not hasattr(_osslkernels._local, "state")
    monkeypatch.undo()
    assert _osslkernels.aes256_decrypt_block(FIPS_KEY, FIPS_CIPHER) == FIPS_PLAIN


@needs_openssl
def test_context_is_freed_when_its_thread_ends(monkeypatch):
    freed = []
    free = _osslkernels._ctx_free

    def recording_free(ctx):
        freed.append(ctx)
        free(ctx)

    monkeypatch.setattr(_osslkernels, "_ctx_free", recording_free)
    made = []

    def work():
        assert _osslkernels.aes256_encrypt_block(FIPS_KEY, FIPS_PLAIN) == FIPS_CIPHER
        made.append(_osslkernels._local.state[0])

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert made and freed == made


THREAD_EXIT_SCRIPT = """
import threading
from evabs import _osslkernels

key = bytes(range(32))
plain = bytes.fromhex("00112233445566778899aabbccddeeff")
cipher = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
results = []
worker = threading.Thread(target=lambda: results.append(_osslkernels.aes256_encrypt_block(key, plain)))
worker.start()
worker.join()
results.append(_osslkernels.aes256_encrypt_block(key, plain))
# a daemon thread that still holds its context when the interpreter exits
ready, never = threading.Event(), threading.Event()

def linger():
    results.append(_osslkernels.aes256_encrypt_block(key, plain))
    ready.set()
    never.wait()

threading.Thread(target=linger, daemon=True).start()
ready.wait(60)
assert results == [cipher] * 3, results
"""


@needs_openssl
def test_process_using_contexts_on_several_threads_exits_cleanly():
    src = pathlib.Path(evabs.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", THREAD_EXIT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def _replay_digest():
    [report] = run_named_scenario(lambda: seeded_registry(), "replay", seed=11)
    text = report.transcript.to_jsonl() + report.to_text()
    return hashlib.sha256(text.encode()).hexdigest()


FALLBACK_SCRIPT = """
import contextlib, io, json, sys
sys.modules["evabs._osslkernels"] = None
import evabs
from evabs.cli import main
import test_kernels

out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        main(["--version"])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({
    "backend": evabs.BACKEND,
    "version": out.getvalue(),
    "version_exit": code,
    "replay": test_kernels._replay_digest(),
}))
"""


def test_blocked_libcrypto_kernel_falls_back_with_identical_output():
    src = pathlib.Path(evabs.__file__).resolve().parent.parent
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-c", FALLBACK_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["backend"] == "pure-python"
    assert result["version_exit"] == 0
    assert "kernel backend: pure-python" in result["version"]
    assert result["replay"] == _replay_digest()
