"""A persisted `evabs session` killed at each of its file-system calls.

A driver process wraps os.write, os.fsync and os.replace so that their k-th
call, counted together, ends the process with os._exit, as a crash would:
no handler, no finally block, no flush. A session makes two whole-file
saves (one when its nonce is consumed, one when its invoice is issued),
each of them a write, an fsync of the temp file, the rename over the
registry and an fsync of the directory: 8 calls. So k runs from 1 to 9,
and at 9 the session completes.

After each kill the registry must load, hold the session's nonce once the
first save finished, list no invoice twice, and show every balance as the
opening balance minus that vehicle's invoices. The table records today's
two-save baseline, including the window (k = 4 to 7) where a nonce is
consumed and the charge it admitted is never billed."""

import os
import pathlib
import subprocess
import sys

import pytest

import evabs
from evabs.registry import Registry

from conftest import seeded_registry

_DRIVER = """
import os
import sys

crash_at = int(sys.argv[1])
calls = 0


def crashing(call):
    def wrapper(*args, **kwargs):
        global calls
        calls += 1
        if calls == crash_at:
            os._exit(99)
        return call(*args, **kwargs)

    return wrapper


for name in ("write", "fsync", "replace"):
    setattr(os, name, crashing(getattr(os, name)))

from evabs.cli import main

code = main(sys.argv[2:])
print(f"calls: {calls}", file=sys.stderr)
sys.exit(code)
"""

_CALLS_PER_SESSION = 8
_OPENING_BALANCE = 100_000

# k -> (session nonce in the ledger, invoices in the file)
_BASELINE = {
    1: (False, 0),  # temp file write
    2: (False, 0),  # temp file fsync
    3: (False, 0),  # rename over the registry
    4: (True, 0),  # directory fsync: the rename already happened
    5: (True, 0),
    6: (True, 0),
    7: (True, 0),
    8: (True, 1),
    9: (True, 1),  # no crash
}


def _run(path, vehicle, crash_at):
    src = pathlib.Path(evabs.__file__).resolve().parent.parent
    argv = [
        "session", "--registry", path, "--vehicle", vehicle.hex(),
        "--duration", "2500", "--seed", "11", "--json",
    ]
    return subprocess.run(
        [sys.executable, "-c", _DRIVER, str(crash_at), *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    path = tmp_path_factory.mktemp("pristine") / "registry.json"
    registry = seeded_registry(vehicles=2, balance=_OPENING_BALANCE)
    registry.save(str(path))
    return path.read_bytes(), registry.vehicles[0].id_a


@pytest.fixture(scope="module")
def session_nonce(pristine, tmp_path_factory):
    """The nonce the uninterrupted session consumes."""
    content, vehicle = pristine
    path = tmp_path_factory.mktemp("complete") / "registry.json"
    path.write_bytes(content)
    done = _run(str(path), vehicle, 0)  # no call is the 0th: never crash
    assert done.returncode == 0, done.stderr
    assert f"calls: {_CALLS_PER_SESSION}" in done.stderr
    (nonce,) = Registry.load(str(path)).find(vehicle).used_nonces
    return nonce


@pytest.mark.parametrize("crash_at", sorted(_BASELINE))
def test_registry_stays_consistent_when_a_session_dies(
    crash_at, pristine, session_nonce, tmp_path
):
    content, vehicle = pristine
    path = tmp_path / "registry.json"
    path.write_bytes(content)
    result = _run(str(path), vehicle, crash_at)
    crashed = crash_at <= _CALLS_PER_SESSION
    assert result.returncode == (99 if crashed else 0), result.stderr

    registry = Registry.load(str(path))
    has_nonce = session_nonce in registry.find(vehicle).used_nonces
    if crash_at > 4:  # the first save's four calls all returned
        assert has_nonce
    keys = [(inv.id_a, inv.t1, inv.t5, inv.issued_at) for inv in registry.invoices]
    assert len(set(keys)) == len(keys)
    for record in registry.vehicles:
        billed = sum(inv.amount for inv in registry.invoices if inv.id_a == record.id_a)
        assert record.balance == _OPENING_BALANCE - billed
    assert (has_nonce, len(registry.invoices)) == _BASELINE[crash_at]
