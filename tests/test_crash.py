"""A persisted `evabs session` killed at each of its file-system calls.

A driver process wraps os.write, os.fsync and os.replace so that their k-th
call, counted together, ends the process with os._exit, as a crash would:
no handler, no finally block, no flush. The session runs on one of two
starting files:

  * "no-journal", a registry just saved whole: the nonce's change saves the
    whole file (a write and an fsync of the temp file, the rename over the
    registry and an fsync of the directory), then starts the journal (a
    write and an fsync of its first line, an fsync of the directory); the
    invoice is one append (a write and an fsync). 9 calls.
  * "live-journal", a registry whose journal already holds an earlier
    session's events: the nonce and the invoice are one append each. 4 calls.

So k runs from 1 to one past the last call, where the session completes.
After each kill the registry must load; hold the session's nonce once the
fsync that made it durable returned; hold its invoice once that fsync
returned; list no invoice twice; and show every balance as the opening
balance minus that vehicle's invoices. A line written but not yet fsynced
is in the page cache, which a killed process does not lose, so it shows.

The billing gap is kept on purpose: a kill after the nonce is durable and
before the invoice is leaves a consumed nonce and no invoice for the charge
it admitted. The registry learns of a charge only from the terminal's report
at its end, so closing the gap needs the terminal to record open charges
durably. Until then the gap errs on the safe side: no replay window opens,
and nobody is billed twice or for a charge nobody metered.

A kill before a whole save's rename (k = 1 to 3 on the no-journal file)
leaves that save's temp file, mode 0600 and holding the registry's keys,
beside the registry. The next `evabs session` on the file must remove it."""

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

_OPENING_BALANCE = 100_000


# starting file -> (calls of a whole session, the call after which the nonce
# is durable, the same for the invoice, kills that leave a temp file,
# k -> (session nonce in the ledger, this vehicle's invoices in the file))
_TABLES = {
    "no-journal": (
        9,
        4,  # the directory fsync after the rename
        9,
        {1, 2, 3},
        {
            1: (False, 0),  # temp file write
            2: (False, 0),  # temp file fsync
            3: (False, 0),  # rename over the registry
            4: (True, 0),  # directory fsync: the rename already happened
            5: (True, 0),  # journal's first line, write
            6: (True, 0),  # journal's first line, fsync
            7: (True, 0),  # directory fsync for the journal
            8: (True, 0),  # invoice append, write
            9: (True, 1),  # invoice append, fsync: the line is written
            10: (True, 1),  # no crash
        },
    ),
    "live-journal": (
        4,
        2,
        4,
        set(),
        {
            1: (False, 0),  # nonce append, write
            2: (True, 0),  # nonce append, fsync: the line is written
            3: (True, 0),  # invoice append, write
            4: (True, 1),  # invoice append, fsync
            5: (True, 1),  # no crash
        },
    ),
}

_CASES = [(start, k) for start, table in _TABLES.items() for k in sorted(table[4])]


def _run(path, vehicle, crash_at, seed=11):
    src = pathlib.Path(evabs.__file__).resolve().parent.parent
    argv = [
        "session", "--registry", path, "--vehicle", vehicle.hex(),
        "--duration", "2500", "--seed", str(seed), "--json",
    ]
    return subprocess.run(
        [sys.executable, "-c", _DRIVER, str(crash_at), *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )


def _write_files(directory, files):
    for name, content in files.items():
        (directory / name).write_bytes(content)


@pytest.fixture(scope="module")
def starts(tmp_path_factory):
    """starting file -> (its files by name, the vehicle the session charges)."""
    directory = tmp_path_factory.mktemp("pristine")
    path = directory / "registry.json"
    registry = seeded_registry(vehicles=2, balance=_OPENING_BALANCE)
    registry.save(str(path))
    vehicle, other = (record.id_a for record in registry.vehicles)
    no_journal = {"registry.json": path.read_bytes()}
    earlier = _run(str(path), other, 0, seed=10)  # no call is the 0th: never crash
    assert earlier.returncode == 0, earlier.stderr
    live = {name: (directory / name).read_bytes() for name in no_journal}
    live["registry.json.journal"] = (directory / "registry.json.journal").read_bytes()
    return {"no-journal": (no_journal, vehicle), "live-journal": (live, vehicle)}


@pytest.fixture(scope="module")
def session_nonces(starts, tmp_path_factory):
    """starting file -> the nonce the uninterrupted session consumes."""
    nonces = {}
    for start, (files, vehicle) in starts.items():
        directory = tmp_path_factory.mktemp(f"complete-{start}")
        _write_files(directory, files)
        path = directory / "registry.json"
        before = Registry.load(str(path)).find(vehicle).used_nonces
        done = _run(str(path), vehicle, 0)
        assert done.returncode == 0, done.stderr
        assert f"calls: {_TABLES[start][0]}" in done.stderr
        (nonce,) = Registry.load(str(path)).find(vehicle).used_nonces - before
        nonces[start] = nonce
    return nonces


@pytest.mark.parametrize("start,crash_at", _CASES, ids=[f"{s}-{k}" for s, k in _CASES])
def test_registry_stays_consistent_when_a_session_dies(
    start, crash_at, starts, session_nonces, tmp_path
):
    calls, nonce_durable, invoice_durable, leaves_temp, table = _TABLES[start]
    files, vehicle = starts[start]
    _write_files(tmp_path, files)
    path = tmp_path / "registry.json"
    result = _run(str(path), vehicle, crash_at)
    crashed = crash_at <= calls
    assert result.returncode == (99 if crashed else 0), result.stderr

    registry = Registry.load(str(path))
    has_nonce = session_nonces[start] in registry.find(vehicle).used_nonces
    invoices = len(registry.invoices_for(vehicle))
    if crash_at > nonce_durable:
        assert has_nonce
    if crash_at > invoice_durable:
        assert invoices == 1
    keys = [(inv.id_a, inv.t1, inv.t5, inv.issued_at) for inv in registry.invoices]
    assert len(set(keys)) == len(keys)
    for record in registry.vehicles:
        billed = sum(inv.amount for inv in registry.invoices if inv.id_a == record.id_a)
        assert record.balance == _OPENING_BALANCE - billed
    assert (has_nonce, invoices) == table[crash_at]

    temps = [p.name for p in tmp_path.iterdir() if p.name.startswith(".registry.json.tmp-")]
    assert len(temps) == (crash_at in leaves_temp)
    following = _run(str(path), vehicle, 0, seed=12)
    assert following.returncode == 0, following.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "registry.json", "registry.json.journal", "registry.json.lock"
    ]
