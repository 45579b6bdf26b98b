"""The journal beside a registry file: its format, what binds it to a
snapshot, what replays it, and what it refuses."""

import errno
import hashlib
import json
import os
import stat
import zlib

import pytest

import evabs.cli
import evabs.registry
from evabs.cli import main
from evabs.errors import StorageError
from evabs.registry import Registry, _Journal

from conftest import seeded_registry

HEADER_LEN = 65  # 64 hex digits of SHA-256 and a newline


def _line(payload):
    """An event line as the journal writes it."""
    return b"%d %08x %s\n" % (len(payload), zlib.crc32(payload), payload)


def _state(registry):
    return registry.snapshot(), [inv.to_obj() for inv in registry.invoices]


@pytest.fixture
def path(tmp_path):
    path = tmp_path / "registry.json"
    seeded_registry().save(path)
    return path


@pytest.fixture
def journal(path):
    return path.parent / "registry.json.journal"


def _charge(registry, nonce_byte, t1=0, t5=2500):
    record = registry.vehicles[0]
    assert registry.authenticate(record.lookup_key, bytes([nonce_byte]) * 16)[0] is record
    registry.bill(record.id_a, t1, t5, issued_at=t5)


class TestFormat:
    def test_lines_name_the_snapshot_and_each_event(self, path, journal):
        with Registry.open(path) as registry:
            _charge(registry, 1)  # the nonce saves whole and starts the journal
            _charge(registry, 2, 3000, 4001)
        record = registry.vehicles[0]
        snapshot = path.read_bytes()
        assert json.loads(snapshot)["invoices"] == []  # saved with the first nonce
        id_hex = record.id_a.hex()
        assert journal.read_bytes() == (
            hashlib.sha256(snapshot).hexdigest().encode() + b"\n"
            + _line(f"invoice {id_hex} 0 2500 2500".encode())
            + _line(f"nonce {id_hex} {'02' * 16}".encode())
            + _line(f"invoice {id_hex} 3000 4001 4001".encode())
        )
        assert stat.S_IMODE(os.stat(journal).st_mode) == 0o600
        assert _state(Registry.load(path)) == _state(registry)

    @pytest.mark.parametrize("change", ["register", "revoke"])
    def test_register_and_revoke_save_whole_and_start_an_empty_journal(
        self, path, journal, change
    ):
        with Registry.open(path) as registry:
            _charge(registry, 1)
            if change == "register":
                registry.register(b"\x31" * 16, b"\x32" * 32)
            else:
                registry.revoke(registry.vehicles[1].id_a)
        snapshot = path.read_bytes()
        assert journal.read_bytes() == hashlib.sha256(snapshot).hexdigest().encode() + b"\n"
        assert _state(Registry.load(path)) == _state(registry)

    def test_journal_larger_than_its_snapshot_is_compacted(self, path, journal):
        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            registry.authenticate(record.lookup_key, bytes(16))
            before = path.read_bytes()
            nonce = 1
            while journal.stat().st_size <= len(before):
                registry.authenticate(record.lookup_key, nonce.to_bytes(16, "big"))
                nonce += 1
                assert path.read_bytes() == before  # appends only
            registry.authenticate(record.lookup_key, nonce.to_bytes(16, "big"))
        assert path.read_bytes() != before  # one more change saved whole
        assert journal.stat().st_size == HEADER_LEN
        assert _state(Registry.load(path)) == _state(registry)

    def test_registry_in_memory_writes_no_journal_line(self, monkeypatch):
        def refuse(journal, fields):
            raise AssertionError("a journal line was built")

        monkeypatch.setattr(_Journal, "append", refuse)
        registry = seeded_registry()
        _charge(registry, 1)
        assert len(registry.invoices) == 1


class TestBinding:
    def test_pristine_bytes_written_in_place_orphan_the_journal(self, path, journal):
        pristine = path.read_bytes()
        with Registry.open(path) as registry:
            _charge(registry, 1)
            _charge(registry, 2)
        with open(path, "wb") as fh:  # as the benchmark restarts a round
            fh.write(pristine)
        loaded = Registry.load(path)
        assert loaded.invoices == []
        assert all(not record.used_nonces for record in loaded.vehicles)
        # the next change starts a journal of its own
        with Registry.open(path) as registry:
            _charge(registry, 1)
            _charge(registry, 3)
        assert [inv.t5 for inv in Registry.load(path).invoices] == [2500, 2500]
        assert _state(Registry.load(path)) == _state(registry)

    def test_restoring_the_exact_base_bytes_replays_the_events(self, path, journal):
        pristine = path.read_bytes()
        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            registry.authenticate(record.lookup_key, b"\x01" * 16)
            base = path.read_bytes()
            registry.bill(record.id_a, 0, 2500, issued_at=2500)
            _charge(registry, 2)
        path.write_bytes(pristine)  # a backup put back, or `init --force`
        assert Registry.load(path).invoices == []
        path.write_bytes(base)
        assert _state(Registry.load(path)) == _state(registry)


class TestTornLine:
    @pytest.mark.parametrize(
        "tear,kept",
        [
            (lambda content: content[:-7], False),
            (lambda content: content[:-3] + b"00\n", False),
            (lambda content: content + b"52 0000", True),
            (lambda content: content + b"\0" * 40, True),
        ],
        ids=["cut-mid-line", "bad-crc-last-line", "partial-append", "nul-bytes"],
    )
    def test_torn_last_line_is_dropped_and_cut_by_the_next_append(
        self, path, journal, tear, kept
    ):
        last = b"\x03" * 16
        with Registry.open(path) as registry:
            _charge(registry, 1)
            _charge(registry, 2)
            registry.authenticate(registry.vehicles[0].lookup_key, last)
        whole = _state(registry)
        journal.write_bytes(tear(journal.read_bytes()))
        loaded = Registry.load(path)
        assert (last in loaded.vehicles[0].used_nonces) is kept
        if kept:
            assert _state(loaded) == whole
        assert len(loaded.invoices) == 2
        with Registry.open(path) as registry:
            _charge(registry, 4)
        assert _state(Registry.load(path)) == _state(registry)


# name -> the event line appended after the three valid ones ({id} is the
# charged vehicle's), or None to corrupt the first event line instead
BAD_LINES = {
    "corrupt-middle-line": None,
    "unknown-vehicle": f"nonce {'ee' * 16} {'07' * 16}",
    "repeated-nonce": "nonce {id} " + "01" * 16,
    "t5-before-t1": "invoice {id} 5000 4999 5000",
    "padded-integer": "invoice {id} 0 0100 100",
    "unknown-event": "refund {id} 5",
    "uppercase-nonce": "nonce {id} " + "AB" * 16,
}


class TestRefused:
    @pytest.mark.parametrize("name", BAD_LINES)
    def test_bad_line_is_a_storage_error_naming_it(self, path, journal, name, capsys):
        with Registry.open(path) as registry:
            _charge(registry, 1)
            _charge(registry, 2)  # the journal holds invoice, nonce, invoice
        content = journal.read_bytes()
        payload = BAD_LINES[name]
        if payload is None:
            content, line = content.replace(b"invoice", b"invoicf", 1), 2
        else:
            payload = payload.format(id=registry.vehicles[0].id_a.hex())
            content, line = content + _line(payload.encode()), 5
        journal.write_bytes(content)
        with pytest.raises(StorageError, match=f"^{journal} line {line}: "):
            Registry.load(path)
        assert main(["invoices", "--registry", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"storage error: {journal} line {line}: ")

    def test_nonce_for_a_revoked_vehicle_is_refused(self, path, journal):
        with Registry.open(path) as registry:
            registry.revoke(registry.vehicles[1].id_a)
        other = registry.vehicles[1].id_a.hex()
        journal.write_bytes(journal.read_bytes() + _line(f"nonce {other} {'05' * 16}".encode()))
        with pytest.raises(StorageError, match=f"^{journal} line 2: nonce for revoked vehicle"):
            Registry.load(path)


def _fail(*args):
    raise OSError(errno.EIO, "injected fault")


class TestFailingCut:
    """An append whose fsync fails is cut back to the journal's valid lines.
    When that cut fails too, the file holds the whole line: the change is
    kept, and the next change saves whole."""

    @pytest.mark.parametrize("change", ["nonce", "invoice"])
    def test_whole_line_that_cannot_be_cut_is_kept(self, path, journal, change):
        with Registry.open(path) as registry:
            _charge(registry, 1)  # the nonce saves whole and starts the journal
            _charge(registry, 2)
            record = registry.vehicles[0]
            if change == "invoice":
                registry.authenticate(record.lookup_key, b"\x03" * 16)
            with pytest.MonkeyPatch.context() as mp:
                for name in ("fsync", "ftruncate"):
                    mp.setattr(os, name, _fail)
                with pytest.raises(StorageError, match="^persist incomplete, change kept: journal"):
                    if change == "nonce":
                        registry.authenticate(record.lookup_key, b"\x03" * 16)
                    else:
                        registry.bill(record.id_a, 0, 2500, issued_at=2500)
            assert b"\x03" * 16 in record.used_nonces
            assert len(registry.invoices) == (3 if change == "invoice" else 2)
            assert _state(Registry.load(path)) == _state(registry)
            before = path.read_bytes()
            _charge(registry, 4)
            assert path.read_bytes() != before  # no append to the stale journal
        assert _state(Registry.load(path)) == _state(registry)

    def test_torn_line_that_cannot_be_cut_is_undone(self, path, journal):
        last = b"\x03" * 16
        with Registry.open(path) as registry:
            _charge(registry, 1)
            write, calls = os.write, []

            def torn(fd, data):
                calls.append(fd)
                if len(calls) > 1:
                    raise OSError(errno.ENOSPC, "injected fault")
                return write(fd, bytes(data[:5]))

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, "write", torn)
                mp.setattr(os, "ftruncate", _fail)
                with pytest.raises(StorageError, match="^persist failed, nonce not consumed"):
                    registry.authenticate(registry.vehicles[0].lookup_key, last)
        assert last not in registry.vehicles[0].used_nonces
        assert not journal.read_bytes().endswith(b"\n")  # the torn part is there
        assert _state(Registry.load(path)) == _state(registry)
        with Registry.open(path) as registry:
            _charge(registry, 3)  # appends after cutting the torn part off
        assert journal.read_bytes().endswith(b"\n")
        assert _state(Registry.load(path)) == _state(registry)


class TestInterrupts:
    """An exception that is not a StorageError, such as a KeyboardInterrupt
    caught inside the block, follows the commit rule too and is re-raised
    as it is: raised before the commit point it undoes the change, unless
    the journal holds a whole line it cannot cut back; raised after it, it
    keeps the change. Memory equals the files either way."""

    @pytest.mark.parametrize("change", ["nonce", "invoice"])
    def test_interrupted_append_is_undone(self, path, journal, change):
        interrupt = KeyboardInterrupt()

        def interrupted(fd, data):
            raise interrupt

        with Registry.open(path) as registry:
            _charge(registry, 1)  # the nonce saves whole and starts the journal
            record = registry.vehicles[0]
            before, lines = _state(registry), journal.read_bytes()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, "write", interrupted)
                with pytest.raises(KeyboardInterrupt) as caught:
                    if change == "nonce":
                        registry.authenticate(record.lookup_key, b"\x02" * 16)
                    else:
                        registry.bill(record.id_a, 3000, 4001, issued_at=4001)
            assert caught.value is interrupt
            assert _state(registry) == before
            assert journal.read_bytes() == lines
            assert _state(Registry.load(path)) == before
            _charge(registry, 2)  # the nonce is free, and the change saves whole
        assert _state(Registry.load(path)) == _state(registry)

    @pytest.mark.parametrize("change", ["nonce", "invoice"])
    def test_interrupted_fsync_of_a_line_that_cannot_be_cut_is_kept(self, path, change):
        interrupt = KeyboardInterrupt()

        def interrupted(fd):
            raise interrupt

        with Registry.open(path) as registry:
            _charge(registry, 1)
            record = registry.vehicles[0]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, "fsync", interrupted)
                mp.setattr(os, "ftruncate", _fail)
                with pytest.raises(KeyboardInterrupt) as caught:
                    if change == "nonce":
                        registry.authenticate(record.lookup_key, b"\x02" * 16)
                    else:
                        registry.bill(record.id_a, 3000, 4001, issued_at=4001)
            assert caught.value is interrupt
            assert (b"\x02" * 16 in record.used_nonces) == (change == "nonce")
            assert len(registry.invoices) == (2 if change == "invoice" else 1)
            assert _state(Registry.load(path)) == _state(registry)
            _charge(registry, 3)  # no append to the journal left behind
        assert _state(Registry.load(path)) == _state(registry)

    @pytest.mark.parametrize("step", ["directory fsync", "journal start"])
    def test_interrupt_after_the_rename_keeps_the_change(self, path, step):
        interrupt = KeyboardInterrupt()

        def interrupted(*args):
            raise interrupt

        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            with pytest.MonkeyPatch.context() as mp:
                if step == "directory fsync":
                    mp.setattr(evabs.registry, "_fsync_directory", interrupted)
                else:
                    mp.setattr(_Journal, "start", interrupted)
                with pytest.raises(KeyboardInterrupt) as caught:
                    # no journal is live yet: the nonce saves whole
                    registry.authenticate(record.lookup_key, b"\x01" * 16)
            assert caught.value is interrupt
            assert b"\x01" * 16 in record.used_nonces
            assert _state(Registry.load(path)) == _state(registry)
            _charge(registry, 2)
        assert _state(Registry.load(path)) == _state(registry)


class TestLockFreeReaders:
    def test_invoices_and_attack_see_journaled_invoices(self, path, journal, monkeypatch, capsys):
        with Registry.open(path) as registry:
            _charge(registry, 1)
            _charge(registry, 2, 5000, 9000)
        assert json.loads(path.read_bytes())["invoices"] == []  # both are journaled
        assert main(["invoices", "--registry", str(path), "--json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["t5"] for row in rows] == [2500, 9000]

        seen = []
        run = evabs.cli.run_named_scenario

        def watching(make_registry, name, seed):
            def made():
                registry = make_registry()
                seen.append([inv.t5 for inv in registry.invoices])
                return registry

            return run(made, name, seed=seed)

        monkeypatch.setattr(evabs.cli, "run_named_scenario", watching)
        files = path.read_bytes(), journal.read_bytes()
        assert main(["attack", "--registry", str(path), "--scenario", "replay"]) == 0
        assert seen == [[2500, 9000]]
        assert (path.read_bytes(), journal.read_bytes()) == files
