"""Registry tests: enrollment, revocation as absence, atomic nonce
consumption (including under 64-way contention), whole-second billing, and
crash-safe persistence with an integrity check on load."""

import fcntl
import json
import os
import re
import stat
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evabs import crypto
from evabs.errors import (
    DuplicateVehicle,
    InvalidInput,
    InvalidReport,
    NotFound,
    StorageError,
)
from evabs.registry import Invoice, Registry
from evabs.wire import Reason

from conftest import seeded_bytes, seeded_registry


def _disk_full(fd, data):
    raise OSError(28, "No space left on device")


class TestEnrollment:
    def test_register_indexes_by_cipher_of_id(self, registry):
        record = registry.vehicles[0]
        assert record.lookup_key == crypto.encrypt_block(record.id_a, record.k_a)
        found, reason = registry.authenticate(record.lookup_key, b"\x01" * 16)
        assert found is record and reason is None

    def test_duplicate_id_rejected(self, registry):
        record = registry.vehicles[0]
        with pytest.raises(DuplicateVehicle):
            registry.register(record.id_a, seeded_bytes(1, 32))

    def test_lookup_key_collision_rejected(self, registry):
        # two vehicles with one E(id, k) would make a lookup ambiguous;
        # id2 = D(E(id1, k1), k2) builds one
        first = registry.vehicles[0]
        k2 = seeded_bytes(2, 32)
        id2 = crypto.decrypt_block(first.lookup_key, k2)
        assert id2 != first.id_a
        with pytest.raises(DuplicateVehicle, match=f"^lookup key collision for {id2.hex()}$"):
            registry.register(id2, k2)
        assert len(registry.vehicles) == 2
        assert registry.authenticate(first.lookup_key, b"\x01" * 16) == (first, None)

    def test_field_validation(self, registry):
        with pytest.raises(InvalidInput):
            registry.register(b"\x01" * 15, b"\x02" * 32)
        with pytest.raises(InvalidInput):
            registry.register(b"\x01" * 16, b"\x02" * 31)
        with pytest.raises(InvalidInput):
            registry.register(b"\x01" * 16, b"\x02" * 32, balance=-5)
        with pytest.raises(InvalidInput):
            Registry(group_key=b"\x00" * 16, tariff_per_second=1)
        with pytest.raises(InvalidInput):
            Registry(group_key=b"\x00" * 32, tariff_per_second=-1)
        # a bool is an int to isinstance, but the file would store true/false
        for tariff in (True, False, 2.0):
            with pytest.raises(InvalidInput):
                Registry(group_key=b"\x00" * 32, tariff_per_second=tariff)
        for balance in (True, False, 5.0):
            with pytest.raises(InvalidInput):
                registry.register(b"\x01" * 16, b"\x02" * 32, balance=balance)
        for owner in (None, 5, b"demo"):
            with pytest.raises(InvalidInput):
                registry.register(b"\x01" * 16, b"\x02" * 32, owner=owner)
        assert len(registry.vehicles) == 2

    def test_non_bytes_arguments_are_refused_not_coerced(self, registry):
        # bytes(32) is 32 zero bytes: a coercion would enroll an all-zero key
        with pytest.raises(InvalidInput, match="^group key must be bytes-like"):
            Registry(32, 1)
        with pytest.raises(InvalidInput, match="^vehicle id must be bytes-like"):
            registry.register(16, 32)
        with pytest.raises(InvalidInput, match="^vehicle key must be bytes-like"):
            registry.register(b"\x01" * 16, 32)
        with pytest.raises(InvalidInput, match="^vehicle id must be bytes-like"):
            registry.find("ee" * 16)
        with pytest.raises(InvalidInput, match="^vehicle id must be bytes-like"):
            registry.invoices_for(16)
        assert len(registry.vehicles) == 2

    def test_register_derives_the_lookup_key_through_encrypt_block(self, registry, monkeypatch):
        calls = []
        encrypt = crypto.encrypt_block

        def counting_encrypt(block, key):
            calls.append(block)
            return encrypt(block, key)

        monkeypatch.setattr(crypto, "encrypt_block", counting_encrypt)
        record = registry.register(b"\x31" * 16, b"\x32" * 32)
        assert calls == [b"\x31" * 16]
        assert record.lookup_key == encrypt(b"\x31" * 16, b"\x32" * 32)

    def test_find_and_missing(self, registry):
        record = registry.vehicles[0]
        assert registry.find(record.id_a) is record
        with pytest.raises(NotFound):
            registry.find(b"\xee" * 16)


class TestRevocation:
    def test_revoked_vehicle_is_unknown(self, registry):
        record = registry.vehicles[0]
        registry.revoke(record.id_a)
        found, reason = registry.authenticate(record.lookup_key, b"\x01" * 16)
        assert found is None
        assert reason is Reason.UNKNOWN_VEHICLE

    def test_revoke_is_idempotent(self, registry):
        record = registry.vehicles[0]
        registry.revoke(record.id_a)
        registry.revoke(record.id_a)
        assert record.revoked

    def test_revoke_missing_raises(self, registry):
        with pytest.raises(NotFound):
            registry.revoke(b"\xee" * 16)

    def test_other_vehicles_unaffected(self, registry):
        victim, other = registry.vehicles
        registry.revoke(victim.id_a)
        found, reason = registry.authenticate(other.lookup_key, b"\x01" * 16)
        assert found is other


class TestAuthenticate:
    def test_unknown_lookup_key(self, registry):
        found, reason = registry.authenticate(b"\x00" * 16, b"\x01" * 16)
        assert found is None
        assert reason is Reason.UNKNOWN_VEHICLE

    def test_nonce_consumed_exactly_once(self, registry):
        record = registry.vehicles[0]
        nonce = b"\x07" * 16
        assert registry.authenticate(record.lookup_key, nonce)[0] is record
        found, reason = registry.authenticate(record.lookup_key, nonce)
        assert found is None
        assert reason is Reason.REPLAY_DETECTED

    def test_fresh_nonces_keep_working(self, registry):
        record = registry.vehicles[0]
        for i in range(50):
            nonce = i.to_bytes(16, "big")
            assert registry.authenticate(record.lookup_key, nonce)[0] is record
        assert len(record.used_nonces) == 50

    def test_persist_failure_rolls_back_nonce(self, registry, tmp_path, monkeypatch):
        path = tmp_path / "registry.json"
        registry.save(path)
        nonce = b"\x09" * 16
        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            monkeypatch.setattr(os, "write", _disk_full)
            with pytest.raises(StorageError):
                registry.authenticate(record.lookup_key, nonce)
            monkeypatch.undo()
            assert nonce not in record.used_nonces
            # the same nonce must still be usable once persistence recovers
            assert registry.authenticate(record.lookup_key, nonce)[0] is record

    def test_concurrent_same_nonce_single_accept(self, registry):
        record = registry.vehicles[0]
        nonce = b"\x0c" * 16
        barrier = threading.Barrier(64)
        results = []

        def attempt():
            barrier.wait()
            found, reason = registry.authenticate(record.lookup_key, nonce)
            results.append(found is not None)

        threads = [threading.Thread(target=attempt) for _ in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(results) == 1
        assert len(results) == 64


class TestBilling:
    @pytest.mark.parametrize(
        "duration_ms,tariff,amount",
        [
            (0, 2, 0),
            (1, 2, 2),  # a started second is charged in full
            (999, 2, 2),
            (1000, 2, 2),
            (1001, 2, 4),
            (90_000, 2, 180),
            (90_000, 0, 0),
            (59_999, 3, 180),
        ],
    )
    def test_whole_second_rounding(self, duration_ms, tariff, amount):
        registry = seeded_registry(tariff=tariff)
        record = registry.vehicles[0]
        invoice = registry.bill(record.id_a, 5000, 5000 + duration_ms, issued_at=10**6)
        assert invoice.duration_ms == duration_ms
        assert invoice.amount == amount
        assert record.balance == 100_000 - amount

    @settings(max_examples=50)
    @given(
        t1=st.integers(min_value=0, max_value=2**40),
        duration=st.integers(min_value=0, max_value=10**7),
        tariff=st.integers(min_value=0, max_value=50),
    )
    def test_amount_formula(self, t1, duration, tariff):
        registry = seeded_registry(tariff=tariff)
        record = registry.vehicles[0]
        invoice = registry.bill(record.id_a, t1, t1 + duration, issued_at=0)
        seconds = duration // 1000 + (1 if duration % 1000 else 0)
        assert invoice.amount == seconds * tariff

    def test_balance_may_go_negative(self):
        registry = seeded_registry(tariff=10, balance=0)
        record = registry.vehicles[0]
        registry.bill(record.id_a, 0, 5000, issued_at=0)
        assert record.balance == -50

    def test_rejects_backwards_interval(self, registry):
        record = registry.vehicles[0]
        with pytest.raises(InvalidReport):
            registry.bill(record.id_a, 5000, 4999, issued_at=0)

    def test_rejects_unknown_vehicle(self, registry):
        with pytest.raises(NotFound):
            registry.bill(b"\xee" * 16, 0, 1000, issued_at=0)

    def test_persist_failure_rolls_back_invoice(self, registry, tmp_path, monkeypatch):
        path = tmp_path / "registry.json"
        registry.save(path)
        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            monkeypatch.setattr(os, "write", _disk_full)
            with pytest.raises(StorageError):
                registry.bill(record.id_a, 0, 5000, issued_at=0)
            assert registry.invoices == []
            assert record.balance == 100_000

    def test_invoices_for_filters_by_vehicle(self, registry):
        first, second = registry.vehicles
        registry.bill(first.id_a, 0, 1000, issued_at=0)
        registry.bill(second.id_a, 0, 2000, issued_at=0)
        registry.bill(first.id_a, 5000, 6000, issued_at=0)
        assert len(registry.invoices_for()) == 3
        assert [inv.t5 for inv in registry.invoices_for(first.id_a)] == [1000, 6000]


class TestPersistence:
    def test_round_trip(self, registry, tmp_path):
        record = registry.vehicles[0]
        registry.authenticate(record.lookup_key, b"\x03" * 16)
        registry.authenticate(record.lookup_key, b"\x01" * 16)
        registry.bill(record.id_a, 0, 90_000, issued_at=90_000)
        registry.revoke(registry.vehicles[1].id_a)
        path = tmp_path / "registry.json"
        registry.save(path)

        loaded = Registry.load(path)
        assert loaded.snapshot() == registry.snapshot()
        assert loaded.group_key == registry.group_key
        assert loaded.vehicles[0].k_a == record.k_a
        assert loaded.invoices_for(record.id_a)[0].amount == 180

    def test_negative_balance_survives(self, tmp_path):
        registry = seeded_registry(tariff=10, balance=0)
        record = registry.vehicles[0]
        registry.bill(record.id_a, 0, 5000, issued_at=0)
        path = tmp_path / "registry.json"
        registry.save(path)
        assert Registry.load(path).find(record.id_a).balance == -50

    def test_used_nonces_sorted_in_file(self, registry, tmp_path):
        record = registry.vehicles[0]
        for nonce in (b"\xff" * 16, b"\x00" * 16, b"\x80" * 16):
            registry.authenticate(record.lookup_key, nonce)
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        stored = next(v for v in obj["vehicles"] if v["id_a"] == record.id_a.hex())
        assert stored["used_nonces"] == sorted(stored["used_nonces"])

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(StorageError):
            Registry.load(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            Registry.load(tmp_path / "absent.json")

    def test_load_rejects_corrupted_lookup_key(self, registry, tmp_path):
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        key = bytearray.fromhex(obj["vehicles"][0]["lookup_key"])
        key[0] ^= 0xFF
        obj["vehicles"][0]["lookup_key"] = key.hex()
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError) as err:
            Registry.load(path)
        assert "lookup_key" in str(err.value)

    def test_load_derives_each_lookup_key_once(self, tmp_path, monkeypatch):
        registry = seeded_registry(vehicles=5)
        path = tmp_path / "registry.json"
        registry.save(path)
        calls = []
        encrypt = crypto.kernels.aes256_encrypt_block

        def counting_encrypt(key, block):
            calls.append(block)
            return encrypt(key, block)

        monkeypatch.setattr(crypto.kernels, "aes256_encrypt_block", counting_encrypt)
        loaded = Registry.load(path)
        assert len(calls) == 5
        assert loaded.snapshot() == registry.snapshot()

    def test_load_derives_each_lookup_key_through_encrypt_block(self, tmp_path, monkeypatch):
        registry = seeded_registry(vehicles=5)
        path = tmp_path / "registry.json"
        registry.save(path)
        calls = []
        encrypt = crypto.encrypt_block

        def counting_encrypt(block, key):
            calls.append(block)
            return encrypt(block, key)

        monkeypatch.setattr(crypto, "encrypt_block", counting_encrypt)
        Registry.load(path)
        assert calls == [record.id_a for record in registry.vehicles]

    def test_load_rejects_bad_tariff(self, registry, tmp_path):
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        obj["tariff_per_second"] = "free"
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError):
            Registry.load(path)

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda obj: obj.update(tariff_per_second=True), ""),
            (lambda obj: obj["vehicles"][0].update(balance=True), " vehicles[0]"),
            (lambda obj: obj["vehicles"][0].update(balance=False), " vehicles[0]"),
            (lambda obj: obj["vehicles"][0].update(owner=None), " vehicles[0]"),
            (lambda obj: obj["vehicles"][0].update(owner=7), " vehicles[0]"),
            (lambda obj: obj["vehicles"][0].update(revoked="no"), " vehicles[0]"),
            (lambda obj: obj["vehicles"][0].update(revoked=0), " vehicles[0]"),
            (lambda obj: obj["invoices"][0].update(t1=1.9), " invoices[0]"),
            (lambda obj: obj["invoices"][0].update(t5="1500"), " invoices[0]"),
            (lambda obj: obj["invoices"][0].update(duration_ms=None), " invoices[0]"),
            (lambda obj: obj["invoices"][0].update(amount=True), " invoices[0]"),
            (lambda obj: obj["invoices"][0].pop("issued_at"), " invoices[0]"),
        ],
        ids=[
            "bool-tariff", "true-balance", "false-balance", "null-owner", "int-owner",
            "string-revoked", "int-revoked", "float-t1", "string-t5", "null-duration",
            "bool-amount", "missing-issued-at",
        ],
    )
    def test_load_rejects_booleans_and_non_string_owners(self, registry, tmp_path, edit, where):
        # a field of the wrong JSON type is refused, never coerced, so the
        # next save cannot silently rewrite it
        registry.bill(registry.vehicles[0].id_a, t1=0, t5=1500, issued_at=1500)
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError, match=re.escape(f"{path}{where}: ")):
            Registry.load(path)

    @pytest.mark.parametrize(
        "nonce", ["zz" * 16, "ab" * 15, 7, "01" * 16], ids=["bad-hex", "15-bytes", "int", "repeated"]
    )
    def test_load_rejects_bad_used_nonces(self, registry, tmp_path, nonce):
        registry.authenticate(registry.vehicles[1].lookup_key, b"\x01" * 16)
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        obj["vehicles"][1]["used_nonces"].append(nonce)
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError, match=re.escape(f"{path} vehicles[1]: used")):
            Registry.load(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj.update(vehicles=7), ": vehicles must be a list"),
            (lambda obj: obj.update(invoices=5), ": invoices must be a list"),
            (lambda obj: obj.update(invoices={"id_a": "00"}), ": invoices must be a list"),
            (lambda obj: obj["vehicles"].append(3), " vehicles[2]: must be a JSON object"),
            (lambda obj: obj["vehicles"].insert(0, ["a1" * 16]),
             " vehicles[0]: must be a JSON object"),
            (lambda obj: obj["invoices"].append("a1" * 16), " invoices[1]: must be a JSON object"),
            (lambda obj: obj.update(extra=1), ": unknown field 'extra'"),
            (lambda obj: obj["vehicles"][1].update(colour="red"),
             " vehicles[1]: unknown field 'colour'"),
            (lambda obj: obj["invoices"][0].update(note=""), " invoices[0]: unknown field 'note'"),
            # an invoice that no bill of this registry could have issued
            (lambda obj: obj["invoices"][0].update(id_a="a1" * 16), " invoices[0]: no vehicle "),
            (lambda obj: obj["invoices"][0].update(duration_ms=1000),
             " invoices[0]: duration_ms 1000 is not t5 - t1"),
            (lambda obj: obj["invoices"][0].update(t1=1500, t5=0, duration_ms=-1500, amount=-2),
             " invoices[0]: t5 0 precedes t1 1500"),
            (lambda obj: obj["invoices"][0].update(amount=3), " invoices[0]: amount 3 is not 4"),
        ],
        ids=["int-vehicles", "int-invoices", "object-invoices", "int-vehicle", "list-vehicle",
             "string-invoice", "extra-top-level", "extra-in-vehicle", "extra-in-invoice",
             "unknown-vehicle", "wrong-duration", "t5-before-t1", "wrong-amount"],
    )
    def test_load_refuses_lists_and_entries_of_the_wrong_shape(
        self, registry, tmp_path, edit, message
    ):
        registry.bill(registry.vehicles[0].id_a, t1=0, t5=1500, issued_at=1500)
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError, match=re.escape(f"{path}{message}")):
            Registry.load(path)

    def test_load_refuses_a_duplicated_vehicle(self, registry, tmp_path):
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        obj["vehicles"].append(obj["vehicles"][0])
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError, match=re.escape(f"{path} vehicles[2]: vehicle ")):
            Registry.load(path)

    def test_saved_file_is_readable_by_its_owner_only(self, registry, tmp_path):
        # the file holds every vehicle key; a save over a wider file narrows it
        path = tmp_path / "registry.json"
        path.write_text("{}")
        path.chmod(0o644)
        registry.save(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_partial_writes_are_resumed(self, registry, tmp_path, monkeypatch):
        whole = tmp_path / "whole.json"
        registry.save(whole)
        write = os.write
        sizes = []

        def short_write(fd, data):
            sizes.append(len(data))
            return write(fd, bytes(data[:100]))

        monkeypatch.setattr(os, "write", short_write)
        path = tmp_path / "registry.json"
        registry.save(path)
        monkeypatch.undo()
        assert len(sizes) > 2
        assert path.read_bytes() == whole.read_bytes()

    def test_failed_write_is_a_storage_error_and_leaves_no_temp_file(
        self, registry, tmp_path, monkeypatch
    ):
        path = tmp_path / "registry.json"
        registry.save(path)
        before = path.read_bytes()
        registry.authenticate(registry.vehicles[0].lookup_key, b"\x01" * 16)

        def failing_write(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", failing_write)
        with pytest.raises(StorageError, match="No space left on device"):
            registry.save(path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["registry.json"]
        assert path.read_bytes() == before

    def test_save_is_atomic_replace(self, registry, tmp_path):
        path = tmp_path / "registry.json"
        registry.save(path)
        before = path.read_text()
        record = registry.vehicles[0]
        registry.authenticate(record.lookup_key, b"\x01" * 16)
        registry.save(path)
        after = path.read_text()
        assert before != after
        assert json.loads(after)  # never a torn file
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name.startswith(".registry.json.tmp-")
        ]
        assert leftovers == []

    def test_save_fsyncs_file_before_replace_and_directory_after(
        self, registry, tmp_path, monkeypatch
    ):
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append("fsync-dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync-file")
            fsync(fd)

        def recording_replace(src, dst):
            events.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        path = tmp_path / "registry.json"
        registry.save(path)
        assert events == ["fsync-file", "replace", "fsync-dir"]
        assert Registry.load(path).snapshot() == registry.snapshot()

    @pytest.mark.parametrize("failing_call", [1, 2], ids=["file", "directory"])
    def test_failed_fsync_is_a_storage_error_and_leaves_no_temp_file(
        self, registry, tmp_path, monkeypatch, failing_call
    ):
        calls = []
        fsync = os.fsync

        def flaky_fsync(fd):
            calls.append(fd)
            if len(calls) == failing_call:
                raise OSError(5, "Input/output error")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        with pytest.raises(StorageError):
            registry.save(tmp_path / "registry.json")
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name.startswith(".registry.json.tmp-")
        ]
        assert leftovers == []

    @settings(max_examples=60, deadline=None)
    @given(
        tariff=st.integers(min_value=0, max_value=2**70),
        vehicles=st.lists(
            st.tuples(
                st.binary(min_size=16, max_size=16),
                st.binary(min_size=32, max_size=32),
                st.integers(min_value=-(2**80), max_value=2**80),
                st.one_of(
                    st.text(max_size=12),
                    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é\u2028😀", "a\nb\tc"]),
                ),
                st.booleans(),
                st.sets(st.binary(min_size=16, max_size=16), max_size=4),
            ),
            max_size=5,
            unique_by=lambda vehicle: vehicle[0],
        ),
        # (t1, duration_ms, issued_at): the loader takes only invoices that
        # bill could have issued
        invoices=st.lists(
            st.tuples(
                st.integers(min_value=-(2**70), max_value=2**70),
                st.integers(min_value=0, max_value=2**70),
                st.integers(min_value=-(2**70), max_value=2**70),
            ),
            max_size=4,
        ),
    )
    def test_saved_bytes_are_indented_json_of_the_fields(self, tariff, vehicles, invoices):
        registry = Registry(group_key=bytes(range(32)), tariff_per_second=tariff)
        for id_a, k_a, balance, owner, revoked, nonces in vehicles:
            record = registry.register(id_a, k_a, owner=owner)
            record.balance = balance  # as the loader sets it: negative is allowed
            record.revoked = revoked
            record.used_nonces = set(nonces)
        for i, (t1, duration_ms, issued_at) in enumerate(invoices if vehicles else ()):
            id_a = vehicles[i % len(vehicles)][0]
            amount = -(-duration_ms // 1000) * tariff  # every started second
            invoice = Invoice(id_a, t1, t1 + duration_ms, duration_ms, amount, issued_at)
            registry.invoices.append(invoice)
        ref = {
            "group_key": registry.group_key.hex(),
            "tariff_per_second": registry.tariff_per_second,
            "vehicles": [
                {
                    "id_a": rec.id_a.hex(),
                    "k_a": rec.k_a.hex(),
                    "lookup_key": rec.lookup_key.hex(),
                    "balance": rec.balance,
                    "owner": rec.owner,
                    "revoked": rec.revoked,
                    "used_nonces": sorted(n.hex() for n in rec.used_nonces),
                }
                for rec in registry.vehicles
            ],
            "invoices": [
                {
                    "id_a": inv.id_a.hex(),
                    "t1": inv.t1,
                    "t5": inv.t5,
                    "duration_ms": inv.duration_ms,
                    "amount": inv.amount,
                    "issued_at": inv.issued_at,
                }
                for inv in registry.invoices
            ],
        }
        expected = (json.dumps(ref, indent=2) + "\n").encode()
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "registry.json")
            registry.save(path)
            with open(path, "rb") as fh:
                assert fh.read() == expected
            # whatever the loader reads back saves to the same bytes
            Registry.load(path).save(path)
            with open(path, "rb") as fh:
                assert fh.read() == expected

    def test_snapshot_detects_any_change(self, registry):
        base = registry.snapshot()
        assert registry.snapshot() == base
        record = registry.vehicles[0]
        registry.authenticate(record.lookup_key, b"\x05" * 16)
        assert registry.snapshot() != base


class TestLoadCanonical:
    @pytest.mark.parametrize(
        "content", [b"\xff", b"[" * 200_000, '{"tariff_per_second": 2}'.encode("utf-16")],
        ids=["0xff", "deep-nesting", "utf-16"],
    )
    def test_undecodable_file_is_a_storage_error(self, tmp_path, content):
        path = tmp_path / "registry.json"
        path.write_bytes(content)
        with pytest.raises(StorageError, match=re.escape(f"registry {path} is not valid JSON")):
            Registry.load(path)

    @pytest.mark.parametrize("content", ["[]", "1", "null"])
    def test_json_that_is_not_an_object_is_a_storage_error(self, tmp_path, content):
        path = tmp_path / "registry.json"
        path.write_text(content)
        message = f"registry {path} must be a JSON object"
        with pytest.raises(StorageError, match=rf"^{re.escape(message)}$"):
            Registry.load(path)

    @pytest.mark.parametrize(
        "locate, where",
        [
            (lambda obj: (obj, "group_key"), ": field 'group_key'"),
            (lambda obj: (obj["vehicles"][1], "id_a"), " vehicles[1]: field 'id_a'"),
            (lambda obj: (obj["vehicles"][1], "k_a"), " vehicles[1]: field 'k_a'"),
            (lambda obj: (obj["vehicles"][1], "lookup_key"), " vehicles[1]: field 'lookup_key'"),
            (lambda obj: (obj["invoices"][0], "id_a"), " invoices[0]: field 'id_a'"),
            (lambda obj: (obj["vehicles"][0]["used_nonces"], 0), " vehicles[0]: used_nonces"),
        ],
        ids=["group-key", "id-a", "k-a", "lookup-key", "invoice-id-a", "used-nonce"],
    )
    @pytest.mark.parametrize(
        "respell", [str.upper, lambda text: f"{text[:2]} {text[2:]}", lambda text: f" {text}"],
        ids=["uppercase", "inner-space", "leading-space"],
    )
    def test_hex_other_than_lowercase_of_the_exact_length_is_refused(
        self, registry, tmp_path, locate, where, respell
    ):
        # bytes.fromhex takes these spellings, and the next save would
        # silently rewrite them
        record = registry.vehicles[0]
        registry.authenticate(record.lookup_key, b"\xab" * 16)
        registry.bill(record.id_a, t1=0, t5=1500, issued_at=1500)
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        container, key = locate(obj)
        container[key] = respell(container[key])
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError, match=re.escape(f"{path}{where}")):
            Registry.load(path)

    @pytest.mark.parametrize(
        "field, value, locate",
        [
            ("tariff_per_second", "0", lambda obj: obj),
            ("revoked", "true", lambda obj: obj["vehicles"][0]),
            ("issued_at", "0", lambda obj: obj["invoices"][0]),
        ],
        ids=["top-level", "vehicle", "invoice"],
    )
    def test_repeated_field_is_refused(self, registry, tmp_path, field, value, locate):
        # json keeps the last value, and the next save would drop the first
        record = registry.vehicles[0]
        registry.bill(record.id_a, t1=0, t5=1500, issued_at=1500)
        path = tmp_path / "registry.json"
        registry.save(path)
        text = re.sub(
            rf'"{field}": [^,\n]+', lambda m: f'{m[0]}, "{field}": {value}', path.read_text(), 1
        )
        assert locate(json.loads(text))[field] == json.loads(value)
        path.write_text(text)
        message = f"{path}: field {field!r} is repeated"
        with pytest.raises(StorageError, match=rf"^{re.escape(message)}$"):
            Registry.load(path)


class TestOpen:
    @pytest.fixture
    def path(self, registry, tmp_path):
        path = tmp_path / "registry.json"
        registry.save(path)
        return path

    def test_failed_save_undoes_a_register(self, path, monkeypatch):
        with Registry.open(path) as registry:
            before = registry.snapshot()
            monkeypatch.setattr(os, "write", _disk_full)
            with pytest.raises(StorageError, match="persist failed, vehicle not enrolled: "):
                registry.register(b"\x31" * 16, b"\x32" * 32)
            monkeypatch.undo()
            assert registry.snapshot() == before
            # neither index kept the record: the same vehicle enrolls cleanly
            registry.register(b"\x31" * 16, b"\x32" * 32)
        assert len(Registry.load(path).vehicles) == 3

    @pytest.mark.parametrize("already_revoked", [False, True])
    def test_failed_save_undoes_a_revoke(self, registry, tmp_path, monkeypatch, already_revoked):
        if already_revoked:
            registry.revoke(registry.vehicles[0].id_a)
        path = tmp_path / "registry.json"
        registry.save(path)
        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            monkeypatch.setattr(os, "write", _disk_full)
            with pytest.raises(StorageError, match="persist failed, vehicle not revoked: "):
                registry.revoke(record.id_a)
            assert record.revoked is already_revoked

    def test_file_equals_memory_after_each_change(self, path, tmp_path):
        mirror = tmp_path / "mirror.json"
        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            changes = [
                lambda: registry.register(b"\x31" * 16, b"\x32" * 32, balance=7),
                lambda: registry.revoke(registry.vehicles[1].id_a),
                lambda: registry.authenticate(record.lookup_key, b"\x05" * 16),
                lambda: registry.bill(record.id_a, 0, 2500, issued_at=2500),
            ]
            for change in changes:
                before = path.read_bytes()
                change()
                registry.save(mirror)
                assert path.read_bytes() == mirror.read_bytes() != before

    @pytest.mark.parametrize("nonce", [b"x", 16, bytes(17)], ids=["1-byte", "int", "17-byte"])
    def test_bad_nonce_is_refused_and_consumes_nothing(self, path, nonce):
        before = path.read_bytes()
        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            with pytest.raises(InvalidInput, match="^nonce must be"):
                registry.authenticate(record.lookup_key, nonce)
            assert record.used_nonces == set()
        assert path.read_bytes() == before
        assert Registry.load(path).snapshot() == registry.snapshot()

    def test_lookup_key_of_any_size_is_an_unknown_vehicle(self, path):
        with Registry.open(path) as registry:
            for lookup_key in (b"", b"\x01" * 15, bytearray(17)):
                assert registry.authenticate(lookup_key, b"\x05" * 16) == (
                    None, Reason.UNKNOWN_VEHICLE
                )
            with pytest.raises(InvalidInput, match="^lookup key must be bytes-like"):
                registry.authenticate(None, b"\x05" * 16)

    @pytest.mark.parametrize(
        "t1,t5,issued_at",
        [(0.5, 1000.0, 0), (0, 1000.0, 0), (0, 1000, 0.0), (0, 1000, None), (False, 1000, 0)],
        ids=["float-times", "float-t5", "float-issued", "none-issued", "bool-t1"],
    )
    def test_bill_refuses_times_that_are_not_ints(self, path, t1, t5, issued_at):
        with Registry.open(path) as registry:
            record = registry.vehicles[0]
            with pytest.raises(InvalidReport, match="must be an integer"):
                registry.bill(record.id_a, t1, t5, issued_at)
            assert registry.invoices == []
            assert record.balance == 100_000
            # the registry still saves: a valid bill goes through
            registry.bill(record.id_a, 0, 1000, issued_at=1000)
        loaded = Registry.load(path)
        assert [inv.t5 for inv in loaded.invoices] == [1000]
        assert loaded.find(record.id_a).balance == 100_000 - 2

    def test_a_path_with_no_file_leaves_no_lock_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(StorageError, match=r"^cannot read registry .*: \[Errno 2\] "):
            with Registry.open(path):
                pass
        assert list(tmp_path.iterdir()) == []

    def test_holds_the_lock_file_for_the_block(self, path):
        with Registry.open(path):
            fd = os.open(f"{path}.lock", os.O_RDWR)
            try:
                with pytest.raises(BlockingIOError):
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)

    def test_change_after_the_block_does_not_touch_the_file(self, path):
        with Registry.open(path) as registry:
            pass
        before = path.read_bytes()
        record = registry.vehicles[0]
        registry.register(b"\x31" * 16, b"\x32" * 32)
        registry.revoke(registry.vehicles[1].id_a)
        registry.authenticate(record.lookup_key, b"\x05" * 16)
        registry.bill(record.id_a, 0, 2500, issued_at=2500)
        assert path.read_bytes() == before

    def test_removes_only_the_temp_files_of_its_own_path(self, path, tmp_path):
        stale = [".registry.json.tmp-0123456789abcdef", ".registry.json.tmp-fedcba9876543210"]
        kept = [
            ".registry.json.tmp-0123456789ABCDEF",  # not lowercase hex
            ".registry.json.tmp-0123456789abcde",  # 15 digits
            ".registry.json.tmp-0123456789abcdef0",  # 17 digits
            ".other.json.tmp-0123456789abcdef",  # another registry's
            "registry.json.tmp-0123456789abcdef",
        ]
        for name in stale + kept:
            (tmp_path / name).write_bytes(b"{")
        with Registry.open(path):
            pass
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["registry.json", "registry.json.lock", *kept]
        )

    def test_unlocked_save_whose_temp_file_is_removed_fails(self, registry, path, monkeypatch):
        # an open of the same path runs while the unlocked save is writing
        before = path.read_bytes()
        write = os.write

        def write_then_open(fd, data):
            written = write(fd, data)
            with Registry.open(path):
                pass
            return written

        registry.authenticate(registry.vehicles[0].lookup_key, b"\x05" * 16)
        monkeypatch.setattr(os, "write", write_then_open)
        with pytest.raises(StorageError):
            registry.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        names = sorted(p.name for p in path.parent.iterdir())
        assert names == ["registry.json", "registry.json.lock"]

    def test_a_lock_that_fails_is_a_storage_error(self, path, monkeypatch):
        def no_lock(fd, operation):
            raise OSError(37, "No locks available")

        monkeypatch.setattr(fcntl, "flock", no_lock)
        with pytest.raises(StorageError, match=r"^cannot lock registry .*No locks available"):
            with Registry.open(path):
                pytest.fail("the block ran without the lock")

    def test_a_temp_name_already_taken_draws_another(self, registry, path, monkeypatch):
        taken = path.parent / ".registry.json.tmp-0000000000000000"
        taken.write_bytes(b"not ours")
        names = iter([bytes(8), bytes(8), b"\x11" * 8])
        monkeypatch.setattr(os, "urandom", lambda n: next(names))
        registry.authenticate(registry.vehicles[0].lookup_key, b"\x05" * 16)
        registry.save(path)
        assert next(names, None) is None  # the third name was drawn
        assert taken.read_bytes() == b"not ours"
        assert Registry.load(path).snapshot() == registry.snapshot()
        assert sorted(p.name for p in path.parent.iterdir()) == [taken.name, "registry.json"]

    def test_a_directory_that_cannot_be_listed_is_a_storage_error(self, path, monkeypatch):
        def unreadable(directory):
            raise PermissionError(13, "Permission denied", directory)

        monkeypatch.setattr(os, "listdir", unreadable)
        with pytest.raises(StorageError, match=r"^cannot remove temp files of registry .*denied"):
            with Registry.open(path):
                pytest.fail("the block ran before stale temp files were removed")
