"""Registry tests: enrollment, revocation as absence, atomic nonce
consumption (including under 64-way contention), whole-second billing, and
crash-safe persistence with an integrity check on load."""

import json
import os
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

    def test_persist_failure_rolls_back_nonce(self, registry):
        record = registry.vehicles[0]
        nonce = b"\x09" * 16

        def broken():
            raise OSError("disk full")

        with pytest.raises(StorageError):
            registry.authenticate(record.lookup_key, nonce, persist=broken)
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

    def test_persist_failure_rolls_back_invoice(self, registry):
        record = registry.vehicles[0]

        def broken():
            raise OSError("disk full")

        with pytest.raises(StorageError):
            registry.bill(record.id_a, 0, 5000, issued_at=0, persist=broken)
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

    def test_load_rejects_bad_tariff(self, registry, tmp_path):
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        obj["tariff_per_second"] = "free"
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError):
            Registry.load(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj.update(tariff_per_second=True),
            lambda obj: obj["vehicles"][0].update(balance=True),
            lambda obj: obj["vehicles"][0].update(balance=False),
            lambda obj: obj["vehicles"][0].update(owner=None),
            lambda obj: obj["vehicles"][0].update(owner=7),
        ],
        ids=["bool-tariff", "true-balance", "false-balance", "null-owner", "int-owner"],
    )
    def test_load_rejects_booleans_and_non_string_owners(self, registry, tmp_path, edit):
        path = tmp_path / "registry.json"
        registry.save(path)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(StorageError):
            Registry.load(path)

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
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".registry-")]
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
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".registry-")]
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
        invoices=st.lists(st.tuples(*[st.integers(min_value=-(2**70), max_value=2**70)] * 5),
                          max_size=4),
    )
    def test_saved_bytes_are_indented_json_of_the_fields(self, tariff, vehicles, invoices):
        registry = Registry(group_key=bytes(range(32)), tariff_per_second=tariff)
        for id_a, k_a, balance, owner, revoked, nonces in vehicles:
            record = registry.register(id_a, k_a, owner=owner)
            record.balance = balance  # as the loader sets it: negative is allowed
            record.revoked = revoked
            record.used_nonces = set(nonces)
        for i, (t1, t5, duration_ms, amount, issued_at) in enumerate(invoices):
            id_a = vehicles[i % len(vehicles)][0] if vehicles else b"\x07" * 16
            registry.invoices.append(Invoice(id_a, t1, t5, duration_ms, amount, issued_at))
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
