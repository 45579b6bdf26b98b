"""Registry.open on a file, checked step by step against a dict model.

A hypothesis state machine drives one registry file: register, revoke,
authenticate with a fresh or a repeated nonce, bill, write an int too large
to write, and reopen. Each change may be a failure step: its k-th os.write,
os.fsync or os.replace call, counted together, raises OSError or
KeyboardInterrupt. A change whose OSError fired raises StorageError. It says
"persist failed" when the fault came before the change's commit point, and
the model then says the change did not happen; it says "persist incomplete"
when the fault came after, and the model keeps the change. An interrupt
comes back out as it was raised and does not say which side of the commit
point it came from, so the model then takes the change or not, as memory
holds it. After every step the file loads to exactly what the registry
holds in memory, and that is what the model holds."""

import errno
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from evabs import crypto
from evabs.errors import DuplicateVehicle, NotFound, StorageError
from evabs.registry import Registry
from evabs.wire import Reason

TARIFF = 3
IDS = [bytes([i]) * crypto.BLOCK_SIZE for i in range(1, 4)]
MAX_DURATION = 2**40
_Kept = object()  # a change's StorageError said the file holds it
_Either = object()  # a change was interrupted: the file may or may not hold it
# no fault, or the call of the change that fails and what it raises
FAULTS = st.none() | st.tuples(st.integers(1, 8), st.sampled_from([OSError, KeyboardInterrupt]))


def _key(id_a):
    return bytes(reversed(id_a * 2))


def _lookup_key(id_a):
    return crypto.encrypt_block(id_a, _key(id_a))


def _state(registry):
    """What a registry holds, in the model's form."""
    vehicles = {
        rec.id_a: (rec.balance, rec.revoked, frozenset(rec.used_nonces))
        for rec in registry.vehicles
    }
    invoices = [
        (inv.id_a, inv.t1, inv.t5, inv.duration_ms, inv.amount, inv.issued_at)
        for inv in registry.invoices
    ]
    return vehicles, invoices


class _Faults:
    """For a fault (k, kind), make the k-th os.write, os.fsync or os.replace
    call raise an OSError or a KeyboardInterrupt while patched in."""

    def __init__(self, fault):
        self.k, kind = fault or (0, OSError)
        self.interrupt = KeyboardInterrupt() if kind is KeyboardInterrupt else None
        self.calls = 0
        self.fired = False

    def _wrap(self, name, real):
        def wrapper(*args, **kwargs):
            self.calls += 1
            if self.calls == self.k:
                self.fired = True
                if self.interrupt is not None:
                    raise self.interrupt
                raise OSError(errno.EIO, f"injected fault in os.{name}")
            return real(*args, **kwargs)

        return wrapper

    def patches(self):
        return [
            mock.patch.object(os, name, self._wrap(name, getattr(os, name)))
            for name in ("write", "fsync", "replace")
        ]


class RegistryModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="evabs-model-")
        self.path = os.path.join(self.dir, "registry.json")
        Registry(bytes(range(crypto.KEY_SIZE)), TARIFF).save(self.path)
        self.vehicles = {}  # id -> (balance, revoked, frozenset of nonces)
        self.invoices = []
        self._open()

    def _open(self):
        self.context = Registry.open(self.path)
        self.registry = self.context.__enter__()

    def teardown(self):
        try:
            self.context.__exit__(None, None, None)
        finally:
            shutil.rmtree(self.dir)

    def _change(self, fault, call, *args):
        """call(*args) with the os call that `fault` names failing, if any:
        its result, or whether a StorageError said the change was kept, or
        _Either after an interrupt."""
        faults = _Faults(fault)
        patches = faults.patches()
        for patch in patches:
            patch.start()
        try:
            return call(*args), faults
        except StorageError as exc:
            assert faults.fired and faults.interrupt is None
            if str(exc).startswith("persist incomplete, "):
                assert "dropped" not in str(exc)
                return _Kept, faults
            assert str(exc).startswith("persist failed, "), exc
            return StorageError, faults
        except KeyboardInterrupt as exc:
            assert exc is faults.interrupt
            return _Either, faults
        finally:
            for patch in reversed(patches):
                patch.stop()

    def _settle(self, outcome, faults, vehicles, invoices):
        """Adopt the state after a change unless it failed before its
        commit point; after an interrupt, the state before or after it,
        whichever memory holds."""
        if outcome is StorageError:
            return
        if outcome is _Either:
            state = _state(self.registry)
            assert state in ((self.vehicles, self.invoices), (vehicles, invoices))
            self.vehicles, self.invoices = state
            return
        assert outcome is _Kept or not faults.fired
        self.vehicles, self.invoices = vehicles, invoices

    # -- steps -------------------------------------------------------------

    @rule(id_a=st.sampled_from(IDS), balance=st.integers(0, 10**6), fault=FAULTS)
    def register(self, id_a, balance, fault):
        if id_a in self.vehicles:
            try:
                self.registry.register(id_a, _key(id_a), balance=balance)
            except DuplicateVehicle:
                return
            raise AssertionError("a second enrollment of one id was accepted")
        outcome, faults = self._change(fault, self.registry.register, id_a, _key(id_a), balance)
        vehicles = {**self.vehicles, id_a: (balance, False, frozenset())}
        self._settle(outcome, faults, vehicles, list(self.invoices))

    @rule(id_a=st.sampled_from(IDS), fault=FAULTS)
    def revoke(self, id_a, fault):
        if id_a not in self.vehicles:
            try:
                self.registry.revoke(id_a)
            except NotFound:
                return
            raise AssertionError("an unknown vehicle was revoked")
        outcome, faults = self._change(fault, self.registry.revoke, id_a)
        balance, _, nonces = self.vehicles[id_a]
        vehicles = {**self.vehicles, id_a: (balance, True, nonces)}
        self._settle(outcome, faults, vehicles, list(self.invoices))

    @rule(id_a=st.sampled_from(IDS), repeat=st.booleans(), data=st.data(), fault=FAULTS)
    def authenticate(self, id_a, repeat, data, fault):
        balance, revoked, nonces = self.vehicles.get(id_a, (0, False, frozenset()))
        if repeat and nonces:
            nonce = data.draw(st.sampled_from(sorted(nonces)))
        else:
            nonce = data.draw(st.binary(min_size=crypto.NONCE_SIZE, max_size=crypto.NONCE_SIZE))
        lookup_key = _lookup_key(id_a)
        outcome, faults = self._change(fault, self.registry.authenticate, lookup_key, nonce)
        if id_a not in self.vehicles or revoked:
            assert outcome == (None, Reason.UNKNOWN_VEHICLE)
        elif nonce in nonces:
            assert outcome == (None, Reason.REPLAY_DETECTED)
        else:
            if outcome not in (StorageError, _Kept, _Either):
                assert outcome[0].id_a == id_a and outcome[1] is None
            vehicles = {**self.vehicles, id_a: (balance, revoked, nonces | {nonce})}
            self._settle(outcome, faults, vehicles, list(self.invoices))
            return
        assert not faults.calls

    @rule(
        id_a=st.sampled_from(IDS),
        t1=st.integers(0, MAX_DURATION),
        duration=st.integers(0, MAX_DURATION),
        fault=FAULTS,
    )
    def bill(self, id_a, t1, duration, fault):
        t5 = t1 + duration
        if id_a not in self.vehicles:
            try:
                self.registry.bill(id_a, t1, t5, t5)
            except NotFound:
                return
            raise AssertionError("an unknown vehicle was billed")
        outcome, faults = self._change(fault, self.registry.bill, id_a, t1, t5, t5)
        amount = -(-duration // 1000) * TARIFF
        balance, revoked, nonces = self.vehicles[id_a]
        vehicles = {**self.vehicles, id_a: (balance - amount, revoked, nonces)}
        invoices = [*self.invoices, (id_a, t1, t5, duration, amount, t5)]
        self._settle(outcome, faults, vehicles, invoices)

    @rule(id_a=st.sampled_from(IDS))
    def write_too_large_int(self, id_a):
        """An int with more digits than str() writes: refused before the
        commit point, so nothing changes."""
        huge = 10**5000
        with pytest.raises(StorageError, match="^persist failed, .*: cannot "):
            if id_a in self.vehicles:
                self.registry.bill(id_a, 0, huge, huge)
            else:
                self.registry.register(id_a, _key(id_a), balance=huge)

    @rule()
    def reopen(self):
        self.context.__exit__(None, None, None)
        self._open()

    @invariant()
    def file_and_registry_match_the_model(self):
        assert _state(Registry.load(self.path)) == _state(self.registry)
        assert _state(self.registry) == (self.vehicles, self.invoices)


RegistryModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
test_registry_matches_its_model = RegistryModel.TestCase
