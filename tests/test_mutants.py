"""Defense mutants: each defense must carry weight in the shipped catalogue.

Each mutant turns off one defense with monkeypatch, and every shipped
scenario named for it must then end DEFENSE BREACHED. A mutant that no
shipped scenario tells apart from the real code goes in EQUIVALENT, with
the reason."""

from types import SimpleNamespace

import pytest

from evabs import crypto, protocol
from evabs.registry import Registry
from evabs.scenario import ScenarioRunner, builtin_scenarios, run_named_scenario

from conftest import seeded_registry


def _during(fn, name, stand_in):
    """fn, with evabs.crypto.<name> replaced by stand_in while it runs."""

    def mutated(*args):
        real = getattr(crypto, name)
        setattr(crypto, name, stand_in)
        try:
            return fn(*args)
        finally:
            setattr(crypto, name, real)

    return mutated


def _forget_nonces(monkeypatch):
    authenticate = Registry.authenticate

    def forgetful(self, lookup_key, nonce):
        record, reason = authenticate(self, lookup_key, nonce)
        if record is not None:
            record.used_nonces.discard(nonce)
        return record, reason

    monkeypatch.setattr(Registry, "authenticate", forgetful)


def _ignore_revocation(monkeypatch):
    monkeypatch.setattr(Registry, "revoke", lambda self, id_a: self.find(id_a))


def _skip_terminal_tag_check(monkeypatch):
    monkeypatch.setattr(protocol, "verify_auth_request", lambda req, k_a: True)


def _skip_vehicle_tag_check(monkeypatch):
    opened = _during(protocol.open_start_charge, "verify_mac", lambda key, data, tag: True)
    monkeypatch.setattr(protocol, "open_start_charge", opened)


def _unmask_m2(monkeypatch):
    # m2 = m1 on the vehicle, m5 = m4 on the terminal: the lookup still works
    # but m3 is the same in every session of a vehicle
    for name in ("build_auth_request", "derive_lookup_request"):
        unmasked = _during(getattr(protocol, name), "xor_blocks", lambda a, b: a)
        monkeypatch.setattr(protocol, name, unmasked)


def _constant_vehicle_nonce(monkeypatch):
    constant = SimpleNamespace(next_nonce=lambda: bytes(crypto.NONCE_SIZE))
    monkeypatch.setattr(ScenarioRunner, "_rng_for", lambda self, record: constant)


def _skip_timestamp_padding_check(monkeypatch):
    def unpadded(block):
        return int.from_bytes(block[8:], "big")

    monkeypatch.setattr(protocol, "unpack_timestamp", unpadded)


# mutant -> (how it turns its defense off, the shipped scenarios that breach)
MUTANTS = {
    "replay-ledger": (_forget_nonces, ["replay"]),
    "revocation": (_ignore_revocation, ["physical-disclosure"]),
    "terminal-auth-tag": (_skip_terminal_tag_check, ["tamper-m3"]),
    "vehicle-start-tag": (_skip_vehicle_tag_check, ["desync"]),
    "m2-nonce-mask": (_unmask_m2, ["cloning", "eavesdrop", "traceability"]),
    "constant-vehicle-nonce": (
        _constant_vehicle_nonce,
        ["cloning", "desync", "eavesdrop", "replay", "tamper-m3", "tamper-m8", "traceability"],
    ),
}

# mutant -> (how it turns its defense off, why no scenario can breach)
EQUIVALENT = {
    "timestamp-padding": (
        _skip_timestamp_padding_check,
        "the start message's tag is checked before its timestamp is unwrapped, so "
        "every tampered m8 is refused as mac_invalid first; only a start message "
        "with a valid tag under a different group key (a mis-provisioned terminal) "
        "could reach the padding check, and no shipped scenario builds one",
    ),
}


def _held(name):
    [report] = run_named_scenario(lambda: seeded_registry(), name, seed=11)
    return report.held


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_defense_carries_weight(mutant, monkeypatch):
    turn_off, names = MUTANTS[mutant]
    turn_off(monkeypatch)
    assert [name for name in names if _held(name)] == []


def test_tamper_m8_reports_the_missing_start_tag_check(monkeypatch):
    # a tampered timestamp can put t2 after the unplug: the vehicle stays
    # charging, and the sweep's checks report it instead of a ClockSkew
    _skip_vehicle_tag_check(monkeypatch)
    assert not _held("tamper-m8")


@pytest.mark.parametrize("mutant", EQUIVALENT)
def test_equivalent_mutant_breaches_no_shipped_scenario(mutant, monkeypatch):
    # a scenario that kills this mutant moves it into MUTANTS
    turn_off, _ = EQUIVALENT[mutant]
    turn_off(monkeypatch)
    assert [name for name in builtin_scenarios() if not _held(name)] == []
