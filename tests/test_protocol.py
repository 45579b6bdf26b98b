"""Handshake step and agent tests.

The central algebraic fact: for honest inputs the terminal's derived lookup
key m5 equals the vehicle's first ciphertext m1 = E(id_a, k_a), and the
start time decrypted by the vehicle equals the one the terminal packed.
Both are checked against an independent composition oracle built from the
cryptography package and hashlib, sharing no code with the implementation.
"""

import hashlib
import hmac as stdlib_hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evabs import crypto, protocol
from evabs.errors import ClockSkew, HandshakeError, InvalidInput
from evabs.registry import Registry
from evabs.wire import AuthRequest, FailureNotice, LookupReply, Reason, StartCharge

from conftest import seeded_registry

block = st.binary(min_size=16, max_size=16)
key256 = st.binary(min_size=32, max_size=32)
millis = st.integers(min_value=0, max_value=2**64 - 1)


def _oracle_aes(key, pt):
    """Single-block AES-256 via OpenSSL, for cross-checking."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(pt) + enc.finalize()


def _creds(rng):
    return protocol.VehicleCredentials(id_a=rng.randbytes(16), k_a=rng.randbytes(32))


class TestTimestamps:
    @given(ms=millis)
    def test_round_trip(self, ms):
        assert protocol.unpack_timestamp(protocol.pack_timestamp(ms)) == ms

    def test_layout(self):
        assert protocol.pack_timestamp(1) == b"\x00" * 15 + b"\x01"

    def test_nonzero_padding_rejected(self):
        bad = b"\x00" * 7 + b"\x01" + b"\x00" * 8
        with pytest.raises(HandshakeError) as err:
            protocol.unpack_timestamp(bad)
        assert err.value.reason is Reason.MALFORMED_TIMESTAMP

    def test_bounds(self):
        with pytest.raises(InvalidInput):
            protocol.pack_timestamp(-1)
        with pytest.raises(InvalidInput):
            protocol.pack_timestamp(1 << 64)

    def test_bool_is_not_a_millisecond_count(self):
        with pytest.raises(InvalidInput):
            protocol.pack_timestamp(True)
        with pytest.raises(InvalidInput):
            protocol.unpack_timestamp(b"\x00" * 15)


class TestCredentials:
    @pytest.mark.parametrize(
        "id_a,k_a",
        [(16, 32), ("i" * 16, bytes(32)), (bytes(16), "k" * 32), (None, bytes(32))],
        ids=["ints", "str-id", "str-key", "none-id"],
    )
    def test_non_bytes_fields_are_refused(self, id_a, k_a):
        with pytest.raises(InvalidInput, match="must be bytes-like"):
            protocol.VehicleCredentials(id_a=id_a, k_a=k_a)

    def test_wrong_sizes_are_refused(self):
        with pytest.raises(InvalidInput, match="^id_a must be 16 bytes"):
            protocol.VehicleCredentials(id_a=bytes(15), k_a=bytes(32))
        with pytest.raises(InvalidInput, match="^k_a must be 32 bytes"):
            protocol.VehicleCredentials(id_a=bytes(16), k_a=bytes(33))

    def test_bytes_like_fields_are_held_as_bytes(self):
        creds = protocol.VehicleCredentials(bytearray(16), memoryview(bytes(32)))
        assert hash(creds) == hash(protocol.VehicleCredentials(bytes(16), bytes(32)))
        assert type(creds.id_a) is bytes and type(creds.k_a) is bytes


class TestStepAlgebra:
    @settings(max_examples=100)
    @given(id_a=block, k_a=key256, k_g=key256, n_a=block)
    def test_lookup_recovers_stable_key(self, id_a, k_a, k_g, n_a):
        creds = protocol.VehicleCredentials(id_a=id_a, k_a=k_a)
        req = protocol.build_auth_request(creds, k_g, n_a)
        lookup = protocol.derive_lookup_request(req, k_g)
        assert lookup.m5 == crypto.encrypt_block(id_a, k_a)
        assert lookup.n_a == n_a
        assert protocol.verify_auth_request(req, k_a)

    @settings(max_examples=100)
    @given(k_a=key256, k_g=key256, n_t=block, t1=millis)
    def test_vehicle_recovers_start_time(self, k_a, k_g, n_t, t1):
        msg = protocol.build_start_charge(k_a, k_g, t1, n_t)
        assert protocol.open_start_charge(msg, k_a, k_g) == t1

    def test_zero_nonce_still_round_trips(self):
        # xor with zero is the identity; freshness, not secrecy, is what the
        # nonce adds, so the algebra must hold even for this degenerate value
        rng = random.Random(1)
        creds = _creds(rng)
        k_g = rng.randbytes(32)
        req = protocol.build_auth_request(creds, k_g, bytes(16))
        lookup = protocol.derive_lookup_request(req, k_g)
        assert lookup.m5 == crypto.encrypt_block(creds.id_a, creds.k_a)


class TestCompositionOracle:
    """Recompute every frame field with OpenSSL AES, bytes.__xor__ folds and
    stdlib hmac, then compare to the step functions."""

    def test_auth_request_fields(self):
        pytest.importorskip("cryptography")
        rng = random.Random(0xA0)
        for _ in range(25):
            creds = _creds(rng)
            k_g = rng.randbytes(32)
            n_a = rng.randbytes(16)
            m1 = _oracle_aes(creds.k_a, creds.id_a)
            m2 = bytes(a ^ b for a, b in zip(m1, n_a))
            m3 = _oracle_aes(k_g, m2)
            mac = stdlib_hmac.new(creds.k_a, m3 + n_a, hashlib.sha256).digest()
            req = protocol.build_auth_request(creds, k_g, n_a)
            assert (req.m3, req.mac, req.n_a) == (m3, mac, n_a)

    def test_start_charge_fields(self):
        pytest.importorskip("cryptography")
        rng = random.Random(0xA1)
        for _ in range(25):
            k_a = rng.randbytes(32)
            k_g = rng.randbytes(32)
            n_t = rng.randbytes(16)
            t1 = rng.randrange(0, 1 << 48)
            packed = b"\x00" * 8 + t1.to_bytes(8, "big")
            m6 = bytes(a ^ b for a, b in zip(packed, n_t))
            m7 = _oracle_aes(k_a, m6)
            m8 = _oracle_aes(k_g, m7)
            mac = stdlib_hmac.new(k_a, m8 + n_t, hashlib.sha256).digest()
            msg = protocol.build_start_charge(k_a, k_g, t1, n_t)
            assert (msg.m8, msg.mac, msg.n_t) == (m8, mac, n_t)
            assert protocol.open_start_charge(msg, k_a, k_g) == t1


class TestVerificationFailures:
    def setup_method(self):
        rng = random.Random(0xB0)
        self.creds = _creds(rng)
        self.k_g = rng.randbytes(32)
        self.n_a = rng.randbytes(16)
        self.n_t = rng.randbytes(16)

    def test_wrong_key_fails_auth_mac(self):
        req = protocol.build_auth_request(self.creds, self.k_g, self.n_a)
        other = bytes(32)
        assert not protocol.verify_auth_request(req, other)

    @pytest.mark.parametrize("field", ["m3", "mac", "n_a"])
    def test_any_tampered_auth_field_fails(self, field):
        req = protocol.build_auth_request(self.creds, self.k_g, self.n_a)
        mutated = bytearray(getattr(req, field))
        mutated[0] ^= 0x01
        forged = AuthRequest(**{**req.__dict__, field: bytes(mutated)})
        assert not protocol.verify_auth_request(forged, self.creds.k_a)

    def test_tampered_start_charge_raises_mac_invalid(self):
        msg = protocol.build_start_charge(self.creds.k_a, self.k_g, 5000, self.n_t)
        bad = StartCharge(m8=msg.m8, mac=bytes(32), n_t=msg.n_t)
        with pytest.raises(HandshakeError) as err:
            protocol.open_start_charge(bad, self.creds.k_a, self.k_g)
        assert err.value.reason is Reason.MAC_INVALID

    def test_wrong_group_key_yields_malformed_timestamp(self):
        # the tag is keyed with k_a only, so it still verifies; the failure
        # must surface when the padding check runs on the garbled block
        msg = protocol.build_start_charge(self.creds.k_a, self.k_g, 5000, self.n_t)
        with pytest.raises(HandshakeError) as err:
            protocol.open_start_charge(msg, self.creds.k_a, bytes(32))
        assert err.value.reason is Reason.MALFORMED_TIMESTAMP

    def test_elapsed_rejects_backwards_clock(self):
        assert protocol.elapsed(10, 25) == 15
        with pytest.raises(ClockSkew):
            protocol.elapsed(25, 10)


def _wire_up(registry):
    vehicle_record = registry.vehicles[0]
    creds = protocol.VehicleCredentials(id_a=vehicle_record.id_a, k_a=vehicle_record.k_a)
    terminal = protocol.Terminal(registry.group_key, crypto.NonceSource.from_seed(21))
    server = protocol.Server(registry)
    session = protocol.VehicleSession(
        creds, registry.group_key, crypto.NonceSource.from_seed(22)
    )
    return creds, session, terminal, server


class TestVehicleSession:
    def test_full_honest_run(self, registry):
        creds, session, terminal, server = _wire_up(registry)
        req = session.start()
        assert session.phase is protocol.Phase.WAITING
        reply = server.handle_lookup(terminal.handle_auth(req))
        assert reply.accepted and reply.id_a == creds.id_a
        start = terminal.handle_reply(reply, now=4000)
        assert terminal.energy_on
        session.receive(start)
        assert session.phase is protocol.Phase.CHARGING
        assert session.t2 == 4000 == terminal.active[0].t1
        assert session.unplug(now=94_000) == 90_000
        assert session.phase is protocol.Phase.COMPLETED
        report = terminal.stop_charge(now=94_000)
        assert not terminal.energy_on
        assert (report.id_a, report.t1, report.t5) == (creds.id_a, 4000, 94_000)
        invoice = server.handle_report(report, now=94_000)
        assert invoice.duration_ms == 90_000
        assert invoice.amount == 90 * registry.tariff_per_second

    def test_double_start_rejected(self, registry):
        _, session, _, _ = _wire_up(registry)
        session.start()
        with pytest.raises(HandshakeError):
            session.start()

    def test_failure_notice_fails_session(self, registry):
        _, session, _, _ = _wire_up(registry)
        session.start()
        session.receive(FailureNotice(reason=Reason.UNKNOWN_VEHICLE))
        assert session.phase is protocol.Phase.FAILED
        assert session.fail_reason is Reason.UNKNOWN_VEHICLE

    def test_tampered_start_fails_session(self, registry):
        creds, session, terminal, server = _wire_up(registry)
        req = session.start()
        reply = server.handle_lookup(terminal.handle_auth(req))
        start = terminal.handle_reply(reply, now=4000)
        mutated = bytearray(start.m8)
        mutated[3] ^= 0xFF
        session.receive(StartCharge(m8=bytes(mutated), mac=start.mac, n_t=start.n_t))
        assert session.phase is protocol.Phase.FAILED
        assert session.fail_reason is Reason.MAC_INVALID

    def test_out_of_phase_frames_ignored(self, registry):
        # an ignored frame changes nothing the session shows
        _, session, _, _ = _wire_up(registry)
        stray = protocol.build_start_charge(bytes(32), bytes(32), 0, bytes(16))
        session.receive(stray)  # IDLE: not started yet
        assert (session.phase, session.fail_reason, session.t2) == (
            protocol.Phase.IDLE, None, None,
        )
        session.start()
        session.receive(LookupReply(accepted=False, reason=Reason.REPLAY_DETECTED))  # not for it
        assert (session.phase, session.fail_reason) == (protocol.Phase.WAITING, None)
        session.receive(FailureNotice(reason=Reason.ABORTED))
        session.receive(stray)  # FAILED: session over
        assert (session.phase, session.fail_reason, session.t2) == (
            protocol.Phase.FAILED, Reason.ABORTED, None,
        )

    def test_unplug_requires_charging(self, registry):
        _, session, _, _ = _wire_up(registry)
        with pytest.raises(HandshakeError):
            session.unplug(now=100)
        session.start()
        with pytest.raises(HandshakeError):
            session.unplug(now=100)

    def test_abort_only_from_early_phases(self, registry):
        _, session, _, _ = _wire_up(registry)
        session.abort()
        assert session.phase is protocol.Phase.ABORTED
        _, session2, _, _ = _wire_up(registry)
        session2.start()
        session2.receive(FailureNotice(reason=Reason.ABORTED))
        session2.abort()  # no-op: already failed
        assert session2.phase is protocol.Phase.FAILED


class TestTerminal:
    def test_reply_without_pending_is_ignored(self, registry):
        _, _, terminal, _ = _wire_up(registry)
        out = terminal.handle_reply(
            LookupReply(accepted=False, reason=Reason.UNKNOWN_VEHICLE), now=0
        )
        # nothing paired, started or drawn
        assert out is None
        assert not terminal.pending and not terminal.energy_on
        assert terminal.nonces.state == crypto.NonceSource.from_seed(21).state

    def test_rejected_reply_becomes_failure_notice(self, registry):
        creds, session, terminal, _ = _wire_up(registry)
        terminal.handle_auth(session.start())
        out = terminal.handle_reply(
            LookupReply(accepted=False, reason=Reason.REPLAY_DETECTED), now=0
        )
        assert out == FailureNotice(reason=Reason.REPLAY_DETECTED)
        assert not terminal.energy_on

    def test_bad_auth_mac_yields_failure_not_energy(self, registry):
        creds, session, terminal, server = _wire_up(registry)
        req = session.start()
        forged = AuthRequest(m3=req.m3, mac=bytes(32), n_a=req.n_a)
        reply = server.handle_lookup(terminal.handle_auth(forged))
        assert reply.accepted  # lookup alone cannot see the forgery
        out = terminal.handle_reply(reply, now=0)
        assert out == FailureNotice(reason=Reason.MAC_INVALID)
        assert not terminal.energy_on and not terminal.pending

    def test_replies_pair_fifo(self):
        registry = seeded_registry(vehicles=2)
        first, second = registry.vehicles
        terminal = protocol.Terminal(registry.group_key, crypto.NonceSource.from_seed(5))
        server = protocol.Server(registry)
        nonces = crypto.NonceSource.from_seed(6)
        reqs = [
            protocol.build_auth_request(
                protocol.VehicleCredentials(id_a=rec.id_a, k_a=rec.k_a),
                registry.group_key,
                nonces.next_nonce(),
            )
            for rec in (first, second)
        ]
        replies = [server.handle_lookup(terminal.handle_auth(r)) for r in reqs]
        for reply, now in zip(replies, (1000, 2000)):
            assert isinstance(terminal.handle_reply(reply, now), StartCharge)
        assert [c.id_a for c in terminal.active] == [first.id_a, second.id_a]
        assert terminal.stop_charge(now=3000).id_a == first.id_a
        assert terminal.stop_charge(now=4000).id_a == second.id_a
        assert terminal.stop_charge(now=5000) is None


class TestServer:
    def test_unknown_vehicle_rejected(self, registry):
        server = protocol.Server(registry)
        lookup = protocol.derive_lookup_request(
            AuthRequest(m3=bytes(16), mac=bytes(32), n_a=bytes(16)), registry.group_key
        )
        reply = server.handle_lookup(lookup)
        assert not reply.accepted
        assert reply.reason is Reason.UNKNOWN_VEHICLE
        assert server.rejected[Reason.UNKNOWN_VEHICLE] == 1

    def test_nonce_reuse_rejected(self, registry):
        creds, session, terminal, server = _wire_up(registry)
        lookup = terminal.handle_auth(session.start())
        assert server.handle_lookup(lookup).accepted
        dup = server.handle_lookup(lookup)
        assert not dup.accepted
        assert dup.reason is Reason.REPLAY_DETECTED
        assert server.accepted == 1

    def test_same_vehicle_fresh_nonce_accepted(self, registry):
        record = registry.vehicles[0]
        creds = protocol.VehicleCredentials(id_a=record.id_a, k_a=record.k_a)
        terminal = protocol.Terminal(registry.group_key, crypto.NonceSource.from_seed(5))
        server = protocol.Server(registry)
        nonces = crypto.NonceSource.from_seed(6)
        for _ in range(3):
            req = protocol.build_auth_request(creds, registry.group_key, nonces.next_nonce())
            assert server.handle_lookup(terminal.handle_auth(req)).accepted
        assert server.accepted == 3

    def test_dispatch(self, registry):
        creds, session, terminal, server = _wire_up(registry)
        lookup = terminal.handle_auth(session.start())
        assert isinstance(server.handle(lookup, now=0), LookupReply)
        with pytest.raises(InvalidInput):
            server.handle(FailureNotice(reason=Reason.ABORTED), now=0)

    def test_forced_nonce_collision_across_vehicles(self):
        # two different vehicles presenting the same nonce: the replay set is
        # per record, so both must be accepted once, then each blocked
        registry = seeded_registry(vehicles=2)
        server = protocol.Server(registry)
        terminal = protocol.Terminal(registry.group_key, crypto.NonceSource.from_seed(5))
        shared = b"\x42" * 16
        for rec in registry.vehicles:
            creds = protocol.VehicleCredentials(id_a=rec.id_a, k_a=rec.k_a)
            req = protocol.build_auth_request(creds, registry.group_key, shared)
            assert server.handle_lookup(terminal.handle_auth(req)).accepted
        for rec in registry.vehicles:
            creds = protocol.VehicleCredentials(id_a=rec.id_a, k_a=rec.k_a)
            req = protocol.build_auth_request(creds, registry.group_key, shared)
            reply = server.handle_lookup(terminal.handle_auth(req))
            assert reply.reason is Reason.REPLAY_DETECTED
