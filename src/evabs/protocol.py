"""Handshake steps and the three protocol agents.

One honest session, as computed by the step functions below:

    vehicle:   m1 = E(id_a, k_a); m2 = m1 xor n_a; m3 = E(m2, k_g)
               mac = HMAC(k_a, m3 || n_a)                 -> AuthRequest
    terminal:  m4 = D(m3, k_g); m5 = m4 xor n_a           -> LookupRequest
    server:    record lookup keyed by m5; n_a replay set  -> LookupReply
    terminal:  checks the AuthRequest mac with the k_a it just learned,
               m6 = pad(t1) xor n_t; m7 = E(m6, k_a); m8 = E(m7, k_g)
               mac = HMAC(k_a, m8 || n_t); energy on      -> StartCharge
    vehicle:   checks mac; m9 = D(m8, k_g); m10 = D(m9, k_a)
               t2 = unpad(m10 xor n_t)                    -> charging
    unplug:    vehicle shows t4 = t3 - t2; terminal reports (id_a, t1, t5)

XOR is an involution, so for honest runs m5 == m1 == E(id_a, k_a), which is
exactly the stable key the server indexes vehicle records by, and t2 == t1.
The id never crosses the open link in the clear and every frame is
randomized by a fresh nonce.

Agents are small state machines over these steps. They ignore frames that
do not fit their current phase, fail closed on any verification error, and
never write to the registry themselves; only the server does that.
"""

import enum
from collections import Counter, deque
from dataclasses import dataclass

from evabs import crypto
from evabs.errors import ClockSkew, HandshakeError, InvalidInput, checked_bytes, checked_int
from evabs.wire import (
    TS_MAX,
    AuthRequest,
    ChargeReport,
    FailureNotice,
    LookupReply,
    LookupRequest,
    Reason,
    StartCharge,
)

__all__ = [
    "VehicleCredentials",
    "Phase",
    "VehicleSession",
    "Terminal",
    "Server",
    "pack_timestamp",
    "unpack_timestamp",
    "build_auth_request",
    "derive_lookup_request",
    "verify_auth_request",
    "build_start_charge",
    "open_start_charge",
    "elapsed",
]

_TS_PAD = b"\x00" * 8


@dataclass(frozen=True)
class VehicleCredentials:
    """What a vehicle carries: its 16-byte id and its 32-byte private key."""

    id_a: bytes
    k_a: bytes

    def __post_init__(self):
        # a frozen value holds bytes, so it hashes and cannot be changed
        object.__setattr__(self, "id_a", checked_bytes("id_a", self.id_a, crypto.BLOCK_SIZE))
        object.__setattr__(self, "k_a", checked_bytes("k_a", self.k_a, crypto.KEY_SIZE))


def pack_timestamp(ms):
    """Millisecond count -> 16-byte block: 8 zero bytes then 8 big-endian."""
    return _TS_PAD + checked_int("timestamp", ms, 0, TS_MAX).to_bytes(8, "big")


def unpack_timestamp(block):
    """Inverse of pack_timestamp. Nonzero padding means the block was not a
    timestamp we built (wrong key, tampering): malformed_timestamp."""
    if len(block) != crypto.BLOCK_SIZE:
        raise InvalidInput("timestamp block must be 16 bytes")
    if block[:8] != _TS_PAD:
        raise HandshakeError(Reason.MALFORMED_TIMESTAMP, "nonzero timestamp padding")
    return int.from_bytes(block[8:], "big")


def build_auth_request(creds, group_key, n_a):
    """Steps the vehicle runs to open a session, with an explicit nonce so
    callers control freshness."""
    m1 = crypto.encrypt_block(creds.id_a, creds.k_a)
    m2 = crypto.xor_blocks(m1, n_a)
    m3 = crypto.encrypt_block(m2, group_key)
    mac = crypto.compute_mac(creds.k_a, m3 + n_a)
    return AuthRequest(m3=m3, mac=mac, n_a=n_a)


def derive_lookup_request(req, group_key):
    """Terminal side of the auth request: strip the group layer and the
    nonce. The result equals E(id_a, k_a) iff the frame is authentic."""
    m4 = crypto.decrypt_block(req.m3, group_key)
    m5 = crypto.xor_blocks(m4, req.n_a)
    return LookupRequest(m5=m5, n_a=req.n_a)


def verify_auth_request(req, k_a):
    """Check the auth-request tag once the server has revealed k_a."""
    return crypto.verify_mac(k_a, req.m3 + req.n_a, req.mac)


def build_start_charge(k_a, group_key, t1, n_t):
    """Wrap the charge start time for the vehicle: pad, blind with the
    terminal nonce, then encrypt under both keys."""
    m6 = crypto.xor_blocks(pack_timestamp(t1), n_t)
    m7 = crypto.encrypt_block(m6, k_a)
    m8 = crypto.encrypt_block(m7, group_key)
    mac = crypto.compute_mac(k_a, m8 + n_t)
    return StartCharge(m8=m8, mac=mac, n_t=n_t)


def open_start_charge(msg, k_a, group_key):
    """Vehicle side of the start message: verify the tag first, then peel
    both layers and the nonce. Returns the terminal's start time t2."""
    if not crypto.verify_mac(k_a, msg.m8 + msg.n_t, msg.mac):
        raise HandshakeError(Reason.MAC_INVALID, "start_charge tag mismatch")
    m9 = crypto.decrypt_block(msg.m8, group_key)
    m10 = crypto.decrypt_block(m9, k_a)
    return unpack_timestamp(crypto.xor_blocks(m10, msg.n_t))


def elapsed(start, end):
    """end - start with the protocol's monotonicity requirement."""
    if end < start:
        raise ClockSkew(f"end {end} precedes start {start}")
    return end - start


class Phase(enum.Enum):
    IDLE = "idle"
    WAITING = "waiting"
    CHARGING = "charging"
    COMPLETED = "completed"
    FAILED = "failed"
    ABORTED = "aborted"


class VehicleSession:
    """Vehicle-side state machine for one charge attempt."""

    def __init__(self, creds, group_key, nonces):
        self.creds = creds
        self.group_key = group_key
        self.nonces = nonces
        self.phase = Phase.IDLE
        self.fail_reason = None
        self.t2 = None
        self.t4 = None

    def start(self):
        if self.phase is not Phase.IDLE:
            raise HandshakeError(Reason.ABORTED, "session already started")
        req = build_auth_request(self.creds, self.group_key, self.nonces.next_nonce())
        self.phase = Phase.WAITING
        return req

    def receive(self, msg):
        if self.phase is not Phase.WAITING:
            return
        if isinstance(msg, StartCharge):
            try:
                self.t2 = open_start_charge(msg, self.creds.k_a, self.group_key)
            except HandshakeError as exc:
                self.phase = Phase.FAILED
                self.fail_reason = exc.reason
                return
            self.phase = Phase.CHARGING
        elif isinstance(msg, FailureNotice):
            self.phase = Phase.FAILED
            self.fail_reason = msg.reason

    def unplug(self, now):
        """Driver leaves at time t3; the display shows t4 = t3 - t2."""
        if self.phase is not Phase.CHARGING:
            raise HandshakeError(Reason.ABORTED, f"cannot unplug in phase {self.phase.value}")
        self.t4 = elapsed(self.t2, now)
        self.phase = Phase.COMPLETED
        return self.t4

    def abort(self):
        """Give up on a session that never reached charging."""
        if self.phase in (Phase.IDLE, Phase.WAITING):
            self.phase = Phase.ABORTED


@dataclass
class ActiveCharge:
    id_a: bytes
    t1: int
    req: AuthRequest  # the auth request this charge answers


class Terminal:
    """Curbside terminal: relays lookups, starts and meters the energy flow.

    Holds no vehicle secrets at rest; k_a is used transiently between the
    server's reply and the start message, then dropped.
    """

    def __init__(self, group_key, nonces):
        self.group_key = group_key
        self.nonces = nonces
        self.pending = deque()
        self.active = []

    def handle_auth(self, req):
        """AuthRequest in, LookupRequest (for the protected line) out."""
        lookup = derive_lookup_request(req, self.group_key)
        self.pending.append(req)
        return lookup

    def handle_reply(self, reply, now):
        """LookupReply in; StartCharge out on success, FailureNotice
        otherwise. Replies pair with pending auths in FIFO order."""
        if not self.pending:
            return None
        req = self.pending.popleft()
        if not reply.accepted:
            return FailureNotice(reason=reply.reason)
        if not verify_auth_request(req, reply.k_a):
            # server vouched for the record but the frame's tag does not
            # bind to it: no energy, session over
            return FailureNotice(reason=Reason.MAC_INVALID)
        msg = build_start_charge(reply.k_a, self.group_key, now, self.nonces.next_nonce())
        # energy flows from the moment the start message exists
        self.active.append(ActiveCharge(id_a=reply.id_a, t1=now, req=req))
        return msg

    @property
    def energy_on(self):
        return bool(self.active)

    def stop_charge(self, now):
        """Cable out at time t5: stop metering, report the interval."""
        if not self.active:
            return None
        charge = self.active.pop(0)
        return ChargeReport(id_a=charge.id_a, t1=charge.t1, t5=now)


class Server:
    """Billing server: owns the registry, answers lookups, turns charge
    reports into invoices. The only agent that mutates the registry."""

    def __init__(self, registry):
        self.registry = registry
        self.accepted = 0
        self.rejected = Counter()
        self.invoices_issued = 0

    def handle_lookup(self, req):
        record, reason = self.registry.authenticate(req.m5, req.n_a)
        if record is None:
            self.rejected[reason] += 1
            return LookupReply(accepted=False, reason=reason)
        self.accepted += 1
        return LookupReply(accepted=True, id_a=record.id_a, k_a=record.k_a)

    def handle_report(self, report, now):
        invoice = self.registry.bill(report.id_a, report.t1, report.t5, issued_at=now)
        self.invoices_issued += 1
        return invoice

    def handle(self, msg, now):
        """Protected-line dispatch."""
        if isinstance(msg, LookupRequest):
            return self.handle_lookup(msg)
        if isinstance(msg, ChargeReport):
            self.handle_report(msg, now)
            return None
        raise InvalidInput(f"server cannot handle {type(msg).__name__}")
