"""Tagged fixed-width frames for both simulated links.

Every message serializes to one frame: a single tag byte followed by its
fields in declaration order. Field widths are fixed (16-byte blocks and
nonces, 32-byte tags and keys, 8-byte big-endian millisecond timestamps),
so a frame's length identifies its shape and the adversary can address any
byte by position. Frames are the only thing the open link carries; they
are what gets dropped, tampered, injected and replayed. The protected line
carries the messages themselves; each message names its variant and its
frame length, so a transcript can describe it without encoding it.

Round trip: decode_frame(msg.encode()) == msg for every message type.
A byte field, like a frame given to decode_frame, may be any bytes-like
value that errors.checked_bytes accepts; a message always holds bytes, so
it hashes. Anything else is a FrameError.
"""

import enum
from dataclasses import dataclass
from typing import ClassVar

from evabs.crypto import BLOCK_SIZE, KEY_SIZE, NONCE_SIZE, TAG_SIZE
from evabs.errors import FrameError, checked_bytes, checked_int

__all__ = [
    "Reason",
    "AuthRequest",
    "LookupRequest",
    "LookupReply",
    "StartCharge",
    "ChargeReport",
    "FailureNotice",
    "decode_frame",
    "frame_variant",
    "VARIANTS",
    "FRAME_LENGTHS",
]

TAG_AUTH_REQUEST = 0x01
TAG_LOOKUP_REQUEST = 0x02
TAG_LOOKUP_REPLY = 0x03
TAG_START_CHARGE = 0x04
TAG_CHARGE_REPORT = 0x05
TAG_FAILURE_NOTICE = 0x06

TS_MAX = (1 << 64) - 1

# frame lengths: tag byte plus fixed-width fields
_AUTH_LEN = 1 + BLOCK_SIZE + TAG_SIZE + NONCE_SIZE
_LOOKUP_LEN = 1 + BLOCK_SIZE + NONCE_SIZE
_ACCEPTED_REPLY_LEN = 2 + BLOCK_SIZE + KEY_SIZE
_REJECTED_REPLY_LEN = 3
_START_LEN = 1 + BLOCK_SIZE + TAG_SIZE + NONCE_SIZE
_REPORT_LEN = 1 + BLOCK_SIZE + 16
_NOTICE_LEN = 2


class Reason(enum.IntEnum):
    """Failure codes carried by rejections and failure notices."""

    UNKNOWN_VEHICLE = 1
    REPLAY_DETECTED = 2
    MAC_INVALID = 3
    MALFORMED_TIMESTAMP = 4
    MALFORMED_FRAME = 5
    ABORTED = 6

    @property
    def label(self):
        return self.name.lower()

    @classmethod
    def from_label(cls, label):
        try:
            return cls[label.upper()]
        except KeyError:
            raise FrameError(f"unknown reason label {label!r}") from None


def _keep(msg, name, value, size):
    """Hold byte field `name` of frozen `msg` as exactly `size` bytes."""
    if type(value) is not bytes or len(value) != size:
        object.__setattr__(msg, name, checked_bytes(name, value, size, FrameError))


@dataclass(frozen=True)
class AuthRequest:
    """Vehicle -> terminal: double-encrypted identity, tag, challenge nonce."""

    variant: ClassVar[str] = "auth_request"
    frame_len: ClassVar[int] = _AUTH_LEN

    m3: bytes
    mac: bytes
    n_a: bytes

    def __post_init__(self):
        _keep(self, "m3", self.m3, BLOCK_SIZE)
        _keep(self, "mac", self.mac, TAG_SIZE)
        _keep(self, "n_a", self.n_a, NONCE_SIZE)

    def encode(self):
        return bytes([TAG_AUTH_REQUEST]) + self.m3 + self.mac + self.n_a


@dataclass(frozen=True)
class LookupRequest:
    """Terminal -> server: nonce-stripped lookup key plus the nonce itself."""

    variant: ClassVar[str] = "lookup_request"
    frame_len: ClassVar[int] = _LOOKUP_LEN

    m5: bytes
    n_a: bytes

    def __post_init__(self):
        _keep(self, "m5", self.m5, BLOCK_SIZE)
        _keep(self, "n_a", self.n_a, NONCE_SIZE)

    def encode(self):
        return bytes([TAG_LOOKUP_REQUEST]) + self.m5 + self.n_a


@dataclass(frozen=True)
class LookupReply:
    """Server -> terminal: the vehicle record, or a rejection reason."""

    variant: ClassVar[str] = "lookup_reply"

    accepted: bool
    id_a: bytes | None = None
    k_a: bytes | None = None
    reason: Reason | None = None

    def __post_init__(self):
        if self.accepted:
            if self.id_a is None or self.k_a is None or self.reason is not None:
                raise FrameError("accepted reply carries id_a and k_a only")
            _keep(self, "id_a", self.id_a, BLOCK_SIZE)
            _keep(self, "k_a", self.k_a, KEY_SIZE)
        else:
            if self.reason is None or self.id_a is not None or self.k_a is not None:
                raise FrameError("rejected reply carries a reason only")

    @property
    def frame_len(self):
        return _ACCEPTED_REPLY_LEN if self.accepted else _REJECTED_REPLY_LEN

    def encode(self):
        if self.accepted:
            return bytes([TAG_LOOKUP_REPLY, 0x01]) + self.id_a + self.k_a
        return bytes([TAG_LOOKUP_REPLY, 0x00, self.reason])


@dataclass(frozen=True)
class StartCharge:
    """Terminal -> vehicle: double-encrypted start time, tag, terminal nonce."""

    variant: ClassVar[str] = "start_charge"
    frame_len: ClassVar[int] = _START_LEN

    m8: bytes
    mac: bytes
    n_t: bytes

    def __post_init__(self):
        _keep(self, "m8", self.m8, BLOCK_SIZE)
        _keep(self, "mac", self.mac, TAG_SIZE)
        _keep(self, "n_t", self.n_t, NONCE_SIZE)

    def encode(self):
        return bytes([TAG_START_CHARGE]) + self.m8 + self.mac + self.n_t


@dataclass(frozen=True)
class ChargeReport:
    """Terminal -> server: start/end times for billing, in the clear on the
    protected line only."""

    variant: ClassVar[str] = "charge_report"
    frame_len: ClassVar[int] = _REPORT_LEN

    id_a: bytes
    t1: int
    t5: int

    def __post_init__(self):
        _keep(self, "id_a", self.id_a, BLOCK_SIZE)
        checked_int("t1", self.t1, 0, TS_MAX, FrameError)
        checked_int("t5", self.t5, 0, TS_MAX, FrameError)

    def encode(self):
        return (
            bytes([TAG_CHARGE_REPORT])
            + self.id_a
            + self.t1.to_bytes(8, "big")
            + self.t5.to_bytes(8, "big")
        )


@dataclass(frozen=True)
class FailureNotice:
    """Terminal -> vehicle: the session is over and why."""

    variant: ClassVar[str] = "failure_notice"
    frame_len: ClassVar[int] = _NOTICE_LEN

    reason: Reason

    def __post_init__(self):
        if not isinstance(self.reason, Reason):
            raise FrameError("reason must be a Reason value")

    def encode(self):
        return bytes([TAG_FAILURE_NOTICE, self.reason])


VARIANTS = {
    TAG_AUTH_REQUEST: "auth_request",
    TAG_LOOKUP_REQUEST: "lookup_request",
    TAG_LOOKUP_REPLY: "lookup_reply",
    TAG_START_CHARGE: "start_charge",
    TAG_CHARGE_REPORT: "charge_report",
    TAG_FAILURE_NOTICE: "failure_notice",
}

# the longest frame of each variant: every byte index a tamper can address
FRAME_LENGTHS = {
    "auth_request": _AUTH_LEN,
    "lookup_request": _LOOKUP_LEN,
    "lookup_reply": _ACCEPTED_REPLY_LEN,
    "start_charge": _START_LEN,
    "charge_report": _REPORT_LEN,
    "failure_notice": _NOTICE_LEN,
}


def frame_variant(frame):
    """Variant name for a raw frame, or None when the tag is unknown."""
    if not frame:
        return None
    return VARIANTS.get(frame[0])


def decode_frame(frame):
    """Parse one raw frame into its message. Raises FrameError on anything
    that is not a byte-exact encoding of a known variant."""
    frame = checked_bytes("frame", frame, error=FrameError)
    if len(frame) == 0:
        raise FrameError("empty frame")
    tag = frame[0]
    if tag == TAG_AUTH_REQUEST:
        if len(frame) != _AUTH_LEN:
            raise FrameError(f"auth_request must be 65 bytes, got {len(frame)}")
        return AuthRequest(m3=frame[1:17], mac=frame[17:49], n_a=frame[49:65])
    if tag == TAG_LOOKUP_REQUEST:
        if len(frame) != _LOOKUP_LEN:
            raise FrameError(f"lookup_request must be 33 bytes, got {len(frame)}")
        return LookupRequest(m5=frame[1:17], n_a=frame[17:33])
    if tag == TAG_LOOKUP_REPLY:
        if len(frame) < 2:
            raise FrameError("truncated lookup_reply")
        if frame[1] == 0x01:
            if len(frame) != _ACCEPTED_REPLY_LEN:
                raise FrameError(f"accepted lookup_reply must be 50 bytes, got {len(frame)}")
            return LookupReply(accepted=True, id_a=frame[2:18], k_a=frame[18:50])
        if frame[1] == 0x00:
            if len(frame) != _REJECTED_REPLY_LEN:
                raise FrameError(f"rejected lookup_reply must be 3 bytes, got {len(frame)}")
            try:
                reason = Reason(frame[2])
            except ValueError:
                raise FrameError(f"unknown reason code {frame[2]}") from None
            return LookupReply(accepted=False, reason=reason)
        raise FrameError(f"unknown lookup_reply status {frame[1]:#04x}")
    if tag == TAG_START_CHARGE:
        if len(frame) != _START_LEN:
            raise FrameError(f"start_charge must be 65 bytes, got {len(frame)}")
        return StartCharge(m8=frame[1:17], mac=frame[17:49], n_t=frame[49:65])
    if tag == TAG_CHARGE_REPORT:
        if len(frame) != _REPORT_LEN:
            raise FrameError(f"charge_report must be 33 bytes, got {len(frame)}")
        return ChargeReport(
            id_a=frame[1:17],
            t1=int.from_bytes(frame[17:25], "big"),
            t5=int.from_bytes(frame[25:33], "big"),
        )
    if tag == TAG_FAILURE_NOTICE:
        if len(frame) != _NOTICE_LEN:
            raise FrameError(f"failure_notice must be 2 bytes, got {len(frame)}")
        try:
            reason = Reason(frame[1])
        except ValueError:
            raise FrameError(f"unknown reason code {frame[1]}") from None
        return FailureNotice(reason=reason)
    raise FrameError(f"unknown frame tag {tag:#04x}")
