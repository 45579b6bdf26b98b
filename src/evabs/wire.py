"""Tagged fixed-width frames for both simulated links.

Every message serializes to one frame: a single tag byte followed by its
fields in declaration order. Field widths are fixed (16-byte blocks and
nonces, 32-byte tags and keys, 8-byte big-endian millisecond timestamps),
so a frame's length identifies its shape and the adversary can address any
byte by position. Frames are the only thing the open link carries; they
are what gets dropped, tampered, injected and replayed.

Round trip: decode_frame(msg.encode()) == msg for every message type.
"""

import enum
from dataclasses import dataclass

from evabs.crypto import BLOCK_SIZE, KEY_SIZE, NONCE_SIZE, TAG_SIZE
from evabs.errors import FrameError

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
]

TAG_AUTH_REQUEST = 0x01
TAG_LOOKUP_REQUEST = 0x02
TAG_LOOKUP_REPLY = 0x03
TAG_START_CHARGE = 0x04
TAG_CHARGE_REPORT = 0x05
TAG_FAILURE_NOTICE = 0x06

TS_MAX = (1 << 64) - 1


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


def _want(name, value, size):
    if type(value) is bytes and len(value) == size:
        return
    if not isinstance(value, (bytes, bytearray)):
        raise FrameError(f"{name} must be bytes, got {type(value).__name__}")
    if len(value) != size:
        raise FrameError(f"{name} must be {size} bytes, got {len(value)}")


def _want_ts(name, value):
    if not isinstance(value, int) or not 0 <= value <= TS_MAX:
        raise FrameError(f"{name} must be an unsigned 64-bit millisecond count")


@dataclass(frozen=True)
class AuthRequest:
    """Vehicle -> terminal: double-encrypted identity, tag, challenge nonce."""

    m3: bytes
    mac: bytes
    n_a: bytes

    def __post_init__(self):
        _want("m3", self.m3, BLOCK_SIZE)
        _want("mac", self.mac, TAG_SIZE)
        _want("n_a", self.n_a, NONCE_SIZE)

    def encode(self):
        return bytes([TAG_AUTH_REQUEST]) + self.m3 + self.mac + self.n_a


@dataclass(frozen=True)
class LookupRequest:
    """Terminal -> server: nonce-stripped lookup key plus the nonce itself."""

    m5: bytes
    n_a: bytes

    def __post_init__(self):
        _want("m5", self.m5, BLOCK_SIZE)
        _want("n_a", self.n_a, NONCE_SIZE)

    def encode(self):
        return bytes([TAG_LOOKUP_REQUEST]) + self.m5 + self.n_a


@dataclass(frozen=True)
class LookupReply:
    """Server -> terminal: the vehicle record, or a rejection reason."""

    accepted: bool
    id_a: bytes | None = None
    k_a: bytes | None = None
    reason: Reason | None = None

    def __post_init__(self):
        if self.accepted:
            if self.id_a is None or self.k_a is None or self.reason is not None:
                raise FrameError("accepted reply carries id_a and k_a only")
            _want("id_a", self.id_a, BLOCK_SIZE)
            _want("k_a", self.k_a, KEY_SIZE)
        else:
            if self.reason is None or self.id_a is not None or self.k_a is not None:
                raise FrameError("rejected reply carries a reason only")

    def encode(self):
        if self.accepted:
            return bytes([TAG_LOOKUP_REPLY, 0x01]) + self.id_a + self.k_a
        return bytes([TAG_LOOKUP_REPLY, 0x00, self.reason])


@dataclass(frozen=True)
class StartCharge:
    """Terminal -> vehicle: double-encrypted start time, tag, terminal nonce."""

    m8: bytes
    mac: bytes
    n_t: bytes

    def __post_init__(self):
        _want("m8", self.m8, BLOCK_SIZE)
        _want("mac", self.mac, TAG_SIZE)
        _want("n_t", self.n_t, NONCE_SIZE)

    def encode(self):
        return bytes([TAG_START_CHARGE]) + self.m8 + self.mac + self.n_t


@dataclass(frozen=True)
class ChargeReport:
    """Terminal -> server: start/end times for billing, in the clear on the
    protected line only."""

    id_a: bytes
    t1: int
    t5: int

    def __post_init__(self):
        _want("id_a", self.id_a, BLOCK_SIZE)
        _want_ts("t1", self.t1)
        _want_ts("t5", self.t5)

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


def frame_variant(frame):
    """Variant name for a raw frame, or None when the tag is unknown."""
    if not frame:
        return None
    return VARIANTS.get(frame[0])


def _cut(frame, offset, size):
    return bytes(frame[offset : offset + size])


def decode_frame(frame):
    """Parse one raw frame into its message. Raises FrameError on anything
    that is not a byte-exact encoding of a known variant."""
    if not isinstance(frame, (bytes, bytearray)):
        raise FrameError("frame must be bytes")
    if len(frame) == 0:
        raise FrameError("empty frame")
    tag = frame[0]
    if tag == TAG_AUTH_REQUEST:
        if len(frame) != 1 + BLOCK_SIZE + TAG_SIZE + NONCE_SIZE:
            raise FrameError(f"auth_request must be 65 bytes, got {len(frame)}")
        return AuthRequest(
            m3=_cut(frame, 1, BLOCK_SIZE),
            mac=_cut(frame, 17, TAG_SIZE),
            n_a=_cut(frame, 49, NONCE_SIZE),
        )
    if tag == TAG_LOOKUP_REQUEST:
        if len(frame) != 1 + BLOCK_SIZE + NONCE_SIZE:
            raise FrameError(f"lookup_request must be 33 bytes, got {len(frame)}")
        return LookupRequest(m5=_cut(frame, 1, BLOCK_SIZE), n_a=_cut(frame, 17, NONCE_SIZE))
    if tag == TAG_LOOKUP_REPLY:
        if len(frame) < 2:
            raise FrameError("truncated lookup_reply")
        if frame[1] == 0x01:
            if len(frame) != 2 + BLOCK_SIZE + KEY_SIZE:
                raise FrameError(f"accepted lookup_reply must be 50 bytes, got {len(frame)}")
            return LookupReply(
                accepted=True, id_a=_cut(frame, 2, BLOCK_SIZE), k_a=_cut(frame, 18, KEY_SIZE)
            )
        if frame[1] == 0x00:
            if len(frame) != 3:
                raise FrameError(f"rejected lookup_reply must be 3 bytes, got {len(frame)}")
            try:
                reason = Reason(frame[2])
            except ValueError:
                raise FrameError(f"unknown reason code {frame[2]}") from None
            return LookupReply(accepted=False, reason=reason)
        raise FrameError(f"unknown lookup_reply status {frame[1]:#04x}")
    if tag == TAG_START_CHARGE:
        if len(frame) != 1 + BLOCK_SIZE + TAG_SIZE + NONCE_SIZE:
            raise FrameError(f"start_charge must be 65 bytes, got {len(frame)}")
        return StartCharge(
            m8=_cut(frame, 1, BLOCK_SIZE),
            mac=_cut(frame, 17, TAG_SIZE),
            n_t=_cut(frame, 49, NONCE_SIZE),
        )
    if tag == TAG_CHARGE_REPORT:
        if len(frame) != 1 + BLOCK_SIZE + 16:
            raise FrameError(f"charge_report must be 33 bytes, got {len(frame)}")
        return ChargeReport(
            id_a=_cut(frame, 1, BLOCK_SIZE),
            t1=int.from_bytes(frame[17:25], "big"),
            t5=int.from_bytes(frame[25:33], "big"),
        )
    if tag == TAG_FAILURE_NOTICE:
        if len(frame) != 2:
            raise FrameError(f"failure_notice must be 2 bytes, got {len(frame)}")
        try:
            reason = Reason(frame[1])
        except ValueError:
            raise FrameError(f"unknown reason code {frame[1]}") from None
        return FailureNotice(reason=reason)
    raise FrameError(f"unknown frame tag {tag:#04x}")
