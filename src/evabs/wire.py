"""Tagged fixed-width frames for both simulated links.

Every message serializes to one frame: a single tag byte followed by its
fields in declaration order. Each message class states the shape of its
frame once, as its layout: one struct code per field, built from the
evabs.crypto sizes (16-byte blocks and nonces, 32-byte tags and keys), with
8-byte big-endian millisecond timestamps and one-byte reason codes. Its
frame length, encode, decode and field checks are all derived from that
layout, and nothing else says where a field sits. Field widths are fixed,
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
import struct
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter

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


# The check of field `name` of message `msg`, by the last character of its
# struct code, as a line of the message's __post_init__: one test that a
# good value passes, else a call that holds a bytes-like value as bytes or
# raises FrameError naming the field. "Ns" is N bytes, "Q" a timestamp in
# 0..TS_MAX, "B" a Reason, "?" a bool, and "-" a field this layout leaves
# None.
_CHECKS = {
    "s": "if type(msg.{name}) is not bytes or len(msg.{name}) != {size}:"
    " _hold(msg, {name!r}, {size})",
    "Q": "checked_int({name!r}, msg.{name}, 0, TS_MAX, FrameError)",
    "B": "if type(msg.{name}) is not Reason: _refuse({name!r}, msg.{name}, 'a Reason')",
    "?": "if type(msg.{name}) is not bool: _refuse({name!r}, msg.{name}, 'a bool')",
    "-": "if msg.{name} is not None: _refuse({name!r}, msg.{name}, 'None in {label}')",
}


def _hold(msg, name, size):
    value = checked_bytes(name, getattr(msg, name), size, FrameError)
    object.__setattr__(msg, name, value)


def _refuse(name, value, want):
    raise FrameError(f"{name} must be {want}, got {type(value).__name__}")


class Layout:
    """One frame shape of message class `cls`: the tag byte, then its fields
    packed big-endian by `codes`, one struct code per field in field order,
    separated by spaces. `status` is the value of the first field that
    picks this layout, for a class with more than one. `encode` and
    `decode` turn a message into its frame and back, `lines` are the
    checks of its fields, and `spans` says where each field sits."""

    def __init__(self, cls, codes, status=None):
        names = list(cls.__annotations__)
        codes = codes.split()
        packed = [(name, code) for name, code in zip(names, codes, strict=True) if code != "-"]
        sizes = {name: struct.calcsize(code) for name, code in packed}
        self.label = cls.variant if status is None else f"{cls.variant} with {names[0]}={status}"
        self.cls = cls
        self.names = tuple(sizes)
        self.codes = tuple(code for _, code in packed)
        self.fields = struct.Struct(">" + "".join(self.codes))
        frame = struct.Struct(">B" + "".join(self.codes))
        self.size = frame.size
        pack, values = frame.pack, attrgetter("tag", *self.names)
        self.encode = lambda msg: pack(*values(msg))
        self.lines = [
            _CHECKS[code[-1]].format(name=name, size=sizes.get(name), label=self.label)
            for name, code in zip(names, codes)
        ]
        self.by_name = "-" in codes
        edges = list(accumulate([1, *sizes.values()]))
        # (field, first byte, byte past its end) for each field in the frame
        self.spans = tuple(zip(self.names, edges, edges[1:]))

    def decode(self, frame):
        """The message in `frame`, a bytes frame that carries this layout's
        tag (and status byte)."""
        if len(frame) != self.size:
            raise FrameError(f"{self.label} must be {self.size} bytes, got {len(frame)}")
        values = self.fields.unpack_from(frame, 1)
        if "B" in self.codes:
            values = [_known(v) if code == "B" else v for v, code in zip(values, self.codes)]
        if self.by_name:  # a field this layout leaves None may come before one it packs
            return self.cls(**dict(zip(self.names, values)))
        return self.cls(*values)


def _known(code):
    """The Reason a one-byte code read off a frame stands for."""
    try:
        return Reason(code)
    except ValueError:
        raise FrameError(f"unknown reason code {code}") from None


def _post_init(lines):
    """A __post_init__ whose body is `lines`. The field checks run as
    straight-line code, the way dataclasses writes __init__: on CPython
    3.11 a loop that calls a function per field makes building a message
    about a quarter slower."""
    namespace = {}
    body = "".join(f"\n    {line}" for line in lines)
    exec(f"def __post_init__(msg):{body}", globals(), namespace)
    return namespace["__post_init__"]


def _message(tag, variant, *layouts):
    """Class decorator: `cls` as a frozen dataclass framed by the tag byte
    and `layouts`. A class with two layouts has a bool first field, the
    status byte after the tag, that picks layouts[status]."""

    def frame(cls):
        cls.tag, cls.variant = tag, variant
        statuses = [None] if len(layouts) == 1 else [False, True]
        cls.layouts = tuple(
            Layout(cls, codes, status) for codes, status in zip(layouts, statuses, strict=True)
        )
        if len(layouts) == 1:
            [layout] = cls.layouts
            cls.layout, cls.frame_len = layout, layout.size
            cls.__post_init__, cls.encode = _post_init(layout.lines), layout.encode
        else:
            # any status but True picks layouts[0], whose check of the status
            # field then refuses a value that is not a bool
            when_false, when_true = cls.layouts
            status = when_true.names[0]

            def pick(msg):
                return when_true if getattr(msg, status) is True else when_false

            cls.frame_len = property(lambda msg: pick(msg).size)
            cls.encode = lambda msg: pick(msg).encode(msg)
            cls.__post_init__ = _post_init(
                [f"if msg.{status} is True:", *[f"    {line}" for line in when_true.lines]]
                + ["else:", *[f"    {line}" for line in when_false.lines]]
            )
        return dataclass(frozen=True)(cls)

    return frame


@_message(0x01, "auth_request", f"{BLOCK_SIZE}s {TAG_SIZE}s {NONCE_SIZE}s")
class AuthRequest:
    """Vehicle -> terminal: double-encrypted identity, tag, challenge nonce."""

    m3: bytes
    mac: bytes
    n_a: bytes


@_message(0x02, "lookup_request", f"{BLOCK_SIZE}s {NONCE_SIZE}s")
class LookupRequest:
    """Terminal -> server: nonce-stripped lookup key plus the nonce itself."""

    m5: bytes
    n_a: bytes


# status byte 0: a rejection and its reason; 1: the vehicle record
@_message(0x03, "lookup_reply", "? - - B", f"? {BLOCK_SIZE}s {KEY_SIZE}s -")
class LookupReply:
    """Server -> terminal: the vehicle record, or a rejection reason."""

    accepted: bool
    id_a: bytes | None = None
    k_a: bytes | None = None
    reason: Reason | None = None


@_message(0x04, "start_charge", f"{BLOCK_SIZE}s {TAG_SIZE}s {NONCE_SIZE}s")
class StartCharge:
    """Terminal -> vehicle: double-encrypted start time, tag, terminal nonce."""

    m8: bytes
    mac: bytes
    n_t: bytes


@_message(0x05, "charge_report", f"{BLOCK_SIZE}s Q Q")
class ChargeReport:
    """Terminal -> server: start/end times for billing, in the clear on the
    protected line only."""

    id_a: bytes
    t1: int
    t5: int


@_message(0x06, "failure_notice", "B")
class FailureNotice:
    """Terminal -> vehicle: the session is over and why."""

    reason: Reason


TAG_AUTH_REQUEST = AuthRequest.tag

_MESSAGES = (AuthRequest, LookupRequest, LookupReply, StartCharge, ChargeReport, FailureNotice)
_LAYOUTS = {cls.tag: cls.layouts for cls in _MESSAGES}
VARIANTS = {cls.tag: cls.variant for cls in _MESSAGES}
# the longest frame of each variant: every byte index a tamper can address
FRAME_LENGTHS = {cls.variant: max(layout.size for layout in cls.layouts) for cls in _MESSAGES}


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
    layouts = _LAYOUTS.get(frame[0])
    if layouts is None:
        raise FrameError(f"unknown frame tag {frame[0]:#04x}")
    if len(layouts) == 1:
        return layouts[0].decode(frame)
    variant = VARIANTS[frame[0]]
    if len(frame) < 2:
        raise FrameError(f"truncated {variant}")
    if frame[1] >= len(layouts):
        raise FrameError(f"unknown {variant} status {frame[1]:#04x}")
    return layouts[frame[1]].decode(frame)
