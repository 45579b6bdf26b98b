"""Simulated links, shared clock, transcript, and the message-level adversary.

Two links exist: the open radio link between vehicle and terminal
("insecure") and the protected line between terminal and server ("secure").
The open link carries frames (bytes), because the adversary acts on bytes.
The secure line is ideal: it carries the typed wire messages themselves,
scripts never touch it, and its transcript entries always show no adversary
action. Every frame or message that crosses either link lands in one
transcript with a strictly increasing sequence number. A secure-line entry
keeps its message and encodes it only when its bytes are asked for: through
`entry.frame`, or an unredacted export (`to_jsonl(redact_secure=False)`,
`write(..., redact_secure=False)`). The redacted export needs only the
message's variant and frame length, so it encodes nothing. The adversary
owns the insecure link: a script of trigger -> action rules can drop, delay,
tamper, inject or replay frames there.

Triggers match on observable bytes only (channel, frame variant, nth
occurrence), never on agent state, so the adversary cannot cheat by reading
hidden values. Each rule fires at most once; the first matching rule wins.

Determinism: no randomness lives here. Given the same frames in the same
order, the transcript is byte-identical.
"""

import json
from dataclasses import dataclass

from evabs.errors import InvalidInput, ScriptError
from evabs.wire import frame_variant

__all__ = [
    "SECURE",
    "INSECURE",
    "SimClock",
    "Drop",
    "Delay",
    "Tamper",
    "Inject",
    "Replay",
    "Rule",
    "AdversaryScript",
    "TranscriptEntry",
    "Transcript",
    "Network",
]

INSECURE = "insecure"
SECURE = "secure"


class SimClock:
    """Millisecond counter shared by every agent. Only moves forward."""

    def __init__(self, start=0):
        self.now = start

    def advance(self, ms):
        if not isinstance(ms, int) or ms < 0:
            raise InvalidInput("clock can only advance by a non-negative integer")
        self.now += ms
        return self.now


@dataclass(frozen=True)
class Drop:
    pass


@dataclass(frozen=True)
class Delay:
    by_ms: int


@dataclass(frozen=True)
class Tamper:
    index: int
    mask: int


@dataclass(frozen=True)
class Inject:
    frame: bytes


@dataclass(frozen=True)
class Replay:
    # None means "replay the frame this rule just matched"
    of_seq: int | None = None


@dataclass(frozen=True)
class Rule:
    channel: str
    variant: str
    nth: int | None  # None: the next occurrence after the rule is armed
    action: object


class AdversaryScript:
    """Ordered rule list with per-(channel, variant) occurrence counting.

    nth counts frames as submitted by the agents, starting at 1 from the
    start of the run; the adversary's own products (injected or replayed
    copies) are not counted and cannot re-trigger rules.
    """

    def __init__(self, rules=()):
        self.rules = list(rules)
        self._ephemeral = []
        self._counts = {}
        self._fired = set()

    def add_rule(self, rule):
        self.rules.append(rule)

    def arm_ephemeral(self, rule):
        """One-shot rule matching the next occurrence of its variant."""
        self._ephemeral.append(rule)

    def disarm_ephemeral(self):
        """Drop one-shot rules that never matched, so a rule armed for one
        session cannot act on a later one."""
        self._ephemeral.clear()

    def match(self, channel, variant):
        key = (channel, variant)
        self._counts[key] = self._counts.get(key, 0) + 1
        nth = self._counts[key]
        for i, rule in enumerate(self._ephemeral):
            if rule.channel == channel and rule.variant == variant:
                del self._ephemeral[i]
                return rule.action
        for i, rule in enumerate(self.rules):
            if i in self._fired:
                continue
            if rule.channel == channel and rule.variant == variant and rule.nth == nth:
                self._fired.add(i)
                return rule.action
        return None

    def unfired(self):
        """Indices of listed rules that have not fired yet, in list order."""
        return [i for i in range(len(self.rules)) if i not in self._fired]


@dataclass(slots=True)
class TranscriptEntry:
    seq: int
    time: int
    channel: str
    direction: str
    # open link: the exact bytes delivered (or recorded, for drops);
    # protected line: the message delivered
    payload: object
    adversary_action: dict | None

    @property
    def frame(self):
        """The entry's bytes; a protected-line message is encoded here."""
        if self.channel == SECURE:
            return self.payload.encode()
        return self.payload

    def to_obj(self, redact_secure=True):
        payload = self.payload
        if self.channel == SECURE:
            variant, size = payload.variant, payload.frame_len
            # the protected line carries key material; exported artifacts
            # must never contain it
            frame = None if redact_secure else payload.encode().hex()
        else:
            variant, size, frame = frame_variant(payload) or "unknown", len(payload), payload.hex()
        return {
            "seq": self.seq,
            "time": self.time,
            "channel": self.channel,
            "direction": self.direction,
            "variant": variant,
            "len": size,
            "frame": frame,
            "adversary_action": self.adversary_action,
        }


class Transcript:
    """Append-only record of every frame crossing either link."""

    def __init__(self):
        self.entries = []

    def append(self, time, channel, direction, payload, action=None):
        """Record one crossing: a frame on the open link, a message on the
        protected line."""
        entry = TranscriptEntry(
            len(self.entries),
            time,
            channel,
            direction,
            payload if channel == SECURE else bytes(payload),
            action,
        )
        self.entries.append(entry)
        return entry

    def get(self, seq):
        if 0 <= seq < len(self.entries):
            return self.entries[seq]
        return None

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_jsonl(self, redact_secure=True):
        return "".join(
            json.dumps(e.to_obj(redact_secure=redact_secure)) + "\n" for e in self.entries
        )

    def write(self, path, redact_secure=True):
        with open(path, "w") as fh:
            fh.write(self.to_jsonl(redact_secure=redact_secure))


class Network:
    """Both links plus the adversary seated on the insecure one.

    send() returns what actually reaches a receiver right now, as
    (direction, payload) pairs: on the open link possibly no frame
    (drop/delay), possibly several (inject/replay); on the protected line
    always the one message sent. Delayed frames surface later through due().
    """

    def __init__(self, clock, script=None, transcript=None):
        self.clock = clock
        self.script = script
        self.transcript = transcript if transcript is not None else Transcript()
        self._deferred = []

    def send(self, channel, direction, frame):
        """Put a frame on the open link, or a message on the protected line."""
        if channel == SECURE:
            # ideal line: confidential, authentic, never touched by scripts
            if isinstance(frame, (bytes, bytearray, memoryview)):
                raise InvalidInput("the protected line carries messages, not bytes")
            self.transcript.append(self.clock.now, channel, direction, frame)
            return [(direction, frame)]
        if channel != INSECURE:
            raise InvalidInput(f"unknown channel {channel!r}")
        frame = bytes(frame)
        variant = frame_variant(frame) or "unknown"
        action = self.script.match(channel, variant) if self.script else None
        if action is None:
            self.transcript.append(self.clock.now, channel, direction, frame)
            return [(direction, frame)]
        if isinstance(action, Drop):
            self.transcript.append(
                self.clock.now, channel, direction, frame, {"kind": "dropped"}
            )
            return []
        if isinstance(action, Delay):
            self.transcript.append(
                self.clock.now, channel, direction, frame,
                {"kind": "delayed", "by_ms": action.by_ms},
            )
            self._deferred.append((self.clock.now + action.by_ms, direction, frame))
            return []
        if isinstance(action, Tamper):
            if not 0 <= action.index < len(frame):
                raise ScriptError(
                    f"tamper index {action.index} out of range for {len(frame)}-byte frame"
                )
            if not 1 <= action.mask <= 0xFF:
                raise ScriptError("tamper mask must flip at least one bit")
            mutated = bytearray(frame)
            mutated[action.index] ^= action.mask
            mutated = bytes(mutated)
            self.transcript.append(
                self.clock.now, channel, direction, mutated,
                {
                    "kind": "tampered",
                    "byte_index": action.index,
                    "old": frame[action.index],
                    "new": mutated[action.index],
                },
            )
            return [(direction, mutated)]
        if isinstance(action, Inject):
            self.transcript.append(self.clock.now, channel, direction, frame)
            self.transcript.append(
                self.clock.now, channel, direction, bytes(action.frame), {"kind": "injected"}
            )
            return [(direction, frame), (direction, bytes(action.frame))]
        if isinstance(action, Replay):
            original = self.transcript.append(self.clock.now, channel, direction, frame)
            seq = action.of_seq if action.of_seq is not None else original.seq
            return [(direction, frame)] + self.replay_entry(seq)
        raise ScriptError(f"unknown action {action!r}")

    def attacker_send(self, direction, frame):
        """A frame the adversary makes up itself (impersonation, floods)."""
        frame = bytes(frame)
        self.transcript.append(
            self.clock.now, INSECURE, direction, frame, {"kind": "injected"}
        )
        return [(direction, frame)]

    def replay_entry(self, seq):
        """Re-deliver a recorded insecure frame (adversary replay by seq). The
        copy routes where the original went, not where any trigger went."""
        source = self.transcript.get(seq)
        if source is None:
            raise ScriptError(f"replay references seq {seq} which was never recorded")
        if source.channel == SECURE:
            raise ScriptError("cannot replay protected-line frames onto the open link")
        self.transcript.append(
            self.clock.now, INSECURE, source.direction, source.frame,
            {"kind": "replayed", "of_seq": seq},
        )
        return [(source.direction, source.frame)]

    def due(self):
        """Delayed frames whose delivery time has arrived, in send order."""
        ready = [d for d in self._deferred if d[0] <= self.clock.now]
        self._deferred = [d for d in self._deferred if d[0] > self.clock.now]
        return [(direction, frame) for _, direction, frame in ready]
