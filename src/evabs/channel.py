"""Simulated links, shared clock, transcript, and the message-level adversary.

Two links exist: the open radio link between vehicle and terminal
("insecure") and the protected line between terminal and server ("secure").
The open link carries frames (bytes), because the adversary acts on bytes;
a frame entering it, from an agent or the adversary, goes through
errors.checked_bytes, so anything not bytes-like is InvalidInput and is never
transcribed.
The secure line is ideal: it carries the typed wire messages themselves,
scripts never touch it, and its transcript entries always show no adversary
action. Every frame or message that crosses either link lands in one
transcript with a strictly increasing sequence number. A secure-line entry
keeps its message and encodes it only when `entry.frame` asks for its bytes.
The one export (`to_jsonl`, `write`) gives such an entry its variant and
frame length and `"frame": null`, so no export holds the protected line's
key material. The adversary owns the insecure link: a script of trigger ->
action rules can drop, delay, tamper, inject or replay frames there.

A Rule checks itself once, when a scenario file or a caller makes it: a
variant no agent puts on the open link, nth below 1, a negative delay or
replay seq, a tamper index past the variant's frame, a mask outside
0x01..0xff or an injected frame that is empty or not bytes-like is a
ScriptError before any frame is sent. When the rule fires, Network.send
checks only what depends on the frame in hand (a tamper index past a frame
shorter than its variant, a replay seq that names no recorded open-link
frame), before the trigger frame is transcribed: a refused rule records
nothing of it.

Triggers match on observable bytes only (frame variant, nth occurrence),
never on agent state, so the adversary cannot cheat by reading hidden
values. A rule fires once, on its exact nth, and leaves the script; the
first matching rule wins.

Determinism: no randomness lives here. Given the same frames in the same
order, the transcript is byte-identical.
"""

import json
from dataclasses import dataclass

from evabs.errors import InvalidInput, ScriptError, checked_bytes, checked_int
from evabs.wire import FRAME_LENGTHS, TS_MAX, frame_variant

__all__ = [
    "SECURE",
    "INSECURE",
    "SimClock",
    "Drop",
    "Delay",
    "Tamper",
    "Inject",
    "Replay",
    "RULE_VARIANTS",
    "Rule",
    "AdversaryScript",
    "TranscriptEntry",
    "Transcript",
    "Network",
]

INSECURE = "insecure"
SECURE = "secure"

# all that agents put on the open link, so a rule on any other frame variant
# could never fire
RULE_VARIANTS = ("auth_request", "start_charge", "failure_notice")


class SimClock:
    """Millisecond counter shared by every agent. Only moves forward, never past TS_MAX."""

    def __init__(self):
        self.now = 0

    def advance(self, ms):
        self.now += checked_int("clock step", ms, 0, TS_MAX - self.now)
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
    """Fire `action` on the nth open-link frame of `variant`. Everything a
    rule could get wrong without seeing a frame is a ScriptError here."""

    variant: str
    nth: int
    action: object

    def __post_init__(self):
        variant, nth, action = self.variant, self.nth, self.action
        if variant not in RULE_VARIANTS:
            raise ScriptError(f"a rule takes {', '.join(RULE_VARIANTS)}, got {variant!r}")
        checked_int("nth", nth, 1, error=ScriptError)
        if isinstance(action, Delay):
            checked_int("delay", action.by_ms, error=ScriptError)
        elif isinstance(action, Replay):
            if action.of_seq is not None:
                checked_int("replay seq", action.of_seq, error=ScriptError)
        elif isinstance(action, Tamper):
            last = FRAME_LENGTHS[variant] - 1
            checked_int(f"{variant} tamper index", action.index, 0, last, ScriptError)
            checked_int("tamper mask", action.mask, 1, 0xFF, ScriptError)
        elif isinstance(action, Inject):
            frame = checked_bytes("injected frame", action.frame, error=ScriptError)
            if not frame:
                raise ScriptError("an injected frame needs at least one byte")
            object.__setattr__(self, "action", Inject(frame))  # held as bytes
        elif not isinstance(action, Drop):
            raise ScriptError(f"unknown action {action!r}")


class AdversaryScript:
    """Rules waiting to fire, with per-variant occurrence counting.

    nth counts frames as submitted by the agents, starting at 1 from the
    start of the run; the adversary's own products (injected or replayed
    copies) are not counted and cannot re-trigger rules. `rules` holds the
    listed rules not yet fired, in list order; armed rules are checked first.
    """

    def __init__(self):
        self.rules = []
        self._armed = []
        self._counts = {}

    def add_rule(self, rule):
        self.rules.append(rule)

    def arm(self, variant, action):
        """A one-shot rule on the next frame of `variant` that no rule armed
        earlier is waiting for."""
        nth = self._counts.get(variant, 0) + 1 + sum(r.variant == variant for r in self._armed)
        self._armed.append(Rule(variant, nth, action))

    def disarm(self):
        """Drop armed rules that never fired, so a rule armed for one session
        cannot act on a later one."""
        self._armed.clear()

    def match(self, variant):
        """The action of the rule that fires on this open-link frame, or None."""
        nth = self._counts[variant] = self._counts.get(variant, 0) + 1
        for i, rule in enumerate(self._armed):
            if rule.nth == nth and rule.variant == variant:
                del self._armed[i]
                return rule.action
        for i, rule in enumerate(self.rules):
            if rule.nth == nth and rule.variant == variant:
                del self.rules[i]
                return rule.action
        return None


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

    def to_obj(self):
        payload = self.payload
        if self.channel == SECURE:
            # the protected line carries key material; exported artifacts
            # must never contain it
            variant, size, frame = payload.variant, payload.frame_len, None
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
        entry = TranscriptEntry(len(self.entries), time, channel, direction, payload, action)
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

    def to_jsonl(self):
        return "".join(json.dumps(e.to_obj()) + "\n" for e in self.entries)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


class Network:
    """Both links plus the adversary seated on the insecure one.

    send() returns what actually reaches a receiver right now, as
    (direction, payload) pairs: on the open link possibly no frame
    (drop/delay), possibly several (inject/replay); on the protected line
    always the one message sent. Delayed frames surface later through due().
    A network builds its own clock, adversary script and transcript.
    """

    def __init__(self):
        self.clock = SimClock()
        self.script = AdversaryScript()
        self.transcript = Transcript()
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
        frame = checked_bytes("frame", frame)
        variant = frame_variant(frame) or "unknown"
        action = self.script.match(variant)
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
            # a frame can be shorter than its variant: the rule cannot know
            if action.index >= len(frame):
                raise ScriptError(
                    f"tamper index {action.index} out of range for {len(frame)}-byte frame"
                )
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
            return [(direction, frame)] + self.attacker_send(direction, action.frame)
        # a Replay: Rule admits no other action. A seq other than the trigger's
        # own is checked before the trigger is transcribed, so a refused
        # replay leaves no entry that was delivered to no one
        own = len(self.transcript)
        seq = own if action.of_seq is None else action.of_seq
        if seq != own:
            self._recorded(seq)
        self.transcript.append(self.clock.now, channel, direction, frame)
        return [(direction, frame)] + self.replay_entry(seq)

    def attacker_send(self, direction, frame):
        """A frame the adversary makes up itself (impersonation, floods)."""
        frame = checked_bytes("frame", frame)
        self.transcript.append(
            self.clock.now, INSECURE, direction, frame, {"kind": "injected"}
        )
        return [(direction, frame)]

    def replay_entry(self, seq):
        """Re-deliver a recorded insecure frame (adversary replay by seq). The
        copy routes where the original went, not where any trigger went."""
        source = self._recorded(seq)
        self.transcript.append(
            self.clock.now, INSECURE, source.direction, source.frame,
            {"kind": "replayed", "of_seq": seq},
        )
        return [(source.direction, source.frame)]

    def _recorded(self, seq):
        """The open-link entry a replay of `seq` copies."""
        source = self.transcript.get(seq)
        if source is None:
            raise ScriptError(f"replay references seq {seq} which was never recorded")
        if source.channel == SECURE:
            raise ScriptError("cannot replay protected-line frames onto the open link")
        return source

    def due(self):
        """Delayed frames whose delivery time has arrived, in send order."""
        ready = [d for d in self._deferred if d[0] <= self.clock.now]
        self._deferred = [d for d in self._deferred if d[0] > self.clock.now]
        return [(direction, frame) for _, direction, frame in ready]
