"""Declarative scenario runs: schedules, attacks, expectations.

A scenario is a small text file, one directive per line, executed in order
against one registry, one terminal, one server and one adversary script.
Everything is driven by a single 64-bit seed, so a scenario run is a pure
function of (registry contents, seed, scenario text): transcripts come out
byte-identical on reruns.

Grammar (# starts a comment unless a digit follows, blank lines ignored):

    scenario NAME
    session VEHICLE [duration=MS] [budget=N]      one charge attempt
    sessions COUNT VEHICLE [duration=MS]          COUNT attempts back to back
    advance MS                                    move the shared clock
    revoke VEHICLE                                disable server-side
    snapshot                                      remember registry state
    rule CHANNEL VARIANT [nth=K] ACTION           arm an adversary rule
    flood COUNT [style=wellformed|garbage|mixed]  forged frames, no keys used
    sweep VARIANT [mask=HH]                       one session per byte position,
                                                  flipping that byte's bits
    probe replay-start-charge                     demonstrate the stale-t2 replay
    probe splice-auth                             recorded m3+mac with a fresh nonce
    report nonce-store                            note per-vehicle nonce growth
    expect WHAT ...                               record PASS or FAIL

VEHICLE is `*` (first enrolled), `#K` (K-th enrolled, 1-based) or a 32-hex
id. ACTION is drop | delay=MS | tamper=IDX:MASKHEX | inject=HEXBYTES |
replay[=SEQ]. Rules fire once, on the nth occurrence of their frame variant
(counted from run start). A rule that could never fire as written is a
ScriptError: the secure channel (it carries messages, not frames), a
variant not in wire.VARIANTS, nth below 1, a negative delay or replay seq,
a tamper index past the variant's frame or a mask outside 01..ff. A rule
still unfired when the run ends adds a FAIL check naming its line. A sweep
takes auth_request or start_charge and the same 01..ff mask.

expect forms:
    expect completed N | aborted N | failed N [reason=LABEL]
    expect accepted N
    expect rejected N [reason=LABEL]
    expect invoices N [total=AMOUNT]
    expect no-secrets [ids|keys|all]
    expect fresh-frames
    expect registry-unchanged
    expect energy-off
    expect sweep no-charging | expect sweep mac-invalid

Failed expectations never raise; they mark the report FAIL and the run
carries on, so one broken defense does not hide another. A malformed line
(unknown word, missing or non-integer count, unknown reason label, unknown
or extra argument) raises ScriptError in parse_scenario, before any line
runs; only vehicle references, which need the registry, wait for the run.
"""

import os
import re
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate

from evabs import crypto, wire
from evabs.channel import (
    INSECURE,
    SECURE,
    AdversaryScript,
    Delay,
    Drop,
    Inject,
    Network,
    Replay,
    Rule,
    SimClock,
    Tamper,
    Transcript,
)
from evabs.errors import ConfigError, FrameError, InvalidInput, NotFound, ScriptError
from evabs.protocol import Phase, Server, Terminal, VehicleCredentials, VehicleSession
from evabs.wire import FRAME_LENGTHS, TS_MAX, AuthRequest, Reason, StartCharge, decode_frame

__all__ = [
    "Scenario",
    "ScenarioRunner",
    "ScenarioReport",
    "SessionOutcome",
    "CheckResult",
    "parse_scenario",
    "load_scenario",
    "builtin_scenarios",
    "SCENARIO_ALIASES",
]

V2T = "vehicle->terminal"
T2V = "terminal->vehicle"
T2S = "terminal->server"
S2T = "server->terminal"

# the two frames every honest session puts on the open link; a sweep flips
# each of their byte positions in turn
SWEEP_VARIANTS = ("auth_request", "start_charge")

SCENARIO_ALIASES = {"mitm": ("tamper-m3", "tamper-m8")}

_MASK64 = (1 << 64) - 1


@dataclass
class Scenario:
    name: str
    steps: list  # (lineno, tokens, runner method, its checked arguments)


@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | EXPECTED-WEAKNESS | INFO
    detail: str = ""


@dataclass
class SessionOutcome:
    """One charge attempt: t1 and t5 are the terminal's charge for the
    session's own auth request, t2 and t4 what the vehicle saw."""

    index: int
    id_a: bytes
    phase: str
    reason: str | None
    t1: int | None
    t2: int | None
    t4: int | None
    t5: int | None
    amount: int | None
    frames: dict = field(repr=False, default_factory=dict)


@dataclass
class ScenarioReport:
    name: str
    seed: int
    checks: list
    outcomes: list
    counters: dict
    transcript: Transcript = field(repr=False, default=None)

    @property
    def held(self):
        return all(c.status != "FAIL" for c in self.checks)

    @property
    def verdict(self):
        return "DEFENSE HELD" if self.held else "DEFENSE BREACHED"

    def to_text(self):
        lines = [f"scenario: {self.name} (seed={self.seed})"]
        for check in self.checks:
            detail = f"  {check.detail}" if check.detail else ""
            lines.append(f"  {check.status:<18} {check.name}{detail}")
        counters = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        lines.append(f"  counters: {counters}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"

    def to_obj(self):
        return {
            "scenario": self.name,
            "seed": self.seed,
            "verdict": self.verdict,
            "held": self.held,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in self.checks
            ],
            "counters": dict(sorted(self.counters.items())),
            "outcomes": [
                {
                    "index": o.index,
                    "vehicle": o.id_a.hex(),
                    "phase": o.phase,
                    "reason": o.reason,
                    "t1": o.t1,
                    "t5": o.t5,
                    "t4": o.t4,
                    "amount": o.amount,
                }
                for o in self.outcomes
            ],
        }


# -- parsing ------------------------------------------------------------


def _parse_action(token, lineno):
    if token == "drop":
        return Drop()
    if token == "replay":
        return Replay(None)
    if "=" in token:
        key, _, value = token.partition("=")
        if key == "delay":
            return Delay(_parse_count(value, lineno, "delay"))
        if key == "replay":
            return Replay(_parse_count(value, lineno, "replay seq"))
        if key == "tamper":
            index, _, mask = value.partition(":")
            return Tamper(
                _parse_count(index, lineno, "tamper index"),
                _parse_mask(mask, lineno) if mask else 0xFF,
            )
        if key == "inject":
            try:
                return Inject(bytes.fromhex(value))
            except ValueError:
                raise ScriptError(f"line {lineno}: bad action value in {token!r}") from None
    raise ScriptError(f"line {lineno}: unknown action {token!r}")


def _parse_rule(tokens, lineno):
    """`rule CHANNEL VARIANT [nth=K] ACTION`. A rule that could never fire
    as written is refused here, so a typo cannot pass for an attack that ran
    and was stopped."""
    if len(tokens) < 4:
        raise ScriptError(f"line {lineno}: rule CHANNEL VARIANT [nth=K] ACTION")
    channel, variant = tokens[1], tokens[2]
    if channel == SECURE:
        raise ScriptError(
            f"line {lineno}: the secure line carries messages, not frames; no rule matches there"
        )
    if channel != INSECURE:
        raise ScriptError(f"line {lineno}: unknown channel {channel!r}")
    if variant not in FRAME_LENGTHS:
        raise ScriptError(f"line {lineno}: unknown frame variant {variant!r}")
    nth, rest = 1, tokens[3:]
    if rest[0].startswith("nth="):
        nth = _parse_int(rest[0][4:], lineno, "nth")
        if nth < 1:
            raise ScriptError(f"line {lineno}: nth counts from 1, got {nth}")
        rest = rest[1:]
    if len(rest) != 1:
        raise ScriptError(f"line {lineno}: rule takes exactly one action, got {' '.join(rest)!r}")
    action = _parse_action(rest[0], lineno)
    if isinstance(action, Tamper) and action.index >= FRAME_LENGTHS[variant]:
        raise ScriptError(
            f"line {lineno}: tamper index {action.index} is past the"
            f" {FRAME_LENGTHS[variant]}-byte {variant} frame"
        )
    return ScenarioRunner._add_rule, (Rule(channel, variant, nth, action), lineno, " ".join(tokens))


def _parse_sweep(tokens, lineno):
    """`sweep VARIANT [mask=HH]`, run on the first enrolled vehicle."""
    if len(tokens) < 2:
        raise ScriptError(f"line {lineno}: sweep needs a frame variant")
    variant = tokens[1]
    if variant not in SWEEP_VARIANTS:
        raise ScriptError(
            f"line {lineno}: sweep takes {' or '.join(SWEEP_VARIANTS)}, got {variant!r}"
        )
    options = _parse_options(tokens[2:], {"mask"}, lineno)
    mask = _parse_mask(options.get("mask", "01"), lineno)
    return ScenarioRunner._with_vehicle, ("*", lineno, ScenarioRunner.run_sweep, variant, mask)


def _parse_session(tokens, lineno):
    """`session VEHICLE [duration=MS] [budget=N]`: `sessions` with a count of 1."""
    if len(tokens) < 2:
        raise ScriptError(f"line {lineno}: session needs a vehicle")
    options = _parse_options(tokens[2:], {"duration", "budget"}, lineno)
    duration = _parse_count(options.get("duration", "5000"), lineno, "duration")
    budget = _parse_count(options["budget"], lineno, "budget") if "budget" in options else None
    return ScenarioRunner._with_vehicle, (
        tokens[1], lineno, ScenarioRunner._sessions, 1, duration, budget
    )


def _parse_sessions(tokens, lineno):
    """`sessions COUNT VEHICLE [duration=MS]`."""
    if len(tokens) < 3:
        raise ScriptError(f"line {lineno}: sessions needs a count and a vehicle")
    count = _parse_count(tokens[1], lineno, "session count")
    options = _parse_options(tokens[3:], {"duration"}, lineno)
    duration = _parse_count(options.get("duration", "5000"), lineno, "duration")
    return ScenarioRunner._with_vehicle, (
        tokens[2], lineno, ScenarioRunner._sessions, count, duration, None
    )


def _parse_advance(tokens, lineno):
    if len(tokens) != 2:
        raise ScriptError(f"line {lineno}: advance takes a millisecond count")
    return ScenarioRunner._advance, (_parse_count(tokens[1], lineno, "advance"),)


def _parse_revoke(tokens, lineno):
    if len(tokens) != 2:
        raise ScriptError(f"line {lineno}: revoke takes a vehicle reference")
    return ScenarioRunner._with_vehicle, (tokens[1], lineno, ScenarioRunner._revoke)


def _parse_snapshot(tokens, lineno):
    if len(tokens) != 1:
        raise ScriptError(f"line {lineno}: snapshot takes no argument")
    return ScenarioRunner._take_snapshot, ()


def _parse_flood(tokens, lineno):
    if len(tokens) < 2:
        raise ScriptError(f"line {lineno}: flood needs a frame count")
    count = _parse_count(tokens[1], lineno, "flood count")
    style = _parse_options(tokens[2:], {"style"}, lineno).get("style", "wellformed")
    if style not in ("wellformed", "garbage", "mixed"):
        raise ScriptError(f"line {lineno}: unknown flood style {style!r}")
    return ScenarioRunner.flood, (count, style)


def _parse_probe(tokens, lineno):
    """`probe NAME`, run on the first enrolled vehicle."""
    if len(tokens) != 2:
        raise ScriptError(f"line {lineno}: probe takes exactly one probe name")
    probes = {
        "replay-start-charge": ScenarioRunner.probe_replay_start_charge,
        "splice-auth": ScenarioRunner.probe_splice_auth,
    }
    if tokens[1] not in probes:
        raise ScriptError(f"line {lineno}: unknown probe {tokens[1]!r}")
    return ScenarioRunner._with_vehicle, ("*", lineno, probes[tokens[1]])


def _parse_report(tokens, lineno):
    if len(tokens) != 2:
        raise ScriptError(f"line {lineno}: report takes exactly one report name")
    if tokens[1] != "nonce-store":
        raise ScriptError(f"line {lineno}: unknown report {tokens[1]!r}")
    return ScenarioRunner._report_nonce_store, ()


def _parse_options(tokens, allowed, lineno):
    options = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in allowed:
            raise ScriptError(f"line {lineno}: unexpected token {token!r}")
        options[key] = value
    return options


def _parse_int(value, lineno, what, base=10):
    try:
        return int(value, base)
    except ValueError:
        raise ScriptError(f"line {lineno}: {what} must be an integer, got {value!r}") from None


def _parse_count(value, lineno, what):
    """_parse_int for counts and millisecond values, which are never negative."""
    number = _parse_int(value, lineno, what)
    if number < 0:
        raise ScriptError(f"line {lineno}: {what} must not be negative, got {number}")
    return number


def _parse_mask(value, lineno):
    """A tamper mask: hex, flipping at least one bit of one byte."""
    mask = _parse_int(value, lineno, "mask", base=16)
    if not 1 <= mask <= 0xFF:
        raise ScriptError(f"line {lineno}: mask must be 01..ff, got {value!r}")
    return mask


# counted expect forms, `expect WHAT N [KEY=VALUE]`: WHAT -> the one KEY it takes
_COUNTED = {
    "completed": "reason",
    "aborted": "reason",
    "failed": "reason",
    "accepted": None,
    "rejected": "reason",
    "invoices": "total",
}


def _parse_counted(what, args, lineno):
    """(N, VALUE) for a counted expect form: a reason comes back as a Reason,
    a total as an int, an absent KEY=VALUE as None."""
    if not args:
        raise ScriptError(f"line {lineno}: expect {what} needs a count")
    want = _parse_int(args[0], lineno, f"expect {what} count")
    key = _COUNTED[what]
    value = _parse_options(args[1:], {key}, lineno).get(key)
    if value is None:
        return want, None
    if key == "total":
        return want, _parse_int(value, lineno, "total")
    try:
        return want, Reason.from_label(value)
    except FrameError:
        raise ScriptError(f"line {lineno}: unknown reason {value!r}") from None


def _parse_expect(tokens, lineno):
    """`expect WHAT ...`: the form's check method, whose first argument is
    the check's name, the line itself."""
    name, what, args = " ".join(tokens), tokens[1] if len(tokens) > 1 else "", tokens[2:]
    if what in _COUNTED:
        return ScenarioRunner._expect_count, (name, what, *_parse_counted(what, args, lineno))
    if what not in _UNCOUNTED:
        raise ScriptError(f"line {lineno}: unknown expectation {what!r}")
    check, choices = _UNCOUNTED[what]
    arg = args[0] if args else None
    if len(args) > 1 or arg not in choices:
        allowed = "|".join(c for c in choices if c) or "no argument"
        raise ScriptError(f"line {lineno}: expect {what} takes {allowed}, got {' '.join(args)!r}")
    return check, (name, *args)


# every directive a scenario line may start with (besides `scenario NAME`,
# which only names the run), mapped to its parser: it checks every token of
# the line and returns the step's runner method and arguments
_DIRECTIVES = {
    "session": _parse_session,
    "sessions": _parse_sessions,
    "advance": _parse_advance,
    "revoke": _parse_revoke,
    "snapshot": _parse_snapshot,
    "rule": _parse_rule,
    "flood": _parse_flood,
    "sweep": _parse_sweep,
    "probe": _parse_probe,
    "report": _parse_report,
    "expect": _parse_expect,
}

# a `#` opens a comment unless a digit follows: `#K` is an ordinal vehicle
# reference, so `session #2  # second car` keeps the ref and drops the note
_COMMENT = re.compile(r"#(?!\d)")


def parse_scenario(text, default_name="scenario"):
    """Parse scenario text into steps, checking every token: a malformed
    line is a ScriptError before any line runs. Vehicle references, which
    need the registry, are resolved when their step runs."""
    name = default_name
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "scenario":
            if len(tokens) != 2:
                raise ScriptError(f"line {lineno}: scenario takes exactly one name")
            name = tokens[1]
            continue
        if tokens[0] not in _DIRECTIVES:
            raise ScriptError(f"line {lineno}: unknown directive {tokens[0]!r}")
        steps.append((lineno, tokens, *_DIRECTIVES[tokens[0]](tokens, lineno)))
    return Scenario(name=name, steps=steps)


def builtin_scenarios():
    """Names of the shipped scenario files (attack classes), sorted."""
    root = resources.files("evabs").joinpath("scenarios")
    names = [entry.name[:-4] for entry in root.iterdir() if entry.name.endswith(".scn")]
    return sorted(names)


def load_scenario(name_or_path):
    """A shipped name, or a path to a user scenario file."""
    if name_or_path in SCENARIO_ALIASES:
        raise ConfigError(f"{name_or_path} is an alias; expand it before loading")
    builtin = resources.files("evabs").joinpath(f"scenarios/{name_or_path}.scn")
    if builtin.is_file():
        return parse_scenario(builtin.read_text(), default_name=name_or_path)
    if os.path.exists(name_or_path):
        with open(name_or_path) as fh:
            base = os.path.splitext(os.path.basename(name_or_path))[0]
            return parse_scenario(fh.read(), default_name=base)
    raise ConfigError(
        f"unknown scenario {name_or_path!r}; shipped: {', '.join(builtin_scenarios())}"
    )


# -- execution ----------------------------------------------------------


class ScenarioRunner:
    """One registry + one terminal + one server + one adversary, driven by
    directives. All randomness derives from the single seed.

    The seed's splitmix64 chain gives, in order, the terminal's stream seed,
    the adversary's, then one per vehicle enrolled when the runner was made,
    in enrollment order. A vehicle's stream is derived on its first session:
    splitmix64 adds a fixed gamma to its state per step, so the seed of the
    vehicle at position k is one splitmix64 step from base + k * gamma, base
    being the state after the adversary's seed. A vehicle enrolled later
    gets a stream seeded from its id and the run seed."""

    def __init__(self, registry, seed=1):
        self.registry = registry
        # expectations and counters report invoices issued by this run, not
        # whatever billing history the registry already carries
        self._invoices_start = len(registry.invoices)
        self.seed = seed
        self.clock = SimClock()
        self.script = AdversaryScript()
        self.transcript = Transcript()
        self.network = Network(self.clock, script=self.script, transcript=self.transcript)
        self.server = Server(registry)
        state = seed & _MASK64
        state, terminal_seed = crypto.splitmix64(state)
        state, adversary_seed = crypto.splitmix64(state)
        self.terminal = Terminal(registry.group_key, crypto.NonceSource.from_seed(terminal_seed))
        self.adversary_rng = crypto.NonceSource.from_seed(adversary_seed)
        self._streams_base = state
        self._positions = {record.id_a: k for k, record in enumerate(registry.vehicles)}
        self._vehicle_rng = {}
        self.outcomes = []
        self.checks = []
        self.sweeps = {}
        self._snapshot = None
        self._rule_lines = []  # (lineno, line) of each script rule, in script order
        self._vehicle = None
        self._request = None  # the current session's own auth request
        self._own_charge = None  # (t1, t5, amount) of the charge that request opened
        self._session_frames = {}

    # -- plumbing --------------------------------------------------------

    def _rng_for(self, record):
        rng = self._vehicle_rng.get(record.id_a)
        if rng is None:
            k = self._positions.get(record.id_a)
            if k is None:
                # enrolled after runner creation: still a stable stream
                state = int.from_bytes(record.id_a[:8], "big") ^ self.seed
            else:
                state = (self._streams_base + k * crypto.SPLITMIX64_GAMMA) & _MASK64
            rng = crypto.NonceSource.from_seed(crypto.splitmix64(state)[1])
            self._vehicle_rng[record.id_a] = rng
        return rng

    def _advance(self, ms):
        self.clock.advance(ms)
        # deferred frames were already transcribed and rule-matched when the
        # adversary held them back; each fully cascades before the next
        for delivery in self.network.due():
            self._deliver(INSECURE, [delivery])

    def _send(self, channel, direction, payload):
        """Put an agent's own frame or message on its link and deliver until
        quiet."""
        self._deliver(channel, self.network.send(channel, direction, payload))

    def _deliver(self, channel, deliveries):
        """Hand what the network already transcribed and rule-matched to
        its receivers, then send what the agents answer, until quiet.
        Deliveries are handled in arrival order and answers go on the link
        in the order they were made, matching store-and-forward agents."""
        queue = deque((channel, direction, payload) for direction, payload in deliveries)
        while queue:
            for out_channel, out_direction, out in self._handle(*queue.popleft()):
                for direction, payload in self.network.send(out_channel, out_direction, out):
                    queue.append((out_channel, direction, payload))

    def _handle(self, channel, direction, payload):
        """Give one delivery to its receiver; returns the receiver's answers
        as (channel, direction, payload) triples."""
        return _RECEIVERS[channel, direction](self, payload)

    @staticmethod
    def _decode(frame):
        """The message in an open-link frame, or None for a malformed one."""
        try:
            return decode_frame(frame)
        except FrameError:
            return None

    def _terminal_hears_vehicle(self, frame):
        msg = self._decode(frame)
        if msg is None:
            return []
        if not isinstance(msg, AuthRequest):
            self.terminal.ignored[type(msg).__name__] += 1
            return []
        return [(SECURE, T2S, self.terminal.handle_auth(msg))]

    def _vehicle_hears_terminal(self, frame):
        msg = self._decode(frame)
        if msg is not None and self._vehicle is not None:
            self._vehicle.receive(msg)
        return []

    def _server_hears_terminal(self, msg):
        reply = self.server.handle(msg, self.clock.now)
        return [] if reply is None else [(SECURE, S2T, reply)]

    def _terminal_hears_server(self, reply):
        out = self.terminal.handle_reply(reply, self.clock.now)
        if out is None:
            return []
        frame = out.encode()
        if isinstance(out, StartCharge) and self._vehicle is not None:
            self._session_frames.setdefault("start_charge", frame)
        return [(INSECURE, T2V, frame)]

    def _begin_session(self, record):
        """A fresh vehicle session whose auth request has been sent and
        answered until quiet."""
        creds = VehicleCredentials(record.id_a, record.k_a)
        vehicle = VehicleSession(creds, self.registry.group_key, self._rng_for(record))
        self._request = vehicle.start()
        self._own_charge = None
        raw = self._request.encode()
        self._vehicle = vehicle
        self._session_frames = {"auth_request": raw}
        self._send(INSECURE, V2T, raw)
        return vehicle

    def _teardown(self, vehicle):
        """Stop any energy still flowing and bill it; abort a stuck vehicle;
        disarm the adversary's one-shot rules that this session left unused
        (an earlier drop can starve a sweep's tamper of its frame)."""
        vehicle.abort()
        while self.terminal.energy_on:
            self._stop_charge()
        self.terminal.pending.clear()
        self.script.disarm_ephemeral()
        self._vehicle = None

    def _stop_charge(self):
        """Stop the terminal's oldest charge and bill it. A charge opened
        for a copy of this session's own auth request gives the outcome its
        t1 and t5, whether or not the vehicle ever charged, and the amount
        of the invoice its report was billed as (None if none was issued)."""
        own = self.terminal.active[0].req == self._request
        report = self.terminal.stop_charge(self.clock.now)
        invoices = self.registry.invoices
        issued = len(invoices)
        self._send(SECURE, T2S, report)
        if own:
            amount = invoices[-1].amount if len(invoices) > issued else None
            self._own_charge = (report.t1, report.t5, amount)

    @staticmethod
    def budget_cutoff_ms(budget, tariff):
        """First instant at which accrued cost (full tariff per completed
        second) reaches the budget; None when it never does."""
        if budget is None or tariff <= 0:
            return None
        return 1000 * -(-budget // tariff)

    def run_session(self, record, duration, budget=None, record_outcome=True):
        """One charge attempt, end to end, through the adversary.

        The charge time is checked before anything happens: charging starts
        1000 ms from now, and a session whose end t5 would not fit a 64-bit
        timestamp must not consume a nonce it can never bill for."""
        effective = duration
        cutoff = self.budget_cutoff_ms(budget, self.registry.tariff_per_second)
        if cutoff is not None:
            effective = min(effective, cutoff)
        if not 0 <= effective <= TS_MAX - self.clock.now - 1000:
            raise InvalidInput(
                "charge time must be non-negative and end within the 64-bit millisecond"
                f" timestamp range, got {effective} ms"
            )
        self._advance(1000)
        vehicle = self._begin_session(record)
        if vehicle.phase is Phase.CHARGING:
            self._advance(effective)
            # the driver unplugs; the teardown stops the charge at this t5
            vehicle.unplug(self.clock.now)
        self._teardown(vehicle)
        t1, t5, amount = self._own_charge or (None, None, None)
        outcome = SessionOutcome(
            index=len(self.outcomes),
            id_a=record.id_a,
            phase=vehicle.phase.value,
            reason=vehicle.fail_reason.label if vehicle.fail_reason else None,
            t1=t1,
            t2=vehicle.t2,
            t4=vehicle.t4,
            t5=t5,
            amount=amount,
            frames=dict(self._session_frames),
        )
        if record_outcome:
            self.outcomes.append(outcome)
        return outcome

    # -- adversary bulk actions -------------------------------------------

    def flood(self, count, style="wellformed"):
        """Forged open-link frames built without any key material."""
        rng = self.adversary_rng
        for i in range(count):
            if style == "garbage" or (style == "mixed" and i % 2):
                length = 1 + rng.next_u64() % 96
                frame = rng.next_bytes(8 * ((length + 7) // 8))[:length]
            else:
                frame = AuthRequest(
                    m3=rng.next_bytes(16), mac=rng.next_bytes(32), n_a=rng.next_bytes(16)
                ).encode()
            self._deliver(INSECURE, self.network.attacker_send(V2T, frame))
        self.terminal.pending.clear()

    def run_sweep(self, record, variant, mask=0x01):
        """One session per byte position of the chosen frame, with that
        position XOR-flipped in flight."""
        results = []
        for position in range(FRAME_LENGTHS[variant]):
            self.script.arm_ephemeral(Rule(INSECURE, variant, None, Tamper(position, mask)))
            outcome = self.run_session(record, duration=2000, record_outcome=False)
            results.append(
                {"position": position, "phase": outcome.phase, "reason": outcome.reason}
            )
        self.sweeps[variant] = results
        return results

    def probe_replay_start_charge(self, record):
        """The protocol has no vehicle-side freshness check on the terminal
        nonce: a recorded start message from an old session still verifies.
        Documented weakness; reported as such, never as FAIL."""
        first = self.run_session(record, duration=3000, record_outcome=False)
        stale = first.frames.get("start_charge")
        if first.phase != "completed" or stale is None:
            self._check("probe replay-start-charge", False, "setup session failed")
            return
        seq = next(
            e.seq
            for e in self.transcript
            if e.channel == INSECURE and e.frame == stale and e.adversary_action is None
        )
        self._advance(1000)
        self.script.arm_ephemeral(Rule(INSECURE, "start_charge", None, Drop()))
        vehicle = self._begin_session(record)
        fresh_t1 = self.terminal.active[-1].t1 if self.terminal.active else None
        self._deliver(INSECURE, self.network.replay_entry(seq))
        if vehicle.phase is Phase.CHARGING and vehicle.t2 == first.t1:
            status = "EXPECTED-WEAKNESS"
            detail = (
                f"stale start message accepted: vehicle t2={vehicle.t2} "
                f"(old session) vs terminal t1={fresh_t1} (seq {seq} replayed)"
            )
        elif vehicle.phase is not Phase.CHARGING:
            status, detail = "PASS", "stale start message refused"
        else:
            status, detail = "FAIL", f"unexpected t2={vehicle.t2} after replay of seq {seq}"
        self.checks.append(CheckResult("probe replay-start-charge", status, detail))
        self._teardown(vehicle)

    def probe_splice_auth(self, record):
        """Recorded m3 + mac, fresh nonce: the lookup key no longer matches
        any record, so a cloned partial frame buys nothing."""
        first = self.run_session(record, duration=3000, record_outcome=False)
        raw = first.frames.get("auth_request")
        if first.phase != "completed" or raw is None:
            self._check("probe splice-auth", False, "setup session failed")
            return
        old = decode_frame(raw)
        accepted_before = self.server.accepted
        forged = AuthRequest(m3=old.m3, mac=old.mac, n_a=self.adversary_rng.next_nonce())
        self._deliver(INSECURE, self.network.attacker_send(V2T, forged.encode()))
        self.terminal.pending.clear()
        held = self.server.accepted == accepted_before
        self._check(
            "probe splice-auth",
            held,
            "recorded frame with a fresh nonce does not authenticate"
            if held
            else "spliced frame was accepted",
        )

    # -- vehicle references ----------------------------------------------

    def _resolve_vehicle(self, ref, lineno):
        vehicles = self.registry.vehicles
        if not vehicles:
            raise ConfigError(f"line {lineno}: registry has no enrolled vehicles")
        if ref == "*":
            return vehicles[0]
        if ref.startswith("#"):
            try:
                index = int(ref[1:])
            except ValueError:
                raise ConfigError(f"line {lineno}: bad vehicle reference {ref!r}") from None
            if not 1 <= index <= len(vehicles):
                raise ConfigError(f"line {lineno}: no vehicle {ref}")
            return vehicles[index - 1]
        try:
            return self.registry.find(bytes.fromhex(ref))
        except ValueError:
            raise ConfigError(f"line {lineno}: bad vehicle reference {ref!r}") from None
        except NotFound:
            raise ConfigError(f"line {lineno}: no vehicle {ref}") from None

    def _with_vehicle(self, ref, lineno, act, *args):
        """act(self, record, *args) on the vehicle `ref` names: the one part
        of a step resolved when it runs, since it needs the registry."""
        act(self, self._resolve_vehicle(ref, lineno), *args)

    # -- expectations ------------------------------------------------------

    def _phase_count(self, phase, reason=None):
        hits = [o for o in self.outcomes if o.phase == phase]
        if reason is not None:
            hits = [o for o in hits if o.reason == reason.label]
        return len(hits)

    def _check(self, name, ok, detail):
        self.checks.append(CheckResult(name, "PASS" if ok else "FAIL", detail))

    def _expect_count(self, name, what, want, value):
        """A counted expect form; value is its reason or total, or None."""
        ok, detail = True, ""
        if what == "accepted":
            got = self.server.accepted
        elif what == "rejected":
            rejected = self.server.rejected
            got = sum(rejected.values()) if value is None else rejected.get(value, 0)
        elif what == "invoices":
            issued = self.registry.invoices[self._invoices_start:]
            got = len(issued)
            if value is not None:
                amount = sum(inv.amount for inv in issued)
                ok = amount == value
                detail = f"; total expected {value}, got {amount}"
        else:
            got = self._phase_count(what, value)
        self._check(name, ok and got == want, f"expected {want}, got {got}{detail}")

    def _expect_registry_unchanged(self, name):
        if self._snapshot is None:
            self._check(name, False, "no snapshot directive before this expect")
            return
        same = self.registry.snapshot() == self._snapshot
        self._check(name, same, "registry state matches snapshot" if same else "state drifted")

    def _expect_energy_off(self, name):
        self._check(
            name, not self.terminal.energy_on,
            f"active charges: {len(self.terminal.active)}",
        )

    def _expect_no_secrets(self, name, scope="all"):
        needles = []
        if scope in ("ids", "all"):
            needles += [("id", rec.id_a) for rec in self.registry.vehicles]
        if scope in ("keys", "all"):
            needles += [("key", rec.k_a) for rec in self.registry.vehicles]
            needles.append(("group-key", self.registry.group_key))
        frames = [e.frame for e in self.transcript if e.channel == INSECURE]
        hits = [label for label, needle in needles if any(needle in frame for frame in frames)]
        self._check(
            name,
            not hits,
            f"searched {len(frames)} open-link frames for {len(needles)} secrets"
            + (f"; leaked: {', '.join(hits)}" if hits else ""),
        )

    def _expect_fresh_frames(self, name):
        auth = [o.frames["auth_request"] for o in self.outcomes if "auth_request" in o.frames]
        start = [o.frames["start_charge"] for o in self.outcomes if "start_charge" in o.frames]
        problems = []
        # both frames: a tag byte, then a block, a MAC tag and a nonce
        edges = list(accumulate((1, wire.BLOCK_SIZE, wire.TAG_SIZE, wire.NONCE_SIZE)))
        for label, frames in (("auth_request", auth), ("start_charge", start)):
            for lo, hi in zip(edges, edges[1:]):
                parts = [f[lo:hi] for f in frames]
                if len(set(parts)) != len(parts):
                    problems.append(f"{label} bytes {lo}:{hi} repeat across sessions")
            # corresponding-position byte matches should stay at chance level
            for i in range(len(frames)):
                for j in range(i + 1, len(frames)):
                    same = sum(a == b for a, b in zip(frames[i][1:], frames[j][1:]))
                    if same > 5:
                        problems.append(
                            f"{label} sessions {i} and {j} share {same}/{FRAME_LENGTHS[label] - 1}"
                            " byte positions"
                        )
        self._check(
            name,
            not problems,
            f"{len(auth)} auth + {len(start)} start frames compared"
            + ("; " + "; ".join(problems[:3]) if problems else ""),
        )

    def _expect_sweep(self, name, mode):
        if not self.sweeps:
            self._check(name, False, "no sweep ran before this expect")
            return
        if mode == "no-charging":
            bad = [
                (variant, r["position"])
                for variant, results in self.sweeps.items()
                for r in results
                if r["phase"] in ("charging", "completed")
            ]
            self._check(
                name,
                not bad,
                f"{sum(len(r) for r in self.sweeps.values())} tampered sessions, "
                + (f"charging reached at {bad[:3]}" if bad else "none reached charging"),
            )
            return
        if mode == "mac-invalid":
            results = self.sweeps.get("start_charge")
            if results is None:
                self._check(name, False, "no start_charge sweep ran")
                return
            bad = [
                r["position"]
                for r in results
                if (r["position"] == 0 and r["phase"] in ("charging", "completed"))
                or (r["position"] > 0 and r["reason"] != Reason.MAC_INVALID.label)
            ]
            self._check(
                name,
                not bad,
                "every tampered body byte fails the vehicle's tag check"
                if not bad
                else f"positions {bad[:5]} did not fail as mac_invalid",
            )

    # -- what the other directives do ---------------------------------------

    def _sessions(self, record, count, duration, budget):
        for _ in range(count):
            self.run_session(record, duration=duration, budget=budget)

    def _revoke(self, record):
        self.registry.revoke(record.id_a)

    def _take_snapshot(self):
        self._snapshot = self.registry.snapshot()

    def _add_rule(self, rule, lineno, line):
        self.script.add_rule(rule)
        self._rule_lines.append((lineno, line))

    def _report_nonce_store(self):
        sizes = ", ".join(
            f"{rec.id_a.hex()[:8]}..={len(rec.used_nonces)}" for rec in self.registry.vehicles
        )
        total = sum(len(rec.used_nonces) for rec in self.registry.vehicles)
        self.checks.append(
            CheckResult(
                "report nonce-store", "INFO",
                f"stored nonces grow without bound: total={total} ({sizes})",
            )
        )

    def execute(self, scenario):
        for _, _, method, args in scenario.steps:
            method(self, *args)
        # a rule that never fired tested nothing; its line must not read as
        # a defense that held
        for index in self.script.unfired():
            lineno, line = self._rule_lines[index]
            self._check(line, False, f"line {lineno}: rule never fired")
        return ScenarioReport(
            name=scenario.name,
            seed=self.seed,
            checks=self.checks,
            outcomes=self.outcomes,
            counters={
                "accepted": self.server.accepted,
                "rejected": sum(self.server.rejected.values()),
                "invoices": len(self.registry.invoices) - self._invoices_start,
                "sessions": len(self.outcomes),
                "transcript-entries": len(self.transcript),
            },
            transcript=self.transcript,
        )


# the other expect forms, `expect WHAT [ARG]`: WHAT -> the check method and
# the ARG values it accepts, None standing for an absent ARG
_UNCOUNTED = {
    "no-secrets": (ScenarioRunner._expect_no_secrets, (None, "ids", "keys", "all")),
    "fresh-frames": (ScenarioRunner._expect_fresh_frames, (None,)),
    "registry-unchanged": (ScenarioRunner._expect_registry_unchanged, (None,)),
    "energy-off": (ScenarioRunner._expect_energy_off, (None,)),
    "sweep": (ScenarioRunner._expect_sweep, ("no-charging", "mac-invalid")),
}

# the receiver of each delivery, by (channel, direction): open-link receivers
# get a frame and decode it, protected-line receivers get the message itself
_RECEIVERS = {
    (INSECURE, V2T): ScenarioRunner._terminal_hears_vehicle,
    (INSECURE, T2V): ScenarioRunner._vehicle_hears_terminal,
    (SECURE, T2S): ScenarioRunner._server_hears_terminal,
    (SECURE, S2T): ScenarioRunner._terminal_hears_server,
}


def run_named_scenario(make_registry, name_or_path, seed=1):
    """Load and execute one scenario; aliases expand to several reports.
    make_registry is a zero-argument factory: every report runs against its
    own fresh registry so nonce streams never collide across runs."""
    names = SCENARIO_ALIASES.get(name_or_path, (name_or_path,))
    reports = []
    for name in names:
        scenario = load_scenario(name)
        runner = ScenarioRunner(make_registry(), seed=seed)
        reports.append(runner.execute(scenario))
    return reports
