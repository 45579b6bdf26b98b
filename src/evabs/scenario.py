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
or extra argument) raises ScriptError instead.
"""

import os
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from importlib import resources

from evabs import crypto
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
from evabs.errors import ConfigError, FrameError, InvalidInput, ScriptError
from evabs.protocol import (
    HandshakeTrace,
    Phase,
    Server,
    Terminal,
    VehicleCredentials,
    VehicleSession,
)
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


@dataclass
class Scenario:
    name: str
    steps: list  # (lineno, tokens)


@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | EXPECTED-WEAKNESS | INFO
    detail: str = ""


@dataclass
class SessionOutcome:
    index: int
    id_a: bytes
    phase: str
    reason: str | None
    t1: int | None
    t2: int | None
    t4: int | None
    t5: int | None
    amount: int | None
    trace: HandshakeTrace = field(repr=False)
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
    """The Rule on a `rule CHANNEL VARIANT [nth=K] ACTION` line. A rule that
    could never fire as written is refused here, so a typo cannot pass for
    an attack that ran and was stopped."""
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
    return Rule(channel, variant, nth, action)


def _parse_sweep(tokens, lineno):
    """(VARIANT, mask) on a `sweep VARIANT [mask=HH]` line."""
    if len(tokens) < 2:
        raise ScriptError(f"line {lineno}: sweep needs a frame variant")
    variant = tokens[1]
    if variant not in SWEEP_VARIANTS:
        raise ScriptError(
            f"line {lineno}: sweep takes {' or '.join(SWEEP_VARIANTS)}, got {variant!r}"
        )
    options = _parse_options(tokens[2:], {"mask"}, lineno)
    return variant, _parse_mask(options.get("mask", "01"), lineno)


def _parse_options(tokens, allowed, lineno):
    options = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in allowed:
            raise ScriptError(f"line {lineno}: unexpected token {token!r}")
        options[key] = value
    return options


def _parse_int(value, lineno, what, base=10):
    if isinstance(value, int):
        return value
    try:
        return int(value, base)
    except (TypeError, ValueError):
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


# the other expect forms, `expect WHAT [ARG]`: WHAT -> the ARG values it
# accepts, None standing for an absent ARG
_UNCOUNTED = {
    "no-secrets": (None, "ids", "keys", "all"),
    "fresh-frames": (None,),
    "registry-unchanged": (None,),
    "energy-off": (None,),
    "sweep": ("no-charging", "mac-invalid"),
}


def _parse_uncounted(what, args, lineno):
    """The one optional ARG of an uncounted expect form, or None."""
    choices = _UNCOUNTED[what]
    arg = args[0] if args else None
    if len(args) > 1 or arg not in choices:
        allowed = "|".join(c for c in choices if c) or "no argument"
        raise ScriptError(f"line {lineno}: expect {what} takes {allowed}, got {' '.join(args)!r}")
    return arg


# a `#` opens a comment unless a digit follows: `#K` is an ordinal vehicle
# reference, so `session #2  # second car` keeps the ref and drops the note
_COMMENT = re.compile(r"#(?!\d)")


# lines that need no registry or run state to check, and are checked when
# the scenario is parsed, before any line runs
_STATIC_PARSERS = {"rule": _parse_rule, "sweep": _parse_sweep}


def parse_scenario(text, default_name="scenario"):
    """Parse scenario text into directives. `rule` and `sweep` lines are
    checked in full here; validation that needs registry context (vehicle
    references) happens at execution time."""
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
        _directive(tokens, lineno)
        if tokens[0] in _STATIC_PARSERS:
            _STATIC_PARSERS[tokens[0]](tokens, lineno)
        steps.append((lineno, tokens))
    return Scenario(name=name, steps=steps)


def _directive(tokens, lineno):
    """The runner method that executes one scenario line."""
    try:
        return _DIRECTIVES[tokens[0]]
    except KeyError:
        raise ScriptError(f"line {lineno}: unknown directive {tokens[0]!r}") from None


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
    directives. All randomness derives from the single seed."""

    def __init__(self, registry, seed=1, persist=None):
        self.registry = registry
        # expectations and counters report invoices issued by this run, not
        # whatever billing history the registry already carries
        self._invoices_start = len(registry.invoices)
        self.seed = seed
        self.clock = SimClock()
        self.script = AdversaryScript()
        self.transcript = Transcript()
        self.network = Network(self.clock, script=self.script, transcript=self.transcript)
        self.server = Server(registry, persist=persist)
        state = seed & ((1 << 64) - 1)
        state, terminal_seed = crypto.splitmix64(state)
        state, adversary_seed = crypto.splitmix64(state)
        self.terminal = Terminal(registry.group_key, crypto.NonceSource.from_seed(terminal_seed))
        self.adversary_rng = crypto.NonceSource.from_seed(adversary_seed)
        self._vehicle_rng = {}
        for record in registry.vehicles:
            state, vseed = crypto.splitmix64(state)
            self._vehicle_rng[record.id_a] = crypto.NonceSource.from_seed(vseed)
        self.outcomes = []
        self.checks = []
        self.sweeps = {}
        self.malformed = Counter()
        self._snapshot = None
        self._rule_lines = []  # (lineno, line) of each script rule, in script order
        self._vehicle = None
        self._session_trace = None
        self._session_auth_frame = None
        self._session_frames = {}

    # -- plumbing --------------------------------------------------------

    def _rng_for(self, record):
        # vehicles enrolled after runner creation still get a stable stream
        if record.id_a not in self._vehicle_rng:
            state, vseed = crypto.splitmix64(int.from_bytes(record.id_a[:8], "big") ^ self.seed)
            self._vehicle_rng[record.id_a] = crypto.NonceSource.from_seed(vseed)
        return self._vehicle_rng[record.id_a]

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

    def _decode(self, direction, frame):
        """The message in an open-link frame, or None for a malformed one."""
        try:
            return decode_frame(frame)
        except FrameError:
            self.malformed[direction] += 1
            return None

    def _terminal_hears_vehicle(self, frame):
        msg = self._decode(V2T, frame)
        if msg is None:
            return []
        if not isinstance(msg, AuthRequest):
            self.terminal.ignored[type(msg).__name__] += 1
            return []
        trace = self._session_trace if frame == self._session_auth_frame else HandshakeTrace()
        return [(SECURE, T2S, self.terminal.handle_auth(msg, trace))]

    def _vehicle_hears_terminal(self, frame):
        msg = self._decode(T2V, frame)
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
        trace = HandshakeTrace()
        vehicle = VehicleSession(creds, self.registry.group_key, self._rng_for(record), trace)
        self._vehicle = vehicle
        self._session_trace = trace
        self._session_frames = {}
        req = vehicle.start()
        raw = req.encode()
        self._session_auth_frame = raw
        self._session_frames["auth_request"] = raw
        self._send(INSECURE, V2T, raw)
        return vehicle

    def _teardown(self, vehicle):
        """Stop any energy still flowing and bill it; abort a stuck vehicle;
        disarm the adversary's one-shot rules that this session left unused
        (an earlier drop can starve a sweep's tamper of its frame)."""
        vehicle.abort()
        while self.terminal.energy_on:
            report = self.terminal.stop_charge(self.clock.now)
            self._send(SECURE, T2S, report)
        self.terminal.pending.clear()
        self.script.disarm_ephemeral()
        self._vehicle = None
        self._session_trace = None
        self._session_auth_frame = None

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
        invoices_before = len(self.registry.invoices)
        vehicle = self._begin_session(record)
        if vehicle.phase is Phase.CHARGING:
            self._advance(effective)
            report = self.terminal.stop_charge(self.clock.now)
            vehicle.unplug(self.clock.now)
            if report is not None:
                self._send(SECURE, T2S, report)
        self._teardown(vehicle)
        new_invoices = self.registry.invoices[invoices_before:]
        invoice = new_invoices[0] if new_invoices else None
        outcome = SessionOutcome(
            index=len(self.outcomes),
            id_a=record.id_a,
            phase=vehicle.phase.value,
            reason=vehicle.fail_reason.label if vehicle.fail_reason else None,
            t1=vehicle.trace.t1,
            t2=vehicle.t2,
            t4=vehicle.t4,
            t5=vehicle.trace.t5,
            amount=invoice.amount if invoice else None,
            trace=vehicle.trace,
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
            id_a = bytes.fromhex(ref)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad vehicle reference {ref!r}") from None
        for record in vehicles:
            if record.id_a == id_a:
                return record
        raise ConfigError(f"line {lineno}: no vehicle {ref}")

    # -- expectations ------------------------------------------------------

    def _phase_count(self, phase, reason=None):
        hits = [o for o in self.outcomes if o.phase == phase]
        if reason is not None:
            hits = [o for o in hits if o.reason == reason.label]
        return len(hits)

    def _check(self, name, ok, detail):
        self.checks.append(CheckResult(name, "PASS" if ok else "FAIL", detail))

    def _expect(self, tokens, lineno):
        name = " ".join(tokens)
        what = tokens[1] if len(tokens) > 1 else ""
        args = tokens[2:]

        if what in _COUNTED:
            want, value = _parse_counted(what, args, lineno)
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
            return
        if what not in _UNCOUNTED:
            raise ScriptError(f"line {lineno}: unknown expectation {what!r}")
        arg = _parse_uncounted(what, args, lineno)
        if what == "no-secrets":
            self._expect_no_secrets(name, arg or "all")
            return
        if what == "fresh-frames":
            self._expect_fresh_frames(name)
            return
        if what == "registry-unchanged":
            if self._snapshot is None:
                self._check(name, False, "no snapshot directive before this expect")
                return
            same = self.registry.snapshot() == self._snapshot
            self._check(name, same, "registry state matches snapshot" if same else "state drifted")
            return
        if what == "energy-off":
            self._check(
                name, not self.terminal.energy_on,
                f"active charges: {len(self.terminal.active)}",
            )
            return
        self._expect_sweep(name, arg)

    def _expect_no_secrets(self, name, scope):
        needles = []
        if scope in ("ids", "all"):
            needles += [("id", rec.id_a) for rec in self.registry.vehicles]
        if scope in ("keys", "all"):
            needles += [("key", rec.k_a) for rec in self.registry.vehicles]
            needles.append(("group-key", self.registry.group_key))
        frames = [e.frame for e in self.transcript if e.channel == INSECURE]
        hits = []
        for label, needle in needles:
            for frame in frames:
                if needle in frame:
                    hits.append(label)
                    break
        self._check(
            name,
            not hits,
            f"searched {len(frames)} open-link frames for {len(needles)} secrets"
            + (f"; leaked: {', '.join(hits)}" if hits else ""),
        )

    def _expect_fresh_frames(self, name):
        auth = [o.frames["auth_request"] for o in self.outcomes if "auth_request" in o.frames]
        start = [o.frames.get("start_charge") for o in self.outcomes]
        start = [f for f in start if f]
        problems = []
        for label, frames, fields in (
            ("auth_request", auth, ((1, 17), (17, 49), (49, 65))),
            ("start_charge", start, ((1, 17), (17, 49), (49, 65))),
        ):
            for lo, hi in fields:
                parts = [f[lo:hi] for f in frames]
                if len(set(parts)) != len(parts):
                    problems.append(f"{label} bytes {lo}:{hi} repeat across sessions")
            # corresponding-position byte matches should stay at chance level
            for i in range(len(frames)):
                for j in range(i + 1, len(frames)):
                    same = sum(a == b for a, b in zip(frames[i][1:], frames[j][1:]))
                    if same > 5:
                        problems.append(
                            f"{label} sessions {i} and {j} share {same}/64 byte positions"
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

    # -- directives: one method per line kind, dispatched through _DIRECTIVES --

    def _do_session(self, tokens, lineno):
        if len(tokens) < 2:
            raise ScriptError(f"line {lineno}: session needs a vehicle")
        record = self._resolve_vehicle(tokens[1], lineno)
        options = _parse_options(tokens[2:], {"duration", "budget"}, lineno)
        budget = options.get("budget")
        self.run_session(
            record,
            duration=_parse_count(options.get("duration", 5000), lineno, "duration"),
            budget=None if budget is None else _parse_count(budget, lineno, "budget"),
        )

    def _do_sessions(self, tokens, lineno):
        if len(tokens) < 3:
            raise ScriptError(f"line {lineno}: sessions needs a count and a vehicle")
        count = _parse_count(tokens[1], lineno, "session count")
        record = self._resolve_vehicle(tokens[2], lineno)
        options = _parse_options(tokens[3:], {"duration"}, lineno)
        duration = _parse_count(options.get("duration", 5000), lineno, "duration")
        for _ in range(count):
            self.run_session(record, duration=duration)

    def _do_advance(self, tokens, lineno):
        if len(tokens) != 2:
            raise ScriptError(f"line {lineno}: advance takes a millisecond count")
        self._advance(_parse_count(tokens[1], lineno, "advance"))

    def _do_revoke(self, tokens, lineno):
        if len(tokens) != 2:
            raise ScriptError(f"line {lineno}: revoke takes a vehicle reference")
        record = self._resolve_vehicle(tokens[1], lineno)
        self.registry.revoke(record.id_a)

    def _do_snapshot(self, tokens, lineno):
        self._snapshot = self.registry.snapshot()

    def _do_rule(self, tokens, lineno):
        self.script.add_rule(_parse_rule(tokens, lineno))
        self._rule_lines.append((lineno, " ".join(tokens)))

    def _do_flood(self, tokens, lineno):
        if len(tokens) < 2:
            raise ScriptError(f"line {lineno}: flood needs a frame count")
        count = _parse_count(tokens[1], lineno, "flood count")
        options = _parse_options(tokens[2:], {"style"}, lineno)
        style = options.get("style", "wellformed")
        if style not in ("wellformed", "garbage", "mixed"):
            raise ScriptError(f"line {lineno}: unknown flood style {style!r}")
        self.flood(count, style)

    def _do_sweep(self, tokens, lineno):
        variant, mask = _parse_sweep(tokens, lineno)
        record = self._resolve_vehicle("*", lineno)
        self.run_sweep(record, variant, mask)

    def _do_probe(self, tokens, lineno):
        if len(tokens) != 2:
            raise ScriptError(f"line {lineno}: probe takes exactly one probe name")
        record = self._resolve_vehicle("*", lineno)
        if tokens[1] == "replay-start-charge":
            self.probe_replay_start_charge(record)
        elif tokens[1] == "splice-auth":
            self.probe_splice_auth(record)
        else:
            raise ScriptError(f"line {lineno}: unknown probe {tokens[1]!r}")

    def _do_report(self, tokens, lineno):
        if len(tokens) != 2:
            raise ScriptError(f"line {lineno}: report takes exactly one report name")
        if tokens[1] != "nonce-store":
            raise ScriptError(f"line {lineno}: unknown report {tokens[1]!r}")
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
        for lineno, tokens in scenario.steps:
            _directive(tokens, lineno)(self, tokens, lineno)
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


# every directive a scenario line may start with (besides `scenario NAME`,
# which only names the run), mapped to the runner method that executes it
_DIRECTIVES = {
    "session": ScenarioRunner._do_session,
    "sessions": ScenarioRunner._do_sessions,
    "advance": ScenarioRunner._do_advance,
    "revoke": ScenarioRunner._do_revoke,
    "snapshot": ScenarioRunner._do_snapshot,
    "rule": ScenarioRunner._do_rule,
    "flood": ScenarioRunner._do_flood,
    "sweep": ScenarioRunner._do_sweep,
    "probe": ScenarioRunner._do_probe,
    "report": ScenarioRunner._do_report,
    "expect": ScenarioRunner._expect,
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
