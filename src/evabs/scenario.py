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
    sweep auth_request|start_charge [mask=HH]     one session per byte position,
                                                  flipping that byte's bits
    probe replay-start-charge|splice-auth         the stale-t2 replay, or a recorded
                                                  m3+mac with a fresh nonce
    report nonce-store                            note per-vehicle nonce growth
    expect completed N                            each expect form records PASS
    expect aborted N                              or FAIL, in a check named
    expect accepted N                             after its line
    expect failed N [reason=LABEL]
    expect rejected N [reason=LABEL]
    expect invoices N [total=AMOUNT]
    expect no-secrets [ids|keys|all]
    expect fresh-frames
    expect registry-unchanged
    expect energy-off
    expect sweep no-charging|mac-invalid

VEHICLE is `*` (first enrolled), `#K` (K-th enrolled, 1-based) or a 32-hex
id. CHANNEL is `insecure`, VARIANT one of channel.RULE_VARIANTS, and ACTION
drop | delay=MS | tamper=IDX (mask ff) | tamper=IDX:HH | inject=HEXBYTES |
replay | replay=SEQ. Numbers are ASCII decimal digits and HH bare hex digits:
no sign, `_`, `0x` or other script's digits. A KEY=VALUE option may stand
anywhere after the words that name its line. Rules fire once, on the nth
occurrence of their frame variant (counted from run start). A rule that
could never fire as written is a ScriptError at parse time: the secure
channel (it carries messages, not frames), or anything channel.Rule refuses
when it is made (nth below 1, a tamper index past the variant's frame, a
mask outside 01..ff, an empty inject). A rule still unfired when the run
ends adds a FAIL check naming its line. A sweep takes the same 01..ff mask.

Failed expectations never raise; they mark the report FAIL and the run
carries on, so one broken defense does not hide another. A malformed line
(unknown word, missing or non-integer count, unknown reason label, unknown,
extra or repeated argument, a vehicle reference of no form above) raises
ScriptError in parse_scenario, before any line runs, whose message ends in
the line's usage above but for `scenario` and an unknown directive. Only
what a running step can refuse waits: a vehicle reference that names no
enrolled vehicle (that needs the registry), a charge time past the 64-bit
timestamp range, a rule that cannot act on the frame in hand (which records
nothing of it).
parse_scenario and ScenarioRunner.execute add `line N: ` to what line N
raises, keeping its error class; no other code knows line numbers.
"""

import os
import re
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from importlib import resources

from evabs import crypto
from evabs.channel import (
    INSECURE,
    RULE_VARIANTS,
    SECURE,
    Delay,
    Drop,
    Inject,
    Network,
    Replay,
    Rule,
    Tamper,
    Transcript,
)
from evabs.errors import (
    ClockSkew,
    ConfigError,
    FrameError,
    InvalidInput,
    InvalidSeed,
    NotFound,
    ScriptError,
    checked_int,
)
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

SCENARIO_ALIASES = {"mitm": ("tamper-m3", "tamper-m8")}

# a forged auth request: its tag byte, then m3 || mac || n_a in one draw
_AUTH_TAG = bytes([AuthRequest.tag])
_AUTH_BODY_LEN = AuthRequest.frame_len - 1

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
    position: int  # the vehicle's enrollment position, from 0
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
                    "vehicle": f"#{o.position + 1}",
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


def _parse_count(value, what, base=10):
    """A count, millisecond value, index or seq in ASCII decimal digits, or a
    mask in base 16 in bare hex digits: no sign, `_`, `0x` or other digits."""
    if not re.fullmatch("[0-9a-fA-F]+" if base == 16 else "[0-9]+", value):
        raise ScriptError(f"{what} must be {'hex' if base == 16 else 'decimal'} digits, got {value!r}")
    try:
        return int(value, base)
    except ValueError:  # more decimal digits than int() converts
        raise ScriptError(f"{what} has {len(value)} digits, too many") from None


def _parse_action(token, what):
    if token == "drop":
        return Drop()
    if token == "replay":
        return Replay(None)
    if "=" in token:
        key, _, value = token.partition("=")
        if key == "delay":
            return Delay(_parse_count(value, "delay"))
        if key == "replay":
            return Replay(_parse_count(value, "replay seq"))
        if key == "tamper":
            index, colon, mask = value.partition(":")
            mask = _parse_count(mask, "mask", 16) if colon else 0xFF
            return Tamper(_parse_count(index, "tamper index"), mask)
        if key == "inject":
            try:
                return Inject(bytes.fromhex(value))
            except ValueError:
                raise ScriptError(f"bad action value in {token!r}") from None
    raise ScriptError(f"unknown action {token!r}")


def _channel(text, what):
    if text == SECURE:
        raise ScriptError("the secure line carries messages, not frames; no rule matches there")
    return _one_of((INSECURE,), text, what)


def _rule(channel, variant, action, nth):
    """A rule line's Rule, made and so checked as a whole when the line is
    parsed: a typo cannot pass for an attack that ran and was stopped."""
    return (Rule(variant, nth, action),)


def _vehicle(text, what):
    """`*`, `#K` (K from 1, in ASCII digits) or a 32-hex id; whether it names
    an enrolled vehicle waits for its step, which has the registry."""
    if not re.fullmatch(r"\*|#[1-9][0-9]*|[0-9a-fA-F]{32}", text):
        raise ScriptError(f"bad vehicle reference {text!r}")
    if text[0] == "#":  # its step reads K with int(), which this checks
        _parse_count(text[1:], what)
    return text


def _one_of(words, text, what):
    if text not in words:
        raise ScriptError(f"{text!r} is not {'|'.join(words)}")
    return text


def _sweep_mask(text, what):
    """A hex mask, refused now if Rule refuses it in a sweep's rules."""
    mask = _parse_count(text, what, 16)
    Rule(RULE_VARIANTS[0], 1, Tamper(0, mask))
    return mask


def _reason(text, what):
    try:
        return Reason.from_label(text)
    except FrameError:
        raise ScriptError(f"unknown reason {text!r}") from None


# the parser of each named placeholder; any other one lists its words, split by |
_VALUES = {
    "COUNT": _parse_count,
    "MS": _parse_count,
    "N": _parse_count,
    "AMOUNT": _parse_count,
    "K": _parse_count,
    "VEHICLE": _vehicle,
    "CHANNEL": _channel,
    "VARIANT": partial(_one_of, RULE_VARIANTS),
    "ACTION": _parse_action,
    "HH": _sweep_mask,
    "LABEL": _reason,
}


def _select(tokens):
    """The usage of the row a line names, and how many of the line's words
    name it: its first word, and its second too where rows share the first."""
    usages = [usage for usage in _DIRECTIVES if usage.split()[0] == tokens[0]]
    if not usages:
        raise ScriptError(f"unknown directive {tokens[0]!r}")
    if len(usages) == 1:
        return usages[0], 1
    forms = {usage.split()[1]: usage for usage in usages}
    what = tokens[1] if len(tokens) > 1 else ""
    if what not in forms:
        raise ScriptError(
            f"unknown {tokens[0]} form {what!r}; usage: {tokens[0]} {'|'.join(forms)} ..."
        )
    return forms[what], 2


def _parse_step(tokens):
    """The runner method and checked arguments of one directive line. A
    row's method (or its maker, if it has one) takes the positionals, then
    each option in usage order, its default (or None) if the line leaves it
    out; a bracketed word list is a positional that may be left out, None if
    it is. A KEY=VALUE word whose KEY is one of the row's options may stand
    anywhere after the words that name the row. A malformed line is a
    ScriptError that ends in its usage."""
    usage, named_by = _select(tokens)
    method, defaults, *make = _DIRECTIVES[usage]
    form = usage.split()[named_by:]
    required = [arg for arg in form if not arg.startswith("[")]
    positionals = [arg.strip("[]") for arg in form if "=" not in arg]
    options = dict(arg[1:-1].split("=") for arg in form if "=" in arg)

    def value(text, placeholder, what):
        return _VALUES.get(placeholder, partial(_one_of, placeholder.split("|")))(text, what)

    try:
        words, given = [], {}
        for word in tokens[named_by:]:
            key, eq, text = word.partition("=")
            if not (eq and key in options):
                words.append(word)
            elif key in given:
                raise ScriptError(f"{key}= given more than once")
            else:
                given[key] = text
        if len(words) < len(required):
            raise ScriptError(f"missing {required[len(words)]}")
        if len(words) > len(positionals):
            raise ScriptError(f"unexpected token {words[len(positionals)]!r}")
        args = [value(text, p, p) for p, text in zip(positionals, words)]
        args += [None] * (len(positionals) - len(args))
        for key, p in options.items():
            args.append(value(given[key], p, key) if key in given else defaults.get(key))
        if make:
            args = make[0](*args)
    except ScriptError as exc:
        raise ScriptError(f"{exc}; usage: {usage}") from None
    return method, tuple(args)


# a `#` opens a comment unless a digit follows: `#K` is an ordinal vehicle
# reference, so `session #2  # second car` keeps the ref and drops the note
_COMMENT = re.compile(r"#(?!\d)")


def parse_scenario(text, default_name="scenario"):
    """Parse scenario text into steps, checking every token: a malformed
    line is a ScriptError before any line runs. Whether a vehicle reference
    names an enrolled vehicle, which needs the registry, waits for its step."""
    name = default_name
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _COMMENT.split(raw, 1)[0].split()
        if not tokens:
            continue
        try:
            if tokens[0] == "scenario":
                if len(tokens) != 2:
                    raise ScriptError("scenario takes exactly one name")
                name = tokens[1]
            else:
                steps.append((lineno, tokens, *_parse_step(tokens)))
        except ScriptError as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
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
        try:
            with open(name_or_path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read scenario {name_or_path}: {exc}") from exc
        base = os.path.splitext(os.path.basename(name_or_path))[0]
        return parse_scenario(text, default_name=base)
    raise ConfigError(
        f"unknown scenario {name_or_path!r}; shipped: {', '.join(builtin_scenarios())}"
    )


# -- execution ----------------------------------------------------------


class ScenarioRunner:
    """One registry + one terminal + one server + one adversary, driven by
    directives. All randomness derives from the single seed, 0..2**64-1.

    The seed's splitmix64 chain gives, in order, the terminal's stream seed,
    the adversary's, then one per vehicle enrolled when the runner was made,
    in enrollment order. A vehicle's stream is derived on its first session:
    splitmix64 adds a fixed gamma to its state per step, so the seed of the
    vehicle at position k is one splitmix64 step from base + k * gamma, base
    being the state after the adversary's seed. The registry records each
    vehicle's position; a vehicle enrolled later (at a position past the
    fleet size the runner saw) gets a stream seeded from its id and the run
    seed."""

    def __init__(self, registry, seed=1):
        self.seed = checked_int("seed", seed, 0, _MASK64, InvalidSeed)
        self.registry = registry
        # expectations and counters report invoices issued by this run, not
        # whatever billing history the registry already carries
        self._invoices_start = len(registry.invoices)
        self.network = Network()
        self.clock = self.network.clock
        self.script = self.network.script
        self.transcript = self.network.transcript
        self.server = Server(registry)
        state, terminal_seed = crypto.splitmix64(seed)
        state, adversary_seed = crypto.splitmix64(state)
        self.terminal = Terminal(registry.group_key, crypto.NonceSource.from_seed(terminal_seed))
        self.adversary_rng = crypto.NonceSource.from_seed(adversary_seed)
        self._streams_base = state
        self._fleet_size = registry.fleet_size
        self._vehicle_rng = {}
        self.outcomes = []
        self.checks = []
        self.sweeps = {}
        self._snapshot = None
        self._vehicle = None
        self._request = None  # the current session's own auth request
        self._own_charge = None  # (t1, t5, amount) of the charge that request opened
        self._session_frames = {}

    # -- plumbing --------------------------------------------------------

    def _rng_for(self, record):
        rng = self._vehicle_rng.get(record.id_a)
        if rng is None:
            k = record.position
            if k < self._fleet_size:
                state = (self._streams_base + k * crypto.SPLITMIX64_GAMMA) & _MASK64
            else:
                # enrolled after runner creation: still a stable stream
                state = int.from_bytes(record.id_a[:8], "big") ^ self.seed
            rng = crypto.NonceSource.from_seed(crypto.splitmix64(state)[1])
            self._vehicle_rng[record.id_a] = rng
        return rng

    def _advance(self, ms):
        self.clock.advance(ms)
        # deferred frames were already transcribed and rule-matched when the
        # adversary held them back; each fully cascades before the next
        for delivery in self.network.due():
            self._deliver([delivery])

    def _send(self, direction, payload):
        """Put an agent's own frame or message on its direction's link and
        deliver until quiet."""
        self._deliver(self.network.send(_LINK[direction], direction, payload))

    def _deliver(self, deliveries):
        """Hand what the network already transcribed and rule-matched, as
        (direction, payload) pairs, to its receivers, then send what the
        agents answer, until quiet. Deliveries are handled in arrival order
        and answers go on the link in the order they were made, matching
        store-and-forward agents. The protected line is ideal, so every
        lookup the terminal makes is answered before this returns:
        terminal.pending is empty again."""
        queue = deque(deliveries)
        while queue:
            direction, payload = queue.popleft()
            for out_direction, out in _RECEIVERS[direction](self, payload):
                queue.extend(self.network.send(_LINK[out_direction], out_direction, out))

    @staticmethod
    def _decode(frame):
        """The message in an open-link frame, or None for a malformed one."""
        try:
            return decode_frame(frame)
        except FrameError:
            return None

    def _terminal_hears_vehicle(self, frame):
        msg = self._decode(frame)
        if not isinstance(msg, AuthRequest):
            return []
        return [(T2S, self.terminal.handle_auth(msg))]

    def _vehicle_hears_terminal(self, frame):
        if self._vehicle is not None:  # a frame nobody hears is not decoded
            msg = self._decode(frame)
            if msg is not None:
                self._vehicle.receive(msg)
        return []

    def _server_hears_terminal(self, msg):
        reply = self.server.handle(msg, self.clock.now)
        return [] if reply is None else [(S2T, reply)]

    def _terminal_hears_server(self, reply):
        out = self.terminal.handle_reply(reply, self.clock.now)
        if out is None:
            return []
        frame = out.encode()
        if isinstance(out, StartCharge) and self._vehicle is not None:
            self._session_frames.setdefault("start_charge", frame)
        return [(T2V, frame)]

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
        self._send(V2T, raw)
        return vehicle

    def _teardown(self, vehicle):
        """Stop any energy still flowing and bill it; abort a stuck vehicle;
        disarm the adversary's armed rules that this session left unused
        (an earlier drop can starve a sweep's tamper of its frame)."""
        vehicle.abort()
        while self.terminal.energy_on:
            self._stop_charge()
        self.script.disarm()
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
        self._send(T2S, report)
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

    def run_session(self, record, duration, budget=None):
        """One charge attempt, end to end, through the adversary. It returns
        the outcome; the `session` and `sessions` lines keep it in `outcomes`.

        Arguments and charge time are checked before anything happens:
        charging starts 1000 ms from now, and a session whose end t5 would not
        fit a 64-bit timestamp must not consume a nonce it can never bill for."""
        effective = checked_int("duration", duration)
        if budget is not None:
            checked_int("budget", budget)
        cutoff = self.budget_cutoff_ms(budget, self.registry.tariff_per_second)
        if cutoff is not None:
            effective = min(effective, cutoff)
        checked_int("charge time", effective, 0, TS_MAX - self.clock.now - 1000)
        self._advance(1000)
        vehicle = self._begin_session(record)
        if vehicle.phase is Phase.CHARGING:
            self._advance(effective)
            # the driver unplugs; the teardown stops the charge at this t5
            try:
                vehicle.unplug(self.clock.now)
            except ClockSkew:
                # a start time t2 after now, which only a forged start message
                # that passed a broken tag check gives: the vehicle stays
                # charging with no display, an outcome a check can fail on
                pass
        self._teardown(vehicle)
        t1, t5, amount = self._own_charge or (None, None, None)
        return SessionOutcome(
            index=len(self.outcomes),
            position=record.position,
            phase=vehicle.phase.value,
            reason=vehicle.fail_reason.label if vehicle.fail_reason else None,
            t1=t1,
            t2=vehicle.t2,
            t4=vehicle.t4,
            t5=t5,
            amount=amount,
            frames=dict(self._session_frames),
        )

    # -- adversary bulk actions -------------------------------------------

    def flood(self, count, style="wellformed"):
        """Forged open-link frames built without any key material. A
        well-formed one is the auth_request tag and one 64-byte draw from
        adversary_rng: the bytes AuthRequest(m3, mac, n_a).encode() gives
        for m3, mac and n_a drawn in turn, since the stream reads the same
        in one draw or three."""
        rng = self.adversary_rng
        for i in range(checked_int("flood count", count)):
            if style == "garbage" or (style == "mixed" and i % 2):
                length = 1 + rng.next_u64() % 96
                frame = rng.next_bytes(8 * ((length + 7) // 8))[:length]
            else:
                frame = _AUTH_TAG + rng.next_bytes(_AUTH_BODY_LEN)
            self._deliver(self.network.attacker_send(V2T, frame))

    def run_sweep(self, record, variant, mask=0x01):
        """One session per byte position of the chosen frame, with that
        position XOR-flipped in flight: the SessionOutcome of each, the
        position being its index in the list, kept in `sweeps[variant]`."""
        results = []
        for position in range(FRAME_LENGTHS[variant]):
            self.script.arm(variant, Tamper(position, mask))
            results.append(self.run_session(record, duration=2000))
        self.sweeps[variant] = results
        return results

    def probe_replay_start_charge(self, record):
        """The protocol has no vehicle-side freshness check on the terminal
        nonce: a recorded start message from an old session still verifies.
        Documented weakness; reported as such, never as FAIL."""
        first = self.run_session(record, duration=3000)
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
        self.script.arm("start_charge", Drop())
        vehicle = self._begin_session(record)
        fresh_t1 = self.terminal.active[-1].t1 if self.terminal.active else None
        self._deliver(self.network.replay_entry(seq))
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
        first = self.run_session(record, duration=3000)
        raw = first.frames.get("auth_request")
        if first.phase != "completed" or raw is None:
            self._check("probe splice-auth", False, "setup session failed")
            return
        old = decode_frame(raw)
        accepted_before = self.server.accepted
        forged = AuthRequest(m3=old.m3, mac=old.mac, n_a=self.adversary_rng.next_nonce())
        self._deliver(self.network.attacker_send(V2T, forged.encode()))
        held = self.server.accepted == accepted_before
        self._check(
            "probe splice-auth",
            held,
            "recorded frame with a fresh nonce does not authenticate"
            if held
            else "spliced frame was accepted",
        )

    # -- expectations ------------------------------------------------------

    def _check(self, name, ok, detail):
        self.checks.append(CheckResult(name, "PASS" if ok else "FAIL", detail))

    # an expect form's method returns (ok, detail); execute names the check after its line

    @staticmethod
    def _count(n, got, ok=True, detail=""):
        return ok and got == n, f"expected {n}, got {got}{detail}"

    def _expect_completed(self, n):
        return self._count(n, sum(o.phase == "completed" for o in self.outcomes))

    def _expect_aborted(self, n):
        return self._count(n, sum(o.phase == "aborted" for o in self.outcomes))

    def _expect_failed(self, n, reason):
        failed = [o.reason for o in self.outcomes if o.phase == "failed"]
        return self._count(n, len(failed) if reason is None else failed.count(reason.label))

    def _expect_accepted(self, n):
        return self._count(n, self.server.accepted)

    def _expect_rejected(self, n, reason):
        rejected = self.server.rejected
        return self._count(n, sum(rejected.values()) if reason is None else rejected.get(reason, 0))

    def _expect_invoices(self, n, total):
        issued = self.registry.invoices[self._invoices_start:]
        if total is None:
            return self._count(n, len(issued))
        amount = sum(inv.amount for inv in issued)
        detail = f"; total expected {total}, got {amount}"
        return self._count(n, len(issued), amount == total, detail)

    def _expect_registry_unchanged(self):
        if self._snapshot is None:
            return False, "no snapshot directive before this expect"
        same = self.registry.snapshot() == self._snapshot
        return same, "registry state matches snapshot" if same else "state drifted"

    def _expect_energy_off(self):
        return not self.terminal.energy_on, f"active charges: {len(self.terminal.active)}"

    def _expect_no_secrets(self, name):
        """name is ids, keys, or all (None)."""
        needles = []
        if name != "keys":
            needles += [("id", rec.id_a) for rec in self.registry.vehicles]
        if name != "ids":
            needles += [("key", rec.k_a) for rec in self.registry.vehicles]
            needles.append(("group-key", self.registry.group_key))
        frames = [e.frame for e in self.transcript if e.channel == INSECURE]
        hits = [label for label, needle in needles if any(needle in frame for frame in frames)]
        return (
            not hits,
            f"searched {len(frames)} open-link frames for {len(needles)} secrets"
            + (f"; leaked: {', '.join(hits)}" if hits else ""),
        )

    def _expect_fresh_frames(self):
        auth = [o.frames["auth_request"] for o in self.outcomes if "auth_request" in o.frames]
        start = [o.frames["start_charge"] for o in self.outcomes if "start_charge" in o.frames]
        problems = []
        for cls, frames in ((AuthRequest, auth), (StartCharge, start)):
            label = cls.variant
            for _, lo, hi in cls.layout.spans:
                parts = [f[lo:hi] for f in frames]
                if len(set(parts)) != len(parts):
                    problems.append(f"{label} bytes {lo}:{hi} repeat across sessions")
            # corresponding-position byte matches should stay at chance level
            for i in range(len(frames)):
                for j in range(i + 1, len(frames)):
                    same = sum(a == b for a, b in zip(frames[i][1:], frames[j][1:]))
                    if same > 5:
                        problems.append(
                            f"{label} sessions {i} and {j} share {same}/{cls.frame_len - 1}"
                            " byte positions"
                        )
        return (
            not problems,
            f"{len(auth)} auth + {len(start)} start frames compared"
            + ("; " + "; ".join(problems[:3]) if problems else ""),
        )

    def _expect_sweep(self, name):
        """name is no-charging or mac-invalid."""
        if not self.sweeps:
            return False, "no sweep ran before this expect"
        if name == "no-charging":
            bad = [
                (variant, position)
                for variant, results in self.sweeps.items()
                for position, o in enumerate(results)
                if o.phase in ("charging", "completed")
            ]
            return (
                not bad,
                f"{sum(len(r) for r in self.sweeps.values())} tampered sessions, "
                + (f"charging reached at {bad[:3]}" if bad else "none reached charging"),
            )
        results = self.sweeps.get("start_charge")
        if results is None:
            return False, "no start_charge sweep ran"
        bad = [
            position
            for position, o in enumerate(results)
            if (position == 0 and o.phase in ("charging", "completed"))
            or (position > 0 and o.reason != Reason.MAC_INVALID.label)
        ]
        return (
            not bad,
            "every tampered body byte fails the vehicle's tag check"
            if not bad
            else f"positions {bad[:5]} did not fail as mac_invalid",
        )

    # -- what the other directives do ---------------------------------------

    def _resolve_vehicle(self, ref):
        """The enrolled vehicle a reference of checked form names."""
        vehicles = self.registry.vehicles
        if not vehicles:
            raise ConfigError("registry has no enrolled vehicles")
        if ref == "*":
            return vehicles[0]
        if ref.startswith("#"):
            if int(ref[1:]) > len(vehicles):
                raise ConfigError(f"no vehicle {ref}")
            return vehicles[int(ref[1:]) - 1]
        try:
            return self.registry.find(bytes.fromhex(ref))
        except NotFound:
            raise ConfigError(f"no vehicle {ref}") from None

    def _session(self, vehicle, duration, budget):
        record = self._resolve_vehicle(vehicle)
        self.outcomes.append(self.run_session(record, duration=duration, budget=budget))

    def _sessions(self, count, vehicle, duration):
        record = self._resolve_vehicle(vehicle)
        for _ in range(count):
            self.outcomes.append(self.run_session(record, duration=duration))

    def _revoke(self, vehicle):
        self.registry.revoke(self._resolve_vehicle(vehicle).id_a)

    def _take_snapshot(self):
        self._snapshot = self.registry.snapshot()

    def _add_rule(self, rule):
        self.script.add_rule(rule)

    def _sweep(self, name, mask):
        """`sweep` names the frame to sweep, auth_request or start_charge."""
        self.run_sweep(self._resolve_vehicle("*"), name, mask)

    def _probe(self, name):
        """`probe NAME` calls probe_NAME, - read as _, on the first enrolled vehicle."""
        getattr(self, "probe_" + name.replace("-", "_"))(self._resolve_vehicle("*"))

    def _report(self, name):
        """`report nonce-store`, the one report."""
        sizes = ", ".join(
            f"{rec.id_a.hex()[:8]}..={len(rec.used_nonces)}" for rec in self.registry.vehicles
        )
        total = sum(len(rec.used_nonces) for rec in self.registry.vehicles)
        self.checks.append(
            CheckResult(
                f"report {name}", "INFO",
                f"stored nonces grow without bound: total={total} ({sizes})",
            )
        )

    def execute(self, scenario):
        """Run the steps in order; what step N raises gains `line N: `, and
        what an expect form returns is a check named after its line."""
        for lineno, tokens, method, args in scenario.steps:
            try:
                check = method(self, *args)
            except (ConfigError, InvalidInput, ScriptError) as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
            if check is not None:
                self._check(" ".join(tokens), *check)
        # a rule that never fired tested nothing; its line must not read as
        # a defense that held. Equal lines make equal rules, so a line's own
        # rule is found by identity
        for lineno, tokens, method, args in scenario.steps:
            if method is ScenarioRunner._add_rule and any(r is args[0] for r in self.script.rules):
                self._check(" ".join(tokens), False, f"line {lineno}: rule never fired")
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


# every directive but `scenario`, declared once: its usage
# `DIRECTIVE [FORM] ARG... [KEY=PLACEHOLDER]...`, then the runner method its
# line calls, the defaults of its options that are not None and, for a line
# whose arguments are checked together, the maker of the method's arguments
_DIRECTIVES = {
    "session VEHICLE [duration=MS] [budget=N]": (ScenarioRunner._session, {"duration": 5000}),
    "sessions COUNT VEHICLE [duration=MS]": (ScenarioRunner._sessions, {"duration": 5000}),
    "advance MS": (ScenarioRunner._advance, {}),
    "revoke VEHICLE": (ScenarioRunner._revoke, {}),
    "snapshot": (ScenarioRunner._take_snapshot, {}),
    "rule CHANNEL VARIANT [nth=K] ACTION": (ScenarioRunner._add_rule, {"nth": 1}, _rule),
    "flood COUNT [style=wellformed|garbage|mixed]": (ScenarioRunner.flood, {"style": "wellformed"}),
    "sweep auth_request|start_charge [mask=HH]": (ScenarioRunner._sweep, {"mask": 0x01}),
    "probe replay-start-charge|splice-auth": (ScenarioRunner._probe, {}),
    "report nonce-store": (ScenarioRunner._report, {}),
    "expect completed N": (ScenarioRunner._expect_completed, {}),
    "expect aborted N": (ScenarioRunner._expect_aborted, {}),
    "expect accepted N": (ScenarioRunner._expect_accepted, {}),
    "expect failed N [reason=LABEL]": (ScenarioRunner._expect_failed, {}),
    "expect rejected N [reason=LABEL]": (ScenarioRunner._expect_rejected, {}),
    "expect invoices N [total=AMOUNT]": (ScenarioRunner._expect_invoices, {}),
    "expect no-secrets [ids|keys|all]": (ScenarioRunner._expect_no_secrets, {}),
    "expect fresh-frames": (ScenarioRunner._expect_fresh_frames, {}),
    "expect registry-unchanged": (ScenarioRunner._expect_registry_unchanged, {}),
    "expect energy-off": (ScenarioRunner._expect_energy_off, {}),
    "expect sweep no-charging|mac-invalid": (ScenarioRunner._expect_sweep, {}),
}

# the one link each direction runs on
_LINK = {V2T: INSECURE, T2V: INSECURE, T2S: SECURE, S2T: SECURE}

# the receiver of each delivery, by direction: open-link receivers get a
# frame and decode it, protected-line receivers get the message itself
_RECEIVERS = {
    V2T: ScenarioRunner._terminal_hears_vehicle,
    T2V: ScenarioRunner._vehicle_hears_terminal,
    T2S: ScenarioRunner._server_hears_terminal,
    S2T: ScenarioRunner._terminal_hears_server,
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
