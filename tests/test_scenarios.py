"""Scenario language and runner tests, plus the shipped attack catalogue.

Every shipped scenario must end DEFENSE HELD: the only tolerated non-PASS
statuses are INFO (measurements) and EXPECTED-WEAKNESS (the documented
missing freshness check on the terminal nonce)."""

import ast
import functools
import hashlib
import inspect
import json
import logging
import pathlib
import re
from types import SimpleNamespace

import pytest

from evabs import crypto, scenario, wire
from evabs.channel import SECURE, Replay, Rule, Tamper
from evabs.errors import ConfigError, InvalidInput, InvalidSeed, ScriptError
from evabs.registry import Registry
from evabs.scenario import (
    SCENARIO_ALIASES,
    ScenarioRunner,
    builtin_scenarios,
    load_scenario,
    parse_scenario,
    run_named_scenario,
)
from evabs.wire import Reason, StartCharge

from conftest import seeded_registry

SHIPPED = [
    "cloning",
    "desync",
    "dos",
    "eavesdrop",
    "impersonation",
    "physical-disclosure",
    "replay",
    "tamper-m3",
    "tamper-m8",
    "traceability",
]

# SHA-256 of transcript.to_jsonl() + report.to_text() for every shipped
# scenario at seed 11 against seeded_registry(): a refactor that moves one
# transcript byte or one report character shows up here
GOLDEN = {
    "cloning": "88819cca5c6290d08b8becd38c843cee23a1d7ec43e8e01d530f5525e7c3eb5a",
    "desync": "bf6b098b724a5e21cc4ffcae787f877cc0493f47b5c7cbcd561abb237917e923",
    "dos": "ffbf706add90ee1d786ff59dd00bba451bb2bce645df382a776d653d9135666f",
    "eavesdrop": "974adfa444289493555106fdb7132da640f04587ecde29f79cca74f0d912cb8f",
    "impersonation": "f4d5e35107adf1b7b4892c6387a10abd162177c8466a3dac337046a669cd4694",
    "physical-disclosure": "d3c93f58736d7f567d84daa38855e64cf362bd59108827ede279852f859627d9",
    "replay": "6f60843ab881336e623db1ecbb34f47fc1d6ecdf8e20272c948b7ae6a8aabec4",
    "tamper-m3": "ff68859cc1ac884bb31330e4baa6273cdae8d9be12c7fcd7a72f11ef627f1872",
    "tamper-m8": "19c5f3fc80e66419845894487278802d8e42c077dda04605b3e3ce28f7d3b0eb",
    "traceability": "2bd620707eaace388ed2dc486e9d202e016084161d5182c3a1d3f584adb26227",
}

# SHA-256 of _unredacted_jsonl(transcript) for the same runs: the protected
# line keeps messages and encodes them only when an entry's frame is asked
# for, and these pin those bytes
GOLDEN_UNREDACTED = {
    "cloning": "a92530a3de3d526657a9c27c16d88ecbf7669445f0a7965f242b6463f938e8a6",
    "desync": "f5e6412fc75dddcf67ad66fb93f584ecb4a60a9f272ebfef3d8b7b59baa83698",
    "dos": "9ed618fbd330cc85255b1ac607583c3509cc5107bb6e304d5ab4ef53619aacd9",
    "eavesdrop": "bbfa8b58223924951d6661696565c03606f8456f9669ac83557ceaaab63501f0",
    "impersonation": "6b01dccb8f3f13552b4daf709aca284cfa30c9ed563e2e30a5fa18fc5896b2bb",
    "physical-disclosure": "e4b4acedea31e0cfde6c558edec78db3032d2c2cb09e693add5e731fbc574074",
    "replay": "c9e2222ea9839619e3b87f41b3697659ca81b7e577eb9a34a1ef04848aecdeaf",
    "tamper-m3": "2c1b54e0baf56185030fee2fffeb1c79d655825a75e52d2f08bac98642fa13d7",
    "tamper-m8": "0c332fd46818a27e90097be014d2f88d67fbb074c1b578422c36f86ea8f3f47e",
    "traceability": "51e6900087568a5980be2ee198967ebe3f01cdb5d7cc8468154253a996fdb8f4",
}


def _unredacted_jsonl(transcript):
    """The export with every frame's bytes, protected-line ones included,
    which the package itself never writes."""
    return "".join(
        json.dumps({**e.to_obj(), "frame": e.frame.hex()}) + "\n" for e in transcript
    )


# one malformed line each (the last line, where a case has two); every one
# is a ScriptError naming its line
BAD_LINES = [
    "teleport *\n",
    "scenario a b\n",
    "rule insecure auth_request nth=1 explode\n",
    "rule insecure auth_request nth=x drop\n",
    "rule carrier auth_request nth=1 drop\n",
    "session * venom=1\n",
    "session * duration=later\n",
    "sessions many *\n",
    "advance soon\n",
    "revoke\n",
    "flood 10 style=sideways\n",
    "flood lots\n",
    "sweep\n",
    "probe unknown-probe\n",
    "probe\n",
    "report unknown-report\n",
    "snapshot now\n",
    "expect completed\n",
    "expect completed abc\n",
    # only a failed outcome has a reason: these would always fail or pass
    "expect completed 1 reason=mac_invalid\n",
    "expect completed 0 reason=aborted\n",
    "expect aborted 1 reason=mac_invalid\n",
    "expect accepted\n",
    "expect rejected x\n",
    "expect rejected 1 reason=bogus\n",
    "expect invoices\n",
    "expect invoices 1 total=lots\n",
    "expect sweep bogus\n",
    "expect sweep\n",
    "sweep start_charge\nexpect sweep\n",
    "expect no-secrets bogus\n",
    "expect energy-off x\n",
    "expect registry-unchanged x\n",
    "expect fresh-frames x\n",
    "session * duration=-1\n",
    "session * budget=-5\n",
    "sessions -3 *\n",
    "sessions 2 * duration=-1\n",
    "advance -5\n",
    "flood -1\n",
    # rules that could never fire as written
    "rule insecure auth_request nth=0 drop\n",
    "rule insecure auth_request nth=-2 drop\n",
    "rule insecure auth_request delay=-50\n",
    "rule insecure auth_reqest drop\n",
    "rule secure lookup_reply drop\n",
    "rule secure lookup_request nth=1 drop\n",
    "rule insecure lookup_request drop\n",
    "rule insecure lookup_reply drop\n",
    "rule insecure charge_report drop\n",
    "rule insecure auth_request tamper=3:00\n",
    "rule insecure auth_request tamper=3:100\n",
    "rule insecure auth_request tamper=3:-1\n",
    "rule insecure auth_request tamper=65:01\n",
    "rule insecure start_charge tamper=65\n",
    "rule insecure failure_notice tamper=2\n",
    "rule insecure auth_request tamper=-1:01\n",
    "rule insecure auth_request replay=-1\n",
    "rule insecure auth_request nth=1\n",
    "rule insecure auth_request drop drop\n",
    "rule insecure auth_request inject=xyz\n",
    "rule insecure auth_request inject=\n",
    "sweep auth_request mask=-1\n",
    "sweep auth_request mask=00\n",
    "sweep auth_request mask=100\n",
    "sweep auth_request mask=zz\n",
    "sweep auth_reqest\n",
    "sweep lookup_reply\n",
    "expect completed -1\n",
    "expect accepted -1\n",
    "expect rejected -2 reason=unknown_vehicle\n",
    "expect invoices 1 total=-4\n",
    # a repeated KEY=VALUE would let the last one silently win
    "session * duration=1000 duration=2000\n",
    "expect invoices 1 total=2 total=3\n",
    "flood 1 style=garbage style=mixed\n",
    "sweep auth_request mask=01 mask=02\n",
    # vehicle references of no known form: after `session *`, run as written,
    # the session before would consume a nonce and issue an invoice first
    "session zz\n",
    "session #\u0662\n",  # an Arabic-Indic two is not `#2`
    "session #0\n",
    "session #02\n",
    "session #2x\n",
    "session **\n",
    f"session {'ab' * 15}\n",
    f"session {'ab' * 17}\n",
    "sessions 2 zz\n",
    "revoke zz\n",
    # numbers that int() reads: only ASCII decimal digits make one, and only
    # bare hex digits a mask
    "rule insecure auth_request nth=1 tamper=1:\n",
    "rule insecure auth_request nth=+1 drop\n",
    "rule insecure auth_request tamper=1:0x01\n",
    "rule insecure auth_request delay=1_0\n",
    "expect completed 1_0\n",
    "expect completed \u0662\n",
    "expect completed 1.0\n",
    "flood +3\n",
    "advance  \u0665\n",
    f"advance {'9' * 5000}\n",
    f"session #{'1' * 5000}\n",
    "sweep auth_request mask=0x01\n",
    "sweep auth_request mask=+1\n",
    # an option may stand anywhere, a positional only in its place
    "rule insecure drop auth_request\n",
    "session * duration=1 * \n",
]


def _runner(seed=3, **kwargs):
    return ScenarioRunner(seeded_registry(**kwargs), seed=seed)


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        scenario = parse_scenario("# nothing\n\n  # indented comment\nsession *\n")
        assert [tokens for _, tokens, _, _ in scenario.steps] == [["session", "*"]]

    def test_scenario_names_itself(self):
        assert parse_scenario("scenario my-run\n").name == "my-run"
        assert parse_scenario("session *\n", default_name="fallback").name == "fallback"

    def test_inline_comments(self):
        scenario = parse_scenario("session * duration=1000  # one second\n")
        assert scenario.steps[0][1] == ["session", "*", "duration=1000"]

    def test_ordinal_reference_is_not_a_comment(self):
        scenario = parse_scenario("session #2 duration=1000  # second car\n")
        assert scenario.steps[0][1] == ["session", "#2", "duration=1000"]

    def test_vehicle_reference_forms(self):
        registry = seeded_registry(vehicles=3)
        runner = ScenarioRunner(registry, seed=3)
        id_hex = registry.vehicles[2].id_a.hex()
        text = f"session *\nsession #2\nsession {id_hex}\nsession {id_hex.upper()}\n"
        runner.execute(parse_scenario(text))
        want = [registry.vehicles[i].id_a for i in (0, 1, 2, 2)]
        assert [o.id_a for o in runner.outcomes] == want

    @pytest.mark.parametrize("text", BAD_LINES)
    def test_bad_directives_raise(self, text):
        with pytest.raises(ScriptError, match=r"^line \d+: "):
            _runner().execute(parse_scenario(text))

    def test_action_grammar(self):
        text = (
            "rule insecure auth_request nth=1 drop\n"
            "rule insecure auth_request nth=2 delay=500\n"
            "rule insecure auth_request nth=3 tamper=4:0f\n"
            "rule insecure auth_request nth=4 tamper=4\n"
            "rule insecure auth_request nth=5 replay\n"
            "rule insecure auth_request nth=6 replay=0\n"
            "rule insecure auth_request nth=7 inject=0102\n"
        )
        runner = _runner()
        runner.execute(parse_scenario(text))
        assert len(runner.script.rules) == 7

    @pytest.mark.parametrize(
        "line, rule",
        [
            ("rule insecure start_charge replay=4", Rule("start_charge", 1, Replay(4))),
            # a tamper with no mask flips every bit
            ("rule insecure auth_request nth=3 tamper=7", Rule("auth_request", 3, Tamper(7, 0xFF))),
        ],
    )
    def test_rule_line_arms_the_rule_it_made_when_parsed(self, line, rule):
        [(_, _, method, args)] = parse_scenario(line).steps
        assert method is ScenarioRunner._add_rule
        assert args == (rule,)

    @pytest.mark.parametrize(
        "line, same_as",
        [
            ("rule insecure auth_request drop nth=2", "rule insecure auth_request nth=2 drop"),
            ("rule nth=2 insecure auth_request drop", "rule insecure auth_request nth=2 drop"),
            ("session duration=700 *", "session * duration=700"),
            ("session budget=3 * duration=700", "session * duration=700 budget=3"),
            ("sweep mask=0f start_charge", "sweep start_charge mask=0f"),
            ("expect failed reason=mac_invalid 2", "expect failed 2 reason=mac_invalid"),
        ],
    )
    def test_an_option_may_stand_anywhere_after_the_row_words(self, line, same_as):
        [step], [want] = parse_scenario(line).steps, parse_scenario(same_as).steps
        assert step[2:] == want[2:]

    def test_highest_tamper_index_and_mask_are_accepted(self):
        runner = _runner()
        runner.execute(
            parse_scenario(
                "rule insecure start_charge tamper=64:ff\n"
                "rule insecure failure_notice tamper=1:01\n"
            )
        )
        assert [rule.action.index for rule in runner.script.rules] == [64, 1]

    @pytest.mark.parametrize("text", BAD_LINES)
    def test_bad_rule_or_sweep_is_refused_at_parse_time(self, text):
        # the session on line 1 would consume a nonce; a line that can never
        # act as written must stop the scenario before any line runs
        lineno = text.count("\n") + 1
        with pytest.raises(ScriptError, match=rf"^line {lineno}: "):
            parse_scenario(f"session *\n{text}")


class TestUnfiredRules:
    def test_rule_that_never_fires_breaches(self):
        report = _runner().execute(
            parse_scenario(
                "rule insecure auth_request nth=5 drop\n"
                "session *\n"
                "expect completed 1\n"
            )
        )
        assert report.verdict == "DEFENSE BREACHED"
        [failed] = [c for c in report.checks if c.status == "FAIL"]
        assert failed.name == "rule insecure auth_request nth=5 drop"
        assert failed.detail == "line 1: rule never fired"
        # the expectation itself held: only the vacuous rule fails the run
        assert [c.status for c in report.checks] == ["PASS", "FAIL"]

    def test_rule_armed_after_its_occurrence_breaches(self):
        # nth counts from run start, so a first-occurrence rule armed after
        # the first session can never match
        report = _runner().execute(
            parse_scenario("session *\nrule insecure auth_request drop\nsession *\n")
        )
        assert [(c.name, c.detail) for c in report.checks] == [
            ("rule insecure auth_request drop", "line 2: rule never fired")
        ]

    def test_a_second_run_names_its_own_rule_lines(self):
        runner = _runner()
        runner.execute(parse_scenario("rule insecure auth_request nth=9 drop\n"))
        report = runner.execute(parse_scenario("# a note\nrule insecure start_charge drop\n"))
        assert [(c.name, c.detail) for c in report.checks] == [
            ("rule insecure auth_request nth=9 drop", "line 1: rule never fired"),
            ("rule insecure start_charge drop", "line 2: rule never fired"),
        ]

    def test_fired_rules_add_no_check(self):
        report = _runner().execute(
            parse_scenario(
                "rule insecure auth_request nth=1 drop\n"
                "rule insecure start_charge nth=1 tamper=2:ff\n"
                "session *\nsession *\nexpect aborted 1\nexpect failed 1\n"
            )
        )
        assert report.held
        assert [c.name for c in report.checks] == ["expect aborted 1", "expect failed 1"]

    @pytest.mark.parametrize("name", ["desync", "replay"])
    def test_every_shipped_rule_fires(self, name):
        [report] = run_named_scenario(lambda: seeded_registry(), name, seed=11)
        assert not any(c.name.startswith("rule ") for c in report.checks)


DECLARED = list(scenario._DIRECTIVES)


def _named_by(usage):
    """The words of a usage that name its row: the row _select picks for
    them must be the usage's own."""
    selected, count = scenario._select(usage.split())
    assert selected == usage
    return count


class TestGrammarTable:
    """Every directive but `scenario` is declared once, by its usage: one
    row of scenario._DIRECTIVES, for `rule` and each `expect` form too."""

    @pytest.mark.parametrize("usage", DECLARED)
    def test_usage_is_the_error_and_the_docs(self, usage):
        head = " ".join(usage.split()[:_named_by(usage)])
        with pytest.raises(ScriptError, match=rf"^line 1: .*; usage: {re.escape(usage)}$"):
            parse_scenario(f"{head} ! ! ! !\n")
        doc = scenario.__doc__
        grammar = doc[doc.index("Grammar"):doc.index("VEHICLE is")]
        assert re.search(rf"^    {re.escape(usage)}(  |$)", grammar, re.M)
        assert f"`{usage}`" in _readme_scenario_files()

    @pytest.mark.parametrize("text", BAD_LINES)
    def test_every_malformed_line_ends_in_its_usage(self, text):
        # but for `scenario` and a word that names no directive
        line = text.splitlines()[-1]
        with pytest.raises(ScriptError) as error:
            parse_scenario(text)
        if line.split()[0] in ("scenario", "teleport"):
            return
        usage = str(error.value).rpartition("; usage: ")[2]
        assert usage in DECLARED
        assert line.split()[:_named_by(usage)] == usage.split()[:_named_by(usage)]

    @pytest.mark.parametrize("line", ["expect", "expect bogus"])
    def test_an_unknown_form_lists_the_forms(self, line):
        forms = "|".join(usage.split()[1] for usage in DECLARED if usage.startswith("expect "))
        with pytest.raises(ScriptError, match=rf"; usage: expect {re.escape(forms)} \.\.\.$"):
            parse_scenario(f"{line}\n")

    def test_readme_example_parses(self):
        [example] = re.findall(r"```\n(.*?)```", _readme_scenario_files(), re.S)
        assert parse_scenario(example).name == "replay"

    @pytest.mark.parametrize("usage", DECLARED)
    def test_row_matches_its_method(self, usage):
        method, defaults, *make = scenario._DIRECTIVES[usage]
        words = [arg for arg in usage.split()[_named_by(usage):] if "=" not in arg]
        # a bracketed word list is a positional that may be left out, so only
        # the last positional may be one
        assert not any(arg.startswith("[") for arg in words[:-1])
        positionals = [arg.strip("[]") for arg in words]
        options = dict(re.findall(r"\[(\w+)=(\S+)\]", usage))
        # the positionals, then the options, in the order of the usage, go by
        # position to the row's maker if it has one, else to the method after
        # self. A positional is named after its placeholder, or is `name`
        # when it takes one of a list of words
        names = [p.lower() if p in scenario._VALUES else "name" for p in positionals]
        names += options
        signature = inspect.signature(make[0] if make else functools.partial(method, None))
        params = list(signature.parameters.values())
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        assert [p.name for p in params] == names
        signature.bind(*names)
        assert defaults.keys() <= options.keys()
        # a named placeholder must have a value parser, else it reads as a word
        for placeholder in [*positionals, *options.values()]:
            assert placeholder in scenario._VALUES or placeholder.islower()


def _readme_scenario_files():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("\n## Scenario files\n")
    return readme[start:readme.index("\n## ", start + 1)]


@pytest.mark.parametrize("variant", ["auth_request", "start_charge"])
def test_repeated_frames_name_the_byte_spans_of_their_fields(variant):
    # a tag byte, then a block, a MAC tag and a nonce
    runner = _runner()
    runner.execute(parse_scenario("session *\nsession *\n"))
    frame = runner.outcomes[0].frames[variant]
    runner.outcomes.append(SimpleNamespace(frames={variant: frame}))
    runner.execute(parse_scenario("expect fresh-frames\n"))
    [check] = runner.checks
    assert check.status == "FAIL"
    assert check.detail.split("; ")[1:] == [
        f"{variant} bytes {span} repeat across sessions" for span in ("1:17", "17:49", "49:65")
    ]


@pytest.mark.parametrize(
    "text, detail",
    [
        ("expect registry-unchanged\n", "no snapshot directive before this expect"),
        ("expect sweep no-charging\n", "no sweep ran before this expect"),
        ("sweep auth_request\nexpect sweep mac-invalid\n", "no start_charge sweep ran"),
    ],
    ids=["no-snapshot", "no-sweep", "no-start-charge-sweep"],
)
def test_expect_with_nothing_to_compare_fails_saying_what_is_missing(text, detail):
    runner = _runner()
    runner.execute(parse_scenario(text))
    assert [(c.status, c.detail) for c in runner.checks] == [("FAIL", detail)]


def test_terminal_ignores_a_vehicle_link_frame_that_is_not_an_auth_request():
    # a failure notice decodes, but only an auth request makes a lookup
    runner = _runner()
    runner._deliver(runner.network.attacker_send(scenario.V2T, bytes.fromhex("0601")))
    assert not runner.terminal.pending
    assert [e.channel for e in runner.transcript] == ["insecure"]
    assert runner.server.accepted == 0 and not runner.server.rejected


class TestStepRefusalsNameTheLine:
    """What only a running step can refuse keeps its error class, so the
    exit code is unchanged, and names the step's line."""

    @pytest.mark.parametrize(
        "seq, message",
        [("99", "replay references seq 99 "), ("1", "cannot replay protected-line frames")],
    )
    def test_refused_replay_records_no_trigger(self, seq, message):
        runner = _runner()
        text = f"rule insecure auth_request nth=2 replay={seq}\nsession *\nsession *\n"
        with pytest.raises(ScriptError, match=rf"^line 3: {message}"):
            runner.execute(parse_scenario(text))
        # the second session's auth request was the trigger: not recorded
        auth = [e for e in runner.transcript if wire.frame_variant(e.frame) == "auth_request"]
        assert len(auth) == 1

    def test_charge_time_out_of_range(self):
        with pytest.raises(InvalidInput, match=r"^line 1: charge time "):
            _runner().execute(parse_scenario("session * duration=18446744073709551000\n"))

    @pytest.mark.parametrize(
        "ref, message",
        [
            ("#9", "no vehicle #9"),
            ("ff" * 16, "no vehicle ff"),
        ],
    )
    def test_vehicle_reference(self, ref, message):
        # only whether a reference of good form names an enrolled vehicle
        # waits for the run; a bad form is refused by parse_scenario
        with pytest.raises(ConfigError, match=rf"^line 3: {message}"):
            _runner().execute(parse_scenario(f"# a note\n\nsessions 2 {ref}\n"))

    def test_empty_registry(self):
        with pytest.raises(ConfigError, match="^line 1: registry has no enrolled vehicles"):
            _runner(vehicles=0).execute(parse_scenario("probe splice-auth\n"))


def test_only_the_line_loops_name_a_line():
    # parse_scenario and ScenarioRunner.execute add `line N: ` to what a
    # line raises, and execute names an unfired rule's line: no other
    # function in the module takes a line number or writes one
    takes, naming = [], []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
                if isinstance(child, ast.FunctionDef):
                    a = child.args
                    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                    if "lineno" in [p.arg for p in params if p]:
                        takes.append(name)
                visit(child, name)
                continue
            if isinstance(child, ast.JoinedStr):
                head = child.values[0] if child.values else None
                if isinstance(head, ast.Constant) and head.value.startswith("line "):
                    naming.append(owner)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if re.match(r"line \S*:", child.value):
                    naming.append(owner)
            visit(child, owner)

    visit(ast.parse(pathlib.Path(scenario.__file__).read_text()), "")
    assert takes == []
    assert naming == ["parse_scenario", "ScenarioRunner.execute", "ScenarioRunner.execute"]


class TestSecureLineCarriesMessages:
    """The protected line passes wire messages; only the open link's frames
    are encoded and decoded on the way."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"decode": 0, "encode": 0}
        decode = scenario.decode_frame

        def counted_decode(frame):
            counts["decode"] += 1
            return decode(frame)

        monkeypatch.setattr(scenario, "decode_frame", counted_decode)
        monkeypatch.setattr(wire, "decode_frame", counted_decode)
        for cls in (
            wire.AuthRequest, wire.LookupRequest, wire.LookupReply,
            wire.StartCharge, wire.ChargeReport, wire.FailureNotice,
        ):
            def counted_encode(msg, encode=cls.encode):
                counts["encode"] += 1
                return encode(msg)

            monkeypatch.setattr(cls, "encode", counted_encode)
        return counts

    def test_honest_session_codec_calls(self, calls):
        runner = _runner()
        outcome = runner.run_session(runner.registry.vehicles[0], duration=90_000)
        assert outcome.phase == "completed"
        # decoded: auth_request at the terminal, start_charge at the vehicle;
        # encoded: the same two frames, each once
        assert calls == {"decode": 2, "encode": 2}

    def test_forged_flood_codec_calls(self, calls):
        runner = _runner()
        runner.flood(2, "mixed")
        assert sum(runner.server.rejected.values()) == 1
        # decoded: the forged auth_request and the garbage frame, not the
        # failure_notice no vehicle hears; encoded: the failure_notice, since
        # the forged frame is drawn as bytes
        assert calls == {"decode": 2, "encode": 1}

    def test_secure_entries_hold_messages(self):
        runner = _runner()
        runner.run_session(runner.registry.vehicles[0], duration=2000)
        secure = [e for e in runner.transcript if e.channel == SECURE]
        assert [type(e.payload) for e in secure] == [
            wire.LookupRequest, wire.LookupReply, wire.ChargeReport,
        ]
        for entry in secure:
            assert wire.decode_frame(entry.frame) == entry.payload


class TestLoading:
    def test_shipped_catalogue(self):
        assert builtin_scenarios() == SHIPPED

    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_shipped_file_loads(self, name):
        scenario = load_scenario(name)
        assert scenario.name == name
        assert scenario.steps

    def test_alias_must_be_expanded_first(self):
        with pytest.raises(ConfigError):
            load_scenario("mitm")

    def test_unknown_name_lists_shipped(self):
        with pytest.raises(ConfigError) as err:
            load_scenario("no-such-attack")
        for name in SHIPPED:
            assert name in str(err.value)

    def test_user_file_loads_by_path(self, tmp_path):
        path = tmp_path / "custom.scn"
        path.write_text("session * duration=1000\nexpect completed 1\n")
        scenario = load_scenario(str(path))
        assert scenario.name == "custom"
        report = _runner().execute(scenario)
        assert report.held


class TestBudgetCutoff:
    @pytest.mark.parametrize(
        "budget,tariff,cutoff",
        [
            (None, 2, None),
            (4, 0, None),
            (4, 2, 2000),  # accrued cost reaches 4 when the 2nd second completes
            (5, 2, 3000),
            (1, 3, 1000),
            (6, 3, 2000),
            (2 * 7, 7, 2000),
        ],
    )
    def test_first_instant_cost_reaches_budget(self, budget, tariff, cutoff):
        assert ScenarioRunner.budget_cutoff_ms(budget, tariff) == cutoff


class TestRunnerSessions:
    def test_honest_session_completes(self):
        runner = _runner()
        record = runner.registry.vehicles[0]
        outcome = runner.run_session(record, duration=90_000)
        assert outcome.phase == "completed"
        assert outcome.t2 == outcome.t1
        assert outcome.t4 == 90_000
        assert outcome.amount == 180
        assert runner.server.accepted == 1
        assert not runner.terminal.energy_on

    def test_logs_hold_no_id_or_key(self, caplog):
        caplog.set_level(logging.DEBUG, logger="evabs")
        runner = _runner()
        outcome = runner.run_session(runner.registry.vehicles[0], duration=90_000)
        assert outcome.phase == "completed"
        assert caplog.messages
        vehicles = runner.registry.vehicles
        secrets = [rec.id_a.hex() for rec in vehicles] + [rec.k_a.hex() for rec in vehicles]
        secrets.append(runner.registry.group_key.hex())
        for message in caplog.messages:
            assert not any(secret in message.lower() for secret in secrets), message

    def test_budget_stops_the_session_early(self):
        runner = _runner()
        record = runner.registry.vehicles[0]
        outcome = runner.run_session(record, duration=10_000, budget=4)
        assert outcome.phase == "completed"
        assert outcome.t4 == 2000
        assert outcome.amount == 4

    @pytest.mark.parametrize(
        "duration, budget",
        [(-1, None), (2**64 - 1000, None), (1500.0, None), (True, None), (5000, 3.5)],
    )
    def test_charge_time_is_checked_before_the_session_starts(
        self, tmp_path, duration, budget
    ):
        path = tmp_path / "registry.json"
        seeded_registry().save(path)
        with Registry.open(path) as registry:
            runner = ScenarioRunner(registry, seed=3)
            before = registry.snapshot()
            with pytest.raises(InvalidInput):
                runner.run_session(registry.vehicles[0], duration=duration, budget=budget)
            assert registry.snapshot() == before
            assert not runner.terminal.energy_on
        assert Registry.load(path).snapshot() == before
        assert runner.clock.now == 0
        assert len(runner.transcript) == 0

    def test_budget_larger_than_session_is_inert(self):
        runner = _runner()
        record = runner.registry.vehicles[0]
        outcome = runner.run_session(record, duration=3000, budget=10**9)
        assert outcome.t4 == 3000

    def test_dropped_auth_aborts(self):
        runner = _runner()
        runner.execute(parse_scenario("rule insecure auth_request nth=1 drop\nsession *\n"))
        assert runner.outcomes[0].phase == "aborted"
        assert runner.server.accepted == 0

    def test_tampered_auth_fails_unknown_vehicle(self):
        runner = _runner()
        runner.execute(parse_scenario("rule insecure auth_request nth=1 tamper=2:ff\nsession *\n"))
        outcome = runner.outcomes[0]
        assert (outcome.phase, outcome.reason) == ("failed", "unknown_vehicle")

    def test_tampered_start_fails_mac_invalid(self):
        runner = _runner()
        runner.execute(parse_scenario("rule insecure start_charge nth=1 tamper=2:ff\nsession *\n"))
        outcome = runner.outcomes[0]
        assert (outcome.phase, outcome.reason) == ("failed", "mac_invalid")
        # the terminal had energy on until the refusal came back, so it
        # reports the zero interval it metered and a no-cost invoice lands
        assert outcome.amount == 0
        assert [inv.amount for inv in runner.registry.invoices] == [0]

    def test_replayed_auth_is_rejected_offline(self):
        runner = _runner()
        runner.execute(parse_scenario("rule insecure auth_request nth=1 replay\nsession *\n"))
        assert runner.outcomes[0].phase == "completed"
        assert runner.server.rejected[Reason.REPLAY_DETECTED] == 1

    def test_delayed_auth_arrives_later(self):
        runner = _runner()
        runner.execute(
            parse_scenario(
                "rule insecure auth_request nth=1 delay=600\nsession *\nadvance 600\n"
            )
        )
        # held back past the session window: the vehicle gave up waiting,
        # but the untampered frame still authenticates when it lands
        assert runner.outcomes[0].phase == "aborted"
        assert runner.server.accepted == 1
        # only two transcript entries carry the frame: the held-back send and
        # nothing else; delivery from the delay queue is not a new send
        held = [e for e in runner.transcript if e.adversary_action]
        assert [e.adversary_action["kind"] for e in held] == ["delayed"]

    @pytest.mark.parametrize("count", [-1, 1.5])
    def test_flood_refuses_a_count_before_any_draw(self, count):
        runner = _runner()
        state = runner.adversary_rng.state
        with pytest.raises(InvalidInput):
            runner.flood(count)
        assert runner.adversary_rng.state == state

    def test_flood_leaves_registry_unchanged(self):
        runner = _runner()
        before = runner.registry.snapshot()
        runner.flood(200, style="mixed")
        assert runner.registry.snapshot() == before
        assert runner.server.accepted == 0
        record = runner.registry.vehicles[0]
        assert runner.run_session(record, duration=2000).phase == "completed"

    def test_sweep_covers_every_byte_position(self):
        runner = _runner()
        record = runner.registry.vehicles[0]
        results = runner.run_sweep(record, "auth_request")
        assert len(results) == 65
        assert [r["position"] for r in results] == list(range(65))
        assert all(r["phase"] != "charging" for r in results)
        assert runner.outcomes == []  # sweep sessions stay out of outcomes
        assert "auth_request" in runner.sweeps

    def test_probe_replay_start_charge_reports_weakness(self):
        runner = _runner()
        runner.probe_replay_start_charge(runner.registry.vehicles[0])
        [check] = runner.checks
        assert check.name == "probe replay-start-charge"
        assert check.status == "EXPECTED-WEAKNESS"
        assert "stale start message accepted" in check.detail

    def test_probe_replays_the_stale_start_message_once(self):
        # the replayed copy reaches the vehicle without going back on the
        # link, so no plain entry repeats it and no rule counts it
        runner = _runner()
        built = []
        handle_reply = runner.terminal.handle_reply

        def counting_handle_reply(msg, now):
            out = handle_reply(msg, now)
            if isinstance(out, StartCharge):
                built.append(out)
            return out

        runner.terminal.handle_reply = counting_handle_reply
        runner.probe_replay_start_charge(runner.registry.vehicles[0])
        [replayed] = [
            e for e in runner.transcript
            if (e.adversary_action or {}).get("kind") == "replayed"
        ]
        plain = [
            e.seq for e in runner.transcript
            if e.adversary_action is None and e.frame == replayed.frame
        ]
        assert plain == [replayed.adversary_action["of_seq"]]
        assert runner.script._counts["start_charge"] == len(built) == 2

    def test_probe_splice_auth_passes(self):
        runner = _runner()
        runner.probe_splice_auth(runner.registry.vehicles[0])
        [check] = runner.checks
        assert (check.name, check.status) == ("probe splice-auth", "PASS")

    def test_vehicle_references(self):
        registry = seeded_registry(vehicles=3)
        runner = ScenarioRunner(registry, seed=3)
        assert runner._resolve_vehicle("*") is registry.vehicles[0]
        assert runner._resolve_vehicle("#2") is registry.vehicles[1]
        hex_ref = registry.vehicles[2].id_a.hex()
        assert runner._resolve_vehicle(hex_ref) is registry.vehicles[2]
        with pytest.raises(ConfigError):
            runner._resolve_vehicle("#9")
        with pytest.raises(ConfigError):
            runner._resolve_vehicle("ff" * 16)

    def test_failed_expectation_breaches(self):
        report = _runner().execute(parse_scenario("session *\nexpect completed 2\n"))
        assert not report.held
        assert report.verdict == "DEFENSE BREACHED"
        assert "FAIL" in report.to_text()

    def test_invoice_expectations_ignore_registry_history(self):
        # a registry that has already billed honest sessions must not tip
        # invoice counts for a later scenario run
        registry = seeded_registry()
        warmup = ScenarioRunner(registry, seed=9)
        warmup.run_session(registry.vehicles[0], duration=2500)
        warmup.run_session(registry.vehicles[1], duration=500)
        assert len(registry.invoices) == 2
        report = ScenarioRunner(registry, seed=4).execute(
            parse_scenario("session #2 duration=4000\nexpect invoices 1 total=8\n")
        )
        assert report.held
        assert report.counters["invoices"] == 1

    def test_invoice_expectation_checks_count_and_total(self):
        report = _runner().execute(
            parse_scenario("session * duration=4000\nexpect invoices 1 total=9\n")
        )
        assert not report.held
        assert "total expected 9, got 8" in report.checks[0].detail


class TestVehicleStreams:
    """Vehicle K of the registry (0-based) draws its nonces from the stream
    seeded by output 2 + K of the runner seed's splitmix64 chain, in
    whatever order the vehicles are first used; a vehicle enrolled after the
    runner was made gets a stream derived from its id."""

    @staticmethod
    def _first_nonces(vseed, count):
        stream = crypto.NonceSource.from_seed(vseed)
        return [stream.next_nonce() for _ in range(count)]

    @pytest.mark.parametrize("seed", [True, -1, 2**64, 1.5])
    def test_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(InvalidSeed):
            ScenarioRunner(seeded_registry(), seed=seed)

    def test_first_use_order_does_not_change_any_stream(self):
        seed = 2**64 - 5  # the chain's state wraps past 2**64 within a few steps
        registry = seeded_registry(vehicles=6)
        runner = ScenarioRunner(registry, seed=seed)
        late = registry.register(bytes(range(16)), bytes(range(32, 64)))
        # the eager chain: terminal, adversary, then one seed per vehicle
        state, chain = seed, []
        for _ in range(2 + 6):
            state, out = crypto.splitmix64(state)
            chain.append(out)
        expected = {rec.id_a: self._first_nonces(vseed, 2)
                    for rec, vseed in zip(registry.vehicles, chain[2:])}
        late_seed = crypto.splitmix64(int.from_bytes(late.id_a[:8], "big") ^ seed)[1]
        expected[late.id_a] = self._first_nonces(late_seed, 2)
        vehicles = registry.vehicles
        order = [vehicles[4], vehicles[0], vehicles[5], vehicles[2], late, vehicles[4], late]
        for record in order:
            assert runner.run_session(record, duration=1000).phase == "completed"
        for record in registry.vehicles:
            uses = order.count(record)
            assert record.used_nonces == set(expected[record.id_a][:uses]), record.owner

    def test_runner_construction_derives_no_vehicle_stream(self, monkeypatch):
        registry = seeded_registry(vehicles=1000)
        calls = []
        splitmix64 = crypto.splitmix64

        def counting_splitmix64(state):
            calls.append(state)
            return splitmix64(state)

        def no_fleet_walk(registry):
            raise AssertionError("runner construction read every vehicle")

        # count the runner's own calls, not those inside NonceSource.from_seed
        monkeypatch.setattr(
            scenario, "crypto", SimpleNamespace(**{**vars(crypto), "splitmix64": counting_splitmix64})
        )
        with monkeypatch.context() as fleet:
            fleet.setattr(Registry, "vehicles", property(no_fleet_walk))
            runner = ScenarioRunner(registry, seed=11)
        assert len(calls) <= 2
        assert runner.run_session(registry.vehicles[999], duration=1000).phase == "completed"


class TestShippedScenarios:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_defense_holds(self, name):
        [report] = run_named_scenario(lambda: seeded_registry(), name, seed=11)
        statuses = {c.status for c in report.checks}
        assert report.held, report.to_text()
        assert statuses <= {"PASS", "INFO", "EXPECTED-WEAKNESS"}

    @pytest.mark.parametrize("name", SHIPPED)
    def test_transcript_and_report_match_golden_digest(self, name):
        [report] = run_named_scenario(lambda: seeded_registry(), name, seed=11)
        text = report.transcript.to_jsonl() + report.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]

    @pytest.mark.parametrize("name", SHIPPED)
    def test_unredacted_transcript_matches_golden_digest(self, name):
        [report] = run_named_scenario(lambda: seeded_registry(), name, seed=11)
        text = _unredacted_jsonl(report.transcript)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_UNREDACTED[name]

    def test_replay_scenario_documents_the_weakness(self):
        [report] = run_named_scenario(lambda: seeded_registry(), "replay", seed=11)
        weak = [c for c in report.checks if c.status == "EXPECTED-WEAKNESS"]
        assert [c.name for c in weak] == ["probe replay-start-charge"]

    def test_desync_counts(self):
        [report] = run_named_scenario(lambda: seeded_registry(), "desync", seed=11)
        phases = [o.phase for o in report.outcomes]
        assert phases.count("completed") == 3
        assert phases.count("aborted") == 2
        assert phases.count("failed") == 2
        assert report.counters["accepted"] == 5

    def test_mitm_alias_expands_to_both_tamper_runs(self):
        reports = run_named_scenario(lambda: seeded_registry(), "mitm", seed=11)
        assert [r.name for r in reports] == list(SCENARIO_ALIASES["mitm"])
        assert all(r.held for r in reports)

    @pytest.mark.parametrize("name", ["replay", "desync", "eavesdrop"])
    def test_transcripts_are_byte_identical_across_runs(self, name):
        def run():
            [report] = run_named_scenario(lambda: seeded_registry(), name, seed=5)
            return report

        first, second = run(), run()
        assert first.transcript.to_jsonl() == second.transcript.to_jsonl()
        assert first.to_obj() == second.to_obj()

    def test_different_seeds_differ(self):
        [a] = run_named_scenario(lambda: seeded_registry(), "replay", seed=1)
        [b] = run_named_scenario(lambda: seeded_registry(), "replay", seed=2)
        assert a.transcript.to_jsonl() != b.transcript.to_jsonl()
