"""Scenario language and runner tests, plus the shipped attack catalogue.

Every shipped scenario must end DEFENSE HELD: the only tolerated non-PASS
statuses are INFO (measurements) and EXPECTED-WEAKNESS (the documented
missing freshness check on the terminal nonce)."""

import hashlib
import logging

import pytest

from evabs.channel import INSECURE
from evabs.errors import ConfigError, InvalidInput, ScriptError
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


def _runner(seed=3, **kwargs):
    return ScenarioRunner(seeded_registry(**kwargs), seed=seed)


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        scenario = parse_scenario("# nothing\n\n  # indented comment\nsession *\n")
        assert [tokens for _, tokens in scenario.steps] == [["session", "*"]]

    def test_scenario_names_itself(self):
        assert parse_scenario("scenario my-run\n").name == "my-run"
        assert parse_scenario("session *\n", default_name="fallback").name == "fallback"

    def test_inline_comments(self):
        scenario = parse_scenario("session * duration=1000  # one second\n")
        assert scenario.steps[0][1] == ["session", "*", "duration=1000"]

    def test_ordinal_reference_is_not_a_comment(self):
        scenario = parse_scenario("session #2 duration=1000  # second car\n")
        assert scenario.steps[0][1] == ["session", "#2", "duration=1000"]

    @pytest.mark.parametrize(
        "text",
        [
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
            "expect completed\n",
            "expect completed abc\n",
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
        ],
    )
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

    @pytest.mark.parametrize("duration", [-1, 2**64 - 1000])
    def test_charge_time_is_checked_before_the_session_starts(self, duration):
        runner = _runner()
        before = runner.registry.snapshot()
        with pytest.raises(InvalidInput):
            runner.run_session(runner.registry.vehicles[0], duration=duration)
        assert runner.registry.snapshot() == before
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
        assert runner.script._counts[(INSECURE, "start_charge")] == len(built) == 2

    def test_probe_splice_auth_passes(self):
        runner = _runner()
        runner.probe_splice_auth(runner.registry.vehicles[0])
        [check] = runner.checks
        assert (check.name, check.status) == ("probe splice-auth", "PASS")

    def test_vehicle_references(self):
        registry = seeded_registry(vehicles=3)
        runner = ScenarioRunner(registry, seed=3)
        assert runner._resolve_vehicle("*", 1) is registry.vehicles[0]
        assert runner._resolve_vehicle("#2", 1) is registry.vehicles[1]
        hex_ref = registry.vehicles[2].id_a.hex()
        assert runner._resolve_vehicle(hex_ref, 1) is registry.vehicles[2]
        with pytest.raises(ConfigError):
            runner._resolve_vehicle("#9", 1)
        with pytest.raises(ConfigError):
            runner._resolve_vehicle("zz", 1)
        with pytest.raises(ConfigError):
            runner._resolve_vehicle("ff" * 16, 1)

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
