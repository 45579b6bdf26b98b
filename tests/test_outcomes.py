"""Session outcomes pinned field by field.

The golden digests in test_scenarios.py cover transcripts and report text,
which carry no outcome times. These pin (phase, reason, t1, t2, t4, t5,
amount) of every SessionOutcome, for the shipped scenarios and for scripts
where the adversary replays, delays or tampers with a session's frames.
There t1 and t5 are the start and stop times of the charge the terminal
opened for this session's own auth request, whichever frames it also heard
meanwhile; t2 and t4 are what the vehicle saw."""

import dataclasses
import hashlib
import json

import pytest

from evabs.scenario import ScenarioRunner, builtin_scenarios, parse_scenario, run_named_scenario

from conftest import seeded_registry

TWO_SESSIONS = "session * duration=5000\nsession * duration=5000\n"


def _fields(outcome):
    o = outcome
    return (o.phase, o.reason, o.t1, o.t2, o.t4, o.t5, o.amount)


def _digest(outcomes):
    text = json.dumps([_fields(o) for o in outcomes])
    return hashlib.sha256(text.encode()).hexdigest()


def _run(text, seed=1):
    runner = ScenarioRunner(seeded_registry(), seed=seed)
    runner.execute(parse_scenario(text))
    invoices = [(inv.t1, inv.t5, inv.amount) for inv in runner.registry.invoices]
    return [_fields(o) for o in runner.outcomes], invoices


# SHA-256 of the JSON list of outcome fields for every shipped scenario at
# seed 11 against seeded_registry()
OUTCOME_DIGESTS = {
    "cloning": "83e2a70ee0bd35ac76eaf18ff5503f733d8ed14ed29ad4cdae399032ab560a16",
    "desync": "e29ff90511c097ac669c6520667c64993272c80ffcf381688f8ebec9993541a2",
    "dos": "83e2a70ee0bd35ac76eaf18ff5503f733d8ed14ed29ad4cdae399032ab560a16",
    "eavesdrop": "d9135b44c361d4f456525ae2db74eb8000b68482cb15c606cd355496697cb274",
    "impersonation": "83e2a70ee0bd35ac76eaf18ff5503f733d8ed14ed29ad4cdae399032ab560a16",
    "physical-disclosure": "bd75058358d32955e681b4127f9becd46bf6c7c3c9f758994e0da5028e8d099a",
    "replay": "83e2a70ee0bd35ac76eaf18ff5503f733d8ed14ed29ad4cdae399032ab560a16",
    "tamper-m3": "99bddbe0ebd57cdcfd220be0c762805f750d65fb16fee906a6cf68f8a009ce60",
    "tamper-m8": "99bddbe0ebd57cdcfd220be0c762805f750d65fb16fee906a6cf68f8a009ce60",
    "traceability": "a1615cf8797c53092537a344f8b1643662e285c887c728fa835f91a7fc94fd37",
}

# SHA-256 over the outcome fields of all shipped scenarios, in
# builtin_scenarios() order, at seed 1
OUTCOME_DIGEST_SEED_1 = "9500a603d5bed7de5718f19c61c7b5d5db6ff622fd7179978f3667bc6d811d97"

COMPLETED_1000 = ("completed", None, 1000, 1000, 5000, 6000, 10)
COMPLETED_7000 = ("completed", None, 7000, 7000, 5000, 12000, 10)

# script -> (outcome fields, invoices as (t1, t5, amount)) at seed 1
ADVERSARIAL = {
    # the copy reaches the terminal second and the server refuses its nonce
    "rule insecure auth_request nth=1 replay\n": (
        [COMPLETED_1000, COMPLETED_7000],
        [(1000, 6000, 10), (7000, 12000, 10)],
    ),
    # seq 0 is the first session's auth request: a stale, refused copy
    "rule insecure auth_request nth=2 replay=0\n": (
        [COMPLETED_1000, COMPLETED_7000],
        [(1000, 6000, 10), (7000, 12000, 10)],
    ),
    # seq 3 is the first session's start message
    "rule insecure auth_request nth=2 replay=3\n": (
        [COMPLETED_1000, ("completed", None, 7000, 1000, 11000, 12000, 10)],
        [(1000, 6000, 10), (7000, 12000, 10)],
    ),
    "rule insecure auth_request nth=1 delay=3000\n": (
        [
            ("aborted", None, None, None, None, None, None),
            ("completed", None, 2000, 2000, 5000, 7000, 10),
        ],
        [(2000, 7000, 10), (7000, 7000, 0)],
    ),
    # the vehicle never charges, yet the terminal opened and closed a charge
    "rule insecure start_charge nth=1 tamper=20:01\n": (
        [
            ("failed", "mac_invalid", 1000, None, None, 1000, 0),
            ("completed", None, 2000, 2000, 5000, 7000, 10),
        ],
        [(1000, 1000, 0), (2000, 7000, 10)],
    ),
    "rule insecure start_charge nth=2 tamper=60:80\n": (
        [COMPLETED_1000, ("failed", "mac_invalid", 7000, None, None, 7000, 0)],
        [(1000, 6000, 10), (7000, 7000, 0)],
    ),
}


@pytest.mark.parametrize("name", builtin_scenarios())
def test_shipped_outcomes_match_digest(name):
    [report] = run_named_scenario(lambda: seeded_registry(), name, seed=11)
    assert _digest(report.outcomes) == OUTCOME_DIGESTS[name]


def test_shipped_outcomes_at_seed_1_match_digest():
    outcomes = []
    for name in builtin_scenarios():
        [report] = run_named_scenario(lambda: seeded_registry(), name, seed=1)
        outcomes.extend(report.outcomes)
    assert _digest(outcomes) == OUTCOME_DIGEST_SEED_1


@pytest.mark.parametrize("rule", list(ADVERSARIAL))
def test_adversarial_outcomes(rule):
    assert _run(rule + TWO_SESSIONS) == ADVERSARIAL[rule]


def test_replayed_start_message_shows_more_than_twice_the_metered_time():
    # seq 3, the first session's start message, is replayed right behind the
    # second auth request and reaches the vehicle before the fresh one: it
    # displays t4 = 11000 for a 5000 ms charge, billed as 5 s
    outcomes, invoices = _run("rule insecure auth_request nth=2 replay=3\n" + TWO_SESSIONS)
    _, _, t1, t2, t4, t5, amount = outcomes[1]
    assert (t1, t2, t4, t5) == (7000, 1000, 11000, 12000)
    assert invoices[1] == (7000, 12000, 10) and amount == 10


def test_delayed_auth_request_is_charged_apart_from_the_next_session():
    # the first session's request lands while the second session charges:
    # the terminal opens a zero-length charge for it, and the second
    # outcome keeps its own charge's t1 and t5
    outcomes, invoices = _run("rule insecure auth_request nth=1 delay=3000\n" + TWO_SESSIONS)
    assert [o[0] for o in outcomes] == ["aborted", "completed"]
    assert (outcomes[1][2], outcomes[1][5]) == (2000, 7000)
    assert invoices == [(2000, 7000, 10), (7000, 7000, 0)]


def test_charge_opened_between_sessions_is_stopped_first():
    # the first request lands after its session gave up, and its charge
    # meters until the next session stops both: that session's outcome
    # keeps its own charge's t1, t5 and amount (10 for its 5 s), not the
    # 22 billed for the earlier charge it stopped first
    outcomes, invoices = _run(
        "rule insecure auth_request nth=1 delay=600\n"
        "session *\nadvance 600\nadvance 5000\nsession *\n"
    )
    assert outcomes == [
        ("aborted", None, None, None, None, None, None),
        ("completed", None, 7600, 7600, 5000, 12600, 10),
    ]
    assert invoices == [(1600, 12600, 22), (7600, 12600, 10)]


def test_an_outcome_does_not_change_after_its_session_returns(monkeypatch):
    # the first request's charge opens during `advance`, after its session
    # ended: no outcome, the first one included, is touched by it
    copies = []
    run_session = ScenarioRunner.run_session

    def copying(self, *args, **kwargs):
        outcome = run_session(self, *args, **kwargs)
        copies.append(dataclasses.replace(outcome, frames=dict(outcome.frames)))
        return outcome

    monkeypatch.setattr(ScenarioRunner, "run_session", copying)
    runner = ScenarioRunner(seeded_registry(), seed=1)
    runner.execute(parse_scenario(
        "rule insecure auth_request nth=1 delay=600\nsession *\nadvance 600\nsession *\n"
    ))
    assert runner.server.accepted == 2 and len(runner.registry.invoices) == 2
    assert runner.outcomes == copies
    assert runner.outcomes[0].t1 is None


@pytest.mark.parametrize(
    "text",
    [
        "flood 20 style=mixed\n",
        "probe splice-auth\n",
        "probe replay-start-charge\n",
        "rule insecure start_charge nth=1 drop\nsession * duration=5000\n",
        "rule insecure auth_request nth=1 delay=600\nsession *\nadvance 600\n",
    ],
    ids=["flood", "probe-splice", "probe-replay", "dropped-start", "delayed-auth"],
)
def test_every_lookup_is_answered_before_the_step_returns(text):
    # the protected line is ideal, so no step leaves the terminal waiting
    # for a lookup reply, and nothing needs to clear terminal.pending
    runner = ScenarioRunner(seeded_registry(), seed=1)
    runner.execute(parse_scenario(text))
    assert not runner.terminal.pending
    assert runner.server.accepted + sum(runner.server.rejected.values()) > 0
