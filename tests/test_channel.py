"""Link simulation tests: clock, adversary rule matching, the checks a rule
makes when it is made, each action's observable effect, protected-line immunity, the protected line's messages
and their encoding on export, transcript redaction, and byte-for-byte
determinism."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evabs import channel
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
from evabs.errors import InvalidInput, ScriptError
from evabs.wire import LookupReply, LookupRequest, Reason

AUTH = bytes([0x01]) + bytes(range(64))
START = bytes([0x04]) + bytes(range(64))
LOOKUP = bytes([0x02]) + bytes(32)
# the protected line carries messages; this one encodes to LOOKUP
LOOKUP_MSG = LookupRequest(m5=bytes(16), n_a=bytes(16))


def _network(rules=()):
    net = Network()
    for rule in rules:
        net.script.add_rule(rule)
    return net


class TestSimClock:
    def test_advances_monotonically(self):
        clock = SimClock()
        assert clock.advance(5) == 5
        assert clock.advance(0) == 5
        assert clock.now == 5

    def test_rejects_backwards_or_fractional(self):
        clock = SimClock()
        with pytest.raises(InvalidInput):
            clock.advance(-1)
        with pytest.raises(InvalidInput):
            clock.advance(1.5)

    def test_rejects_a_bool(self):
        with pytest.raises(InvalidInput):
            SimClock().advance(True)


class TestDelivery:
    def test_plain_delivery_records_no_action(self):
        net = _network()
        assert net.send(INSECURE, "to_terminal", AUTH) == [("to_terminal", AUTH)]
        entry = net.transcript.get(0)
        assert entry.adversary_action is None
        assert entry.frame == AUTH
        assert entry.seq == 0

    def test_secure_line_delivers_and_ignores_script(self):
        # the message is neither acted on nor counted: the first open-link
        # frame is still the rule's nth=1
        net = _network([Rule("auth_request", 1, Drop())])
        assert net.send(SECURE, "to_server", LOOKUP_MSG) == [("to_server", LOOKUP_MSG)]
        assert net.transcript.get(0).adversary_action is None
        assert net.send(INSECURE, "to_terminal", AUTH) == []

    @pytest.mark.parametrize("raw", [LOOKUP, bytearray(LOOKUP), memoryview(LOOKUP)])
    def test_secure_line_refuses_bytes(self, raw):
        net = _network()
        with pytest.raises(InvalidInput, match="messages, not bytes"):
            net.send(SECURE, "to_server", raw)
        assert len(net.transcript) == 0

    def test_secure_line_keeps_the_message_and_encodes_on_demand(self, monkeypatch):
        net = _network()
        [(_, delivered)] = net.send(SECURE, "to_server", LOOKUP_MSG)
        entry = net.transcript.get(0)
        assert delivered is LOOKUP_MSG and entry.payload is LOOKUP_MSG
        assert entry.frame == LOOKUP
        # the redacted export names the variant and length without encoding
        def refuse(msg):
            raise AssertionError("redacted export encoded a protected-line message")

        monkeypatch.setattr(LookupRequest, "encode", refuse)
        [line] = [json.loads(l) for l in net.transcript.to_jsonl().splitlines()]
        assert (line["variant"], line["len"], line["frame"]) == ("lookup_request", 33, None)

    @pytest.mark.parametrize("bad", [65, [1, 2, 3], "frame"], ids=["int", "list", "str"])
    def test_open_link_refuses_non_bytes(self, bad):
        net = _network()
        with pytest.raises(InvalidInput, match="^frame must be bytes-like"):
            net.send(INSECURE, "to_terminal", bad)
        with pytest.raises(InvalidInput, match="^frame must be bytes-like"):
            net.attacker_send("to_terminal", bad)
        assert len(net.transcript) == 0

    def test_unknown_channel_rejected(self):
        net = _network()
        with pytest.raises(InvalidInput):
            net.send("carrier_pigeon", "to_terminal", AUTH)

    def test_sequence_numbers_strictly_increase(self):
        net = _network()
        for _ in range(5):
            net.send(INSECURE, "to_terminal", AUTH)
        assert [e.seq for e in net.transcript] == [0, 1, 2, 3, 4]


class TestRuleMatching:
    def test_nth_counts_per_variant_from_run_start(self):
        rules = [Rule("auth_request", 3, Drop())]
        net = _network(rules)
        assert net.send(INSECURE, "to_terminal", AUTH) != []
        assert net.send(INSECURE, "to_terminal", START) != []  # other variant
        assert net.send(INSECURE, "to_terminal", AUTH) != []
        assert net.send(INSECURE, "to_terminal", AUTH) == []  # third auth
        assert net.send(INSECURE, "to_terminal", AUTH) != []

    def test_rule_fires_at_most_once(self):
        rules = [Rule("auth_request", 1, Drop())]
        net = _network(rules)
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.send(INSECURE, "to_terminal", AUTH) != []

    def test_first_matching_rule_wins(self):
        rules = [
            Rule("auth_request", 1, Drop()),
            Rule("auth_request", 1, Tamper(index=0, mask=0xFF)),
        ]
        net = _network(rules)
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.transcript.get(0).adversary_action == {"kind": "dropped"}

    def test_armed_rule_matches_next_occurrence(self):
        net = _network()
        script = net.script
        net.send(INSECURE, "to_terminal", AUTH)
        script.arm("auth_request", Drop())
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.send(INSECURE, "to_terminal", AUTH) != []

    def test_rules_armed_before_one_frame_fire_on_the_next_frames(self):
        net = _network()
        net.send(INSECURE, "to_terminal", AUTH)
        net.script.arm("auth_request", Drop())
        net.script.arm("auth_request", Tamper(index=1, mask=1))
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        [(_, tampered)] = net.send(INSECURE, "to_terminal", AUTH)
        assert tampered != AUTH
        assert net.send(INSECURE, "to_terminal", AUTH) == [("to_terminal", AUTH)]

    def test_disarmed_rule_no_longer_matches(self):
        net = _network()
        script = net.script
        script.arm("auth_request", Drop())
        script.disarm()
        assert net.send(INSECURE, "to_terminal", AUTH) != []

    def test_a_rule_leaves_the_script_when_it_fires(self):
        rules = [
            Rule("auth_request", 1, Drop()),
            Rule("auth_request", 3, Drop()),
            Rule("start_charge", 1, Drop()),
        ]
        net = _network(rules)
        script = net.script
        assert script.rules == rules
        net.send(INSECURE, "to_terminal", AUTH)
        net.send(INSECURE, "to_terminal", AUTH)
        assert script.rules == rules[1:]

    def test_armed_rule_takes_priority_over_listed_rules(self):
        listed = Rule("auth_request", 1, Drop())
        net = _network([listed])
        net.script.arm("auth_request", Tamper(index=1, mask=1))
        out = net.send(INSECURE, "to_terminal", AUTH)
        assert out != [] and out[0][1] != AUTH
        # the listed rule's frame went by: it stays, never to fire
        assert net.script.rules == [listed]


class _ScriptModel:
    """What an adversary script does, written out plainly: a listed rule
    fires once, on the exact nth frame of its variant; armed rules fire in
    the order they were armed, on the next frames of their variant, ahead of
    listed rules; a fired rule is gone."""

    def __init__(self):
        self.listed = []  # (variant, nth, action), in list order
        self.armed = []  # (variant, action), in arming order
        self.counts = dict.fromkeys(VARIANTS, 0)

    def match(self, variant):
        self.counts[variant] += 1
        for i, (armed_variant, action) in enumerate(self.armed):
            if armed_variant == variant:
                del self.armed[i]
                return action
        for i, (listed_variant, nth, action) in enumerate(self.listed):
            if listed_variant == variant and nth == self.counts[variant]:
                del self.listed[i]
                return action
        return None


VARIANTS = ("auth_request", "start_charge")
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(VARIANTS), st.integers(1, 6)),
        st.tuples(st.just("arm"), st.sampled_from(VARIANTS)),
        st.tuples(st.just("disarm")),
        st.tuples(st.just("match"), st.sampled_from(VARIANTS)),
    ),
    max_size=40,
)


@given(_STEPS)
def test_script_matches_its_reference_model(steps):
    script, model = AdversaryScript(), _ScriptModel()
    for i, (op, *args) in enumerate(steps):
        action = Delay(i)  # a distinct action per step names the rule that fired
        if op == "add":
            script.add_rule(Rule(args[0], args[1], action))
            model.listed.append((args[0], args[1], action))
        elif op == "arm":
            script.arm(args[0], action)
            model.armed.append((args[0], action))
        elif op == "disarm":
            script.disarm()
            model.armed.clear()
        else:
            assert script.match(args[0]) == model.match(args[0])
        assert [(r.variant, r.nth, r.action) for r in script.rules] == model.listed


class TestRuleChecks:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Rule("auth_request", 1, Inject(frame=65)),
            # a zero-byte frame decodes as nothing, yet the rule would fire
            # and read as an attack that ran
            lambda: Rule("auth_request", 1, Inject(frame=b"")),
            lambda: Rule("auth_request", 1, Delay(-50)),
            lambda: Rule("lookup_request", 1, Drop()),
            lambda: Rule("auth_request", 0, Drop()),
            # a rule with no nth could never fire
            lambda: Rule("auth_request", None, Drop()),
            lambda: Rule("auth_request", 1, Tamper(index=0, mask=0)),
            lambda: Rule("auth_request", 1, Tamper(index=65, mask=1)),
            lambda: Rule("auth_request", 1, Replay(of_seq=-1)),
            lambda: Rule("auth_request", 1, "drop"),
        ],
        ids=[
            "inject-int", "inject-empty", "negative-delay", "lookup-request", "nth-0", "nth-none",
            "mask-0", "index-past-frame", "negative-replay-seq", "unknown-action",
        ],
    )
    def test_bad_rule_is_refused_when_made(self, make):
        # refused before any frame is sent, so nothing is transcribed and the
        # link carries on untouched
        net = _network()
        with pytest.raises(ScriptError):
            net.script.add_rule(make())
        assert len(net.transcript) == 0
        assert net.send(INSECURE, "to_terminal", AUTH) == [("to_terminal", AUTH)]
        assert net.transcript.get(0).adversary_action is None


class TestActions:
    def test_drop(self):
        net = _network([Rule("auth_request", 1, Drop())])
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.transcript.get(0).adversary_action == {"kind": "dropped"}
        assert net.transcript.get(0).frame == AUTH  # recorded, not delivered

    def test_delay_surfaces_via_due(self):
        net = _network([Rule("auth_request", 1, Delay(by_ms=50))])
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.due() == []
        net.clock.advance(49)
        assert net.due() == []
        net.clock.advance(1)
        assert net.due() == [("to_terminal", AUTH)]
        assert net.due() == []  # delivered exactly once

    def test_tamper_flips_exactly_the_masked_bits(self):
        net = _network([Rule("auth_request", 1, Tamper(index=5, mask=0x0F))])
        [(_, delivered)] = net.send(INSECURE, "to_terminal", AUTH)
        assert delivered[5] == AUTH[5] ^ 0x0F
        assert delivered[:5] == AUTH[:5] and delivered[6:] == AUTH[6:]
        action = net.transcript.get(0).adversary_action
        assert action == {
            "kind": "tampered",
            "byte_index": 5,
            "old": AUTH[5],
            "new": AUTH[5] ^ 0x0F,
        }
        assert net.transcript.get(0).frame == delivered

    def test_tamper_past_a_short_frame_is_a_script_error(self):
        # index 5 is inside every auth_request the rule can know of, but not
        # inside this 3-byte frame that carries the auth_request tag
        net = _network([Rule("auth_request", 1, Tamper(index=5, mask=1))])
        with pytest.raises(ScriptError, match="out of range for 3-byte frame"):
            net.send(INSECURE, "to_terminal", bytes([0x01, 0, 0]))

    def test_inject_keeps_a_bytes_like_frame_as_bytes(self):
        rule = Rule("auth_request", 1, Inject(frame=bytearray(b"\x01\x02")))
        assert type(rule.action.frame) is bytes and rule.action == Inject(b"\x01\x02")
        hash(rule)

    def test_inject_appends_the_forged_frame(self):
        forged = bytes([0x01]) + bytes(64)
        net = _network([Rule("auth_request", 1, Inject(frame=forged))])
        out = net.send(INSECURE, "to_terminal", AUTH)
        assert out == [("to_terminal", AUTH), ("to_terminal", forged)]
        assert net.transcript.get(1).adversary_action == {"kind": "injected"}

    def test_replay_self_duplicates_the_trigger(self):
        net = _network([Rule("auth_request", 1, Replay())])
        out = net.send(INSECURE, "to_terminal", AUTH)
        assert out == [("to_terminal", AUTH), ("to_terminal", AUTH)]
        assert net.transcript.get(1).adversary_action == {"kind": "replayed", "of_seq": 0}

    def test_replay_routes_like_the_original(self):
        # the copy goes where the recorded frame went, not where the trigger
        # frame was heading
        net = _network([Rule("start_charge", 1, Replay(of_seq=0))])
        net.send(INSECURE, "to_terminal", AUTH)
        out = net.send(INSECURE, "to_vehicle", START)
        assert out == [("to_vehicle", START), ("to_terminal", AUTH)]

    def test_replay_of_unseen_seq_is_a_script_error(self):
        # refused before the trigger is transcribed: nothing is recorded
        # that was delivered to no one
        net = _network([Rule("auth_request", 1, Replay(of_seq=7))])
        with pytest.raises(ScriptError):
            net.send(INSECURE, "to_terminal", AUTH)
        assert len(net.transcript) == 0

    def test_replay_of_secure_entry_is_a_script_error(self):
        net = _network([Rule("auth_request", 1, Replay(of_seq=0))])
        net.send(SECURE, "to_server", LOOKUP_MSG)
        with pytest.raises(ScriptError):
            net.send(INSECURE, "to_terminal", AUTH)
        assert len(net.transcript) == 1
        with pytest.raises(ScriptError):
            net.replay_entry(0)
        assert len(net.transcript) == 1

    def test_replay_of_its_own_seq_copies_the_trigger(self):
        net = _network([Rule("auth_request", 1, Replay(of_seq=0))])
        assert net.send(INSECURE, "to_terminal", AUTH) == [("to_terminal", AUTH)] * 2
        assert net.transcript.get(1).adversary_action == {"kind": "replayed", "of_seq": 0}

    def test_attacker_send_is_marked_injected(self):
        net = _network()
        assert net.attacker_send("to_terminal", AUTH) == [("to_terminal", AUTH)]
        assert net.transcript.get(0).adversary_action == {"kind": "injected"}

    def test_replay_entry_by_seq(self):
        net = _network()
        net.send(INSECURE, "to_terminal", AUTH)
        assert net.replay_entry(0) == [("to_terminal", AUTH)]
        assert net.transcript.get(1).adversary_action == {"kind": "replayed", "of_seq": 0}
        with pytest.raises(ScriptError):
            net.replay_entry(99)

    def test_adversary_products_do_not_retrigger_rules(self):
        # occurrence counting sees agent-submitted frames only: the replayed
        # copy is not fed back through the script
        net = _network([Rule("auth_request", 2, Drop())])
        net.send(INSECURE, "to_terminal", AUTH)
        net.replay_entry(0)
        assert net.send(INSECURE, "to_terminal", AUTH) == []  # this is #2


class TestTranscript:
    def test_jsonl_redacts_secure_frames_only(self):
        net = _network()
        net.send(INSECURE, "to_terminal", AUTH)
        net.send(SECURE, "to_server", LOOKUP_MSG)
        lines = [json.loads(l) for l in net.transcript.to_jsonl().splitlines()]
        assert lines[0]["frame"] == AUTH.hex()
        assert lines[1]["frame"] is None
        # shape metadata survives redaction
        assert lines[1]["variant"] == "lookup_request"
        assert lines[1]["len"] == len(LOOKUP)

    @pytest.mark.parametrize(
        "reply",
        [
            LookupReply(accepted=True, id_a=bytes(range(16)), k_a=bytes(range(32))),
            LookupReply(accepted=False, reason=Reason.REPLAY_DETECTED),
        ],
        ids=["accepted", "rejected"],
    )
    def test_reply_export_matches_its_encoding(self, reply, tmp_path):
        # the export gives the reply's shape, never its bytes; the entry
        # still gives them in memory
        net = _network()
        net.send(SECURE, "to_terminal", reply)
        path = tmp_path / "transcript.jsonl"
        net.transcript.write(path)
        [line] = [json.loads(l) for l in path.read_text().splitlines()]
        assert (line["variant"], line["len"], line["frame"]) == (
            "lookup_reply", len(reply.encode()), None,
        )
        assert net.transcript.get(0).frame == reply.encode()

    def test_write_round_trips(self, tmp_path):
        net = _network()
        net.send(INSECURE, "to_terminal", AUTH)
        path = tmp_path / "transcript.jsonl"
        net.transcript.write(path)
        assert path.read_text() == net.transcript.to_jsonl()

    def test_byte_identical_across_runs(self):
        def run():
            net = _network([Rule("auth_request", 2, Tamper(index=3, mask=1))])
            net.send(INSECURE, "to_terminal", AUTH)
            net.clock.advance(100)
            net.send(INSECURE, "to_terminal", AUTH)
            net.send(SECURE, "to_server", LOOKUP_MSG)
            return net.transcript.to_jsonl()

        assert run() == run()

    def test_len_and_get(self):
        transcript = Transcript()
        assert len(transcript) == 0
        assert transcript.get(0) is None
        transcript.append(0, INSECURE, "to_terminal", AUTH)
        assert len(transcript) == 1
        assert transcript.get(0).frame == AUTH
