"""Link simulation tests: clock, adversary rule matching, each action's
observable effect, protected-line immunity, the protected line's messages
and their encoding on export, transcript redaction, and byte-for-byte
determinism."""

import json

import pytest

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


def _network(rules=(), start=0):
    return Network(SimClock(start), AdversaryScript(rules))


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


class TestDelivery:
    def test_plain_delivery_records_no_action(self):
        net = _network()
        assert net.send(INSECURE, "to_terminal", AUTH) == [("to_terminal", AUTH)]
        entry = net.transcript.get(0)
        assert entry.adversary_action is None
        assert entry.frame == AUTH
        assert entry.seq == 0

    def test_secure_line_delivers_and_ignores_script(self):
        rules = [Rule(SECURE, "lookup_request", 1, Drop())]
        net = _network(rules)
        assert net.send(SECURE, "to_server", LOOKUP_MSG) == [("to_server", LOOKUP_MSG)]
        assert net.transcript.get(0).adversary_action is None

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
        rules = [Rule(INSECURE, "auth_request", 3, Drop())]
        net = _network(rules)
        assert net.send(INSECURE, "to_terminal", AUTH) != []
        assert net.send(INSECURE, "to_terminal", START) != []  # other variant
        assert net.send(INSECURE, "to_terminal", AUTH) != []
        assert net.send(INSECURE, "to_terminal", AUTH) == []  # third auth
        assert net.send(INSECURE, "to_terminal", AUTH) != []

    def test_rule_fires_at_most_once(self):
        rules = [Rule(INSECURE, "auth_request", 1, Drop())]
        net = _network(rules)
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.send(INSECURE, "to_terminal", AUTH) != []

    def test_first_matching_rule_wins(self):
        rules = [
            Rule(INSECURE, "auth_request", 1, Drop()),
            Rule(INSECURE, "auth_request", 1, Tamper(index=0, mask=0xFF)),
        ]
        net = _network(rules)
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.transcript.get(0).adversary_action == {"kind": "dropped"}

    def test_ephemeral_rule_matches_next_occurrence(self):
        script = AdversaryScript()
        net = Network(SimClock(), script)
        net.send(INSECURE, "to_terminal", AUTH)
        script.arm_ephemeral(Rule(INSECURE, "auth_request", None, Drop()))
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.send(INSECURE, "to_terminal", AUTH) != []

    def test_disarmed_ephemeral_rule_no_longer_matches(self):
        script = AdversaryScript()
        net = Network(SimClock(), script)
        script.arm_ephemeral(Rule(INSECURE, "auth_request", None, Drop()))
        script.disarm_ephemeral()
        assert net.send(INSECURE, "to_terminal", AUTH) != []

    def test_unfired_lists_rules_that_never_matched(self):
        script = AdversaryScript(
            [
                Rule(INSECURE, "auth_request", 1, Drop()),
                Rule(INSECURE, "auth_request", 3, Drop()),
                Rule(INSECURE, "start_charge", 1, Drop()),
            ]
        )
        net = Network(SimClock(), script)
        assert script.unfired() == [0, 1, 2]
        net.send(INSECURE, "to_terminal", AUTH)
        net.send(INSECURE, "to_terminal", AUTH)
        assert script.unfired() == [1, 2]

    def test_ephemeral_takes_priority_over_listed_rules(self):
        script = AdversaryScript([Rule(INSECURE, "auth_request", 1, Drop())])
        script.arm_ephemeral(Rule(INSECURE, "auth_request", None, Tamper(index=1, mask=1)))
        net = Network(SimClock(), script)
        out = net.send(INSECURE, "to_terminal", AUTH)
        assert out != [] and out[0][1] != AUTH


class TestActions:
    def test_drop(self):
        net = _network([Rule(INSECURE, "auth_request", 1, Drop())])
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.transcript.get(0).adversary_action == {"kind": "dropped"}
        assert net.transcript.get(0).frame == AUTH  # recorded, not delivered

    def test_delay_surfaces_via_due(self):
        net = _network([Rule(INSECURE, "auth_request", 1, Delay(by_ms=50))])
        assert net.send(INSECURE, "to_terminal", AUTH) == []
        assert net.due() == []
        net.clock.advance(49)
        assert net.due() == []
        net.clock.advance(1)
        assert net.due() == [("to_terminal", AUTH)]
        assert net.due() == []  # delivered exactly once

    def test_tamper_flips_exactly_the_masked_bits(self):
        net = _network([Rule(INSECURE, "auth_request", 1, Tamper(index=5, mask=0x0F))])
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

    def test_tamper_out_of_range_is_a_script_error(self):
        net = _network([Rule(INSECURE, "auth_request", 1, Tamper(index=65, mask=1))])
        with pytest.raises(ScriptError):
            net.send(INSECURE, "to_terminal", AUTH)

    def test_tamper_zero_mask_is_a_script_error(self):
        net = _network([Rule(INSECURE, "auth_request", 1, Tamper(index=0, mask=0))])
        with pytest.raises(ScriptError):
            net.send(INSECURE, "to_terminal", AUTH)

    def test_inject_appends_the_forged_frame(self):
        forged = bytes([0x01]) + bytes(64)
        net = _network([Rule(INSECURE, "auth_request", 1, Inject(frame=forged))])
        out = net.send(INSECURE, "to_terminal", AUTH)
        assert out == [("to_terminal", AUTH), ("to_terminal", forged)]
        assert net.transcript.get(1).adversary_action == {"kind": "injected"}

    def test_replay_self_duplicates_the_trigger(self):
        net = _network([Rule(INSECURE, "auth_request", 1, Replay())])
        out = net.send(INSECURE, "to_terminal", AUTH)
        assert out == [("to_terminal", AUTH), ("to_terminal", AUTH)]
        assert net.transcript.get(1).adversary_action == {"kind": "replayed", "of_seq": 0}

    def test_replay_routes_like_the_original(self):
        # the copy goes where the recorded frame went, not where the trigger
        # frame was heading
        net = _network([Rule(INSECURE, "start_charge", 1, Replay(of_seq=0))])
        net.send(INSECURE, "to_terminal", AUTH)
        out = net.send(INSECURE, "to_vehicle", START)
        assert out == [("to_vehicle", START), ("to_terminal", AUTH)]

    def test_replay_of_unseen_seq_is_a_script_error(self):
        net = _network([Rule(INSECURE, "auth_request", 1, Replay(of_seq=7))])
        with pytest.raises(ScriptError):
            net.send(INSECURE, "to_terminal", AUTH)

    def test_replay_of_secure_entry_is_a_script_error(self):
        net = _network([Rule(INSECURE, "auth_request", 1, Replay(of_seq=0))])
        net.send(SECURE, "to_server", LOOKUP_MSG)
        with pytest.raises(ScriptError):
            net.send(INSECURE, "to_terminal", AUTH)
        with pytest.raises(ScriptError):
            net.replay_entry(0)

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
        net = _network([Rule(INSECURE, "auth_request", 2, Drop())])
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

    def test_unredacted_export_is_explicit(self):
        net = _network()
        net.send(SECURE, "to_server", LOOKUP_MSG)
        lines = [json.loads(l) for l in net.transcript.to_jsonl(redact_secure=False).splitlines()]
        assert lines[0]["frame"] == LOOKUP.hex()

    @pytest.mark.parametrize(
        "reply",
        [
            LookupReply(accepted=True, id_a=bytes(range(16)), k_a=bytes(range(32))),
            LookupReply(accepted=False, reason=Reason.REPLAY_DETECTED),
        ],
        ids=["accepted", "rejected"],
    )
    def test_reply_export_matches_its_encoding(self, reply, tmp_path):
        net = _network()
        net.send(SECURE, "to_terminal", reply)
        [redacted] = [json.loads(l) for l in net.transcript.to_jsonl().splitlines()]
        assert (redacted["variant"], redacted["len"]) == ("lookup_reply", len(reply.encode()))
        path = tmp_path / "transcript.jsonl"
        net.transcript.write(path, redact_secure=False)
        [full] = [json.loads(l) for l in path.read_text().splitlines()]
        assert full == {**redacted, "frame": reply.encode().hex()}

    def test_write_round_trips(self, tmp_path):
        net = _network()
        net.send(INSECURE, "to_terminal", AUTH)
        path = tmp_path / "transcript.jsonl"
        net.transcript.write(path)
        assert path.read_text() == net.transcript.to_jsonl()

    def test_byte_identical_across_runs(self):
        def run():
            net = _network([Rule(INSECURE, "auth_request", 2, Tamper(index=3, mask=1))])
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
