"""End-to-end command tests, run in process through main(argv).

Exit code contract: 0 success / defense held, 1 protocol or billing failure
(including a breached scenario), 2 bad invocation or configuration, 3
storage problems. Provisioning output may show credentials once; session,
attack and invoice output must never contain key material."""

import argparse
import contextlib
import errno
import fcntl
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import shutil
import stat
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evabs
from evabs.cli import build_parser, main
from evabs.errors import StorageError
from evabs.registry import Registry, _Journal
from evabs.scenario import ScenarioRunner, builtin_scenarios

from conftest import load_perfbench, seeded_registry

VEHICLE = "a1" * 16
KEY = "b2" * 32
OTHER_VEHICLE = "c3" * 16
OTHER_KEY = "d4" * 32


# SHA-256 of what `evabs attack --scenario NAME --json` prints for every
# shipped scenario at seed 11 against a file of seeded_registry(); a change
# that moves one character of the JSON report shows up here
GOLDEN_ATTACK_JSON = {
    "cloning": "6f1ee19fb8cc81b1d66787f33464f7ce3daa68fb04bf8a36e55434234da1cdc8",
    "desync": "7a6801a40ff279016be7897dd12f25aae9c11b3b071af93812cd08c1bb6cb49e",
    "dos": "4b8745eb4cae69cea09b2329df792b97fe12a3814424d1ecca1dc8dbcca62f10",
    "eavesdrop": "e1a0f5f6e6a4cf81901f19fadef7406901fb9650b2f5b546e52820277d1c6354",
    "impersonation": "0f4195febdf1a791998ec171080c0a03667222fa1c7565952054d05f3328dcdc",
    "physical-disclosure": "a87b84099aa92907c25dbca79971a104e1c0dd81ceffc73f76a6fd898b53c3a8",
    "replay": "5030ffabd999725a147c79f049e1c2a73c1100baf0b1cf476e31c9cf585e09a1",
    "tamper-m3": "9a9a8d8e4287bab16f8b08ee3ffb5204757292e5dff87053127c0c22351191bb",
    "tamper-m8": "247545ec5d4f360643b53562d1e4f30bd93bec72210333cb4a6288f4b7ae37f1",
    "traceability": "58310f7fff0dbced49943f5e8d188a76cc61375dff6b667c9bced779c1463f54",
}


@pytest.fixture
def cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def registry_path(cli, tmp_path):
    path = str(tmp_path / "registry.json")
    code, out, _ = cli("init", "--registry", path, "--tariff", "2", "--seed", "5")
    assert code == 0
    code, _, _ = cli(
        "register", "--registry", path, "--vehicle", VEHICLE, "--key", KEY,
        "--balance", "1000", "--owner", "demo",
    )
    assert code == 0
    return path


class TestInit:
    def test_creates_registry_and_prints_group_key_once(self, cli, tmp_path):
        path = str(tmp_path / "new.json")
        code, out, _ = cli("init", "--registry", path, "--tariff", "3", "--seed", "5")
        assert code == 0
        assert "group_key:" in out
        registry = Registry.load(path)
        assert registry.tariff_per_second == 3
        assert registry.group_key.hex() in out

    def test_refuses_overwrite_without_force(self, cli, registry_path):
        code, _, err = cli("init", "--registry", registry_path, "--tariff", "2", "--seed", "5")
        assert code == 2
        assert "--force" in err
        code, _, _ = cli(
            "init", "--registry", registry_path, "--tariff", "2", "--seed", "5", "--force"
        )
        assert code == 0

    def test_missing_registry_argument(self, cli, monkeypatch):
        monkeypatch.delenv("EVABS_REGISTRY", raising=False)
        code, _, err = cli("init", "--tariff", "2", "--seed", "5")
        assert code == 2

    def test_env_var_supplies_the_path(self, cli, tmp_path, monkeypatch):
        path = str(tmp_path / "from-env.json")
        monkeypatch.setenv("EVABS_REGISTRY", path)
        code, _, _ = cli("init", "--tariff", "2", "--seed", "5")
        assert code == 0
        assert Registry.load(path).tariff_per_second == 2


class TestRegister:
    def test_prints_credentials_once(self, cli, registry_path):
        code, out, _ = cli(
            "register", "--registry", registry_path,
            "--vehicle", OTHER_VEHICLE, "--key", OTHER_KEY,
        )
        assert code == 0
        assert f"vehicle: {OTHER_VEHICLE}" in out
        assert f"key: {OTHER_KEY}" in out
        assert "lookup_key:" in out

    def test_generates_credentials_when_absent(self, cli, registry_path):
        code, out, _ = cli("register", "--registry", registry_path, "--seed", "8")
        assert code == 0
        assert "vehicle:" in out and "key:" in out
        assert len(Registry.load(registry_path).vehicles) == 2

    def test_duplicate_leaves_file_untouched(self, cli, registry_path, tmp_path):
        before = pathlib.Path(registry_path).read_text()
        code, out, err = cli(
            "register", "--registry", registry_path, "--vehicle", VEHICLE, "--key", KEY
        )
        assert code == 1
        assert "already enrolled" in err
        assert pathlib.Path(registry_path).read_text() == before
        # no seed hint: nothing was generated, so there is nothing to reproduce
        assert "seed" not in out

    def test_bad_hex_is_an_invocation_error(self, cli, registry_path):
        with pytest.raises(SystemExit) as err:
            cli("register", "--registry", registry_path, "--vehicle", "zz")
        assert err.value.code == 2


class TestSession:
    def test_happy_path(self, cli, registry_path):
        code, out, _ = cli(
            "session", "--registry", registry_path, "--duration", "90000", "--seed", "11"
        )
        assert code == 0
        assert "session completed" in out
        assert "t4: 90000 ms" in out
        assert "amount=180" in out
        record = Registry.load(registry_path).vehicles[0]
        assert record.balance == 1000 - 180

    def test_json_output(self, cli, registry_path):
        code, out, _ = cli(
            "session", "--registry", registry_path, "--duration", "2500",
            "--seed", "11", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["phase"] == "completed"
        assert obj["t4"] == 2500 == obj["t5"] - obj["t1"]
        assert obj["invoice"]["amount"] == 6  # three started seconds at 2
        assert obj["vehicle"] == VEHICLE

    def test_budget_cuts_charging(self, cli, registry_path):
        code, out, _ = cli(
            "session", "--registry", registry_path, "--duration", "10000",
            "--budget", "4", "--seed", "11", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["t4"] == 2000
        assert obj["invoice"]["amount"] == 4

    @pytest.mark.parametrize(
        "bad",
        [("--budget", "-5"), ("--duration", str(2**64 - 1)), ("--duration", str(2**64 - 1000))],
        ids=["negative-budget", "duration-u64-max", "t5-past-u64"],
    )
    def test_bad_session_arguments_exit_2_and_leave_the_registry_alone(
        self, cli, registry_path, bad
    ):
        # argparse rejects with SystemExit(2), a later check returns 2
        before = pathlib.Path(registry_path).read_bytes()
        argv = ["session", "--registry", registry_path, "--duration", "1000", "--seed", "11"]
        try:
            code, _, _ = cli(*argv, *bad)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert pathlib.Path(registry_path).read_bytes() == before

    def test_an_outcome_whose_clocks_disagree_exits_1(self, cli, registry_path, monkeypatch):
        # with no adversary in the path t4 is always t5 - t1, so only a
        # patched runner reaches the check
        run_session = ScenarioRunner.run_session

        def skewed(self, *args, **kwargs):
            outcome = run_session(self, *args, **kwargs)
            outcome.t4 += 1
            return outcome

        monkeypatch.setattr(ScenarioRunner, "run_session", skewed)
        code, out, err = cli(
            "session", "--registry", registry_path, "--duration", "1000", "--seed", "11"
        )
        assert code == 1
        assert out == ""
        assert err == "internal clock inconsistency: t4=1001 t5-t1=1000\n"

    def test_longest_duration_that_fits_is_billed(self, cli, registry_path):
        # a fresh run starts charging at t1 = 1000 ms, so t5 reaches 2**64 - 1
        duration = 2**64 - 1 - 1000
        code, out, err = cli(
            "session", "--registry", registry_path, "--duration", str(duration),
            "--seed", "11", "--json",
        )
        assert code == 0, err
        obj = json.loads(out)
        assert obj["t5"] == 2**64 - 1
        assert obj["invoice"]["duration_ms"] == duration

    @staticmethod
    def _untouched_copy(tmp_path):
        """A copy of the registry files, for a rerun whose nonce would be a
        replay on the first file."""
        again = tmp_path / "again"
        again.mkdir()
        for name in os.listdir(tmp_path):
            if name.startswith("registry.json"):
                shutil.copy(tmp_path / name, again / name)
        return str(again / "registry.json")

    def test_without_a_seed_prints_the_seed_that_reproduces_it(self, cli, registry_path, tmp_path):
        again = self._untouched_copy(tmp_path)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        argv = ("session", "--duration", "1000", "--transcript")
        code, out, _ = cli(*argv, str(first), "--registry", registry_path)
        assert code == 0
        seed = out.splitlines()[0].removeprefix("seed: ").partition(" ")[0]
        assert out.startswith(f"seed: {seed} (pass --seed {seed} to reproduce)\n")
        code, out, _ = cli(*argv, str(second), "--registry", again, "--seed", seed)
        assert code == 0 and "seed" not in out
        assert second.read_text() == first.read_text()

    def test_json_without_a_seed_prints_the_seed_on_stderr(self, cli, registry_path, tmp_path):
        # stdout holds exactly one JSON object
        again = self._untouched_copy(tmp_path)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        argv = ("session", "--duration", "1000", "--json", "--transcript")
        code, out, err = cli(*argv, str(first), "--registry", registry_path)
        assert code == 0
        assert json.loads(out)["phase"] == "completed"
        seed = err.removeprefix("seed: ").partition(" ")[0]
        assert err == f"seed: {seed} (pass --seed {seed} to reproduce)\n"
        code, rerun_out, rerun_err = cli(*argv, str(second), "--registry", again, "--seed", seed)
        assert code == 0 and rerun_err == ""
        assert rerun_out == out
        assert second.read_text() == first.read_text()

    def test_sessions_persist_nonces_across_runs(self, cli, registry_path):
        for seed in ("11", "12"):
            code, _, _ = cli(
                "session", "--registry", registry_path, "--duration", "1000", "--seed", seed
            )
            assert code == 0
        record = Registry.load(registry_path).vehicles[0]
        assert len(record.used_nonces) == 2
        assert len(Registry.load(registry_path).invoices) == 2

    def test_session_saves_once_per_registry_change(self, cli, registry_path, monkeypatch):
        # `register` started the journal: one append when the nonce is
        # consumed, one when the invoice is issued, and no whole save
        saves, appends = [], []
        save, append = Registry.save, _Journal.append

        def counting_save(registry, path):
            saves.append(path)
            return save(registry, path)

        def counting_append(journal, fields):
            appends.append(fields[0])
            append(journal, fields)

        monkeypatch.setattr(Registry, "save", counting_save)
        monkeypatch.setattr(_Journal, "append", counting_append)
        code, _, _ = cli(
            "session", "--registry", registry_path, "--duration", "1000", "--seed", "11"
        )
        assert code == 0
        assert saves == []
        assert appends == ["nonce", "invoice"]
        loaded = Registry.load(registry_path)
        assert len(loaded.vehicles[0].used_nonces) == 1
        assert [inv.duration_ms for inv in loaded.invoices] == [1000]

    def test_revoked_vehicle_fails_with_exit_1(self, cli, registry_path):
        code, _, _ = cli("revoke", "--registry", registry_path, "--vehicle", VEHICLE)
        assert code == 0
        code, _, err = cli(
            "session", "--registry", registry_path, "--vehicle", VEHICLE,
            "--duration", "1000", "--seed", "11",
        )
        assert code == 1
        assert "unknown_vehicle" in err
        assert Registry.load(registry_path).invoices == []

    def test_vehicle_of_15_bytes_is_an_invocation_error(self, cli, registry_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli("session", "--registry", registry_path, "--vehicle", "a1" * 15, "--seed", "11")
        assert err.value.code == 2
        assert "argument --vehicle: need 16 bytes (32 hex chars)" in capsys.readouterr().err

    def test_vehicle_required_when_ambiguous(self, cli, registry_path):
        cli("register", "--registry", registry_path, "--vehicle", OTHER_VEHICLE, "--key", OTHER_KEY)
        code, _, err = cli(
            "session", "--registry", registry_path, "--duration", "1000", "--seed", "11"
        )
        assert code == 2
        assert "--vehicle" in err

    def test_negative_duration_rejected_by_parser(self, cli, registry_path):
        with pytest.raises(SystemExit) as err:
            cli("session", "--registry", registry_path, "--duration", "-5", "--seed", "11")
        assert err.value.code == 2

    def test_missing_registry_exits_3_and_leaves_no_lock_file(self, cli, tmp_path):
        path = tmp_path / "missing.json"
        code, _, err = cli("session", "--registry", str(path), "--duration", "1000")
        assert code == 3
        assert err.startswith(f"storage error: cannot read registry {path}: [Errno 2] ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("init", "--tariff", "-2"),
            ("register", "--balance", "-1"),
            ("session", "--duration", "1000", "--budget", "-5"),
            ("session", "--duration", "-5"),
        ],
        ids=lambda argv: argv[-2],
    )
    def test_negative_values_are_refused_by_the_commands_parser(self, capsys, tmp_path, argv):
        # before the command runs, so not even a lock file is made
        path = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exit_:
            main([argv[0], "--registry", str(path), *argv[1:]])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: evabs {argv[0]} ")
        assert err.endswith(
            f"error: argument {argv[-2]}: must be a non-negative integer, got {argv[-1]!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["1_000", "\u0665", " 5", "+5", "5 "])
    def test_a_number_is_ascii_digits_alone(self, capsys, tmp_path, value):
        # int() would read each of these as a number
        path = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exit_:
            main(["session", "--registry", str(path), "--duration", value])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --duration: must be a non-negative integer, got {value!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "value", ["x", "-1", "0x10000000000000000", "1.5", "1_0", "\u0661", "+1", " 1"]
    )
    def test_a_bad_seed_says_what_a_seed_must_be(self, capsys, value):
        with pytest.raises(SystemExit):
            main(["attack", "--scenario", "replay", "--seed", value])
        err = capsys.readouterr().err
        assert err.endswith(
            f"error: argument --seed: must be an integer in 0..2**64-1, got {value!r}\n"
        )

    @pytest.mark.parametrize("command", ["revoke", "invoices"])
    def test_only_commands_that_draw_randomness_take_a_seed(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--vehicle", VEHICLE, "--seed", "4"])
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --seed 4\n")

    def test_corrupt_registry_is_a_storage_error(self, cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        code, _, err = cli("session", "--registry", str(path), "--duration", "1000", "--seed", "1")
        assert code == 3
        assert "storage error" in err


    @pytest.mark.parametrize("content", ["[]", "1", "null"])
    def test_registry_that_is_not_an_object_exits_3(self, cli, tmp_path, content):
        path = tmp_path / "r.json"
        path.write_text(content)
        code, out, err = cli("invoices", "--registry", str(path))
        assert code == 3
        assert out == ""
        assert err == f"storage error: registry {path} must be a JSON object\n"

    def test_unwritable_transcript_exits_3_after_the_invoice_is_saved(
        self, cli, registry_path, tmp_path
    ):
        transcript = tmp_path / "missing" / "frames.jsonl"
        code, out, err = cli(
            "session", "--registry", registry_path, "--duration", "1000", "--seed", "11",
            "--transcript", str(transcript),
        )
        assert code == 3
        assert err.startswith(f"storage error: cannot write transcript {transcript}: ")
        assert "the invoice is already saved" in err
        assert "Traceback" not in err
        assert [inv.duration_ms for inv in Registry.load(registry_path).invoices] == [1000]

    @pytest.mark.parametrize("change", ["nonce", "invoice"])
    def test_journal_that_cannot_start_after_a_save_keeps_the_change(
        self, cli, tmp_path, monkeypatch, change
    ):
        path = tmp_path / "registry.json"
        seeded_registry(vehicles=1).save(path)  # no live journal
        if change == "invoice":
            # fill a journal to one nonce line short of its snapshot's size:
            # the session's nonce is appended and its invoice saves whole
            journal, nonce_line = tmp_path / "registry.json.journal", 84
            with Registry.open(path) as registry:
                record = registry.vehicles[0]
                registry.authenticate(record.lookup_key, bytes(16))  # starts the journal
                nonce = 1
                while journal.stat().st_size + nonce_line <= path.stat().st_size:
                    registry.authenticate(record.lookup_key, nonce.to_bytes(16, "big"))
                    nonce += 1

        def refuse(journal_path, snapshot):
            raise StorageError(f"cannot start journal {journal_path}: [Errno 28] disk full")

        monkeypatch.setattr(_Journal, "start", refuse)
        argv = ("session", "--registry", str(path), "--duration", "1000", "--seed", "11")
        code, _, err = cli(*argv)
        monkeypatch.undo()
        assert code == 3
        assert err.startswith(
            f"storage error: persist incomplete, change kept: registry {path} is written, but "
        )
        assert "dropped" not in err and "not consumed" not in err
        _, out, _ = cli("invoices", "--registry", str(path))
        if change == "invoice":
            assert "total: 2" in out
        else:
            assert out == "no invoices\n"
            # the kept nonce is spent: the same session again is a replay
            code, _, err = cli(*argv)
            assert code == 1 and "replay_detected" in err


class TestRevoke:
    def test_unknown_vehicle(self, cli, registry_path):
        code, _, err = cli("revoke", "--registry", registry_path, "--vehicle", "ee" * 16)
        assert code == 1

    def test_idempotent(self, cli, registry_path):
        assert cli("revoke", "--registry", registry_path, "--vehicle", VEHICLE)[0] == 0
        assert cli("revoke", "--registry", registry_path, "--vehicle", VEHICLE)[0] == 0


class TestRegistryLock:
    @pytest.mark.parametrize(
        "argv",
        [
            ("init", "--tariff", "2", "--seed", "5", "--force"),
            ("register", "--vehicle", OTHER_VEHICLE, "--key", OTHER_KEY),
            ("revoke", "--vehicle", VEHICLE),
            ("session", "--duration", "1000", "--seed", "11"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_writing_commands_save_under_the_lock_file(
        self, cli, registry_path, monkeypatch, argv
    ):
        # `register` started the journal, so a session only appends to it
        writes = ["append", "append"] if argv[0] == "session" else ["save"]
        held = []

        def probing(name, write):
            def probe(target, *args):
                # flock conflicts between two open files, even in one process
                fd = os.open(f"{registry_path}.lock", os.O_RDWR)
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    held.append((name, False))
                except BlockingIOError:
                    held.append((name, True))
                finally:
                    os.close(fd)
                return write(target, *args)

            return probe

        monkeypatch.setattr(Registry, "save", probing("save", Registry.save))
        monkeypatch.setattr(_Journal, "append", probing("append", _Journal.append))
        code, _, _ = cli(argv[0], "--registry", registry_path, *argv[1:])
        assert code == 0
        assert held == [(name, True) for name in writes]

    def test_lock_file_that_cannot_be_made_is_a_storage_error(self, cli, tmp_path):
        path = str(tmp_path / "missing-dir" / "registry.json")
        code, _, err = cli("init", "--registry", path, "--tariff", "2", "--seed", "5")
        assert code == 3
        assert "storage error" in err

    def test_concurrent_session_processes_keep_every_invoice_and_nonce(self, tmp_path):
        processes = 8
        path = str(tmp_path / "registry.json")
        registry = seeded_registry(vehicles=processes)
        registry.save(path)
        src = pathlib.Path(evabs.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "evabs.cli", "session", "--registry", path,
                    "--vehicle", record.id_a.hex(), "--duration", "1000",
                    "--seed", str(index + 1), "--json",
                ],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for index, record in enumerate(registry.vehicles)
        ]
        results = []
        try:
            for proc in procs:
                out, err = proc.communicate(timeout=120)
                results.append((proc.returncode, out, err))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        assert [code for code, _, _ in results] == [0] * processes, results
        loaded = Registry.load(path)
        assert len(loaded.invoices) == processes
        assert sum(len(record.used_nonces) for record in loaded.vehicles) == processes
        assert sorted(inv.id_a for inv in loaded.invoices) == sorted(
            record.id_a for record in registry.vehicles
        )


class TestAttack:
    def test_replay_scenario_holds(self, cli):
        code, out, _ = cli("attack", "--scenario", "replay", "--seed", "9")
        assert code == 0
        assert "verdict: DEFENSE HELD" in out
        assert "EXPECTED-WEAKNESS" in out

    def test_a_path_is_the_users_file_even_beside_a_shipped_name(
        self, cli, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        pathlib.Path("replay").write_text("scenario mine\nsession *\nexpect completed 7\n")
        code, out, _ = cli("attack", "--scenario", "./replay", "--seed", "1")
        assert code == 1
        assert out.startswith("scenario: mine (seed=1)")
        assert "verdict: DEFENSE BREACHED" in out
        # only the exact shipped name runs the shipped script
        code, out, _ = cli("attack", "--scenario", "replay", "--seed", "1")
        assert code == 0
        assert out.startswith("scenario: replay (seed=1)")

    def test_unknown_scenario_lists_shipped(self, cli):
        code, _, err = cli("attack", "--scenario", "nosuch", "--seed", "9")
        assert code == 2
        assert "replay" in err and "eavesdrop" in err

    def test_json_report(self, cli):
        code, out, _ = cli("attack", "--scenario", "cloning", "--seed", "9", "--json")
        assert code == 0
        [report] = json.loads(out)
        assert report["scenario"] == "cloning"
        assert report["held"] is True
        assert {c["status"] for c in report["checks"]} <= {"PASS", "INFO", "EXPECTED-WEAKNESS"}

    def test_report_and_transcript_files(self, cli, tmp_path):
        report = tmp_path / "verdict.txt"
        transcript = tmp_path / "frames.jsonl"
        code, _, _ = cli(
            "attack", "--scenario", "replay", "--seed", "9",
            "--report", str(report), "--transcript", str(transcript),
        )
        assert code == 0
        assert "DEFENSE HELD" in report.read_text()
        lines = [json.loads(l) for l in transcript.read_text().splitlines()]
        assert lines, "transcript must not be empty"
        replayed = [l for l in lines if (l["adversary_action"] or {}).get("kind") == "replayed"]
        assert replayed

    def test_alias_writes_one_transcript_per_run(self, cli, tmp_path):
        transcript = tmp_path / "frames.jsonl"
        code, out, _ = cli(
            "attack", "--scenario", "mitm", "--seed", "9", "--transcript", str(transcript)
        )
        assert code == 0
        assert out.count("verdict:") == 2
        assert (tmp_path / "frames-tamper-m3.jsonl").exists()
        assert (tmp_path / "frames-tamper-m8.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--report", "--transcript"])
    def test_unwritable_output_file_exits_3(self, cli, tmp_path, flag):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = cli("attack", "--scenario", "replay", "--seed", "9", flag, str(target))
        assert code == 3
        assert "verdict: DEFENSE HELD" in out
        kind = flag.lstrip("-")
        assert err.startswith(f"storage error: cannot write {kind} {target}: ")
        assert "No such file or directory" in err

    def test_attack_never_modifies_the_registry_file(self, cli, registry_path):
        before = pathlib.Path(registry_path).read_text()
        code, _, _ = cli(
            "attack", "--scenario", "desync", "--registry", registry_path, "--seed", "9"
        )
        assert code == 0
        assert pathlib.Path(registry_path).read_text() == before

    def test_malformed_scenario_line_exits_2(self, cli, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("session *\nexpect completed abc\n")
        code, _, err = cli("attack", "--scenario", str(path), "--seed", "9")
        assert code == 2
        assert "line 2" in err

    def test_session_after_the_last_startable_time_exits_2(self, cli, tmp_path):
        path = tmp_path / "late.scn"
        path.write_text("advance 18446744073709551000\nsession *\n")
        code, out, err = cli("attack", "--scenario", str(path), "--seed", "9")
        assert code == 2
        assert "line 2: no session can start and end in a 64-bit timestamp any more" in err
        assert re.search(r"-\d", err) is None
        assert out == ""

    @pytest.mark.parametrize("name", builtin_scenarios())
    def test_json_report_of_a_shipped_scenario_matches_golden_digest(self, cli, tmp_path, name):
        path = tmp_path / "registry.json"
        seeded_registry().save(str(path))
        code, out, _ = cli(
            "attack", "--scenario", name, "--registry", str(path), "--seed", "11", "--json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ATTACK_JSON[name]

    def test_undecodable_scenario_file_exits_2(self, cli, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_bytes(b"session *\n\xff\xfe\n")
        code, out, err = cli("attack", "--scenario", str(path), "--seed", "9")
        assert code == 2
        assert "cannot read scenario" in err
        assert out == ""

    def test_scenario_file_starting_with_a_byte_order_mark_runs(self, cli, tmp_path):
        # editors on Windows often begin a UTF-8 file with U+FEFF
        path = tmp_path / "bom.scn"
        path.write_bytes(b"\xef\xbb\xbfscenario bom\nsession *\nexpect completed 1\n")
        code, out, err = cli("attack", "--scenario", str(path), "--seed", "9")
        assert (code, err) == (0, "")
        assert "scenario: bom (seed=9)" in out
        assert "PASS               expect completed 1  expected 1, got 1" in out

    def test_scenario_path_naming_a_directory_exits_2(self, cli, tmp_path):
        code, out, err = cli("attack", "--scenario", str(tmp_path), "--seed", "9")
        assert code == 2
        assert "cannot read scenario" in err
        assert out == ""

    def test_malformed_sweep_expect_exits_2_before_any_sweep(self, cli, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("expect sweep bogus\n")
        code, out, err = cli("attack", "--scenario", str(path), "--seed", "9")
        assert code == 2
        assert "line 1" in err
        assert "BREACHED" not in out

    @pytest.mark.parametrize(
        "line",
        [
            "rule insecure auth_request nth=0 drop",
            "rule insecure auth_request nth=-2 drop",
            "rule insecure auth_request nth=1 delay=-50",
            "rule insecure start_charge nth=1 delay=0",
            "rule insecure auth_reqest drop",
            "rule secure lookup_reply drop",
            "rule insecure auth_request tamper=2:00",
            "rule insecure auth_request tamper=65:01",
            "sweep auth_request mask=-1",
            "sweep auth_request mask=00",
        ],
    )
    def test_rule_or_sweep_that_cannot_act_exits_2(self, cli, tmp_path, line):
        path = tmp_path / "bad.scn"
        path.write_text(f"session *\n{line}\nexpect completed 1\n")
        code, out, err = cli("attack", "--scenario", str(path), "--seed", "9")
        assert code == 2
        assert "line 2:" in err
        assert "verdict" not in out

    def test_rule_that_never_fires_exits_1(self, cli, tmp_path):
        path = tmp_path / "vacuous.scn"
        path.write_text("rule insecure auth_request nth=5 drop\nsession *\nexpect completed 1\n")
        code, out, _ = cli("attack", "--scenario", str(path), "--seed", "9")
        assert code == 1
        assert "line 1: rule never fired" in out
        assert "DEFENSE BREACHED" in out

    @pytest.mark.parametrize(
        "script",
        [
            "rule insecure auth_request nth=1 drop\nsweep start_charge\n",
            "rule insecure auth_request nth=2 drop\nprobe replay-start-charge\n",
        ],
        ids=["sweep", "probe"],
    )
    def test_one_shot_rule_left_unused_does_not_reach_a_later_session(
        self, cli, tmp_path, script
    ):
        # the drop starves the sweep's tamper (or the probe's drop) of the
        # frame it was armed for; the honest session after it must complete
        path = tmp_path / "leftover.scn"
        path.write_text(script + "session *\nexpect completed 1\n")
        code, out, _ = cli("attack", "--scenario", str(path), "--seed", "3")
        assert code == 0
        assert "PASS               expect completed 1  expected 1, got 1" in out
        assert "DEFENSE HELD" in out

    def test_registry_without_vehicles_rejected(self, cli, tmp_path):
        path = str(tmp_path / "empty.json")
        cli("init", "--registry", path, "--tariff", "2", "--seed", "5")
        code, _, err = cli("attack", "--scenario", "replay", "--registry", path, "--seed", "9")
        assert code == 2
        assert "no enrolled vehicles" in err


class TestInvoices:
    def test_empty(self, cli, registry_path):
        code, out, _ = cli("invoices", "--registry", registry_path)
        assert code == 0
        assert "no invoices" in out

    def test_table_and_total(self, cli, registry_path):
        cli("session", "--registry", registry_path, "--duration", "90000", "--seed", "11")
        cli("session", "--registry", registry_path, "--duration", "1000", "--seed", "12")
        code, out, _ = cli("invoices", "--registry", registry_path)
        assert code == 0
        assert VEHICLE in out
        assert "total: 182" in out

    def test_json_lines_and_filter(self, cli, registry_path):
        cli("register", "--registry", registry_path, "--vehicle", OTHER_VEHICLE, "--key", OTHER_KEY)
        cli(
            "session", "--registry", registry_path, "--vehicle", VEHICLE,
            "--duration", "1000", "--seed", "11",
        )
        cli(
            "session", "--registry", registry_path, "--vehicle", OTHER_VEHICLE,
            "--duration", "2000", "--seed", "12",
        )
        code, out, _ = cli("invoices", "--registry", registry_path, "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 2
        assert list(rows[0]) == ["id_a", "t1", "t5", "duration_ms", "amount", "issued_at"]
        code, out, _ = cli(
            "invoices", "--registry", registry_path, "--vehicle", OTHER_VEHICLE, "--json"
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["id_a"] for r in rows] == [OTHER_VEHICLE]


    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj.update(invoices=5),
            lambda obj: obj.update(vehicles=7),
            lambda obj: obj["vehicles"].append("a1" * 16),
            lambda obj: obj["invoices"].append(None),
        ],
        ids=["int-invoices", "int-vehicles", "string-vehicle", "null-invoice"],
    )
    def test_malformed_registry_shape_is_a_storage_error(self, cli, registry_path, edit):
        with open(registry_path) as fh:
            obj = json.load(fh)
        edit(obj)
        with open(registry_path, "w") as fh:
            json.dump(obj, fh)
        code, _, err = cli("invoices", "--registry", registry_path)
        assert code == 3
        assert err.startswith(f"storage error: {registry_path}")

    def test_repeated_field_is_a_storage_error(self, cli, registry_path):
        # a second tariff after the real one: json alone would bill at 0
        with open(registry_path) as fh:
            text = fh.read()
        line = '"tariff_per_second": 2,'
        assert line in text
        with open(registry_path, "w") as fh:
            fh.write(text.replace(line, f'{line} "tariff_per_second": 0,'))
        code, out, err = cli("invoices", "--registry", registry_path)
        assert code == 3
        assert out == ""
        assert err == f"storage error: {registry_path}: field 'tariff_per_second' is repeated\n"

    @pytest.mark.parametrize("content", [b"\xff", b"[" * 200_000], ids=["0xff", "deep-nesting"])
    def test_undecodable_registry_is_a_storage_error(self, cli, tmp_path, content):
        path = tmp_path / "registry.json"
        path.write_bytes(content)
        code, _, err = cli("invoices", "--registry", str(path))
        assert code == 3
        assert err.startswith(f"storage error: registry {path} is not valid JSON")
        assert "Traceback" not in err


class _Unwritable(io.StringIO):
    """An in-memory stream, with no descriptor, that refuses every write."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class TestStandardOutput:
    """A write to standard output that fails is a storage error (exit 3) on
    one stderr line, not a traceback. Run in a subprocess, whose stdout is a
    real descriptor: a closed pipe or a full device."""

    @staticmethod
    def _evabs(sink, *argv, unbuffered=False):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(evabs.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"

        def start(stdout):
            return subprocess.Popen(
                [sys.executable, "-m", "evabs.cli", *argv],
                env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
            )

        if sink == "full":
            with open("/dev/full", "w") as full:
                proc = start(full)
        else:
            proc = start(subprocess.PIPE)
            proc.stdout.close()  # long before the interpreter starts up
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        error = errno.EPIPE if sink == "pipe" else errno.ENOSPC
        return proc.returncode, err, f"[Errno {error}] {os.strerror(error)}"

    _SINKS = [
        "pipe",
        pytest.param("full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full on this host")),
    ]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", _SINKS)
    def test_attack_exits_3(self, sink, unbuffered):
        code, err, reason = self._evabs(sink, "attack", "--scenario", "replay",
                                        unbuffered=unbuffered)
        assert (code, err) == (3, f"storage error: cannot write standard output: {reason}\n")

    @pytest.mark.parametrize("sink", _SINKS)
    @pytest.mark.parametrize(
        "command, options, note",
        [
            pytest.param("init", ["--tariff", "2", "--seed", "5", "--force"],
                         "the registry is already written", id="init"),
            pytest.param("register", ["--vehicle", OTHER_VEHICLE, "--key", OTHER_KEY],
                         "the vehicle is already enrolled", id="register"),
            pytest.param("session", ["--duration", "1000", "--seed", "11"],
                         "the invoice is already saved in the registry", id="session"),
        ],
    )
    def test_a_change_saved_before_the_output_is_named(
        self, command, options, note, sink, registry_path
    ):
        code, err, reason = self._evabs(sink, command, "--registry", registry_path, *options)
        assert (code, err) == (3, f"storage error: cannot write standard output: {reason}; {note}\n")
        registry = Registry.load(registry_path)
        assert (len(registry.vehicles), len(registry.invoices)) == {
            "init": (0, 0), "register": (2, 0), "session": (1, 1)
        }[command]

    def test_a_seed_line_that_fails_first_names_no_change(self, registry_path):
        # unbuffered, the generated seed's line is written, and fails, before
        # register enrolls anything
        code, err, reason = self._evabs(
            "pipe", "register", "--registry", registry_path, unbuffered=True
        )
        assert (code, err) == (3, f"storage error: cannot write standard output: {reason}\n")
        assert len(Registry.load(registry_path).vehicles) == 1

    @pytest.mark.parametrize("stream", ["closed-pipe", "in-memory"])
    def test_in_process_stdout_that_cannot_be_written_exits_3(self, stream, capsys):
        broken = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
        if stream == "closed-pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            stdout = open(write_end, "w")
        else:
            stdout = _Unwritable()
        # closing the pipe's stream flushes its output, to os.devnull by then
        with stdout, contextlib.redirect_stdout(stdout):
            code = main(["attack", "--scenario", "replay"])
        assert (code, capsys.readouterr().err) == (
            3, f"storage error: cannot write standard output: {broken}\n"
        )


class TestFileMode:
    def test_registry_file_stays_owner_only(self, cli, tmp_path):
        # the file holds the group key and every vehicle key
        path = str(tmp_path / "registry.json")
        for argv in [
            ("init", "--tariff", "2", "--seed", "5"),
            ("register", "--vehicle", VEHICLE, "--key", KEY),
            ("session", "--duration", "1000", "--seed", "11"),
        ]:
            code, _, _ = cli(*argv, "--registry", path)
            assert code == 0
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o600, argv[0]


class TestSecrecy:
    def test_session_and_attack_outputs_carry_no_key_material(
        self, cli, registry_path, tmp_path
    ):
        group_key = Registry.load(registry_path).group_key.hex()
        transcript = tmp_path / "session.jsonl"
        code, session_out, _ = cli(
            "session", "--registry", registry_path, "--duration", "2000",
            "--seed", "11", "--transcript", str(transcript), "--json",
        )
        assert code == 0
        attack_report = tmp_path / "attack.txt"
        attack_transcript = tmp_path / "attack.jsonl"
        code, attack_out, _ = cli(
            "attack", "--scenario", "eavesdrop", "--registry", registry_path,
            "--seed", "9", "--report", str(attack_report),
            "--transcript", str(attack_transcript),
        )
        assert code == 0
        code, invoices_out, _ = cli("invoices", "--registry", registry_path)

        surfaces = [
            session_out,
            attack_out,
            invoices_out,
            transcript.read_text(),
            attack_report.read_text(),
            attack_transcript.read_text(),
        ]
        for text in surfaces:
            assert KEY not in text
            assert group_key not in text
        # the id crosses only the protected line; transcripts must not show it
        assert VEHICLE not in transcript.read_text()
        assert VEHICLE not in attack_transcript.read_text()

    @pytest.mark.parametrize(
        "id_args", [(), ("--vehicle", OTHER_VEHICLE)], ids=["drawn", "given-id"]
    )
    def test_init_and_register_on_one_seed_share_no_secret(self, cli, tmp_path, id_args):
        # session and invoices print the vehicle id, so a register stream
        # that repeated init's would publish the group key
        path = str(tmp_path / "registry.json")
        code, _, _ = cli("init", "--registry", path, "--tariff", "3", "--seed", "7")
        assert code == 0
        group_key = Registry.load(path).group_key.hex()
        code, out, _ = cli("register", "--registry", path, "--seed", "7", *id_args)
        assert code == 0
        printed = dict(line.split(": ") for line in out.splitlines())
        windows = [group_key[i:i + 16] for i in range(0, len(group_key) - 14, 2)]
        for name in ("vehicle", "key"):
            assert not any(window in printed[name] for window in windows), name

    def test_register_on_one_seed_prints_no_id_inside_a_key(self, cli, tmp_path):
        # a key drawn from the stream that drew an earlier vehicle's id
        # would print that id, which session and invoices print too
        path = str(tmp_path / "registry.json")
        assert cli("init", "--registry", path, "--tariff", "3", "--seed", "1")[0] == 0
        printed = []
        for id_args in ((), ("--vehicle", "11" * 16), ("--vehicle", "22" * 16)):
            code, out, _ = cli("register", "--registry", path, "--seed", "7", *id_args)
            assert code == 0
            printed.append(dict(line.split(": ") for line in out.splitlines()))
        for vehicle in printed:
            windows = [vehicle["vehicle"][i:i + 16] for i in range(0, 18, 2)]
            for other in printed:
                assert not any(window in other["key"] for window in windows)
        assert len({p["key"] for p in printed}) == 3

    def test_transcript_redacts_protected_line_frames(self, cli, registry_path, tmp_path):
        transcript = tmp_path / "t.jsonl"
        cli(
            "session", "--registry", registry_path, "--duration", "1000",
            "--seed", "11", "--transcript", str(transcript),
        )
        lines = [json.loads(l) for l in transcript.read_text().splitlines()]
        secure = [l for l in lines if l["channel"] == "secure"]
        insecure = [l for l in lines if l["channel"] == "insecure"]
        assert secure and insecure
        assert all(l["frame"] is None for l in secure)
        assert all(isinstance(l["frame"], str) for l in insecure)


class TestVersion:
    def test_version_names_the_backend(self, cli, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert f"evabs {evabs.__version__}" in out
        assert f"kernel backend: {evabs.BACKEND}" in out

    def test_package_version_is_the_pyproject_version(self):
        # the `version = "..."` line of [project], read without tomllib,
        # which Python 3.10 lacks
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = pyproject.read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
        [version] = re.findall(r'^version = "([^"]*)"$', project, re.M)
        assert version == evabs.__version__


# Help and usage-error output, recorded at 80 columns; a parser built once per
# process must not change a byte of it.
_TOP_USAGE = (
    "usage: evabs [-h] [--version]\n"
    "             {init,register,revoke,session,attack,invoices} ...\n"
)
_SESSION_USAGE = (
    "usage: evabs session [-h] [--registry REGISTRY] [--seed SEED]\n"
    "                     [--vehicle VEHICLE] --duration DURATION [--budget BUDGET]\n"
    "                     [--transcript TRANSCRIPT] [--json]\n"
)
_PINNED_OUTPUT = {
    (): (2, "", _TOP_USAGE + "evabs: error: the following arguments are required: command\n"),
    ("--help",): (
        0,
        _TOP_USAGE
        + "\n"
        "authenticated street-charging simulator: provisioning, sessions, attack\n"
        "scenarios, invoices\n"
        "\n"
        "positional arguments:\n"
        "  {init,register,revoke,session,attack,invoices}\n"
        "    init                create a registry file\n"
        "    register            enroll a vehicle\n"
        "    revoke              disable a vehicle\n"
        "    session             run one honest charge session\n"
        "    attack              run an adversary scenario\n"
        "    invoices            list issued invoices\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --version             show program's version number and exit\n",
        "",
    ),
    ("--version",): (0, f"evabs {evabs.__version__} (kernel backend: {evabs.BACKEND})\n", ""),
    ("bogus",): (
        2,
        "",
        _TOP_USAGE
        + "evabs: error: argument command: invalid choice: 'bogus' (choose from 'init', "
        "'register', 'revoke', 'session', 'attack', 'invoices')\n",
    ),
    ("session", "--help"): (
        0,
        _SESSION_USAGE
        + "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --registry REGISTRY   registry file (default: $EVABS_REGISTRY)\n"
        "  --seed SEED           seed for all randomness (64-bit)\n"
        "  --vehicle VEHICLE     defaults to the only active vehicle\n"
        "  --duration DURATION   planned charge time in ms\n"
        "  --budget BUDGET       cut charging once accrued cost reaches this\n"
        "  --transcript TRANSCRIPT\n"
        "                        write the frame transcript (JSON lines)\n"
        "  --json                machine-readable result\n",
        "",
    ),
    ("attack", "--help"): (
        0,
        "usage: evabs attack [-h] [--registry REGISTRY] [--seed SEED] --scenario\n"
        "                    SCENARIO [--transcript TRANSCRIPT] [--report REPORT]\n"
        "                    [--json]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --registry REGISTRY   registry file (default: $EVABS_REGISTRY)\n"
        "  --seed SEED           seed for all randomness (64-bit)\n"
        "  --scenario SCENARIO   shipped name, alias, or path to a scenario file\n"
        "                        (shipped: cloning, desync, dos, eavesdrop,\n"
        "                        impersonation, physical-disclosure, replay, tamper-m3,\n"
        "                        tamper-m8, traceability, mitm)\n"
        "  --transcript TRANSCRIPT\n"
        "                        write the frame transcript (JSON lines)\n"
        "  --report REPORT       write the verdict report to a file\n"
        "  --json                machine-readable report\n",
        "",
    ),
    ("session",): (
        2,
        "",
        _SESSION_USAGE
        + "evabs session: error: the following arguments are required: --duration\n",
    ),
    ("session", "--duration", "-5", "--registry", "x"): (
        2,
        "",
        _SESSION_USAGE
        + "evabs session: error: argument --duration: must be a non-negative integer, got '-5'\n",
    ),
    # an error the top-level parser raises after a command was selected
    ("session", "--duration", "5", "--bogus"): (
        2,
        "",
        _TOP_USAGE + "evabs: error: unrecognized arguments: --bogus\n",
    ),
}


def _command_actions():
    """Each command's argparse actions, as the full parser has them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: parser._actions for name, parser in sub.choices.items()}


_ACTIONS = _command_actions()
_OPTIONS = {name: [s for a in actions for s in a.option_strings] for name, actions in _ACTIONS.items()}
_REQUIRED = {name: [a.option_strings[0] for a in actions if a.required]
             for name, actions in _ACTIONS.items()}
_ALL_OPTIONS = sorted({o for options in _OPTIONS.values() for o in options})
_ABBREVIATIONS = sorted({o[:n] for o in _ALL_OPTIONS if o.startswith("--") for n in range(3, len(o))})
_VALUES = ["0", "7", "-5", "0x10", "2.5", "1e3", "zz", "", VEHICLE, KEY, "r.json", "mitm", "x y"]
_STRAY = ["--", "-", "-h", "--help", "--version", "--vers", "--bogus", "-x", "extra"]
# a value each option that takes one accepts
_GOOD = {
    "--registry": "r.json", "--seed": "0x10", "--tariff": "3", "--vehicle": VEHICLE, "--key": KEY,
    "--balance": "7", "--owner": "demo", "--duration": "1500", "--budget": "9",
    "--transcript": "t.jsonl", "--scenario": "mitm", "--report": "r.txt",
}


def _well_formed(option):
    return (option, _GOOD[option]) if option in _GOOD else (option,)


@st.composite
def _argvs(draw):
    """Mostly a command name, sometimes with its required options, then in
    any order: that command's options with a good value, and noise: any
    command's options and their abbreviations with any value, alone or as
    `--opt=value`, and stray tokens (`--`, -h, --version, unknown options,
    values). Otherwise no command, an unknown name or a stray token first."""
    if draw(st.integers(0, 3)):
        head = draw(st.sampled_from(list(_OPTIONS)))
    else:
        head = draw(st.sampled_from([None, "bogus", "sess", *_STRAY]))
    argv = [] if head is None else [head]
    if head in _OPTIONS and draw(st.booleans()):
        argv += [token for option in _REQUIRED[head] for token in _well_formed(option)]
    option = st.sampled_from(_ALL_OPTIONS + _ABBREVIATIONS)
    value = st.sampled_from(_VALUES)
    noise = st.one_of(
        st.tuples(option, value),
        st.tuples(option),
        st.tuples(st.builds("{}={}".format, option, value)),
        st.tuples(st.sampled_from(_STRAY + _VALUES)),
    )
    own = st.sampled_from(_OPTIONS.get(head, _ALL_OPTIONS)).map(_well_formed)
    items = draw(st.lists(own, max_size=4)) + draw(st.lists(noise, max_size=3))
    return argv + [token for tokens in draw(st.permutations(items)) for token in tokens]


def _parsed(parse, argv):
    """parse(argv)'s namespace, or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParser:
    @pytest.mark.parametrize("argv", list(_PINNED_OUTPUT), ids=" ".join)
    def test_help_and_usage_errors_are_unchanged(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out, captured.err) == _PINNED_OUTPUT[argv]

    def test_help_follows_columns_when_it_renders(self, capsys, monkeypatch):
        def session_help():
            with pytest.raises(SystemExit) as exit_:
                main(["session", "--help"])
            captured = capsys.readouterr()
            return exit_.value.code, captured.out, captured.err

        monkeypatch.setenv("COLUMNS", "200")
        build_parser.cache_clear()
        wide = session_help()
        monkeypatch.setenv("COLUMNS", "80")
        assert session_help() == _PINNED_OUTPUT[("session", "--help")] != wide

    @pytest.mark.parametrize(
        "argv",
        [
            ["init", "--registry", "r.json", "--tariff", "3", "--seed", "0x10", "--force"],
            ["register", "--registry", "r.json", "--vehicle", VEHICLE, "--key", KEY,
             "--balance", "7", "--owner", "demo"],
            ["revoke", "--vehicle", VEHICLE],
            ["session", "--registry", "r.json", "--vehicle", VEHICLE, "--duration", "1500",
             "--budget", "9", "--transcript", "t.jsonl", "--json"],
            ["attack", "--scenario", "mitm", "--report", "r.txt", "--json"],
            ["invoices", "--vehicle", VEHICLE, "--json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_the_shared_parser_gives_a_fresh_parsers_namespace(self, argv):
        shared = build_parser()
        for other in (["session", "--duration", "5", "--seed", "1"], ["invoices", "--json"]):
            shared.parse_args(other)
        assert shared.parse_args(argv) == build_parser.__wrapped__().parse_args(argv)

    @settings(max_examples=400, deadline=None)
    @given(argv=_argvs())
    def test_the_shared_parser_parses_every_argv_as_a_fresh_one_does(self, argv):
        # the shared parser has parsed every earlier example; a fresh one, none
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            fresh = build_parser.__wrapped__()
            assert _parsed(build_parser().parse_args, argv) == _parsed(fresh.parse_args, argv)

    def test_main_builds_the_parser_once_per_process(self, cli, registry_path, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        built = []
        for seed in ("11", "12"):
            code, _, _ = cli("session", "--registry", registry_path, "--duration", "1000",
                             "--seed", seed)
            assert code == 0
            built.append(len(progs))
        assert progs == ["evabs", *(f"evabs {name}" for name in _OPTIONS)]
        assert built == [7, 7]


def _quick_start():
    """The README's Quick start block as (command, the lines it prints)."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"^## Quick start\n\n```\n(.*?)^```\n", readme, re.M | re.S)
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        elif line:
            steps[-1][1].append(line)
    return steps


def test_readme_quick_start_is_what_the_commands_print(cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (export, printed), *commands = _quick_start()
    [assignment] = shlex.split(export.removeprefix("export "))
    name, value = assignment.split("=", 1)
    assert (name, printed) == ("EVABS_REGISTRY", [])
    monkeypatch.setenv(name, value)
    assert commands
    for command, printed in commands:
        program, *argv = shlex.split(command)
        assert program == "evabs"
        assert cli(*argv) == (0, "".join(f"{line}\n" for line in printed), ""), command


def test_a_cli_persisted_round_fails_no_op(tmp_path):
    """The benchmark's cli-persisted workload, which runs main in process:
    two rounds, so the second restarts from the pristine registry file."""
    run, workloads = load_perfbench("run"), load_perfbench("workloads")
    cls = workloads.CliPersisted
    workload = cls(41, str(tmp_path))
    assert [run.run_round(workload, cls.round_ops)[0] for _ in range(2)] == [0, 0]
