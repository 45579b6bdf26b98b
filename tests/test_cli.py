"""End-to-end command tests, run in process through main(argv).

Exit code contract: 0 success / defense held, 1 protocol or billing failure
(including a breached scenario), 2 bad invocation or configuration, 3
storage problems. Provisioning output may show credentials once; session,
attack and invoice output must never contain key material."""

import argparse
import contextlib
import fcntl
import io
import json
import os
import pathlib
import shutil
import stat
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evabs
from evabs.cli import build_parser, main, parse_args
from evabs.registry import Registry

from conftest import seeded_registry

VEHICLE = "a1" * 16
KEY = "b2" * 32
OTHER_VEHICLE = "c3" * 16
OTHER_KEY = "d4" * 32


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
        obj = json.loads(out.splitlines()[-1])
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
        obj = json.loads(out.splitlines()[-1])
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

    def test_longest_duration_that_fits_is_billed(self, cli, registry_path):
        # a fresh run starts charging at t1 = 1000 ms, so t5 reaches 2**64 - 1
        duration = 2**64 - 1 - 1000
        code, out, err = cli(
            "session", "--registry", registry_path, "--duration", str(duration),
            "--seed", "11", "--json",
        )
        assert code == 0, err
        obj = json.loads(out.splitlines()[-1])
        assert obj["t5"] == 2**64 - 1
        assert obj["invoice"]["duration_ms"] == duration

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
        # one save when the nonce is consumed, one when the invoice is issued
        saves = []
        save = Registry.save

        def counting_save(registry, path):
            saves.append(path)
            save(registry, path)

        monkeypatch.setattr(Registry, "save", counting_save)
        code, _, _ = cli(
            "session", "--registry", registry_path, "--duration", "1000", "--seed", "11"
        )
        assert code == 0
        assert saves == [registry_path, registry_path]
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

    def test_corrupt_registry_is_a_storage_error(self, cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        code, _, err = cli("session", "--registry", str(path), "--duration", "1000", "--seed", "1")
        assert code == 3
        assert "storage error" in err


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
        held = []
        save = Registry.save

        def probing_save(registry, path):
            # flock conflicts between two open files, even in one process
            fd = os.open(f"{path}.lock", os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                held.append(False)
            except BlockingIOError:
                held.append(True)
            finally:
                os.close(fd)
            save(registry, path)

        monkeypatch.setattr(Registry, "save", probing_save)
        code, _, _ = cli(argv[0], "--registry", registry_path, *argv[1:])
        assert code == 0
        assert held and all(held)

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

    @pytest.mark.parametrize("content", [b"\xff", b"[" * 200_000], ids=["0xff", "deep-nesting"])
    def test_undecodable_registry_is_a_storage_error(self, cli, tmp_path, content):
        path = tmp_path / "registry.json"
        path.write_bytes(content)
        code, _, err = cli("invoices", "--registry", str(path))
        assert code == 3
        assert err.startswith(f"storage error: registry {path} is not valid JSON")
        assert "Traceback" not in err


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
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == evabs.__version__


# Help and usage-error output, recorded at 80 columns before the parser was
# built per command; the per-command build must not change a byte of it.
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
    # errors the top-level parser raises after a command was selected
    ("session", "--duration", "-5", "--registry", "x"): (
        2,
        "",
        _TOP_USAGE + "evabs: error: --duration must be non-negative\n",
    ),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["init", "--registry", "r.json", "--tariff", "3", "--seed", "0x10", "--force"],
            ["register", "--registry", "r.json", "--vehicle", VEHICLE, "--key", KEY,
             "--balance", "7", "--owner", "demo"],
            ["revoke", "--vehicle", VEHICLE, "--seed", "4"],
            ["session", "--registry", "r.json", "--vehicle", VEHICLE, "--duration", "1500",
             "--budget", "9", "--transcript", "t.jsonl", "--json"],
            ["attack", "--scenario", "mitm", "--report", "r.txt", "--json"],
            ["invoices", "--vehicle", VEHICLE, "--json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_command_parser_gives_the_full_parsers_namespace(self, argv):
        assert parse_args(argv) == build_parser().parse_args(argv)

    @settings(max_examples=400, deadline=None)
    @given(argv=_argvs())
    def test_main_parses_every_argv_as_the_full_parser_does(self, argv):
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            assert _parsed(parse_args, argv) == _parsed(build_parser().parse_args, argv)

    @pytest.mark.parametrize(
        "argv, usage_error",
        [
            (["--duration", "1000", "--seed", "11"], False),
            (["--duration", "5", "--bogus"], True),
            (["--duration", "-5"], True),
        ],
        ids=["success", "leftover-argument", "negative-duration"],
    )
    def test_session_builds_the_full_parser_only_for_a_usage_error(
        self, argv, usage_error, cli, registry_path, monkeypatch
    ):
        progs, reads = [], []
        init, get_terminal_size = argparse.ArgumentParser.__init__, shutil.get_terminal_size

        def counting_init(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        def counting_get_terminal_size(*args):
            reads.append(args)
            return get_terminal_size(*args)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(shutil, "get_terminal_size", counting_get_terminal_size)
        try:
            code, _, _ = cli("session", "--registry", registry_path, *argv)
        except SystemExit as exc:
            code = exc.code
        full = ["evabs", *(f"evabs {name}" for name in _OPTIONS)]
        assert progs == ["evabs session", *(full if usage_error else [])]
        assert len(reads) == (2 if usage_error else 1)  # one width read per build
        assert code == (2 if usage_error else 0)
