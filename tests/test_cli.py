"""End-to-end command tests, run in process through main(argv).

Exit code contract: 0 success / defense held, 1 protocol or billing failure
(including a breached scenario), 2 bad invocation or configuration, 3
storage problems. Provisioning output may show credentials once; session,
attack and invoice output must never contain key material."""

import fcntl
import json
import os
import pathlib
import subprocess
import sys

import pytest

import evabs
from evabs.cli import main
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
