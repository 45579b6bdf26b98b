"""No exported transcript or attack report holds a secret.

The protected line carries the vehicle key k_a in clear, and the package has
one transcript export, which gives a protected-line entry its shape and no
bytes. A report names a vehicle by its enrollment ordinal, `#K`. Every
shipped scenario runs at seed 11; its `to_jsonl()` text, the file
`evabs attack --scenario NAME --transcript FILE` writes and the report that
command prints, as text and with `--json`, are searched for every vehicle
id, vehicle key and the group key, in hex. The report is also searched for
each id's first 4 bytes; the transcripts are not, as their random frame hex
could hold 4 given bytes by chance."""

import json

import pytest

from evabs.cli import main
from evabs.scenario import builtin_scenarios, run_named_scenario

from conftest import seeded_registry


def _secrets(registry, prefixes=False):
    found = {"group-key": registry.group_key}
    for i, record in enumerate(registry.vehicles):
        found[f"id-{i}"] = record.id_a
        found[f"key-{i}"] = record.k_a
        if prefixes:
            found[f"id-{i}-prefix"] = record.id_a[:4]
    return {label: value.hex() for label, value in found.items()}


def _leaked(text, secrets):
    text = text.lower()
    return [label for label, needle in secrets.items() if needle in text]


@pytest.mark.parametrize("name", builtin_scenarios())
def test_no_export_of_a_shipped_scenario_holds_a_secret(name, tmp_path, capsys):
    secrets = _secrets(seeded_registry())
    report_secrets = _secrets(seeded_registry(), prefixes=True)
    [report] = run_named_scenario(lambda: seeded_registry(), name, seed=11)
    assert _leaked(report.transcript.to_jsonl(), secrets) == []
    # the needles are right: the entries' bytes in memory hold the key of
    # every vehicle the server vouched for
    if report.counters["accepted"]:
        frames = "".join(entry.frame.hex() for entry in report.transcript)
        assert "key-0" in _leaked(frames, secrets)

    path = tmp_path / "registry.json"
    seeded_registry().save(str(path))
    transcript = tmp_path / "frames.jsonl"
    argv = ["attack", "--scenario", name, "--registry", str(path), "--seed", "11"]
    assert main(argv + ["--transcript", str(transcript)]) == 0
    assert _leaked(capsys.readouterr().out, report_secrets) == []
    text = transcript.read_text()
    assert [json.loads(line)["seq"] for line in text.splitlines()] == list(
        range(len(report.transcript))
    )
    assert _leaked(text, secrets) == []

    assert main(argv + ["--json"]) == 0
    [obj] = json.loads(capsys.readouterr().out)
    assert _leaked(json.dumps(obj), report_secrets) == []
    assert {o["vehicle"] for o in obj["outcomes"]} <= {"#1"}
