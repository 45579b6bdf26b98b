"""The benchmark's tracer (perfbench/tracing.py) still fits the package.

The tracer patches evabs from outside by attribute name, and only
`perfbench/run.py --trace 1` runs it. These tests load it as a file, so a
rename in the package that would break a traced run fails here first."""

import importlib.util
import pathlib

import pytest

import evabs.crypto
from evabs.channel import Transcript
from evabs.scenario import ScenarioRunner

from conftest import seeded_registry

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_an_attribute_of_its_owner(tracing):
    targets = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    assert [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)] == []


def test_every_kernel_is_on_the_active_backend(tracing):
    kernels = evabs.crypto.kernels
    assert [name for name in tracing.KERNELS if not callable(getattr(kernels, name, None))] == []


def test_a_traced_session_records_registry_spans_and_restores_every_patch(tracing):
    patched = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    patched += [(Transcript, "append"), (evabs.crypto, "kernels")]
    before = [vars(owner)[attr] for owner, attr in patched]
    registry = seeded_registry(vehicles=2)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin_op()
        runner = ScenarioRunner(registry, seed=11)
        outcome = runner.run_session(registry.vehicles[0], duration=1000)
        tracer.end_op()
    assert outcome.phase == "completed"
    names = {span[0] for span in tracer.spans}
    assert {
        "channel.send", "protocol.server", "registry.authenticate", "registry.bill",
        "kernels.aes_encrypt",
    } <= names
    assert [vars(owner)[attr] for owner, attr in patched] == before
