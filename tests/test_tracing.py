"""The benchmark's tracer (perfbench/tracing.py) still fits the package.

The tracer patches evabs from outside by attribute name, and only
`perfbench/run.py --trace 1` runs it. These tests load it as a file, so a
rename in the package that would break a traced run fails here first."""

import pytest

import evabs.crypto
from evabs.channel import Transcript
from evabs.crypto import NonceSource
from evabs.scenario import ScenarioRunner

from conftest import load_perfbench, seeded_registry


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


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


def test_a_traced_flood_records_one_xorshift_span_per_draw(tracing, monkeypatch):
    runner = ScenarioRunner(seeded_registry(vehicles=2), seed=11)
    draws = []
    for name in ("next_u64", "next_bytes"):

        def counted(self, *args, method=getattr(NonceSource, name), name=name):
            draws.append(name)
            return method(self, *args)

        monkeypatch.setattr(NonceSource, name, counted)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin_op()
        runner.flood(2, "mixed")
        tracer.end_op()
    # the forged auth_request is one 64-byte draw; the garbage frame is a
    # length word, then one draw of its bytes
    assert draws == ["next_bytes", "next_u64", "next_bytes"]
    assert [span[0] for span in tracer.spans].count("kernels.xorshift") == len(draws)
