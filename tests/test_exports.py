"""Every name a module of the package exports must exist: a name left in
`__all__` after its definition is deleted breaks `from module import *`.
So must every name the per-layer benchmark patches."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import evabs
from evabs.scenario import ScenarioRunner

from conftest import seeded_registry

MODULES = ["evabs"] + [f"evabs.{m.name}" for m in pkgutil.iter_modules(evabs.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()


def test_every_name_the_layer_benchmark_patches_exists():
    # perfbench/tracing.py patches functions and methods by name (such as
    # scenario.decode_frame or Server.handle); a rename must not break it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        runner = ScenarioRunner(seeded_registry(), seed=1)
        tracer.begin_op()
        outcome = runner.run_session(runner.registry.vehicles[0], duration=2000)
        tracer.end_op()
    tracer.fold()
    assert outcome.phase == "completed"
    assert tracer.calls["channel.send"] > 0 and tracer.calls["protocol.server"] > 0
    assert [(o, a, vars(o)[a]) for o, a, _ in originals] == originals
