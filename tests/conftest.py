"""Shared fixtures and helpers for the test suite.

All randomness in tests is seeded so failures reproduce exactly.
"""

import importlib.util
import pathlib
import random

import pytest

from evabs import crypto
from evabs.registry import Registry


def seeded_registry(seed=7, tariff=2, vehicles=2, balance=100_000):
    """Deterministic registry with `vehicles` enrolled records."""
    rng = crypto.NonceSource.from_seed(seed)
    reg = Registry(group_key=rng.next_bytes(32), tariff_per_second=tariff)
    for i in range(vehicles):
        reg.register(
            rng.next_bytes(16),
            rng.next_bytes(32),
            balance=balance,
            owner=f"owner-{i}",
        )
    return reg


def seeded_bytes(seed, n):
    """n reproducible pseudo-random bytes, independent of the package PRNG."""
    return random.Random(seed).randbytes(n)


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py, loaded as a file: the benchmark is no package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def registry():
    return seeded_registry()


@pytest.fixture(autouse=True)
def _isolate_registry_env(monkeypatch):
    """Commands fall back to $EVABS_REGISTRY; tests must opt in explicitly."""
    monkeypatch.delenv("EVABS_REGISTRY", raising=False)
