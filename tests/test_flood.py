"""Forged frames from ScenarioRunner.flood, byte for byte.

flood draws a well-formed forged auth request from the adversary's stream in
one call. These tests rebuild the frame from a copy of that stream one field
per draw, as AuthRequest(m3, mac, n_a) takes them, and compare it with what
went on the link."""

import pytest

from evabs.channel import INSECURE
from evabs.crypto import NonceSource
from evabs.scenario import ScenarioRunner
from evabs.wire import AuthRequest

from conftest import seeded_registry


def _injected(runner):
    return [
        entry.frame
        for entry in runner.transcript
        if entry.channel == INSECURE and entry.adversary_action == {"kind": "injected"}
    ]


@pytest.mark.parametrize("seed", [1, 3, 11])
def test_wellformed_frame_is_the_auth_request_of_three_draws(seed):
    runner = ScenarioRunner(seeded_registry(), seed=seed)
    twin = NonceSource(*runner.adversary_rng.state)
    runner.flood(1, "wellformed")
    want = AuthRequest(
        m3=twin.next_bytes(16), mac=twin.next_bytes(32), n_a=twin.next_bytes(16)
    ).encode()
    assert _injected(runner) == [want]
    assert runner.adversary_rng.state == twin.state
