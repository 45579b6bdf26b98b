"""Acceptance gate: one test per acceptance criterion, in order, each
printing a single [ACCEPTANCE] PASS/FAIL line on the real stdout so the
gate's verdicts are visible in any test run.

Criteria (tolerances pinned in the asserts):
  C01 cipher and MAC match the public vectors and 1000 random round trips
  C02 1000 honest handshakes: m5 == E(id_a, k_a) == m1 and t2 == t1
  C03 a replayed auth request is refused after every one of the 8 steps
  C04 every byte position of both open-link frames is tamper-detected
  C05 10000 forged frames without key material: zero accepted
  C06 byte search over 1000 sessions of open-link traffic: no secrets
  C07 per-session frame material pairwise distinct; monobit in [0.49, 0.51]
  C08 recovery after every adversarial abort; registry changes by rule only
  C09 billing: whole-second rounding on 100 random intervals; exact budget cutoff
  C10 a revoked vehicle is refused like an unknown one, on every attempt
  C11 same seed, same bytes; 64 concurrent replays yield exactly one accept
"""

import random
import threading

import pytest

from evabs import crypto, protocol
from evabs.channel import INSECURE, Tamper
from evabs.errors import HandshakeError
from evabs.protocol import (
    Phase,
    Server,
    Terminal,
    VehicleCredentials,
    VehicleSession,
)
from evabs.scenario import ScenarioRunner, run_named_scenario
from evabs.wire import AuthRequest, Reason, decode_frame

from conftest import seeded_registry

from test_crypto import FIPS_CIPHER, FIPS_KEY, FIPS_PLAIN, RFC4231


@pytest.fixture
def verdict(capsys):
    """One visible PASS/FAIL line per criterion, bypassing output capture."""

    def emit(num, slug, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\n[ACCEPTANCE] C{num:02d} {slug}: {status}{suffix}", flush=True)
        assert ok, f"C{num:02d} {slug} failed {suffix}"

    return emit


@pytest.fixture(scope="module")
def bulk():
    """1000 honest end-to-end sessions, shared by C06 and C07: the runner
    and the outcomes."""
    runner = ScenarioRunner(seeded_registry(seed=77, vehicles=2), seed=0xACCE)
    vehicles = runner.registry.vehicles
    outcomes = []
    for i in range(1000):
        outcome = runner.run_session(vehicles[i % 2], duration=1500)
        assert outcome.phase == "completed", f"bulk session {i} {outcome.phase}"
        outcomes.append(outcome)
    return runner, outcomes


def test_c01_cipher_and_mac_vectors(verdict):
    ok = crypto.encrypt_block(FIPS_PLAIN, FIPS_KEY) == FIPS_CIPHER
    ok = ok and crypto.decrypt_block(FIPS_CIPHER, FIPS_KEY) == FIPS_PLAIN
    for key, data, tag_hex in RFC4231:
        ok = ok and crypto.compute_mac(key, data).hex() == tag_hex
    rng = random.Random(0xC1)
    trips = 0
    for _ in range(1000):
        key, pt = rng.randbytes(32), rng.randbytes(16)
        if crypto.decrypt_block(crypto.encrypt_block(pt, key), key) == pt:
            trips += 1
    verdict(1, "cipher-and-mac-vectors", ok and trips == 1000,
             f"fips+rfc4231 exact, {trips}/1000 round trips")


def test_c02_handshake_algebra(verdict):
    rng = random.Random(0xC2)
    good = 0
    for _ in range(1000):
        creds = VehicleCredentials(id_a=rng.randbytes(16), k_a=rng.randbytes(32))
        k_g = rng.randbytes(32)
        t1 = rng.randrange(0, 1 << 48)
        req = protocol.build_auth_request(creds, k_g, rng.randbytes(16))
        lookup = protocol.derive_lookup_request(req, k_g)
        start = protocol.build_start_charge(creds.k_a, k_g, t1, rng.randbytes(16))
        t2 = protocol.open_start_charge(start, creds.k_a, k_g)
        if (
            lookup.m5 == crypto.encrypt_block(creds.id_a, creds.k_a)
            and protocol.verify_auth_request(req, creds.k_a)
            and t2 == t1
        ):
            good += 1
    verdict(2, "handshake-algebra", good == 1000, f"{good}/1000 sessions held both identities")


def test_c03_replay_refused_after_every_step(verdict):
    failures = []
    for step in range(1, 9):
        registry = seeded_registry(seed=40 + step)
        record = registry.vehicles[0]
        creds = VehicleCredentials(record.id_a, record.k_a)
        terminal = Terminal(registry.group_key, crypto.NonceSource.from_seed(100 + step))
        server = Server(registry)
        session = VehicleSession(
            creds, registry.group_key, crypto.NonceSource.from_seed(200 + step)
        )

        req = session.start()
        dup = AuthRequest(m3=req.m3, mac=req.mac, n_a=req.n_a)
        dup_reply = None

        def replay_round():
            # from step 3 on, the original's nonce is already consumed by
            # the time the copy completes its round
            return server.handle_lookup(terminal.handle_auth(dup))

        lookup = terminal.handle_auth(req)  # step 2
        dup_lookup = None
        if step <= 2:
            # the copy trails the original on the FIFO link: it reaches the
            # terminal now, but the server still answers the original first
            dup_lookup = terminal.handle_auth(dup)
        reply = server.handle_lookup(lookup)  # step 3
        if step <= 2:
            dup_reply = server.handle_lookup(dup_lookup)
        elif step == 3:
            dup_reply = replay_round()
        start = terminal.handle_reply(reply, now=4000)  # step 4
        if step == 4:
            dup_reply = replay_round()
        session.receive(start)  # step 5
        if step == 5:
            dup_reply = replay_round()
        session.unplug(now=7000)  # step 6
        if step == 6:
            dup_reply = replay_round()
        report = terminal.stop_charge(now=7000)  # step 7
        if step == 7:
            dup_reply = replay_round()
        server.handle_report(report, now=7000)  # step 8
        if step == 8:
            dup_reply = replay_round()

        # drain the copy's rejection through the terminal; a charging or
        # finished vehicle must ignore the stray failure notice
        notice = terminal.handle_reply(dup_reply, now=7000)
        session.receive(notice)

        if not (
            dup_reply is not None
            and not dup_reply.accepted
            and dup_reply.reason is Reason.REPLAY_DETECTED
            and session.phase is Phase.COMPLETED
            and session.t2 == 4000
            and server.accepted == 1
        ):
            failures.append(step)
    verdict(3, "replay-refused-at-every-step", not failures,
             f"steps with a missed replay: {failures or 'none'}")


def test_c04_tamper_sweep_both_frames(verdict):
    runner = ScenarioRunner(seeded_registry(seed=51), seed=0xC4)
    runner.run_sweep("auth_request")
    runner.run_sweep("start_charge")
    auth, start = runner.sweeps["auth_request"], runner.sweeps["start_charge"]
    bad = []
    if len(auth) != 65 or len(start) != 65:
        bad.append("coverage")
    for position, result in enumerate(auth):
        if result.phase == "charging" or result.phase == "completed":
            bad.append(f"auth@{position}")
    for position, result in enumerate(start):
        # position 0 is the frame tag: the frame no longer decodes and the
        # vehicle times out; every other position must trip the vehicle MAC
        if position == 0:
            if result.phase != "aborted":
                bad.append("start@0")
        elif not (result.phase == "failed" and result.reason == "mac_invalid"):
            bad.append(f"start@{position}")
    verdict(4, "tamper-detected-at-every-byte", not bad,
             f"130 positions swept, undetected: {bad or 'none'}")


def test_c05_forged_frames_never_authenticate(verdict):
    runner = ScenarioRunner(seeded_registry(seed=52), seed=0xC5)
    before = runner.registry.snapshot()
    runner.flood(10_000, style="mixed")
    ok = runner.server.accepted == 0 and runner.registry.snapshot() == before
    verdict(5, "impersonation-flood-rejected", ok,
             f"accepted={runner.server.accepted}/10000, registry untouched")


def test_c06_no_secret_bytes_on_the_open_link(bulk, verdict):
    runner, _ = bulk
    needles = [runner.registry.group_key]
    for record in runner.registry.vehicles:
        needles.append(record.id_a)
        needles.append(record.k_a)
    haystack = b"".join(
        entry.frame for entry in runner.transcript if entry.channel == INSECURE
    )
    hits = [needle.hex()[:8] for needle in needles if needle in haystack]
    verdict(6, "no-secrets-on-the-open-link", not hits,
             f"{len(haystack)} open-link bytes searched, hits: {hits or 'none'}")


def test_c07_frame_material_fresh_and_balanced(bulk, verdict):
    slices = {
        "m3": set(), "mac1": set(), "n_a": set(),
        "m8": set(), "mac4": set(), "n_t": set(),
    }
    bits_one = 0
    bits_total = 0
    sessions = 0
    _, outcomes = bulk
    for outcome in outcomes:
        auth = outcome.frames.get("auth_request")
        start = outcome.frames.get("start_charge")
        if auth is None or start is None:
            continue
        sessions += 1
        slices["m3"].add(auth[1:17])
        slices["mac1"].add(auth[17:49])
        slices["n_a"].add(auth[49:65])
        slices["m8"].add(start[1:17])
        slices["mac4"].add(start[17:49])
        slices["n_t"].add(start[49:65])
        for nonce in (auth[49:65], start[49:65]):
            bits_one += sum(bin(b).count("1") for b in nonce)
            bits_total += 128
    repeats = {name: sessions - len(seen) for name, seen in slices.items() if len(seen) != sessions}
    fraction = bits_one / bits_total
    ok = sessions == 1000 and not repeats and 0.49 <= fraction <= 0.51
    verdict(7, "fresh-and-balanced-frames", ok,
             f"{sessions} sessions, repeats={repeats or 'none'}, ones={fraction:.4f}")


def test_c08_recovery_and_rule_bound_registry(verdict):
    runner = ScenarioRunner(seeded_registry(seed=53), seed=0xC8)
    record = runner.registry.vehicles[0]
    aborts = [
        ("auth_request", Tamper(2, 0xFF)),
        ("auth_request", Tamper(20, 0xFF)),
        ("start_charge", Tamper(2, 0xFF)),
        ("auth_request", Tamper(0, 0xFF)),
    ]
    bad = []
    for i, (variant, action) in enumerate(aborts):
        runner.script.arm(variant, action)
        broken = runner.run_session(record, duration=2000)
        if broken.phase == "completed":
            bad.append(f"abort{i}-completed")
        clean = runner.run_session(record, duration=2000)
        if clean.phase != "completed":
            bad.append(f"recovery{i}-{clean.phase}")
    before = runner.registry.snapshot()
    runner.flood(1000, style="garbage")
    if runner.registry.snapshot() != before:
        bad.append("flood-changed-registry")
    # rule-bound growth: one stored nonce per accepted lookup, one invoice
    # per delivered report, enrollment and revocation untouched
    nonces = sum(len(rec.used_nonces) for rec in runner.registry.vehicles)
    if nonces != runner.server.accepted:
        bad.append(f"nonces={nonces}!=accepted={runner.server.accepted}")
    if len(runner.registry.invoices) != runner.server.invoices_issued:
        bad.append("invoice-count")
    if any(rec.revoked for rec in runner.registry.vehicles):
        bad.append("revocation-appeared")
    verdict(8, "desync-recovery-rule-bound-state", not bad, f"issues: {bad or 'none'}")


def test_c09_billing_and_budget_cutoff(verdict):
    rng = random.Random(0xC9)
    bad = []
    for i in range(100):
        tariff = rng.randrange(0, 12)
        duration = rng.randrange(0, 240_000)
        registry = seeded_registry(seed=500 + i, tariff=tariff, vehicles=1)
        runner = ScenarioRunner(registry, seed=900 + i)
        outcome = runner.run_session(registry.vehicles[0], duration=duration)
        seconds = duration // 1000 + (1 if duration % 1000 else 0)
        if outcome.phase != "completed":
            bad.append(f"{i}:{outcome.phase}")
        elif outcome.amount != seconds * tariff or outcome.t4 != outcome.t5 - outcome.t1:
            bad.append(f"{i}:amount={outcome.amount} t4={outcome.t4}")
    # exact budget cutoffs: charging stops the moment accrued cost reaches
    # the budget, never beyond it
    registry = seeded_registry(seed=600, tariff=3, vehicles=1)
    runner = ScenarioRunner(registry, seed=901)
    twice = runner.run_session(registry.vehicles[0], duration=60_000, budget=6)
    if not (twice.t4 == 2000 and twice.amount == 6):
        bad.append(f"budget=2x-tariff:t4={twice.t4},amount={twice.amount}")
    registry = seeded_registry(seed=601, tariff=2, vehicles=1)
    runner = ScenarioRunner(registry, seed=902)
    four = runner.run_session(registry.vehicles[0], duration=60_000, budget=4)
    if not (four.t4 == 2000 and four.amount == 4):
        bad.append(f"budget=4:t4={four.t4},amount={four.amount}")
    verdict(9, "billing-and-budget-cutoff", not bad, f"issues: {bad or 'none'}")


def test_c10_revoked_vehicle_always_refused(verdict):
    registry = seeded_registry(seed=54, vehicles=2)
    runner = ScenarioRunner(registry, seed=0xC10)
    victim, bystander = registry.vehicles
    assert runner.run_session(victim, duration=1000).phase == "completed"
    registry.revoke(victim.id_a)
    refusals = 0
    for _ in range(20):
        outcome = runner.run_session(victim, duration=1000)
        if outcome.phase == "failed" and outcome.reason == "unknown_vehicle":
            refusals += 1
    other = runner.run_session(bystander, duration=1000)
    ok = (
        refusals == 20
        and other.phase == "completed"
        and len(registry.invoices_for(victim.id_a)) == 1  # only the pre-revocation one
    )
    verdict(10, "revocation-refused-everywhere", ok,
             f"{refusals}/20 refused as unknown, bystander {other.phase}")


def test_c11_determinism_and_single_accept(verdict):
    transcripts = {}
    for name in ("replay", "desync"):
        runs = [
            run_named_scenario(lambda: seeded_registry(seed=55), name, seed=7)[0]
            for _ in range(2)
        ]
        transcripts[name] = runs[0].transcript.to_jsonl() == runs[1].transcript.to_jsonl()
    registry = seeded_registry(seed=56)
    record = registry.vehicles[0]
    nonce = b"\x5a" * 16
    barrier = threading.Barrier(64)
    accepted = []

    def attempt():
        barrier.wait()
        found, _ = registry.authenticate(record.lookup_key, nonce)
        if found is not None:
            accepted.append(1)

    threads = [threading.Thread(target=attempt) for _ in range(64)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ok = all(transcripts.values()) and len(accepted) == 1
    verdict(11, "determinism-and-single-accept", ok,
             f"byte-identical={transcripts}, concurrent accepts={len(accepted)}/64")
