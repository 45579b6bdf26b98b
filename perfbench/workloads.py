"""The benchmark's three workloads.

Each workload is a closed loop with one caller. A run is a series of rounds.
A round starts from a fresh ScenarioRunner (and, for cli-persisted, from the
pristine registry file), performs a fixed number of ops, then cross-checks
the program's own counters against the harness's. Fixed-size rounds keep the
cost of an op and the size of a transcript independent of how fast the code
under test is, so a faster program does not pay for a longer transcript.

probe_power is the power of the probe time (see run.py) that the CPU time of
the workload's ops follows between runs on a shared host. It is the slope of
log(unscaled p50) against log(median probe time) over twenty 30 s runs on a
2-vCPU Xeon, in which the median probe time ranged over 21 to 41% (r² 0.91
to 0.98). Ops that encode and write JSON slow down most.

An op is three calls: prepare() draws its inputs from the seeded generator
(untimed), run() is the timed call into evabs, and check() verifies its
result (untimed). end_round() verifies the round as a whole. Every input
comes from `random.Random(seed)`, so a seed fixes the run's inputs.
"""

import contextlib
import io
import json
import os
import random

import evabs.cli
from evabs.registry import Registry
from evabs.scenario import ScenarioRunner
from evabs.wire import TAG_AUTH_REQUEST, Reason

TARIFF = 3
OPENING_BALANCE = 10**12
MAX_DURATION_MS = 4 * 3600 * 1000
AUTH_REQUEST_LEN = 65


def build_registry(rng, vehicles):
    registry = Registry(group_key=rng.randbytes(32), tariff_per_second=TARIFF)
    for _ in range(vehicles):
        registry.register(rng.randbytes(16), rng.randbytes(32), balance=OPENING_BALANCE)
    return registry


def invoice_amount(duration_ms):
    """Every started second is billed in full."""
    return -(-duration_ms // 1000) * TARIFF


class HonestFleet:
    """Honest sessions for vehicles picked uniformly from a large fleet.

    One op is ScenarioRunner.run_session. 4,096 distinct vehicle keys exceed
    the pure backend's 1,024-entry round-key cache, so a per-key cache runs
    beyond its capacity here.
    """

    name = "honest-fleet"
    probe_power = 1.2
    vehicles = 4096
    round_ops = 500
    warmup_ops = 20

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.registry = build_registry(self.rng, self.vehicles)
        self.records = self.registry.vehicles

    def start_round(self):
        self.runner = ScenarioRunner(self.registry, seed=self.rng.getrandbits(64))
        self.invoices_at_start = len(self.registry.invoices)

    def prepare(self):
        record = self.rng.choice(self.records)
        duration = self.rng.randint(1, MAX_DURATION_MS)
        return record, duration, record.balance, len(self.registry.invoices)

    def run(self, args):
        record, duration, _, _ = args
        return self.runner.run_session(record, duration)

    def check(self, args, outcome):
        record, duration, balance, invoices = args
        if outcome.phase != "completed" or len(self.registry.invoices) != invoices + 1:
            return False
        invoice = self.registry.invoices[-1]
        amount = invoice_amount(duration)
        return (
            outcome.t5 - outcome.t1 == duration
            and outcome.t4 == outcome.t5 - outcome.t1
            and invoice.id_a == record.id_a
            and invoice.duration_ms == duration
            and invoice.amount == outcome.amount == amount
            and record.balance == balance - amount
        )

    def end_round(self, ops):
        server = self.runner.server
        return (
            server.accepted == ops
            and not server.rejected
            and server.invoices_issued == ops
            and len(self.registry.invoices) - self.invoices_at_start == ops
        )


class ForgedFlood:
    """Forged open-link frames in the shipped `dos` mix, then one honest
    session per round.

    One op is ScenarioRunner.flood(2, "mixed"): one well-formed forged auth
    request and one garbage frame, so every op costs about the same and the
    latency percentiles do not straddle two kinds of op. Nothing is accepted
    or billed and only the group key is used, the opposite of honest-fleet.
    """

    name = "forged-flood"
    probe_power = 0.9
    vehicles = 256
    round_ops = 2500
    warmup_ops = 100

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.registry = build_registry(self.rng, self.vehicles)
        self.records = self.registry.vehicles

    def start_round(self):
        self.runner = ScenarioRunner(self.registry, seed=self.rng.getrandbits(64))
        self.snapshot = self.registry.snapshot()
        self.auth_frames = 0

    def prepare(self):
        return len(self.runner.transcript)

    def run(self, _):
        self.runner.flood(2, "mixed")

    def check(self, seq, _):
        forged = [
            entry.frame
            for entry in self.runner.transcript.entries[seq:]
            if entry.adversary_action == {"kind": "injected"}
        ]
        # the garbage frame can happen to be a well-formed auth request too
        auth = [f[0] == TAG_AUTH_REQUEST and len(f) == AUTH_REQUEST_LEN for f in forged]
        self.auth_frames += sum(auth)
        server = self.runner.server
        return (
            len(auth) == 2
            and auth[0]
            and server.accepted == 0
            and server.rejected[Reason.UNKNOWN_VEHICLE] == self.auth_frames
            and sum(server.rejected.values()) == self.auth_frames
        )

    def end_round(self, ops):
        unchanged = self.registry.snapshot() == self.snapshot
        record = self.rng.choice(self.records)
        duration = self.rng.randint(1, MAX_DURATION_MS)
        outcome = self.runner.run_session(record, duration)
        return (
            unchanged
            and outcome.phase == "completed"
            and outcome.amount == invoice_amount(duration)
            and self.runner.server.accepted == 1
        )


class CliPersisted:
    """`evabs session --json` run in-process against a registry file.

    One op is evabs.cli.main: one Registry.load, which re-derives every
    lookup key, plus three whole-document Registry.save calls. Each round
    restarts from the pristine file, because the file grows by one nonce
    and one invoice per op. 32 vehicles keep an op at 7 to 12 ms on a
    2-vCPU Xeon, so a 30 s run collects well over the 1,000 samples that a
    p99 with ten samples beyond it needs.
    """

    name = "cli-persisted"
    probe_power = 1.8
    vehicles = 32
    round_ops = 25
    warmup_ops = 5

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        registry = build_registry(self.rng, self.vehicles)
        self.path = os.path.join(workdir, "registry.json")
        registry.save(self.path)
        with open(self.path, "rb") as fh:
            self.pristine = fh.read()
        self.ids = [record.id_a for record in registry.vehicles]

    def start_round(self):
        with open(self.path, "wb") as fh:
            fh.write(self.pristine)
        self.balances = dict.fromkeys(self.ids, OPENING_BALANCE)

    def prepare(self):
        id_a = self.rng.choice(self.ids)
        duration = self.rng.randint(1, MAX_DURATION_MS)
        argv = [
            "session", "--registry", self.path, "--vehicle", id_a.hex(),
            "--duration", str(duration), "--seed", str(self.rng.getrandbits(64)), "--json",
        ]
        return argv, id_a, duration

    def run(self, args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = evabs.cli.main(args[0])
        return code, out.getvalue()

    def check(self, args, result):
        _, id_a, duration = args
        code, text = result
        if code != 0:
            return False
        obj = json.loads(text)
        invoice = obj["invoice"]
        amount = invoice_amount(duration)
        self.balances[id_a] -= amount
        return (
            obj["phase"] == "completed"
            and obj["vehicle"] == id_a.hex() == invoice["id_a"]
            and obj["t4"] == obj["t5"] - obj["t1"] == duration
            and (invoice["t1"], invoice["t5"]) == (obj["t1"], obj["t5"])
            and invoice["duration_ms"] == duration
            and invoice["amount"] == amount
            and obj["balance"] == self.balances[id_a]
        )

    def end_round(self, ops):
        registry = Registry.load(self.path)
        records = registry.vehicles
        return (
            len(registry.invoices) == ops
            and sum(len(record.used_nonces) for record in records) == ops
            and all(record.balance == self.balances[record.id_a] for record in records)
        )


WORKLOADS = {cls.name: cls for cls in (HonestFleet, ForgedFlood, CliPersisted)}
