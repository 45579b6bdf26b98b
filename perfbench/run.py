"""Benchmark of evabs, end to end and layer by layer.

    python3 perfbench/run.py --workload honest-fleet --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process on one thread, from
the evabs sources under src/ next to this directory, checks every op, and
prints one JSON object as its last line of output. With --trace 0 it holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
run whose rounds alternate between untraced and traced (see tracing.py).
A line before it records the backend, Python, CPU count, sample counts,
the p90 and p99 latencies, and the timings before scaling (see PROBE_NS below).

Every timing is CPU time of the benchmark's thread (user plus system, from
CLOCK_THREAD_CPUTIME_ID), not wall-clock time. On a shared virtual host the
wall clock also counts time the thread waits for the disk or for a CPU that
another tenant holds; in CPU time an op costs what the program does. A
change that only adds waiting (say, an fsync) shows in the unscaled wall
rate on the info line, not in the metrics.

For the in-memory workloads every run also replays a fixed op count on a
fixed check seed and compares the SHA-256 of the redacted transcript with
the digest recorded in digests.json, so a run fails when transcripts stop
being byte-identical. Exit status is 0 only when every check passed.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# Other tenants of a shared host slow even the CPU time of an op down by a
# third and more, for milliseconds to minutes at a time. A fixed pure-Python
# probe that runs no evabs code and keeps no objects is timed before each
# set-up and after it, and before a round's first op and after every
# PROBE_CHUNKS-th part of its ops. The times in between are multiplied by
# (PROBE_NS / mean of the two probe times around them) ** probe_power, so
# they read as on a host where the probe takes PROBE_NS. A change to evabs
# cannot move the probe; the unscaled figures are printed on the info line.
# The probe is an integer loop plus the table-driven byte work of a block
# cipher with a hash now and then. Within a run, on a 2-vCPU Xeon, the CPU
# time of a tenth of a round grew as the probe time around it to the power
# 1.05 to 1.07 in all three workloads (1.19 to 1.31 for the loop alone).
# Between runs, minutes apart, each workload follows the probe with its own
# power, its class's probe_power (see workloads.py).
# The latency percentiles are the medians over windows of consecutive whole
# rounds holding at least WINDOW_OPS ops each, so a stretch of a run that
# other tenants slowed moves only its own windows. A workload whose run holds
# fewer ops than two windows has one window, the whole run.
WINDOW_OPS = 2500
PROBE_LOOPS = 8000
PROBE_BLOCKS = 240
PROBE_CHUNKS = 10
PROBE_NS = 2_000_000
_PROBE_TABLE = list(range(256))
_PROBE_WORDS = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]
_PROBE_SBOX = bytes((i * 167 + 13) & 255 for i in range(256))


def _import_evabs():
    package = ROOT / "src" / "evabs"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no evabs sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import evabs

    if Path(evabs.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported evabs from {evabs.__file__}, not {package}")
    return evabs


def probe_ns():
    """CPU time of the fixed probe, once."""
    table, words, sbox = _PROBE_TABLE, _PROBE_WORDS, _PROBE_SBOX
    s = 0
    block, digest = bytes(range(16)), b""
    start = time.thread_time_ns()
    for i in range(PROBE_LOOPS):
        s = (s * 31 + table[(s ^ i) & 255]) & 0xFFFFF
    for i in range(PROBE_BLOCKS):
        block = bytes([(words[b] ^ words[sbox[b ^ i & 255]]) & 255 for b in block])
        if i % 8 == 0:
            digest = hashlib.sha256(block + digest).digest()
    return time.thread_time_ns() - start


def run_round(workload, ops, tracer=None, samples=None, probes=None):
    """One round of `ops` checked ops.

    Returns (failed ops, CPU ns of the timed calls, wall ns of the same).
    With `probes` an empty list, times the probe between parts of the
    round and appends to it, for each op, the mean of the two probe times
    around its part (see PROBE_NS).
    """
    workload.start_round()
    failed = 0
    total_ns = wall_ns = 0
    chunk = max(1, ops // PROBE_CHUNKS)
    probe = probe_ns() if probes is not None else None
    for i in range(ops):
        if probes is not None and i and i % chunk == 0:
            probe = _close_chunk(probes, chunk, probe)
        args = workload.prepare()
        if tracer is not None:
            tracer.begin_op()
        wall_start = time.perf_counter_ns()
        start = time.thread_time_ns()
        try:
            result = workload.run(args)
            raised = False
        except Exception:
            raised = True
            traceback.print_exc()
        elapsed = time.thread_time_ns() - start
        wall_ns += time.perf_counter_ns() - wall_start
        if tracer is not None:
            tracer.end_op()
        total_ns += elapsed
        if samples is not None:
            samples.append(elapsed)
        try:
            ok = not raised and workload.check(args, result)
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    if probes is not None:
        _close_chunk(probes, ops - len(probes), probe)
    try:
        round_ok = workload.end_round(ops)
    except Exception:
        traceback.print_exc()
        round_ok = False
    return (failed if round_ok else ops), total_ns, wall_ns


def _close_chunk(probes, ops, before):
    """Give the last `ops` ops the mean of the probe times around them."""
    after = probe_ns()
    probes += [(before + after) / 2] * ops
    return after


def scale(probe, power):
    """Factor that makes a time taken beside `probe` read as at PROBE_NS."""
    return (PROBE_NS / probe) ** power


def digest_gate(cls, workdir):
    """(ok, attempted, failed, digest) for the fixed check replay."""
    with open(HERE / "digests.json") as fh:
        expected = json.load(fh).get(cls.name)
    if expected is None:
        return True, 0, 0, None
    workload = cls(expected["seed"], workdir)
    failed, _, _ = run_round(workload, expected["ops"])
    digest = hashlib.sha256(workload.runner.transcript.to_jsonl().encode()).hexdigest()
    return digest == expected["sha256"], expected["ops"], failed, digest


def measure(cls, seed, seconds, workdir):
    """End-to-end run. Returns (metrics, attempted, failed, info)."""
    setup_s = []
    raw_setup_s = []
    attempted = failed = 0
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous copy before timing the next
        gc.collect()
        before = probe_ns()
        start = time.thread_time()
        workload = cls(seed, workdir)
        warm_failed, _, _ = run_round(workload, cls.warmup_ops)
        elapsed = time.thread_time() - start
        factor = scale((before + probe_ns()) / 2, cls.probe_power)
        raw_setup_s.append(elapsed)
        setup_s.append(elapsed * factor)
        attempted += cls.warmup_ops
        failed += warm_failed

    rates, raw_rates, wall_rates, samples, raw_samples, windows = [], [], [], [], [], [[]]
    probes = []
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        round_samples, round_probes = [], []
        round_failed, round_ns, round_wall_ns = run_round(
            workload, cls.round_ops, samples=round_samples, probes=round_probes
        )
        attempted += cls.round_ops
        failed += round_failed
        scaled = [s * scale(p, cls.probe_power) for s, p in zip(round_samples, round_probes)]
        probes += round_probes
        raw_rates.append(cls.round_ops / round_ns * 1e9)
        wall_rates.append(cls.round_ops / round_wall_ns * 1e9)
        rates.append(cls.round_ops / sum(scaled) * 1e9)
        raw_samples += round_samples
        samples += scaled
        if len(windows[-1]) >= WINDOW_OPS:
            windows.append([])
        windows[-1] += scaled
        if peak_rss_mb is None:
            # read at a fixed op count, so a faster program is not charged
            # for the memory of the extra ops it fits into the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if len(windows) > 1 and len(windows[-1]) < WINDOW_OPS:
        last = windows.pop()
        windows[-1] += last
    window_cuts = [statistics.quantiles(w, n=100, method="inclusive") for w in windows]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    raw_cuts = statistics.quantiles(raw_samples, n=100, method="inclusive")
    metrics = {
        # ops per CPU-second of the benchmark's thread, the median over rounds
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "latency_p50_us": {
            "value": statistics.median(c[49] for c in window_cuts) / 1000, "unit": "us"
        },
        "latency_p75_us": {
            "value": statistics.median(c[74] for c in window_cuts) / 1000, "unit": "us"
        },
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    info = {
        "samples": len(samples),
        "windows": len(windows),
        # not metrics: on a shared host the share of ops that other tenants
        # slow down changes from minute to minute, and above about the 80th
        # percentile it sets the shape of the distribution. Over ten runs of
        # the same code on a 2-vCPU Xeon, the quartiles of the p90 lay 10% of
        # its median apart, and those of the p99 up to 27%.
        "latency_p90_us": cuts[89] / 1000,
        "latency_p99_us": cuts[98] / 1000,
        "samples_beyond_p99": sum(1 for s in samples if s > cuts[98]),
        "rounds": len(rates),
        "round_ops": cls.round_ops,
        "probe_median_ns": statistics.median(probes),
        "unscaled": {
            "ops_per_s": statistics.median(raw_rates),
            "latency_p50_us": raw_cuts[49] / 1000,
            "latency_p75_us": raw_cuts[74] / 1000,
            "latency_p99_us": raw_cuts[98] / 1000,
            "setup_s": statistics.median(raw_setup_s),
            "wall_ops_per_s": statistics.median(wall_rates),
        },
    }
    return metrics, attempted, failed, info


def trace(cls, seed, seconds, workdir):
    """Per-layer run. Returns (metrics, attempted, failed, info)."""
    import tracing

    workload = cls(seed, workdir)
    failed, _, _ = run_round(workload, cls.warmup_ops)
    attempted = cls.warmup_ops
    tracer = tracing.Tracer()
    plain_ns = traced_ns = plain_ops = 0
    deadline = time.perf_counter() + seconds
    while not plain_ops or time.perf_counter() < deadline:
        round_failed, round_ns, _ = run_round(workload, cls.round_ops)
        plain_ns += round_ns
        plain_ops += cls.round_ops
        failed += round_failed
        with tracer.installed():
            round_failed, round_ns, _ = run_round(workload, cls.round_ops, tracer=tracer)
        tracer.fold()
        traced_ns += round_ns
        failed += round_failed
        attempted += 2 * cls.round_ops
    overhead = (traced_ns / tracer.ops) / (plain_ns / plain_ops)
    metrics = tracer.metrics(overhead)
    spans_path = OUT / f"spans-{cls.name}-seed{seed}.tsv"
    tracer.write(spans_path)
    info = {
        "traced_ops": tracer.ops,
        "untraced_ops": plain_ops,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, attempted, failed, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    evabs = _import_evabs()
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = trace if args.trace else measure
        metrics, attempted, failed, info = run(cls, args.seed, args.seconds, str(workdir))
        digest_ok, digest_ops, digest_failed, digest = digest_gate(cls, str(workdir))
    finally:
        shutil.rmtree(workdir)
    attempted += digest_ops
    failed += digest_failed
    correct = failed == 0 and digest_ok

    print(json.dumps({
        "workload": cls.name,
        "seed": args.seed,
        "trace": args.trace,
        "backend": evabs.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "failed_share": failed / attempted,
        "transcript_digest": digest,
        "transcript_digest_ok": digest_ok,
        **info,
    }))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
