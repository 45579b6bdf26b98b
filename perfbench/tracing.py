"""Per-layer tracing of evabs from outside the package.

While a traced round runs, the public functions and methods of each layer
are replaced by wrappers, patched wherever the name is bound (a module that
imports a function by name holds its own binding), and the kernels are
reached through a proxy on evabs.crypto.kernels. Each call made inside a
traced op records one span: name, start, end, parent span and op id. At the
end of a round the spans are folded into per-layer call counts and self
times; self time is a span's duration minus the time its child spans cover.
The spans of the first traced round are kept and written out at the end.

The round-key cache hit ratio is read from the pure-Python backend's
`_round_keys.cache_info()`; with the compiled backend active that cache is
never consulted and the ratio reads 0.
"""

import os
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns
from types import SimpleNamespace

import evabs.cli
import evabs.crypto
import evabs.scenario
import evabs.wire
from evabs import _pykernels
from evabs.channel import Network, Transcript
from evabs.crypto import NonceSource
from evabs.protocol import Server, Terminal, VehicleSession
from evabs.registry import Registry
from evabs.scenario import ScenarioRunner
from evabs.wire import (
    AuthRequest,
    ChargeReport,
    FailureNotice,
    LookupReply,
    LookupRequest,
    StartCharge,
)


def _count_accepts(counts, args, result):
    counts["registry.authenticate.accepts"] += result[0] is not None


def _count_saved_bytes(counts, args, result):
    counts["registry.save.bytes"] += os.path.getsize(args[1])


def _methods(owner, names, span):
    return [(owner, name, span, None) for name in names]


# (owner, attribute, span name, hook run after a successful call)
TARGETS = [
    (evabs.crypto, "encrypt_block", "crypto.validate", None),
    (evabs.crypto, "decrypt_block", "crypto.validate", None),
    (evabs.crypto, "verify_mac", "crypto.validate", None),
    (NonceSource, "next_nonce", "crypto.validate", None),
    (evabs.crypto, "xor_blocks", "crypto.xor", None),
    (evabs.crypto, "compute_mac", "crypto.mac", None),
    (evabs.wire, "decode_frame", "wire.decode", None),
    (evabs.scenario, "decode_frame", "wire.decode", None),
    *[
        (cls, "encode", "wire.encode", None)
        for cls in (AuthRequest, LookupRequest, LookupReply, StartCharge, ChargeReport, FailureNotice)
    ],
    *_methods(VehicleSession, ("start", "receive", "unplug", "abort"), "protocol.vehicle"),
    *_methods(Terminal, ("handle_auth", "handle_reply", "stop_charge"), "protocol.terminal"),
    *_methods(Server, ("handle", "handle_lookup", "handle_report"), "protocol.server"),
    *_methods(Network, ("send", "attacker_send", "replay_entry"), "channel.send"),
    (Registry, "authenticate", "registry.authenticate", _count_accepts),
    (Registry, "bill", "registry.bill", None),
    (Registry, "save", "registry.save", _count_saved_bytes),
    (Registry, "load", "registry.load", None),
    *_methods(ScenarioRunner, ("__init__", "run_session", "flood"), "scenario.orchestration"),
    (evabs.cli, "main", "cli.main", None),
]

KERNELS = {
    "aes256_encrypt_block": "kernels.aes_encrypt",
    "aes256_decrypt_block": "kernels.aes_decrypt",
    "xorshift128p_next": "kernels.xorshift",
}

# layers whose call count per op is reported
CALLS = [
    "kernels.aes_encrypt", "kernels.aes_decrypt", "kernels.xorshift", "crypto.mac", "crypto.xor",
    "wire.decode", "wire.encode", "channel.send", "registry.authenticate", "registry.save",
    "registry.load",
]
# layer -> spans whose self time it sums
SELF = {
    "kernels.aes_encrypt": ("kernels.aes_encrypt",),
    "kernels.aes_decrypt": ("kernels.aes_decrypt",),
    "kernels.xorshift": ("kernels.xorshift",),
    "crypto.validate": ("crypto.validate", "crypto.xor"),
    "crypto.mac": ("crypto.mac",),
    "wire.decode": ("wire.decode",),
    "wire.encode": ("wire.encode",),
    "protocol.vehicle": ("protocol.vehicle",),
    "protocol.terminal": ("protocol.terminal",),
    "protocol.server": ("protocol.server",),
    "channel.send": ("channel.send",),
    "registry.authenticate": ("registry.authenticate",),
    "registry.bill": ("registry.bill",),
    "registry.save": ("registry.save",),
    "registry.load": ("registry.load",),
    "scenario.orchestration": ("scenario.orchestration",),
    "cli.main": ("cli.main",),
}

# every per-layer metric, in report order: name -> (unit, better)
PER_LAYER = {
    **{f"{layer}.calls_per_op": ("calls/op", "lower") for layer in CALLS},
    **{f"{layer}.self_us_per_op": ("us/op", "lower") for layer in SELF},
    "kernels.round_key_cache.hit_ratio": ("ratio", "higher"),
    "wire.decode.reject_ratio": ("ratio", "lower"),
    "channel.transcript.entries_per_op": ("entries/op", "lower"),
    "registry.authenticate.accept_ratio": ("ratio", "higher"),
    "registry.save.bytes_per_op": ("B/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Span recorder. Wrappers record only while `op` is set, so calls the
    harness itself makes between ops pass straight through."""

    def __init__(self):
        self.op = None
        self.ops = 0
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.kept = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.cache_hits = 0
        self.cache_misses = 0
        self._stack = []
        self._cache_before = None

    def _wrap(self, name, fn, after=None):
        tracer, spans, stack = self, self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return traced

    def _counter(self, name, fn):
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        for owner, attr, name, after in TARGETS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patch(owner, attr, classmethod(self._wrap(name, original.__func__, after)))
            else:
                patch(owner, attr, self._wrap(name, original, after))
        patch(Transcript, "append", self._counter("channel.transcript.entries", Transcript.append))
        kernels = evabs.crypto.kernels
        proxy = SimpleNamespace(BACKEND=kernels.BACKEND)
        for attr, name in KERNELS.items():
            setattr(proxy, attr, self._wrap(name, getattr(kernels, attr)))
        patch(evabs.crypto, "kernels", proxy)
        try:
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def begin_op(self):
        self._cache_before = _pykernels._round_keys.cache_info()
        self.op = self.ops

    def end_op(self):
        self.op = None
        self.ops += 1
        after = _pykernels._round_keys.cache_info()
        self.cache_hits += after.hits - self._cache_before.hits
        self.cache_misses += after.misses - self._cache_before.misses

    def fold(self):
        """Add the recorded spans to the per-layer totals and drop them."""
        spans = self.spans
        covered = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _), child in zip(spans, covered):
            self.calls[name] += 1
            self.self_ns[name] += end - start - child
        if not self.kept:
            self.kept = list(spans)
        spans.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent, op) in enumerate(self.kept):
                fh.write(f"{op}\t{index}\t{parent}\t{name}\t{start}\t{end}\n")

    def metrics(self, overhead_ratio):
        """Every PER_LAYER metric, per traced op."""
        ops, calls, counts = self.ops, self.calls, self.counts
        values = {f"{layer}.calls_per_op": calls[layer] / ops for layer in CALLS}
        for layer, names in SELF.items():
            values[f"{layer}.self_us_per_op"] = sum(self.self_ns[n] for n in names) / ops / 1000
        lookups = self.cache_hits + self.cache_misses
        values["kernels.round_key_cache.hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        values["wire.decode.reject_ratio"] = _ratio(counts["wire.decode.errors"], calls["wire.decode"])
        values["channel.transcript.entries_per_op"] = counts["channel.transcript.entries"] / ops
        values["registry.authenticate.accept_ratio"] = _ratio(
            counts["registry.authenticate.accepts"], calls["registry.authenticate"]
        )
        values["registry.save.bytes_per_op"] = counts["registry.save.bytes"] / ops
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}


def _ratio(part, whole):
    return part / whole if whole else 0.0
