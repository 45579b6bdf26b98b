"""The `evabs` command: provisioning, sessions, attack runs, invoices.

Subcommands (when the first argument names one, only its parser is built):
    init       create a registry file (group key, tariff)
    register   enroll a vehicle (prints its credentials exactly once)
    revoke     disable a vehicle server-side
    session    run one honest charge session against a registry file
    attack     run a shipped or user scenario and report the verdict
    invoices   list issued invoices

The registry path comes from --registry or the EVABS_REGISTRY environment
variable. All randomness funnels through --seed, so any run can be
reproduced bit for bit; commands that generate a seed print it.

init writes the file under an exclusive lock on `<registry>.lock`; register,
revoke and session run in Registry.open, which holds it from the load on and
makes each change durable before the call that made it returns, so
concurrent commands on one registry file do not lose each other's changes.
register and revoke save the whole file. A session appends its nonce and its
invoice, one fsynced line each, to the journal `<registry>.journal` (mode
0600) bound to the snapshot that the registry last saved whole; it saves
whole itself, starting a new journal, when none is live or the journal has
grown larger than the snapshot (see evabs.registry). A snapshot that
anything else wrote, such as init --force, orphans the journal. attack and
invoices take no lock and replay the journal when they load.

Exit codes: 0 success (or: every scenario defense held), 1 protocol or
domain failure, 2 usage/configuration error, 3 storage error (a registry
file that cannot be read, written or trusted, or a --transcript or
--report file that cannot be written).

Secrecy rule: generated keys are printed once, here, to the operator; no
transcript, report or log ever contains key material (a transcript file
gives no secure-line message's bytes).
"""

import argparse
import functools
import json
import os
import shutil
import sys
from contextlib import contextmanager

from evabs import __version__, crypto
from evabs.errors import (
    ConfigError,
    EvabsError,
    InvalidInput,
    InvalidSeed,
    ScriptError,
    StorageError,
    checked_int,
)
from evabs.registry import Registry, lock_file
from evabs.scenario import (
    SCENARIO_ALIASES,
    ScenarioRunner,
    builtin_scenarios,
    run_named_scenario,
)


def _int_value(what, base=10, hi=None):
    """argparse type: an int in 0..hi written in `base` in ASCII letters and
    digits alone, so no sign, space, `_` or other script's digits; else
    "must be `what`"."""

    def convert(text):
        try:
            if text.isascii() and text.isalnum():
                return checked_int("value", int(text, base), 0, hi, ValueError)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return convert


_seed = _int_value("an integer in 0..2**64-1", base=0, hi=(1 << 64) - 1)
_uint = _int_value("a non-negative integer")


def _hex_bytes(size):
    def convert(text):
        try:
            value = bytes.fromhex(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not hex: {text!r}") from None
        if len(value) != size:
            raise argparse.ArgumentTypeError(f"need {size} bytes ({2 * size} hex chars)")
        return value

    return convert


def _registry_path(args):
    path = args.registry or os.environ.get("EVABS_REGISTRY")
    if not path:
        raise ConfigError("no registry path: pass --registry or set EVABS_REGISTRY")
    return path


def _fresh_seed(args):
    if args.seed is not None:
        return args.seed
    seed = int.from_bytes(os.urandom(8), "big")
    print(f"seed: {seed} (pass --seed {seed} to reproduce)")
    return seed


def _rng(seed):
    return crypto.NonceSource.from_seed(seed)


@contextmanager
def _writing(what, path, note=""):
    """Turn an OSError while writing the output file `path` into a
    StorageError (exit 3) that names it."""
    try:
        yield
    except OSError as exc:
        raise StorageError(f"cannot write {what} {path}: {exc}{note}") from exc


# -- subcommands ----------------------------------------------------------


def cmd_init(args):
    path = _registry_path(args)
    with lock_file(path):
        if os.path.exists(path) and not args.force:
            raise ConfigError(f"{path} exists; use --force to overwrite")
        seed = _fresh_seed(args)
        group_key = _rng(seed).next_bytes(32)
        registry = Registry(group_key=group_key, tariff_per_second=args.tariff)
        registry.save(path)
    print(f"registry: {path}")
    print(f"tariff_per_second: {args.tariff}")
    # shown once so the operator can provision terminals; never logged again
    print(f"group_key: {group_key.hex()}")
    return 0


def cmd_register(args):
    path = _registry_path(args)
    with Registry.open(path) as registry:
        id_a, k_a = args.vehicle, args.key
        if id_a is None or k_a is None:
            # only draw (and announce) a seed when credentials need generating
            rng = _rng(_fresh_seed(args))
            id_a = id_a if id_a is not None else rng.next_bytes(16)
            k_a = k_a if k_a is not None else rng.next_bytes(32)
        record = registry.register(id_a, k_a, balance=args.balance, owner=args.owner)
    print(f"vehicle: {record.id_a.hex()}")
    print(f"key: {record.k_a.hex()}")
    print(f"lookup_key: {record.lookup_key.hex()}")
    print(f"balance: {record.balance}")
    return 0


def cmd_revoke(args):
    path = _registry_path(args)
    with Registry.open(path) as registry:
        record = registry.revoke(args.vehicle)
    print(f"revoked: {record.id_a.hex()}")
    return 0


def _pick_vehicle(registry, wanted):
    if wanted is not None:
        return registry.find(wanted)
    vehicles = [rec for rec in registry.vehicles if not rec.revoked]
    if len(vehicles) == 1:
        return vehicles[0]
    raise ConfigError(
        "pass --vehicle: registry has "
        + ("no active vehicles" if not vehicles else f"{len(vehicles)} active vehicles")
    )


def cmd_session(args):
    path = _registry_path(args)
    with Registry.open(path) as registry:
        record = _pick_vehicle(registry, args.vehicle)
        seed = _fresh_seed(args)
        runner = ScenarioRunner(registry, seed=seed)
        # the nonce is written as soon as it is consumed and the invoice as
        # soon as it is issued; nothing else in a session changes the files
        outcome = runner.run_session(record, duration=args.duration, budget=args.budget)
    if args.transcript:
        saved = outcome.phase == "completed"
        note = "; the invoice is already saved in the registry" if saved else ""
        with _writing("transcript", args.transcript, note):
            runner.transcript.write(args.transcript)
    if outcome.phase != "completed":
        print(f"session {outcome.phase}: {outcome.reason or 'no start message received'}",
              file=sys.stderr)
        return 1
    if outcome.t4 != outcome.t5 - outcome.t1:
        print(f"internal clock inconsistency: t4={outcome.t4} t5-t1={outcome.t5 - outcome.t1}",
              file=sys.stderr)
        return 1
    invoice = registry.invoices[-1]
    if args.json:
        print(json.dumps({
            "phase": outcome.phase,
            "vehicle": record.id_a.hex(),
            "t1": outcome.t1,
            "t5": outcome.t5,
            "t4": outcome.t4,
            "invoice": invoice.to_obj(),
            "balance": record.balance,
        }))
    else:
        print(f"session completed for vehicle {record.id_a.hex()}")
        print(f"  charging display t4: {outcome.t4} ms (t5 - t1 = {outcome.t5 - outcome.t1})")
        print(f"  invoice: duration_ms={invoice.duration_ms} amount={invoice.amount}")
        print(f"  balance: {record.balance}")
    return 0


def _ephemeral_registry(seed):
    """Self-contained registry for attack runs without --registry."""
    rng = _rng(seed ^ 0xE5AB5)
    registry = Registry(group_key=rng.next_bytes(32), tariff_per_second=2)
    registry.register(rng.next_bytes(16), rng.next_bytes(32), balance=100_000, owner="demo-1")
    registry.register(rng.next_bytes(16), rng.next_bytes(32), balance=100_000, owner="demo-2")
    return registry


def _transcript_path(base, count, name):
    if count == 1:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}-{name}{ext or '.jsonl'}"


def cmd_attack(args):
    seed = args.seed if args.seed is not None else 1
    if args.registry or os.environ.get("EVABS_REGISTRY"):
        path = _registry_path(args)

        def make_registry():
            registry = Registry.load(path)
            if not registry.vehicles:
                raise ConfigError(f"{path} has no enrolled vehicles")
            return registry

    else:
        def make_registry():
            return _ephemeral_registry(seed)

    reports = run_named_scenario(make_registry, args.scenario, seed=seed)
    text = "".join(report.to_text() for report in reports)
    if args.json:
        print(json.dumps([report.to_obj() for report in reports], indent=2))
    else:
        print(text, end="")
    if args.report:
        with _writing("report", args.report), open(args.report, "w") as fh:
            fh.write(text)
    if args.transcript:
        for report in reports:
            path = _transcript_path(args.transcript, len(reports), report.name)
            with _writing("transcript", path):
                report.transcript.write(path)
    return 0 if all(report.held for report in reports) else 1


def cmd_invoices(args):
    path = _registry_path(args)
    registry = Registry.load(path)
    invoices = registry.invoices_for(args.vehicle)
    if args.json:
        for invoice in invoices:
            print(json.dumps(invoice.to_obj()))
        return 0
    if not invoices:
        print("no invoices")
        return 0
    print(f"{'vehicle':<34} {'t1':>10} {'t5':>10} {'duration_ms':>12} {'amount':>8}")
    total = 0
    for invoice in invoices:
        total += invoice.amount
        print(
            f"{invoice.id_a.hex():<34} {invoice.t1:>10} {invoice.t5:>10} "
            f"{invoice.duration_ms:>12} {invoice.amount:>8}"
        )
    print(f"total: {total}")
    return 0


# -- argument plumbing ----------------------------------------------------


def _init_options(p):
    p.add_argument("--tariff", type=_uint, required=True, help="price per started second")
    p.add_argument("--force", action="store_true", help="overwrite an existing file")


def _register_options(p):
    p.add_argument("--vehicle", type=_hex_bytes(16), help="vehicle id (32 hex); generated if absent")
    p.add_argument("--key", type=_hex_bytes(32), help="vehicle key (64 hex); generated if absent")
    p.add_argument("--balance", type=_uint, default=0, help="opening balance in minor units")
    p.add_argument("--owner", default="", help="free-form owner label")


def _revoke_options(p):
    p.add_argument("--vehicle", type=_hex_bytes(16), required=True)


def _session_options(p):
    p.add_argument("--vehicle", type=_hex_bytes(16), help="defaults to the only active vehicle")
    p.add_argument("--duration", type=_uint, required=True, help="planned charge time in ms")
    p.add_argument("--budget", type=_uint, help="cut charging once accrued cost reaches this")
    p.add_argument("--transcript", help="write the frame transcript (JSON lines)")
    p.add_argument("--json", action="store_true", help="machine-readable result")


def _attack_options(p):
    p.add_argument(
        "--scenario",
        required=True,
        help="shipped name, alias, or path to a scenario file (shipped: "
        + ", ".join(builtin_scenarios() + sorted(SCENARIO_ALIASES)) + ")",
    )
    p.add_argument("--transcript", help="write the frame transcript (JSON lines)")
    p.add_argument("--report", help="write the verdict report to a file")
    p.add_argument("--json", action="store_true", help="machine-readable report")


def _invoices_options(p):
    p.add_argument("--vehicle", type=_hex_bytes(16), help="filter by vehicle id")
    p.add_argument("--json", action="store_true", help="one JSON object per line")


_SEED_HELP = "seed for all randomness (64-bit)"

# name -> (help, --seed help or None for no --seed, options, handler), in help's order
_COMMANDS = {
    "init": ("create a registry file", "seed for group key generation",
             _init_options, cmd_init),
    "register": ("enroll a vehicle", "seed for credential generation",
                 _register_options, cmd_register),
    "revoke": ("disable a vehicle", None, _revoke_options, cmd_revoke),
    "session": ("run one honest charge session", _SEED_HELP, _session_options, cmd_session),
    "attack": ("run an adversary scenario", _SEED_HELP, _attack_options, cmd_attack),
    "invoices": ("list issued invoices", None, _invoices_options, cmd_invoices),
}


def _formatter():
    """argparse's HelpFormatter with the width it would read, read once per build."""
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _add_command(parser, name):
    _, seed_help, add_options, handler = _COMMANDS[name]
    parser.add_argument("--registry", help="registry file (default: $EVABS_REGISTRY)")
    if seed_help is not None:
        parser.add_argument("--seed", type=_seed, help=seed_help)
    add_options(parser)
    parser.set_defaults(func=handler, command=name)
    return parser


def build_parser():
    """The full `evabs` parser: the top level and every command under it."""
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="evabs", formatter_class=formatter,
        description="authenticated street-charging simulator: provisioning, "
        "sessions, attack scenarios, invoices",
    )
    version = f"%(prog)s {__version__} (kernel backend: {crypto.BACKEND})"
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text, formatter_class=formatter), name)
    return parser


def parse_args(argv):
    """The namespace `main` runs for `argv`: a named command's own parser alone,
    unless the top level must speak or that parser leaves arguments over."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"evabs {argv[0]}", formatter_class=_formatter())
        args, rest = _add_command(parser, argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScriptError, InvalidInput, InvalidSeed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StorageError as exc:
        print(f"storage error: {exc}", file=sys.stderr)
        return 3
    except EvabsError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
