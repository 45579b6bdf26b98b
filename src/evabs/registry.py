"""Server-side state: enrolled vehicles, used nonces, invoices.

The registry is the single source of truth for authentication and billing.
Records are indexed by lookup_key = E(id, k), the value the terminal
recovers from an honest auth request, so lookups never see the id itself.

Concurrency and durability rules:
  * authenticate() is one atomic check-and-consume under a lock; two
    concurrent submissions of the same (lookup_key, nonce) cannot both win.
  * in a registry from Registry.open(path), register, revoke, authenticate
    and bill make their change durable in the lock hold of the change,
    before they return. Each change has one commit point: the fsynced
    journal append, or the os.replace of a whole save. A change is in
    memory exactly when the file holds it. A failure before the commit
    point (building the snapshot or journal line included) undoes the
    change and raises StorageError "persist failed, ..."; one after it (the
    directory fsync, starting the new journal, or a failed fsync of a whole
    journal line that cannot be cut back) keeps the change, leaves no
    journal live and raises StorageError "persist incomplete, ...". Any
    other exception, such as a KeyboardInterrupt, follows the same rule and
    is re-raised unchanged. So a crashy disk or an interrupt can neither
    open a replay window nor lose an invoice.
  * a revoked vehicle is indistinguishable from an unknown one.

On-disk form is a snapshot plus a journal. The snapshot is a single JSON
document: 2-space indentation, a fixed key order, hex lowercase,
ASCII-escaped owners and nonces sorted, so files diff cleanly. The bytes are
exactly json.dumps(obj, indent=2) + "\n" of that document (pinned by
tests/test_registry.py); Registry._document() builds them straight from the
fields. Saving writes and fsyncs a new temp file of mode 0600 (the file holds
every vehicle key), `.<name>.tmp-<16 hex>` beside the target, renames it
over the target and fsyncs the directory; the next Registry.open removes
such files that a killed save left. Loading checks each field once,
re-derives every lookup_key, refuses records that do not match their stored
one and invoices that bill could not have issued, and takes hex only in
lowercase of the exact length.

The journal, `<path>.journal` (mode 0600), holds the nonces and invoices
made since a snapshot that a bound registry wrote itself. Its first line is
the SHA-256 of that snapshot's bytes in hex; each later line is one event,
`<length> <crc32> <payload>`, where the payload is `nonce <id> <nonce>` or
`invoice <id> <t1> <t5> <issued_at>`, the length counts its bytes in
decimal and the CRC-32 is 8 hex digits. Loading replays the journal only
over exactly the snapshot its first line names, so a snapshot that anyone
else restored or replaced orphans it; a torn last line is dropped, and any
other bad line, or an event that authenticate or bill could not have made,
is a StorageError naming the line. A nonce or invoice made in a bound
registry whose journal is live is one fsynced append. A journal is started,
after a whole save, by the first change after a load that found none live,
by every register and revoke, and by the first change after the journal
grew larger than its snapshot (a compaction). Processes that load, change
and save one file serialize on lock_file(path), an exclusive flock on the
sidecar `<path>.lock` that Registry.open holds; the registry's own lock
covers threads of one process only.
"""

import fcntl
import hashlib
import json
import logging
import os
import re
import threading
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from evabs import crypto
from evabs.errors import (
    DuplicateVehicle,
    InvalidInput,
    InvalidReport,
    NotFound,
    StorageError,
    checked_bytes,
    checked_int,
)
from evabs.wire import Reason

__all__ = ["VehicleRecord", "Invoice", "Registry", "lock_file"]

log = logging.getLogger(__name__)


@dataclass
class VehicleRecord:
    id_a: bytes
    k_a: bytes
    lookup_key: bytes
    balance: int = 0
    owner: str = ""
    revoked: bool = False
    used_nonces: set = field(default_factory=set)
    position: int = None  # index in enrollment order, set when enrolled


@dataclass(frozen=True)
class Invoice:
    id_a: bytes
    t1: int
    t5: int
    duration_ms: int
    amount: int
    issued_at: int

    def to_obj(self):
        # key order is the export contract for invoice JSONL lines
        return {
            "id_a": self.id_a.hex(),
            "t1": self.t1,
            "t5": self.t5,
            "duration_ms": self.duration_ms,
            "amount": self.amount,
            "issued_at": self.issued_at,
        }


@contextmanager
def lock_file(path):
    """Hold an exclusive flock on `<path>.lock` for the block, so one whole
    load -> change -> save of the registry at `path` runs at a time across
    processes. The sidecar file is created if missing and left in place;
    closing it releases the lock, also when the process dies."""
    try:
        fd = os.open(f"{path}.lock", os.O_RDWR | os.O_CREAT, 0o644)
    except OSError as exc:
        raise StorageError(f"cannot open lock file for registry {path}: {exc}") from exc
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError as exc:
            raise StorageError(f"cannot lock registry {path}: {exc}") from exc
        yield
    finally:
        os.close(fd)


def _canonical_hex(text, size):
    """The `size` bytes that `text` spells in lowercase hex, else None:
    bytes.fromhex also takes spaces and uppercase, which a save rewrites."""
    try:
        value = bytes.fromhex(text)
    except (TypeError, ValueError):
        return None
    return value if len(value) == size and value.hex() == text else None


def _hex_field(obj, key, size):
    value = _canonical_hex(obj.get(key), size)
    if value is None:
        raise StorageError(f"field {key!r} must be {size} bytes of lowercase hex")
    return value


def _field(obj, key, kind, default, what):
    """obj[key], or `default` when absent, refused unless exactly a `kind`."""
    value = obj.get(key, default)
    if type(value) is not kind:
        raise StorageError(f"{key} must be {what}")
    return value


def _unique_fields(pairs):
    """The dict of a JSON object's pairs, refused if a field repeats: json
    keeps the last value, and the next save would drop the others."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise StorageError(f"field {repeated!r} is repeated")
    return obj


def _known_fields(obj, keys):
    """Refuse a field the format does not have: the next save would drop it."""
    if not keys.issuperset(obj):
        raise StorageError(f"unknown field {min(obj.keys() - keys)!r}")


_VEHICLE_KEYS = frozenset(
    ("id_a", "k_a", "lookup_key", "balance", "owner", "revoked", "used_nonces")
)


def _vehicle_record(vobj):
    """The record a vehicle entry of the file describes, each field checked
    once and its lookup_key re-derived and compared."""
    if type(vobj) is not dict:
        raise StorageError("must be a JSON object")
    _known_fields(vobj, _VEHICLE_KEYS)
    id_a = _hex_field(vobj, "id_a", crypto.BLOCK_SIZE)
    k_a = _hex_field(vobj, "k_a", crypto.KEY_SIZE)
    stored_lookup = _hex_field(vobj, "lookup_key", crypto.BLOCK_SIZE)
    balance = _field(vobj, "balance", int, 0, "an integer")
    owner = _field(vobj, "owner", str, "", "a string")
    revoked = _field(vobj, "revoked", bool, False, "true or false")
    nonces = _field(vobj, "used_nonces", list, [], "a list")
    used_nonces = {_canonical_hex(n, crypto.NONCE_SIZE) for n in nonces}
    if None in used_nonces:
        raise StorageError(f"used_nonces must be {crypto.NONCE_SIZE} bytes of lowercase hex each")
    if len(used_nonces) != len(nonces):
        raise StorageError("used_nonces must not list a nonce twice")
    lookup_key = crypto.encrypt_block(id_a, k_a)
    if lookup_key != stored_lookup:
        raise StorageError(f"lookup_key does not match E(id_a, k_a) for {id_a.hex()}")
    # not register(), which refuses the negative balance billing can leave
    return VehicleRecord(id_a, k_a, lookup_key, balance, owner, revoked, used_nonces)


# the integer fields of an invoice, in Invoice's order, after id_a
_INVOICE_INTS = ("t1", "t5", "duration_ms", "amount", "issued_at")
_INVOICE_KEYS = frozenset(("id_a", *_INVOICE_INTS))
_REGISTRY_KEYS = frozenset(("group_key", "tariff_per_second", "vehicles", "invoices"))


def _issue(id_a, t1, t5, issued_at, tariff, error):
    """The invoice for a charge from t1 to t5 at `tariff`, every started
    second billed in full; a t5 before t1 raises `error`. bill, the loader
    and journal replay all derive an invoice here."""
    if t5 < t1:
        raise error(f"t5 {t5} precedes t1 {t1}")
    duration = t5 - t1
    return Invoice(id_a, t1, t5, duration, -(-duration // 1000) * tariff, issued_at)


def _invoice(iobj, tariff, ids):
    """The invoice an entry of the file describes, refused unless bill could
    have made it: for a vehicle in `ids`, from t1 to t5 at `tariff`."""
    if type(iobj) is not dict:
        raise StorageError("must be a JSON object")
    _known_fields(iobj, _INVOICE_KEYS)
    id_a = _hex_field(iobj, "id_a", crypto.BLOCK_SIZE)
    t1, t5, duration, amount, issued_at = (
        _field(iobj, key, int, None, "an integer") for key in _INVOICE_INTS
    )
    if id_a not in ids:
        raise StorageError(f"no vehicle {id_a.hex()} in the file")
    invoice = _issue(id_a, t1, t5, issued_at, tariff, StorageError)
    if duration != invoice.duration_ms:
        raise StorageError(f"duration_ms {duration} is not t5 - t1")
    if amount != invoice.amount:
        raise StorageError(f"amount {amount} is not {invoice.amount}, the charge at the tariff")
    return invoice


# O_EXCL with O_NOFOLLOW: never open a file or symlink already at the name
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC


def _temp_prefix(path):
    """Every temp file a save of `path` makes is this prefix plus 16
    lowercase hex digits, in the directory of `path`."""
    return f".{os.path.basename(path)}.tmp-"


def _create_temp(directory, prefix):
    """Create a `<prefix><16 hex>` file in `directory` with mode 0600 and
    return (descriptor open for writing, path)."""
    while True:
        tmp = os.path.join(directory, prefix + os.urandom(8).hex())
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o600), tmp
        except FileExistsError:
            continue  # 64 random bits taken already: draw another name


def _remove_stale_temps(path):
    """Remove the temp files that saves of `path` killed before their rename
    left behind. Run under lock_file(path), where no locked save is under
    way. A save of `path` made outside the lock may lose its temp file here;
    its rename then fails with StorageError, so it never renames a partly
    written file."""
    directory = os.path.dirname(os.path.abspath(path))
    temp_name = re.compile(re.escape(_temp_prefix(path)) + "[0-9a-f]{16}")
    try:
        for name in os.listdir(directory):
            if temp_name.fullmatch(name):
                with suppress(FileNotFoundError):
                    os.unlink(os.path.join(directory, name))
    except OSError as exc:
        raise StorageError(f"cannot remove temp files of registry {path}: {exc}") from exc


def _write_all(fd, data):
    """os.write until all of `data` is written."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _fsync_directory(directory):
    """fsync `directory`, so the names just made in it survive a crash."""
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# O_NOFOLLOW: never append to a file that a symlink at the name points to
_JOURNAL_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_NOFOLLOW | os.O_CLOEXEC
# an event line without its newline: the payload's length and CRC-32, then it
_EVENT_LINE = re.compile(rb"(0|[1-9][0-9]{0,5}) ([0-9a-f]{8}) ([ -~]*)")
_INT = re.compile(r"0|-?[1-9][0-9]*")


def _journal_header(snapshot):
    """The first line of a journal bound to the snapshot bytes `snapshot`."""
    return hashlib.sha256(snapshot).hexdigest().encode("ascii") + b"\n"


def _journal_int(text):
    if _INT.fullmatch(text):
        with suppress(ValueError):  # more digits than int() takes
            return int(text)
    raise StorageError(f"{text!r} must be a decimal integer")


class _Journal:
    """The journal a bound registry appends to: `end` is the length of its
    valid lines, `limit` the size of the snapshot it is bound to. Opened for
    appends on the first one, closed when the registry is unbound."""

    def __init__(self, path, end, limit, fd=None):
        self.path = path
        self.end = end
        self.limit = limit
        self.fd = fd

    @classmethod
    def start(cls, path, snapshot):
        """Empty the journal at `path` and bind it to the snapshot bytes just
        written; the directory is fsynced, so a journal made here survives a
        crash."""
        try:
            fd = os.open(path, _JOURNAL_FLAGS | os.O_CREAT | os.O_TRUNC, 0o600)
            try:
                header = _journal_header(snapshot)
                _write_all(fd, header)
                os.fsync(fd)
                _fsync_directory(os.path.dirname(os.path.abspath(path)))
            except BaseException:
                os.close(fd)
                raise
        except OSError as exc:
            raise StorageError(f"cannot start journal {path}: {exc}") from exc
        return cls(path, len(header), len(snapshot), fd)

    def append(self, fields):
        """One fsynced event line of `fields`, bytes in hex; if that fails,
        the file is cut back to its valid lines. A whole line that cannot be
        cut stays, and `end` counts it (a StorageError says so if an OSError
        left it); a torn one is dropped when the journal is read."""
        try:
            payload = " ".join(f.hex() if type(f) is bytes else str(f) for f in fields).encode()
        except ValueError as exc:  # an int with more digits than str() writes
            raise StorageError(f"cannot append to journal {self.path}: {exc}") from exc
        line = b"%d %08x %s\n" % (len(payload), zlib.crc32(payload), payload)
        try:
            if self.fd is None:
                self.fd = os.open(self.path, _JOURNAL_FLAGS)
                os.ftruncate(self.fd, self.end)  # drop a torn last line
            written = False
            try:
                _write_all(self.fd, line)
                written = True
                os.fsync(self.fd)
            except BaseException as exc:
                try:
                    os.ftruncate(self.fd, self.end)
                except OSError:
                    if written:  # the file holds the line
                        self.end += len(line)
                        if isinstance(exc, OSError):
                            text = f"journal {self.path} is written, but not synced: {exc}"
                            raise StorageError(text)
                raise
        except OSError as exc:
            raise StorageError(f"cannot append to journal {self.path}: {exc}") from exc
        self.end += len(line)

    def close(self):
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


def _json_array(items, pad):
    """Already-encoded items laid out as json.dumps(..., indent=2) lays out
    an array whose members sit `pad` spaces in."""
    if not items:
        return "[]"
    indent = " " * pad
    return f"[\n{indent}" + f",\n{indent}".join(items) + f"\n{indent[2:]}]"


class Registry:
    """All enrolled vehicles plus issued invoices, with a coarse lock."""

    def __init__(self, group_key, tariff_per_second):
        self.group_key = checked_bytes("group key", group_key, crypto.KEY_SIZE)
        self.tariff_per_second = checked_int("tariff", tariff_per_second)
        self._by_lookup = {}
        self._by_id = {}
        self.invoices = []
        self._lock = threading.Lock()
        self._path = None  # the file each change is saved to, inside open()
        self._journal = None  # a live journal beside that file, if any
        self._renamed = False  # a save renamed its file since a change began to commit

    @classmethod
    @contextmanager
    def open(cls, path):
        """The registry in the file at `path`, under lock_file(path) for the
        block, each change made durable in `path` and its journal before
        the call that made it returns. Temp files that killed saves of
        `path` left are removed first, and a path with no file is refused
        before the lock file is made. On exit the path is unbound: no write
        after the unlock."""
        try:
            os.stat(path)
        except OSError as exc:
            raise StorageError(f"cannot read registry {path}: {exc}") from exc
        with lock_file(path):
            _remove_stale_temps(path)
            registry = cls.load(path)
            registry._path = path
            try:
                yield registry
            finally:
                with registry._lock:
                    registry._path = None
                    registry._end_journal()

    def _commit(self, what, event, undo, *args):
        """Make the change just made durable in the bound file, in its lock
        hold: the fields of `event` appended to the live journal, unless the
        change has none or the journal grew larger than its snapshot; else a
        whole save that starts a new journal. Whatever is raised before the
        commit point undoes the change, undo(*args); whatever is raised after
        it keeps the change. A StorageError becomes one that says which,
        "persist failed, `what`" or "persist incomplete, change kept"; any
        other exception, a KeyboardInterrupt say, is re-raised as it is.
        Either way no journal stays live, so the next change saves whole."""
        if self._path is None:
            return
        journal, self._renamed = self._journal, False
        end = journal.end if journal is not None else 0
        try:
            if event is not None and journal is not None and journal.end <= journal.limit:
                journal.append(event)
            else:
                self._compact()
        except BaseException as exc:
            self._end_journal()
            # the files hold the change: the whole save renamed its file, or
            # the journal counts a line it could not cut back
            kept = self._renamed or (journal is not None and journal.end > end)
            if not kept:
                undo(*args)
            if not isinstance(exc, StorageError):
                raise
            if kept:
                raise StorageError(f"persist incomplete, change kept: {exc}") from exc
            raise StorageError(f"persist failed, {what}: {exc}") from exc

    def _compact(self):
        """Save the whole registry to the bound file and start a journal
        bound to the bytes written."""
        snapshot = self.save(self._path)
        try:
            self._journal = _Journal.start(f"{self._path}.journal", snapshot)
        except StorageError as exc:
            raise StorageError(f"registry {self._path} is written, but {exc}") from exc

    def _end_journal(self):
        """Append no more: the next change in a bound registry saves whole."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- enrollment ---------------------------------------------------

    def register(self, id_a, k_a, balance=0, owner=""):
        id_a = checked_bytes("vehicle id", id_a, crypto.BLOCK_SIZE)
        k_a = checked_bytes("vehicle key", k_a, crypto.KEY_SIZE)
        checked_int("opening balance", balance)
        if type(owner) is not str:
            raise InvalidInput("owner must be a string")
        lookup_key = crypto.encrypt_block(id_a, k_a)
        return self._enroll(
            VehicleRecord(id_a=id_a, k_a=k_a, lookup_key=lookup_key, balance=balance, owner=owner)
        )

    def _enroll(self, record):
        """Index a record whose fields are checked; both register() and the
        loader (whose registry is bound to no file yet) enroll through here."""
        with self._lock:
            if record.id_a in self._by_id:
                raise DuplicateVehicle(f"vehicle {record.id_a.hex()} already enrolled")
            if record.lookup_key in self._by_lookup:
                raise DuplicateVehicle(f"lookup key collision for {record.id_a.hex()}")
            record.position = len(self._by_id)
            self._by_id[record.id_a] = record
            self._by_lookup[record.lookup_key] = record
            self._commit("vehicle not enrolled", None, self._unindex, record)
        return record

    def _unindex(self, record):
        del self._by_id[record.id_a]
        del self._by_lookup[record.lookup_key]

    def revoke(self, id_a):
        """Disable a vehicle (stolen/retired). Idempotent; secrets are kept
        so a found vehicle can be re-enabled out of band."""
        with self._lock:
            record = self.find(id_a)
            was_revoked = record.revoked
            record.revoked = True
            self._commit("vehicle not revoked", None, setattr, record, "revoked", was_revoked)
        return record

    @property
    def vehicles(self):
        return list(self._by_id.values())

    def find(self, id_a):
        id_a = checked_bytes("vehicle id", id_a)
        record = self._by_id.get(id_a)
        if record is None:
            raise NotFound(f"no vehicle {id_a.hex()}")
        return record

    # -- authentication -----------------------------------------------

    def authenticate(self, lookup_key, nonce):
        """Atomic check-and-consume. Returns (record, None) on success or
        (None, reason) on rejection. In a bound registry the nonce is
        consumed only if it is written. A lookup key of any size is
        taken, since one that is not 16 bytes is only an unknown vehicle;
        the nonce must be 16 bytes."""
        lookup_key = checked_bytes("lookup key", lookup_key)
        nonce = checked_bytes("nonce", nonce, crypto.NONCE_SIZE)
        with self._lock:
            record = self._by_lookup.get(lookup_key)
            if record is None or record.revoked:
                return None, Reason.UNKNOWN_VEHICLE
            if nonce in record.used_nonces:
                return None, Reason.REPLAY_DETECTED
            record.used_nonces.add(nonce)
            event = ("nonce", record.id_a, nonce)
            self._commit("nonce not consumed", event, record.used_nonces.discard, nonce)
            return record, None

    # -- billing --------------------------------------------------------

    def bill(self, id_a, t1, t5, issued_at):
        """Turn a reported charge interval into an invoice. Every started
        second is charged in full; the balance may go negative. The times
        must be ints, as the loader demands of a stored invoice."""
        for name, value in (("t1", t1), ("t5", t5), ("issued_at", issued_at)):
            checked_int(name, value, None, error=InvalidReport)
        with self._lock:
            record = self.find(id_a)
            invoice = _issue(record.id_a, t1, t5, issued_at, self.tariff_per_second, InvalidReport)
            record.balance -= invoice.amount
            self.invoices.append(invoice)
            event = ("invoice", record.id_a, t1, t5, issued_at)
            self._commit("invoice dropped", event, self._refund, record, invoice.amount)
        log.info(
            "invoice: duration_ms=%d amount=%d balance=%d",
            invoice.duration_ms, invoice.amount, record.balance,
        )
        return invoice

    def _refund(self, record, amount):
        self.invoices.pop()
        record.balance += amount

    def invoices_for(self, id_a=None):
        if id_a is None:
            return list(self.invoices)
        id_a = checked_bytes("vehicle id", id_a)
        return [inv for inv in self.invoices if inv.id_a == id_a]

    # -- snapshots (for "nothing changed" assertions) --------------------

    def snapshot(self):
        """Every field the file holds, in its order, far cheaper than its text:
        equal snapshots save to the same bytes (invoices compare by value)."""
        with self._lock:
            vehicles = [
                (r.id_a, r.k_a, r.lookup_key, r.balance, r.owner, r.revoked, frozenset(r.used_nonces))
                for r in self._by_id.values()
            ]
            return self.group_key, self.tariff_per_second, vehicles, list(self.invoices)

    # -- persistence -----------------------------------------------------

    def _document(self):
        """The file's bytes: json.dumps(obj, indent=2) + "\n" of the
        {group_key, tariff_per_second, vehicles, invoices} object, built
        straight from the fields. With an indent, json.dumps runs its
        pure-Python encoder, which is several times slower than this."""
        vehicles = []
        for rec in self._by_id.values():
            nonces = _json_array([f'"{n.hex()}"' for n in sorted(rec.used_nonces)], 8)
            vehicles.append(
                "{\n"
                f'      "id_a": "{rec.id_a.hex()}",\n'
                f'      "k_a": "{rec.k_a.hex()}",\n'
                f'      "lookup_key": "{rec.lookup_key.hex()}",\n'
                f'      "balance": {int.__repr__(rec.balance)},\n'
                f'      "owner": {encode_basestring_ascii(rec.owner)},\n'
                f'      "revoked": {"true" if rec.revoked else "false"},\n'
                f'      "used_nonces": {nonces}\n'
                "    }"
            )
        # the keys of Invoice.to_obj, in its order
        invoices = [
            "{\n"
            f'      "id_a": "{inv.id_a.hex()}",\n'
            f'      "t1": {int.__repr__(inv.t1)},\n'
            f'      "t5": {int.__repr__(inv.t5)},\n'
            f'      "duration_ms": {int.__repr__(inv.duration_ms)},\n'
            f'      "amount": {int.__repr__(inv.amount)},\n'
            f'      "issued_at": {int.__repr__(inv.issued_at)}\n'
            "    }"
            for inv in self.invoices
        ]
        return (
            "{\n"
            f'  "group_key": "{self.group_key.hex()}",\n'
            f'  "tariff_per_second": {int.__repr__(self.tariff_per_second)},\n'
            f'  "vehicles": {_json_array(vehicles, 4)},\n'
            f'  "invoices": {_json_array(invoices, 4)}\n'
            "}\n"
        )

    def save(self, path):
        """Write atomically and durably, and return the bytes written: a new
        temp file of mode 0600 in the same directory, written with raw
        os.write calls, fsynced and renamed over the target, then fsync the
        directory so the rename survives a crash. On failure before the
        rename the temp file is removed and StorageError raised; a failed
        directory fsync raises it too, with the file already replaced. A
        save made without lock_file(path) can race a Registry.open of the
        same path, which may remove its temp file; the save then fails with
        StorageError and never renames a partly written file. A bound
        registry appends to its journal no more after any save: the journal
        may be bound to the file just replaced."""
        self._end_journal()
        try:
            payload = self._document().encode("ascii")
        except ValueError as exc:  # an int with more digits than repr() writes
            raise StorageError(f"cannot write registry {path}: {exc}") from exc
        directory = os.path.dirname(os.path.abspath(path))
        try:
            fd, tmp = _create_temp(directory, _temp_prefix(path))
            try:
                try:
                    _write_all(fd, payload)
                    os.fsync(fd)
                finally:
                    os.close(fd)
                os.replace(tmp, path)
                self._renamed = True  # the commit point of a whole save
            except BaseException:
                with suppress(FileNotFoundError):  # Registry.open may have removed it
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise StorageError(f"cannot write registry {path}: {exc}") from exc
        try:
            _fsync_directory(directory)
        except OSError as exc:
            raise StorageError(f"registry {path} is written, but not its directory: {exc}") from exc
        return payload

    @classmethod
    def load(cls, path):
        """Read a registry file and replay its journal if that is bound to
        exactly these bytes, checking each field and event once. The files
        are the trust boundary: every lookup_key is re-derived as E(id_a,
        k_a) and a record whose stored one differs is refused, as is an
        invoice that no bill of this registry could have issued."""
        journal_path = f"{path}.journal"
        try:
            # the journal first: a compaction meanwhile replaces the snapshot
            # before the journal, so an early read is orphaned, never misplayed
            try:
                with open(journal_path, "rb") as fh:
                    journal = fh.read()
            except FileNotFoundError:
                journal = b""
            with open(path, "rb") as fh:
                snapshot = fh.read()
        except OSError as exc:
            raise StorageError(f"cannot read registry {path}: {exc}") from exc
        try:
            # UTF-8 whatever the locale; json.loads would take UTF-16 bytes
            obj = json.loads(snapshot.decode(), object_pairs_hook=_unique_fields)
        except (ValueError, RecursionError) as exc:  # also undecodable or too deep
            raise StorageError(f"registry {path} is not valid JSON: {exc}") from exc
        except StorageError as exc:
            raise StorageError(f"{path}: {exc}") from None
        if not isinstance(obj, dict):
            raise StorageError(f"registry {path} must be a JSON object")
        try:
            _known_fields(obj, _REGISTRY_KEYS)
            group_key = _hex_field(obj, "group_key", crypto.KEY_SIZE)
            tariff = obj.get("tariff_per_second")
            checked_int("tariff_per_second", tariff, error=StorageError)
            vehicles = _field(obj, "vehicles", list, [], "a list")
            invoices = _field(obj, "invoices", list, [], "a list")
        except StorageError as exc:
            raise StorageError(f"{path}: {exc}") from None
        reg = cls(group_key, tariff)
        for i, vobj in enumerate(vehicles):
            try:
                reg._enroll(_vehicle_record(vobj))
            except (StorageError, DuplicateVehicle) as exc:
                raise StorageError(f"{path} vehicles[{i}]: {exc}") from None
        for i, iobj in enumerate(invoices):
            try:
                reg.invoices.append(_invoice(iobj, tariff, reg._by_id))
            except StorageError as exc:
                raise StorageError(f"{path} invoices[{i}]: {exc}") from None
        if journal and journal.startswith(_journal_header(snapshot)):
            reg._replay(journal_path, journal, len(snapshot))
        return reg

    def _replay(self, path, journal, limit):
        """Apply the event lines of the journal bytes `journal`, read from
        `path` and bound to a snapshot of `limit` bytes, and keep it live. A
        last line without its newline, or whose length or CRC does not match,
        is torn and dropped."""
        header_end = journal.index(b"\n") + 1
        lines = journal[header_end:].split(b"\n")
        torn = lines.pop()  # the bytes after the last newline
        end = header_end
        for number, line in enumerate(lines, 2):
            event = _EVENT_LINE.fullmatch(line)
            if (
                event is None
                or int(event[1]) != len(event[3])
                or int(event[2], 16) != zlib.crc32(event[3])
            ):
                if number == len(lines) + 1 and not torn:
                    break
                raise StorageError(f"{path} line {number}: length or checksum does not match")
            try:
                self._apply(event[3].decode("ascii"))
            except StorageError as exc:
                raise StorageError(f"{path} line {number}: {exc}") from None
            end += len(line) + 1
        self._journal = _Journal(path, end, limit)

    def _apply(self, payload):
        """One journaled event, refused unless authenticate or bill could
        have made it on this registry."""
        kind, *fields = payload.split(" ")
        if (kind, len(fields)) not in (("nonce", 2), ("invoice", 4)):
            raise StorageError(f"unknown event {payload[:40]!r}")
        id_a = _canonical_hex(fields[0], crypto.BLOCK_SIZE)
        record = self._by_id.get(id_a)
        if record is None:
            raise StorageError(f"no vehicle {fields[0][:40]!r}")
        if kind == "nonce":
            nonce = _canonical_hex(fields[1], crypto.NONCE_SIZE)
            if nonce is None:
                raise StorageError(f"nonce must be {crypto.NONCE_SIZE} bytes of lowercase hex")
            if record.revoked:
                raise StorageError(f"nonce for revoked vehicle {fields[0]}")
            if nonce in record.used_nonces:
                raise StorageError(f"nonce {fields[1]} already used")
            record.used_nonces.add(nonce)
            return
        t1, t5, issued_at = map(_journal_int, fields[1:])
        invoice = _issue(record.id_a, t1, t5, issued_at, self.tariff_per_second, StorageError)
        record.balance -= invoice.amount
        self.invoices.append(invoice)
