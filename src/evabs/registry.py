"""Server-side state: enrolled vehicles, used nonces, invoices.

The registry is the single source of truth for authentication and billing.
Records are indexed by lookup_key = E(id, k), the value the terminal
recovers from an honest auth request, so lookups never see the id itself.

Concurrency and durability rules:
  * authenticate() is one atomic check-and-consume under a lock; two
    concurrent submissions of the same (lookup_key, nonce) cannot both win.
  * when a persist callback is given, the nonce is only consumed if
    persistence succeeds; on failure the registry rolls back and raises
    StorageError, so a crashy disk cannot open a replay window.
  * a revoked vehicle is indistinguishable from an unknown one.

On-disk form is a single JSON document (hex lowercase, nonces sorted, so
files diff cleanly); saving writes and fsyncs a temp file, renames it over
the target and fsyncs the directory. Loading re-derives every lookup_key
and refuses records that do not match their stored one.
"""

import json
import logging
import os
import tempfile
import threading
from dataclasses import dataclass, field

from evabs import crypto
from evabs.errors import (
    DuplicateVehicle,
    InvalidInput,
    InvalidReport,
    NotFound,
    StorageError,
)
from evabs.wire import Reason

__all__ = ["VehicleRecord", "Invoice", "Registry"]

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

    def to_obj(self):
        return {
            "id_a": self.id_a.hex(),
            "k_a": self.k_a.hex(),
            "lookup_key": self.lookup_key.hex(),
            "balance": self.balance,
            "owner": self.owner,
            "revoked": self.revoked,
            "used_nonces": sorted(n.hex() for n in self.used_nonces),
        }


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


def _hex_field(obj, key, size, where):
    try:
        value = bytes.fromhex(obj[key])
    except (KeyError, TypeError, ValueError):
        raise StorageError(f"{where}: field {key!r} is not valid hex") from None
    if len(value) != size:
        raise StorageError(f"{where}: field {key!r} must be {size} bytes")
    return value


class Registry:
    """All enrolled vehicles plus issued invoices, with a coarse lock."""

    def __init__(self, group_key, tariff_per_second):
        if len(group_key) != crypto.KEY_SIZE:
            raise InvalidInput("group key must be 32 bytes")
        if not isinstance(tariff_per_second, int) or tariff_per_second < 0:
            raise InvalidInput("tariff must be a non-negative integer")
        self.group_key = bytes(group_key)
        self.tariff_per_second = tariff_per_second
        self._by_lookup = {}
        self._by_id = {}
        self.invoices = []
        self._lock = threading.Lock()

    # -- enrollment ---------------------------------------------------

    def register(self, id_a, k_a, balance=0, owner=""):
        id_a = bytes(id_a)
        k_a = bytes(k_a)
        if len(id_a) != crypto.BLOCK_SIZE:
            raise InvalidInput("vehicle id must be 16 bytes")
        if len(k_a) != crypto.KEY_SIZE:
            raise InvalidInput("vehicle key must be 32 bytes")
        if not isinstance(balance, int) or balance < 0:
            raise InvalidInput("opening balance must be a non-negative integer")
        lookup_key = crypto.encrypt_block(id_a, k_a)
        with self._lock:
            if id_a in self._by_id:
                raise DuplicateVehicle(f"vehicle {id_a.hex()} already enrolled")
            if lookup_key in self._by_lookup:
                raise DuplicateVehicle(f"lookup key collision for {id_a.hex()}")
            record = VehicleRecord(
                id_a=id_a, k_a=k_a, lookup_key=lookup_key, balance=balance, owner=owner
            )
            self._by_id[id_a] = record
            self._by_lookup[lookup_key] = record
        return record

    def revoke(self, id_a):
        """Disable a vehicle (stolen/retired). Idempotent; secrets are kept
        so a found vehicle can be re-enabled out of band."""
        with self._lock:
            record = self._by_id.get(bytes(id_a))
            if record is None:
                raise NotFound(f"no vehicle {bytes(id_a).hex()}")
            record.revoked = True
        return record

    @property
    def vehicles(self):
        return list(self._by_id.values())

    def find(self, id_a):
        record = self._by_id.get(bytes(id_a))
        if record is None:
            raise NotFound(f"no vehicle {bytes(id_a).hex()}")
        return record

    # -- authentication -----------------------------------------------

    def authenticate(self, lookup_key, nonce, persist=None):
        """Atomic check-and-consume. Returns (record, None) on success or
        (None, reason) on rejection. With a persist callback, the nonce is
        consumed only if persistence succeeds."""
        lookup_key = bytes(lookup_key)
        nonce = bytes(nonce)
        with self._lock:
            record = self._by_lookup.get(lookup_key)
            if record is None or record.revoked:
                return None, Reason.UNKNOWN_VEHICLE
            if nonce in record.used_nonces:
                return None, Reason.REPLAY_DETECTED
            record.used_nonces.add(nonce)
            if persist is not None:
                try:
                    persist()
                except Exception as exc:
                    record.used_nonces.discard(nonce)
                    raise StorageError(f"persist failed, nonce not consumed: {exc}") from exc
            return record, None

    # -- billing --------------------------------------------------------

    def bill(self, id_a, t1, t5, issued_at, persist=None):
        """Turn a reported charge interval into an invoice. Every started
        second is charged in full; the balance may go negative."""
        with self._lock:
            record = self._by_id.get(bytes(id_a))
            if record is None:
                raise NotFound(f"no vehicle {bytes(id_a).hex()}")
            if t5 < t1:
                raise InvalidReport(f"t5 {t5} precedes t1 {t1}")
            duration = t5 - t1
            amount = -(-duration // 1000) * self.tariff_per_second
            invoice = Invoice(
                id_a=record.id_a,
                t1=t1,
                t5=t5,
                duration_ms=duration,
                amount=amount,
                issued_at=issued_at,
            )
            record.balance -= amount
            self.invoices.append(invoice)
            if persist is not None:
                try:
                    persist()
                except Exception as exc:
                    self.invoices.pop()
                    record.balance += amount
                    raise StorageError(f"persist failed, invoice dropped: {exc}") from exc
        log.info(
            "invoice: duration_ms=%d amount=%d balance=%d", duration, amount, record.balance
        )
        return invoice

    def invoices_for(self, id_a=None):
        if id_a is None:
            return list(self.invoices)
        id_a = bytes(id_a)
        return [inv for inv in self.invoices if inv.id_a == id_a]

    # -- snapshots (for "nothing changed" assertions) --------------------

    def snapshot(self):
        with self._lock:
            return {
                "tariff": self.tariff_per_second,
                "group_key": self.group_key,
                "invoices": len(self.invoices),
                "vehicles": {
                    rec.id_a: (rec.revoked, rec.balance, frozenset(rec.used_nonces))
                    for rec in self._by_id.values()
                },
            }

    # -- persistence -----------------------------------------------------

    def to_obj(self):
        return {
            "group_key": self.group_key.hex(),
            "tariff_per_second": self.tariff_per_second,
            "vehicles": [rec.to_obj() for rec in self._by_id.values()],
            "invoices": [inv.to_obj() for inv in self.invoices],
        }

    def save(self, path):
        """Write atomically and durably: temp file in the same directory,
        fsync, rename, then fsync the directory so the rename survives a
        crash."""
        payload = json.dumps(self.to_obj(), indent=2) + "\n"
        directory = os.path.dirname(os.path.abspath(path))
        try:
            fd, tmp = tempfile.mkstemp(prefix=".registry-", dir=directory)
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            raise StorageError(f"cannot write registry {path}: {exc}") from exc

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise StorageError(f"cannot read registry {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise StorageError(f"registry {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise StorageError(f"registry {path} must be a JSON object")
        group_key = _hex_field(obj, "group_key", crypto.KEY_SIZE, path)
        tariff = obj.get("tariff_per_second")
        if not isinstance(tariff, int) or tariff < 0:
            raise StorageError(f"{path}: tariff_per_second must be a non-negative integer")
        reg = cls(group_key, tariff)
        for i, vobj in enumerate(obj.get("vehicles", [])):
            where = f"{path} vehicles[{i}]"
            id_a = _hex_field(vobj, "id_a", crypto.BLOCK_SIZE, where)
            k_a = _hex_field(vobj, "k_a", crypto.KEY_SIZE, where)
            stored_lookup = _hex_field(vobj, "lookup_key", crypto.BLOCK_SIZE, where)
            balance = vobj.get("balance", 0)
            if not isinstance(balance, int):
                raise StorageError(f"{where}: balance must be an integer")
            try:
                record = reg.register(id_a, k_a, owner=str(vobj.get("owner", "")))
            except DuplicateVehicle as exc:
                raise StorageError(f"{where}: {exc}") from exc
            if record.lookup_key != stored_lookup:
                raise StorageError(
                    f"{where}: lookup_key does not match E(id_a, k_a) for {id_a.hex()}"
                )
            record.balance = balance  # negative balances survive a round trip
            record.revoked = bool(vobj.get("revoked", False))
            nonces = vobj.get("used_nonces", [])
            if not isinstance(nonces, list):
                raise StorageError(f"{where}: used_nonces must be a list")
            record.used_nonces = {
                _hex_field({"n": n}, "n", crypto.NONCE_SIZE, where) for n in nonces
            }
        for i, iobj in enumerate(obj.get("invoices", [])):
            where = f"{path} invoices[{i}]"
            id_a = _hex_field(iobj, "id_a", crypto.BLOCK_SIZE, where)
            try:
                reg.invoices.append(
                    Invoice(
                        id_a=id_a,
                        t1=int(iobj["t1"]),
                        t5=int(iobj["t5"]),
                        duration_ms=int(iobj["duration_ms"]),
                        amount=int(iobj["amount"]),
                        issued_at=int(iobj["issued_at"]),
                    )
                )
            except (KeyError, TypeError, ValueError):
                raise StorageError(f"{where}: malformed invoice") from None
        return reg
