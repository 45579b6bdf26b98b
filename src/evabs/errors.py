"""Exception vocabulary shared across the package.

Everything raised on purpose derives from EvabsError so callers (and the
CLI exit-code mapping) can tell our failures from genuine bugs.
checked_bytes is the one check of a byte-string argument and checked_int of
an integer one, for the kernels, evabs.crypto, the registry, wire messages,
the clock, adversary rules and the scenario runner alike; a text parser
turns text into a value before either sees it.
"""


class EvabsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(EvabsError, ValueError):
    """A primitive received a malformed argument (wrong length, empty MAC
    data). Also a ValueError, the kernels' error for a bad argument."""


def checked_bytes(name, value, size=None, error=InvalidInput):
    """`value` as bytes: bytes unchanged, a bytearray or memoryview copied.
    Anything else, or a length other than `size` when one is given, raises
    `error` naming the argument; the wire codec passes FrameError."""
    if type(value) is not bytes:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise error(f"{name} must be bytes-like, got {type(value).__name__}")
        value = bytes(value)
    if size is not None and len(value) != size:
        raise error(f"{name} must be {size} bytes, got {len(value)}")
    return value


def checked_int(name, value, lo=0, hi=None, error=InvalidInput):
    """`value` unchanged when it is an int, which a bool is not, in lo..hi
    inclusive; a bound of None is no bound. Anything else raises `error`
    naming the argument and its bounds."""
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    bounds = " and".join(f" {op} {end}" for op, end in ((">=", lo), ("<=", hi)) if end is not None)
    if type(value) is not int:
        value = type(value).__name__
    elif value.bit_length() > 64:  # may have more digits than str() writes
        value = f"a {value.bit_length()}-bit int"
    raise error(f"{name} must be an integer{bounds}, got {value}")


class InvalidSeed(EvabsError):
    """Nonce generator state collapsed to the all-zero fixed point."""


class FrameError(EvabsError):
    """A wire frame could not be built or decoded."""


class HandshakeError(EvabsError):
    """A protocol step failed; .reason carries the wire-level failure code."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(detail or getattr(reason, "label", str(reason)))


class ClockSkew(EvabsError):
    """A later protocol timestamp was smaller than an earlier one."""


class DuplicateVehicle(EvabsError):
    """Registration with an id or lookup key that is already enrolled."""


class NotFound(EvabsError):
    """No enrolled vehicle matches the given identifier."""


class InvalidReport(EvabsError):
    """A charge report failed validation (e.g. end time before start time)."""


class StorageError(EvabsError):
    """Registry persistence failed or a stored file is corrupt."""


class ScriptError(EvabsError):
    """An adversary script or scenario file is malformed or unsatisfiable."""


class ConfigError(EvabsError):
    """Bad run configuration (missing registry, unusable option values)."""
