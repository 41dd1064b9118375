"""Exception hierarchy shared across the simulator."""


class PermachainError(Exception):
    """Base class for all simulator errors."""


class ConfigError(PermachainError):
    """Invalid or missing configuration values."""


class NodeTableError(ConfigError):
    """Malformed node table (duplicate ids, bad Byzantine codes, ...)."""


class ScheduleError(ConfigError):
    """Malformed transaction-load schedule; the message names the day and node."""


class ParentMismatch(PermachainError):
    """Block's parent digest does not match the chain tip."""


class HeightGap(PermachainError):
    """Block height is not exactly tip height + 1."""


class DigestInvalid(PermachainError):
    """Block digest does not verify against its contents (tampering)."""


class ConsistencyError(PermachainError):
    """Benign nodes disagree on a committed block; report emission refuses."""
