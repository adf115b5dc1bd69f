"""Exception types shared across the toolkit. A subclass exists only where
a catch site, an exit code, a message prefix or a failed cell's manifest
entry tells it apart; every other error is a plain AdaptclError."""


class AdaptclError(Exception):
    """Base of all toolkit errors: the CLI exits 1 with one `error:` line."""


class DegenerateVector(AdaptclError):
    """Norm too small to normalize; diverged_as and compute_prototypes catch it."""


class NonFiniteLoss(AdaptclError):
    """Loss is NaN or infinite; names a failed cell's stderr line and manifest entry."""


class ConfigError(AdaptclError):
    """Run configuration is missing or malformed; exit 2, `config error:`."""


class CheckpointError(AdaptclError):
    """Model checkpoint is missing or malformed; exit 1, `checkpoint error:`."""


class BoundViolation(AssertionError):
    """A theoretical guarantee failed at runtime; always an implementation bug.
    Names a failed cell's stderr line and manifest entry."""
