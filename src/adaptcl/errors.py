"""Exception types shared across the toolkit."""


class AdaptclError(Exception):
    """Base class for all toolkit errors."""


class DegenerateVector(AdaptclError):
    """Vector norm too small to normalize."""


class DimensionMismatch(AdaptclError):
    """Operands have incompatible dimensions."""


class EmptyInput(AdaptclError):
    """An operation received an empty sequence."""


class NonFiniteLoss(AdaptclError):
    """A loss evaluation produced NaN or infinity."""


class TapeConsumed(AdaptclError):
    """A backprop tape was used more than once."""


class EmptyClassifier(AdaptclError):
    """Classifier holds no classes."""


class UnknownLabel(AdaptclError):
    """Label not present in the prototype table or head."""


class IncompleteMatrix(AdaptclError):
    """Accuracy matrix is missing rows."""


class SingleTask(AdaptclError):
    """Metric needs at least two tasks."""


class LengthMismatch(AdaptclError):
    """Paired sequences differ in length."""


class TooFewSamples(AdaptclError):
    """Not enough samples for the requested check."""


class ConfigError(AdaptclError):
    """Run configuration is missing or malformed."""


class CheckpointError(AdaptclError):
    """Model checkpoint file is missing or malformed."""


class BoundViolation(AssertionError):
    """A theoretical guarantee failed at runtime; always an implementation bug."""
