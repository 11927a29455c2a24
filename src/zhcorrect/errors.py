"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from ZhcorrectError so the CLI can
map it to exit code 2 (usage/data error); anything else is a bug and is
allowed to crash with exit code 1.
"""


class ZhcorrectError(Exception):
    """Base class for all expected toolkit errors."""


class NormalizationError(ZhcorrectError):
    """Input text is not a sequence of Unicode scalar values, or it holds a
    unit the model reserves (BOUNDARY, UNK)."""


class FormatError(ZhcorrectError):
    """A stream, record, or container does not match its declared format."""


class ConfigError(ZhcorrectError):
    """Inconsistent configuration (policy mismatch, a model with no stage
    left to fit, ...)."""


class UsageError(ZhcorrectError):
    """An operation was called with arguments outside its contract."""


class StructuralError(ZhcorrectError):
    """Edit spans overlap, run out of range, or otherwise break structure."""
