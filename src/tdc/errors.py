"""Exception types and process exit codes shared across the package.

One class per idea that an exit code reports: a zero-norm descriptor, whose
similarity has no finite value, is a NumericError (exit 3) like a NaN is.
"""

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_ORCHESTRATION = 4


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ArgumentError(ValueError):
    """A structurally valid value violates an operation's precondition."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite result, or has none (a zero-norm descriptor's similarity)."""


class OrchestrationError(RuntimeError):
    """A multi-step pipeline run failed partway through."""


class FormatError(ValueError):
    """Base class for binary container parse failures.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(FormatError):
    """File declares a container version this reader does not support."""


class TruncatedPayloadError(FormatError):
    """File ended before the declared payload was complete."""
