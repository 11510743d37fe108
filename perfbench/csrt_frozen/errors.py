"""Shared exception hierarchy.

Every error the package raises deliberately derives from CsrtError so the
command-line layer can map failures to a diagnostic plus exit code 2.
"""


class CsrtError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(CsrtError):
    """Operand shapes do not conform to the operation's rule."""


class AxisOutOfRangeError(CsrtError):
    """An axis argument exceeds the operand's rank."""


class TapeError(CsrtError):
    """Illegal use of a gradient tape (reuse, missing recording, mixing)."""


class NonDeterministicFunctionError(CsrtError):
    """A function re-evaluated on identical inputs produced a different value."""


class AlignmentConflictError(CsrtError):
    """Both monolingual streams carry a surface unit at the same frame."""

    def __init__(self, frame):
        super().__init__(f"both streams are non-blank at frame {frame}")
        self.frame = frame


class LengthMismatchError(CsrtError):
    """Sequences that must share a length do not."""


class InfeasibleTargetError(CsrtError):
    """No alignment of the requested length exists for the label sequence."""


class CapExceededError(CsrtError):
    """An enumeration oracle was asked to exceed its hard size caps."""


class CorpusFormatError(CsrtError):
    """A corpus file is malformed or inconsistent."""


class FingerprintMismatchError(CsrtError):
    """A checkpoint's config fingerprint does not match the expected config."""


class OptimizerError(CsrtError):
    """Training aborted, e.g. on a non-finite gradient."""


class ConfigError(CsrtError):
    """Bad configuration file or option value."""
