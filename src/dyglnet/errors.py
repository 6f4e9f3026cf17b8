"""Exception taxonomy shared by every module.

Each failure class maps to one kind of contract breach so tests and the
CLI can react without string matching.
"""

from __future__ import annotations


class DyglError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(DyglError):
    """Shape or rank of an operand is incompatible with the operation."""


class ConfigurationError(DyglError):
    """A config value is out of range or internally inconsistent."""


class ContractError(DyglError):
    """An argument violates a documented precondition (dtype, domain, ...)."""


class StateError(DyglError):
    """An object is used in an order its lifecycle forbids."""


class NumericError(DyglError):
    """A non-finite value appeared where only finite values are allowed."""


class DegenerateStatisticsError(DyglError):
    """Batch statistics were requested over a single element."""


class FormatError(DyglError):
    """A byte stream does not parse as the expected file format.

    ``offset`` is the byte position at which decoding failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class VersionError(FormatError):
    """A file parsed cleanly but declares an unsupported version."""


class UnsupportedFormatError(FormatError):
    """A file is recognizably a foreign or unsupported variant."""
