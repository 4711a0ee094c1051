"""Exception types shared across the package.

A type exists here only when some caller catches it by name or it carries
state of its own. Any other bad input or argument raises ValueError, or
ParseError when it comes from a file, and the CLI exits 2 on either.
"""

from __future__ import annotations


class SupplyGraphError(Exception):
    """Base class for all package errors."""


class ParseError(SupplyGraphError):
    """A file or response did not match its expected format."""

    def __init__(self, message: str, path: str, line: int | None = None):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{message} ({where})")


class EmptyName(SupplyGraphError):
    """Nothing remained of an entity name after normalization."""


class FetchError(SupplyGraphError):
    """Article source failed after retries."""


class EmptyParse(SupplyGraphError):
    """A non-empty response yielded no entities."""


class AmbiguousAnswer(SupplyGraphError):
    """A yes/no response did not start with a yes or no token."""


class BackendUnavailable(SupplyGraphError):
    """Completion backend unreachable or broken after retries, or a scripted
    backend with no answer for a request."""

    def __init__(self, message: str, attempts: int = 0):
        self.attempts = attempts
        super().__init__(message)


class CassetteWriteError(SupplyGraphError):
    """Recording backend could not write its cassette.

    Not a BackendUnavailable: a cassette that cannot be written aborts a
    recording run instead of being counted as a failed call."""


class UnknownNode(SupplyGraphError):
    """A graph operation referenced a canonical id that is not present."""


