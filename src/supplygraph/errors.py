"""Exception types shared across the package."""

from __future__ import annotations


class SupplyGraphError(Exception):
    """Base class for all package errors."""


class ParseError(SupplyGraphError):
    """A file or response did not match its expected format."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" ({path}" + (f":{line}" if line is not None else "") + ")"
        super().__init__(message + where)


class EmptyName(SupplyGraphError):
    """Nothing remained of an entity name after normalization."""


class DuplicateId(SupplyGraphError):
    """Two corpus articles share an id."""


class FetchError(SupplyGraphError):
    """Article source failed after retries."""


class EmptyParse(SupplyGraphError):
    """A non-empty response yielded no entities."""


class AmbiguousAnswer(SupplyGraphError):
    """A yes/no response did not start with a yes or no token."""


class BackendUnavailable(SupplyGraphError):
    """Completion backend unreachable or broken after retries."""

    def __init__(self, message: str, attempts: int = 0):
        self.attempts = attempts
        super().__init__(message)


class ScriptMiss(BackendUnavailable):
    """Scripted backend had no keyed entry and no way to synthesize one."""


class DuplicateKey(ParseError):
    """A script or cassette file contains the same request key twice."""


class CassetteWriteError(SupplyGraphError):
    """Recording backend could not write its cassette.

    Not a BackendUnavailable: a cassette that cannot be written aborts a
    recording run instead of being counted as a failed call."""


class UnknownNode(SupplyGraphError):
    """A graph operation referenced a canonical id that is not present."""


class SameNode(SupplyGraphError):
    """merge_nodes was asked to merge a node with itself."""


class SchemaVersionMismatch(SupplyGraphError):
    """Persisted graph state was written by an incompatible schema."""


class EmptyInput(SupplyGraphError):
    """Metrics requested over zero examples."""


class MissingPrediction(SupplyGraphError):
    """A dataset example has no prediction."""


class DegenerateClass(SupplyGraphError):
    """A category has no positives or no negatives to balance."""
