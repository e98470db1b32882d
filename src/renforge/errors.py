"""Exception types shared across the package."""

from contextlib import contextmanager


class RenforgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(RenforgeError, ValueError):
    """An argument violates a documented precondition."""


class NotFoundError(RenforgeError, LookupError):
    """A referenced neuron, synapse, node, or concept does not exist."""


class DuplicateEdgeError(RenforgeError):
    """A (pre, post) synapse pair already exists; use edge multiplicity instead."""


class InvalidSpecError(RenforgeError, ValueError):
    """A refined-unit build specification violates its invariants."""


class InvalidCombinationError(RenforgeError):
    """Two reports cannot be combined (e.g. different network snapshots)."""


class ConfigurationError(RenforgeError):
    """An experiment configuration is unreadable, names unknown entries or
    holds an out-of-range value."""


@contextmanager
def reading_document(kind: str):
    """Turn a non-JSON or too deeply nested text, a missing or mistyped key
    or index, or an out-of-range value (any ``ValueError``, so also an
    ``InvalidParameterError`` from a constructor) met while loading a
    ``kind`` document into InvalidParameterError."""
    try:
        yield
    except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
        raise InvalidParameterError(
            f"malformed {kind} document: {type(exc).__name__}: {exc}") from exc


@contextmanager
def reading_text(path):
    """Turn bytes of the file at ``path`` that do not decode as UTF-8 into
    InvalidParameterError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path} is not UTF-8 text: {exc}") from exc
