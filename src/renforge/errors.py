"""Exception types shared across the package, and the value checkers that
every entry point uses to raise them."""

import math
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
    or index, an unknown id, or an out-of-range value (any ``ValueError``
    or ``RenforgeError``, so also one a constructor or mutator raises) met
    while loading a ``kind`` document into InvalidParameterError."""
    try:
        yield
    except (ValueError, RecursionError, LookupError, TypeError, RenforgeError) as exc:
        raise InvalidParameterError(
            f"malformed {kind} document: {type(exc).__name__}: {exc}") from exc


# The checkers below share one rule: a bool is not a number, and a number
# is a finite int or float.  Each returns ``value`` when it passes, and
# otherwise raises ``error("{name} must be ..., got {value!r}")``.

def _bounds(low, high, brackets: str) -> str:
    """The bounds as a checker's message states them."""
    if high < math.inf:
        return f" in {brackets[0]}{low}, {high}{brackets[1]}"
    if low > -math.inf:
        return f" {'>' if brackets[0] == '(' else '>='} {low}"
    return ""


def check_int(value, name: str, error, low=-math.inf, high=math.inf) -> int:
    """``value`` when it is an int in [``low``, ``high``]."""
    if type(value) is int and low <= value <= high:
        return value
    raise error(f"{name} must be an integer{_bounds(low, high, '[]')}, got {value!r}")


def check_number(value, name: str, error, low=-math.inf, high=math.inf,
                 brackets: str = "[]"):
    """``value`` when it is a finite int or float from ``low`` to ``high``;
    ``brackets`` marks each end closed, ``[`` or ``]``, or open, ``(`` or ``)``."""
    if ((type(value) is float or type(value) is int) and -math.inf < value < math.inf
            and (low < value if brackets[0] == "(" else low <= value)
            and (value < high if brackets[1] == ")" else value <= high)):
        return value
    bounds = _bounds(low, high, brackets)
    raise error(f"{name} must be {'a finite number' + bounds if bounds else 'finite'}, "
                f"got {value!r}")


def check_str(value, name: str, error) -> str:
    """``value`` when it is a string."""
    if type(value) is str:
        return value
    raise error(f"{name} must be a string, got {value!r}")


def check_instance(value, name: str, error, kind: type):
    """``value`` when it is an instance of ``kind``."""
    if isinstance(value, kind):
        return value
    raise error(f"{name} must be a {kind.__name__}, got {value!r}")


def check_not_str(value, name: str, error):
    """``value`` when it is not one string, which would be read as its
    characters where a collection of strings is wanted."""
    if isinstance(value, str):
        raise error(f"{name} must be a collection of strings, not one string, got {value!r}")
    return value


def iter_collection(value, name: str, error):
    """An iterator over ``value`` when it is a collection, not one string;
    unlike the checkers it returns the iterator, so that one ``iter`` both
    checks ``value`` and reads it.  The caller checks the entries."""
    check_not_str(value, name, error)
    try:
        return iter(value)
    except TypeError:
        raise error(f"{name} must be a collection of strings, got {value!r}") from None


def check_labels(value, name: str, error) -> list:
    """``value`` when it is a list of distinct strings."""
    if (type(value) is list and all(type(label) is str for label in value)
            and len(set(value)) == len(value)):
        return value
    raise error(f"{name} must be a list of distinct strings, got {value!r}")
