"""Exception hierarchy shared across the package."""


class InvgenError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(InvgenError):
    """Bad input: malformed cycle types, invalid family/event combinations, etc."""


class CapacityError(InvgenError):
    """A request beyond a configured size limit: exact-mode enumeration
    (n, l or brute-force tuples), or a fixed-set profile at n > 2^28, whose
    bitmask would take gigabytes (Monte Carlo on an intersecting event,
    `fixed_sizes`, `signed_fixed_sets`, the profile types)."""


class NoSolutionError(InvgenError):
    """Threshold solver could not find a finite answer."""


def _echo(value, show=repr, room: int = 100) -> str:
    """show(value) for an error message, the one rule for every caller
    value the package echoes: cut after room - 40 characters (60 of the
    default 100) once it is longer than `room`, so it never takes more than
    `room`, and only its type where it holds an int past the interpreter's
    digit limit, which str() and repr() refuse."""
    try:
        text = show(value)
    except ValueError:
        return f"an unprintable {type(value).__name__} (past the int digit limit)"
    return text if len(text) <= room else f"{text[:room - 40]}... ({len(text)} characters)"


def check_positive_int(name: str, value) -> None:
    """Raise ValidationError unless `value` is an int >= 1.  bool is an int
    subclass, but True is not a count, so it is rejected too."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {_echo(value)}")


def as_list(name: str, items) -> list:
    """`items` as a new list; ValidationError if it is not iterable."""
    try:
        return list(items)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {_echo(items)}") from None
