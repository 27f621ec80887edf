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


def check_positive_int(name: str, value) -> None:
    """Raise ValidationError unless `value` is an int >= 1.  bool is an int
    subclass, but True is not a count, so it is rejected too."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def as_list(name: str, items) -> list:
    """`items` as a new list; ValidationError if it is not iterable."""
    try:
        return list(items)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {items!r}") from None
