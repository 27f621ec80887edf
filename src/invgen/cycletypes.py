"""Cycle types of plain and signed permutations, their achievable fixed-set
sizes, and the events evaluated per sampled tuple, one row each in
`_EVENTS`, read by the exact oracle and by Monte Carlo.

A conjugacy class of S_n is a partition of n; a class of the signed group
C2 wr S_n is a list of (length, sign) pairs.  An element fixes a k-subset
(up to conjugacy) iff some sub-multiset of its cycle lengths sums to k, and
for signed elements the subset carries the product of the chosen cycles'
signs.  Achievable sizes are kept as bitmasks so that intersecting across a
tuple of elements is a single AND.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import CapacityError, ValidationError, _echo, as_list, check_positive_int


class WeylFamily(Enum):
    A = "A"
    B = "B"
    C = "C"
    D_PLUS = "D+"
    D_MINUS = "D-"

    def __init__(self, token: str) -> None:
        # plain attributes, set once: the exact routes read them per call
        self.signed_labels = token != "A"  # class labels carry per-cycle signs (all families but A)
        # the J event matches (size, sign) pairs; family C matches plain sizes on the projection
        self.signed_profiles = token in ("B", "D+", "D-")
        self.sector_sign = {"D+": 1, "D-": -1}.get(token)  # total-sign constraint on the class labels, if any

    @classmethod
    def parse(cls, token: str) -> "WeylFamily":
        try:
            return _FAMILY_TOKENS[token]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            raise ValidationError(
                f"unknown family {_echo(token)}; expected one of {', '.join(_FAMILY_TOKENS)}"
            ) from None


_FAMILY_TOKENS = {f.value: f for f in WeylFamily}


def _check_family(family) -> None:
    if not isinstance(family, WeylFamily):
        raise ValidationError(f"family must be a WeylFamily, got {_echo(family)}")


def _check_sign(name: str, sign) -> None:
    if type(sign) is not int or sign not in (1, -1):  # rejects True and -1.0 too
        raise ValidationError(f"{name} must be the int 1 or -1, got {_echo(sign)}")


def _check_cycles(cycles: list, signed: bool) -> int:
    """The total length of a label's cycles, once each is a positive int,
    or for a signed label a (length, sign) pair whose sign is the int 1 or -1."""
    if signed and not all(isinstance(c, tuple) and len(c) == 2 for c in cycles):
        raise ValidationError(f"each cycle must be a (length, sign) pair, got {_echo(cycles)}")
    for length, sign in cycles if signed else ((c, 1) for c in cycles):
        check_positive_int("each cycle length" if signed else "each part", length)
        _check_sign("cycle signs", sign)
    return sum(length for length, _ in cycles) if signed else sum(cycles)


def _check_label(label, kind: type) -> None:
    """A label of `kind` that names an element: n a positive int and cycles
    as make_partition or make_signed take them, summing to n."""
    if not isinstance(label, kind):
        raise ValidationError(f"expected a {kind.__name__}, got {_echo(label)}")
    check_positive_int("n", label.n)
    signed = kind is SignedCycleType
    if _check_cycles(as_list("cycles", label.cycles if signed else label.parts), signed) != label.n:
        raise ValidationError(f"the cycle lengths of {_echo(label)} do not sum to its n")


def _check_profile_n(n: int) -> None:
    """A profile is a bitmask with a bit per size (n/2 of them in a Monte
    Carlo trial): above n = 2^28 it would take gigabytes, a CapacityError."""
    if n > 1 << 28:
        raise CapacityError(f"fixed-set profiles are limited to n <= 2^28 (got {_echo(n, str)})")


def _check_profile_fields(n, *masks) -> None:
    """A profile's n is a positive int up to 2^28, and each mask a
    non-negative int with bits only in 1..n-1."""
    check_positive_int("n", n)
    _check_profile_n(n)
    for mask in masks:
        if isinstance(mask, bool) or not isinstance(mask, int) or mask < 0 or mask & 1 or mask >> n:
            raise ValidationError(f"profile masks must be non-negative ints over bits 1..{n - 1}, got {_echo(mask)}")


def _set_bits(mask: int) -> list[int]:
    """The set bits of a non-negative `mask`, ascending, found by str.rfind
    in its binary text: a byte per bit and a step per set bit, rather than
    a shift of the whole mask per bit."""
    text = bin(mask)
    top, out = len(text) - 1, []
    i = text.rfind("1")
    while i >= 0:  # the '0b' prefix holds no '1'
        out.append(top - i)
        i = text.rfind("1", 0, i)
    return out


@dataclass(frozen=True)
class Partition:
    """Multiset of positive cycle lengths summing to n, stored non-increasing."""

    n: int
    parts: tuple[int, ...]


@dataclass(frozen=True)
class SignedCycleType:
    """Cycle lengths decorated with signs, in canonical order
    (length descending, + before - at equal length)."""

    n: int
    cycles: tuple[tuple[int, int], ...]

    @property
    def total_sign(self) -> int:
        minus = sum(1 for _, s in self.cycles if s < 0)
        return -1 if minus & 1 else 1


@dataclass(frozen=True)
class SizeProfile:
    """Bitmask over 1..n-1 of proper fixed-subset sizes achievable by one
    element; bit k is set iff some subset of cycles has total length k."""

    n: int
    achievable: int

    def __post_init__(self) -> None:
        _check_profile_fields(self.n, self.achievable)

    def sizes(self) -> list[int]:
        return _set_bits(self.achievable)


@dataclass(frozen=True)
class SignedSizeProfile:
    """Two bitmasks over 1..n-1: sizes achievable with subset-sign +1 (plus)
    and with subset-sign -1 (minus), plus the element's total sign."""

    n: int
    plus: int
    minus: int
    total_sign: int

    def __post_init__(self) -> None:
        _check_profile_fields(self.n, self.plus, self.minus)
        _check_sign("total_sign", self.total_sign)

    def pairs(self) -> list[tuple[int, int]]:
        return [(k, 1) for k in _set_bits(self.plus)] + [(k, -1) for k in _set_bits(self.minus)]


def make_partition(parts) -> Partition:
    """Canonicalize a list of positive cycle lengths into a Partition."""
    parts = as_list("parts", parts)
    if not parts:
        raise ValidationError("partition needs at least one part")
    n = _check_cycles(parts, False)
    parts.sort(reverse=True)
    return Partition(n=n, parts=tuple(parts))


def make_signed(cycles) -> SignedCycleType:
    """Canonicalize a list of (length, sign) pairs into a SignedCycleType."""
    cycles = as_list("cycles", cycles)
    if not cycles:
        raise ValidationError("signed cycle type needs at least one cycle")
    return _signed_label(_check_cycles(cycles, True), cycles)


def _signed_label(n: int, cycles) -> SignedCycleType:
    """The one signed-label order: longest cycle first, + before - at equal length."""
    return SignedCycleType(n=n, cycles=tuple(sorted(cycles, key=lambda c: (-c[0], -c[1]))))


def project(s: SignedCycleType) -> Partition:
    """Forget the signs: the underlying partition of cycle lengths."""
    _check_label(s, SignedCycleType)
    return Partition(n=s.n, parts=tuple(l for l, _ in s.cycles))


def subset_sum_mask(lengths, keep: int) -> int:
    """Bitmask of the subset sums of `lengths` that lie in `keep`.

    `keep` is (1 << n) - 2 for every proper size (bits 1..n-1), or any
    narrower mask of the bits the caller still needs.  A length at or above
    keep's top bit cannot reach a kept bit, so it is skipped; the result
    is the full DP's mask restricted to `keep`.

    Shift-or DP over the lengths in ascending order, which it sorts itself,
    so callers pass them in any order: short intermediate masks matter at
    n around 10^6, and so does building `keep` once per caller rather than
    once per profile.
    """
    top = keep.bit_length()
    mask = 1
    for length in sorted(lengths):
        if length < top:
            mask |= mask << length
    return mask & keep


def signed_subset_masks(cycles, keep: int) -> tuple[int, int]:
    """(plus, minus) bitmasks of the subset sums of (length, sign) pairs
    that lie in `keep`, split by subset sign; `keep`, the skipping of long
    cycles and the ascending order, which it sorts the pairs into itself,
    as for subset_sum_mask.

    Two-track DP: a positive cycle extends both tracks in place, a negative
    cycle swaps the contributions between tracks.  A skipped cycle only
    ever contributes above keep's top bit, whatever its sign.
    """
    top = keep.bit_length()
    plus, minus = 1, 0
    for length, sign in sorted(cycles):
        if length >= top:
            continue
        if sign > 0:
            plus |= plus << length
            minus |= minus << length
        else:
            plus, minus = plus | (minus << length), minus | (plus << length)
    return plus & keep, minus & keep


def fixed_sizes(p: Partition) -> SizeProfile:
    """Achievable proper fixed-subset sizes of one element of class p."""
    _check_label(p, Partition)
    _check_profile_n(p.n)
    return SizeProfile(n=p.n, achievable=subset_sum_mask(p.parts, (1 << p.n) - 2))


def signed_fixed_sets(s: SignedCycleType) -> SignedSizeProfile:
    """Achievable proper (size, sign) pairs of one signed element."""
    _check_label(s, SignedCycleType)
    _check_profile_n(s.n)
    plus, minus = signed_subset_masks(s.cycles, (1 << s.n) - 2)
    return SignedSizeProfile(n=s.n, plus=plus, minus=minus, total_sign=s.total_sign)


def event_J(profiles, family: WeylFamily) -> bool:
    """True iff the sampled elements admit no common achievable proper
    fixed-set size (families A, C) or (size, sign) pair (families B, D).
    One pass checks each profile's kind and n and ANDs it in; a profile of
    the wrong kind is reported before a mismatched n, wherever it stands."""
    _check_family(family)
    signed = family.signed_profiles
    kind = SignedSizeProfile if signed else SizeProfile
    profiles = as_list("profiles", profiles)
    n = profiles[0].n if profiles and isinstance(profiles[0], kind) else 0
    plus = minus = (1 << n) - 2
    same = True
    for p in profiles:
        if not isinstance(p, kind):
            n = 0
            break
        same &= p.n == n
        plus &= p.plus if signed else p.achievable
        minus &= p.minus if signed else 0
    if not n:
        raise ValidationError(f"event_J on family {family.value} needs one or more {kind.__name__}s")
    if not same:
        raise ValidationError("profiles must share the same n")
    return not (plus or minus)


def _sign_bit(lengths, signs, total: int) -> int:
    """Bit 0 for total sign +1, bit 1 for -1: it survives an AND only while all agree."""
    return 1 if total > 0 else 2


class _Event(NamedTuple):
    """What one event means: the AND, over its l elements, of a per-element
    mask, the profile (for intersecting events) plus the element's bits."""

    signed: bool  # reads cycle signs, so family A cannot take it
    intersects: bool  # holds when the AND ends empty; otherwise when it does not
    bits: Callable[[Sequence[int], Sequence[int], int], int]  # on (lengths, signs, total)


# One row per event, in the order the CLI lists them.
_EVENTS = {
    "J": _Event(False, True, lambda lengths, signs, total: 0),
    "J_and_not_N": _Event(True, True, _sign_bit),
    "N": _Event(True, False, _sign_bit),
    "all_even": _Event(False, False, lambda lengths, signs, total: 0 if any(map((1).__and__, lengths)) else 1),
    "all_positive": _Event(True, False, lambda lengths, signs, total: 0 if -1 in signs else 1),
}
EVENTS = tuple(_EVENTS)


def check_event(event: str, family: WeylFamily) -> None:
    """Reject a family that is not a WeylFamily, an unknown event, or one
    that reads signs on family A."""
    _check_family(family)
    if event not in EVENTS:
        raise ValidationError(f"unknown event {_echo(event)}; expected one of {EVENTS}")
    if _EVENTS[event].signed and not family.signed_labels:
        signed = ", ".join(token for token, f in _FAMILY_TOKENS.items() if f.signed_labels)
        unsigned = tuple(name for name, row in _EVENTS.items() if not row.signed)
        raise ValidationError(f"event {event} needs a signed family ({signed}); family A supports {unsigned}")
