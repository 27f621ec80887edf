"""Cycle types of plain and signed permutations, their achievable fixed-set
sizes, and the events evaluated per sampled tuple.

A conjugacy class of S_n is a partition of n; a class of the signed group
C2 wr S_n is a list of (length, sign) pairs.  An element fixes a k-subset
(up to conjugacy) iff some sub-multiset of its cycle lengths sums to k, and
for signed elements the subset carries the product of the chosen cycles'
signs.  Achievable sizes are kept as bitmasks so that intersecting across a
tuple of elements is a single AND.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import CapacityError, ValidationError, as_list, check_positive_int


class WeylFamily(Enum):
    A = "A"
    B = "B"
    C = "C"
    D_PLUS = "D+"
    D_MINUS = "D-"

    @property
    def signed_labels(self) -> bool:
        """True when class labels carry per-cycle signs (all families but A)."""
        return self is not WeylFamily.A

    @property
    def signed_profiles(self) -> bool:
        """True when the J event matches (size, sign) pairs; family C matches
        plain sizes on the projection, so it is excluded here."""
        return self in (WeylFamily.B, WeylFamily.D_PLUS, WeylFamily.D_MINUS)

    @property
    def sector_sign(self) -> int | None:
        """Total-sign constraint on the family's class labels, if any."""
        if self is WeylFamily.D_PLUS:
            return 1
        if self is WeylFamily.D_MINUS:
            return -1
        return None

    @classmethod
    def parse(cls, token: str) -> "WeylFamily":
        try:
            return _FAMILY_TOKENS[token]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            raise ValidationError(
                f"unknown family {token!r}; expected one of A, B, C, D+, D-"
            ) from None


_FAMILY_TOKENS = {f.value: f for f in WeylFamily}


def _check_family(family) -> None:
    if not isinstance(family, WeylFamily):
        raise ValidationError(f"family must be a WeylFamily, got {family!r}")


def _check_label(label, kind: type) -> None:
    if not isinstance(label, kind):
        raise ValidationError(f"expected a {kind.__name__}, got {label!r}")


def _check_profile_n(n: int) -> None:
    """A profile is a bitmask with a bit per size (n/2 of them in a Monte
    Carlo trial): above n = 2^28 it would take gigabytes, a CapacityError."""
    if n > 1 << 28:
        raise CapacityError(f"fixed-set profiles are limited to n <= 2^28 (got {n})")


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

    def sizes(self) -> list[int]:
        return [k for k in range(1, self.n) if self.achievable >> k & 1]


@dataclass(frozen=True)
class SignedSizeProfile:
    """Two bitmasks over 1..n-1: sizes achievable with subset-sign +1 (plus)
    and with subset-sign -1 (minus), plus the element's total sign."""

    n: int
    plus: int
    minus: int
    total_sign: int

    def pairs(self) -> list[tuple[int, int]]:
        out = [(k, 1) for k in range(1, self.n) if self.plus >> k & 1]
        out += [(k, -1) for k in range(1, self.n) if self.minus >> k & 1]
        return out


def make_partition(parts) -> Partition:
    """Canonicalize a list of positive cycle lengths into a Partition."""
    parts = as_list("parts", parts)
    if not parts:
        raise ValidationError("partition needs at least one part")
    for p in parts:
        check_positive_int("each part", p)
    parts.sort(reverse=True)
    return Partition(n=sum(parts), parts=tuple(parts))


def make_signed(cycles) -> SignedCycleType:
    """Canonicalize a list of (length, sign) pairs into a SignedCycleType."""
    cycles = as_list("cycles", cycles)
    if not cycles:
        raise ValidationError("signed cycle type needs at least one cycle")
    if not all(isinstance(c, tuple) and len(c) == 2 for c in cycles):
        raise ValidationError(f"each cycle must be a (length, sign) pair, got {cycles!r}")
    for length, sign in cycles:
        check_positive_int("each cycle length", length)
        if type(sign) is not int or sign not in (1, -1):  # rejects True and -1.0 too
            raise ValidationError(f"cycle signs must be the int 1 or -1, got {sign!r}")
    return _signed_label(sum(l for l, _ in cycles), cycles)


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
    is the full DP's mask restricted to `keep`, whatever the input order.

    Shift-or DP.  Pass lengths ascending: short intermediate masks matter
    at n around 10^6, and so does building `keep` once per caller rather
    than once per profile.
    """
    top = keep.bit_length()
    mask = 1
    for length in lengths:
        if length < top:
            mask |= mask << length
    return mask & keep


def signed_subset_masks(cycles, keep: int) -> tuple[int, int]:
    """(plus, minus) bitmasks of the subset sums of (length, sign) pairs
    that lie in `keep`, split by subset sign; `keep` and the skipping of
    long cycles as for subset_sum_mask, lengths ascending.

    Two-track DP: a positive cycle extends both tracks in place, a negative
    cycle swaps the contributions between tracks.  A skipped cycle only
    ever contributes above keep's top bit, whatever its sign.
    """
    top = keep.bit_length()
    plus, minus = 1, 0
    for length, sign in cycles:
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
    return SizeProfile(n=p.n, achievable=subset_sum_mask(reversed(p.parts), (1 << p.n) - 2))


def signed_fixed_sets(s: SignedCycleType) -> SignedSizeProfile:
    """Achievable proper (size, sign) pairs of one signed element."""
    _check_label(s, SignedCycleType)
    _check_profile_n(s.n)
    plus, minus = signed_subset_masks(reversed(s.cycles), (1 << s.n) - 2)
    return SignedSizeProfile(n=s.n, plus=plus, minus=minus, total_sign=s.total_sign)


def event_J(profiles, family: WeylFamily) -> bool:
    """True iff the sampled elements admit no common achievable proper
    fixed-set size (families A, C) or (size, sign) pair (families B, D)."""
    _check_family(family)
    kind = SignedSizeProfile if family.signed_profiles else SizeProfile
    profiles = as_list("profiles", profiles)
    if not profiles or not all(isinstance(p, kind) for p in profiles):
        raise ValidationError(f"event_J on family {family.value} needs one or more {kind.__name__}s")
    n = profiles[0].n
    if any(p.n != n for p in profiles):
        raise ValidationError("profiles must share the same n")
    _check_profile_n(n)
    if family.signed_profiles:
        plus = minus = (1 << n) - 2
        for p in profiles:
            plus &= p.plus
            minus &= p.minus
        return plus == 0 and minus == 0
    inter = (1 << n) - 2
    for p in profiles:
        inter &= p.achievable
    return inter == 0


def all_cycles_even(p: Partition) -> bool:
    _check_label(p, Partition)
    return all(part % 2 == 0 for part in p.parts)


def all_cycles_positive(s: SignedCycleType) -> bool:
    _check_label(s, SignedCycleType)
    return all(sign > 0 for _, sign in s.cycles)


def event_N(types) -> bool:
    """True iff all signed elements share the same total sign."""
    types = as_list("types", types)
    if not types or not all(isinstance(t, SignedCycleType) for t in types):
        raise ValidationError("event_N needs one or more SignedCycleTypes")
    n = types[0].n
    if any(t.n != n for t in types):
        raise ValidationError("elements must share the same n")
    first = types[0].total_sign
    return all(t.total_sign == first for t in types)
