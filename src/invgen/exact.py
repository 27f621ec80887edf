"""Exact small-n ground truth in rational arithmetic.

Enumerates conjugacy classes with their integer class sizes, `_classes`,
and computes Prob(J^l) two independent ways: inclusion-exclusion over the
class masks, and a sum over the multisets of l class profiles (the labels
of `enumerate_classes`).  Every event is the AND, over its l elements, of one
per-element mask: the profile (achievable sizes, or (size, sign) pairs)
for events that intersect, plus the event's own bits, such as the total
sign.  J and J_and_not_N hold when that AND ends empty; N and the
per-element rules hold when it does not.  `_EVENTS` holds one row per
event, read by validation, Monte Carlo and `exact_prob`.  A fixed set's
complement turns (k, e) into (n - k, s e), s the total sign, so `_law`
keeps sizes 1..n//2 and `_prob_no_common` works on that half lattice, in
integers: no floating point enters this module.

Capacity follows the table a route reads, checked in `_classes`: n <= 28
for S_n's partition table (J in A and C, all_even in every family), n <= 11
wherever the signed class table is read (J in B, D+, D-, J_and_not_N and
all_positive).  Event N reads the n = 1 table and has no cap on n.  Every
route takes l <= 16.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, groupby, repeat
from math import comb, factorial, lcm, prod
from operator import add, mul, sub
from typing import NamedTuple

from .cycletypes import (Partition, SignedCycleType, WeylFamily, _check_family, event_J, fixed_sizes, project,
                         signed_fixed_sets, signed_subset_masks, subset_sum_mask)
from .errors import CapacityError, ValidationError, check_positive_int

# The half lattice has 2^(n//2) points, 4^(n//2) for sign pairs, so the
# class table, exponential in n, costs most: at the caps (A n = 28, B n = 11)
# a call takes up to 0.1 s at any l <= 16.  The oracle exists for testing,
# not production.  Brute force judges each multiset of l profiles once,
# about 3 us each, weighted by its l! / prod m_i! orderings; its cap
# still counts ordered tuples.
UNSIGNED_LIMIT = 28
SIGNED_LIMIT = 11
L_LIMIT = 16
_TUPLE_LIMIT = 10**6


@dataclass(frozen=True)
class ClassTable:
    """All class labels of one family at size n with exact probabilities."""

    n: int
    family: WeylFamily
    entries: tuple[tuple[object, Fraction], ...]


def _classes(n: int, family: WeylFamily, signed: bool) -> tuple[int, list]:
    """The order of a class table and its classes as (lengths, signs, total,
    count), count the integer class size.  The table is the family's signed
    table when `signed` (a D sector keeps its own total sign), else S_n's
    partition table (the projection of every family's uniform law); n above
    its cap raises a CapacityError naming `family`.  One walk picks the
    longest remaining length j, its multiplicity m, then (signed) how many
    of the m cycles are positive, each descending, and carries the class
    size's divisor down: j^m m! in S_n, (2j)^m m+! m-! signed.  The order,
    n!, 2^n n!, or 2^(n-1) n! in a D sector, is asserted to sum the counts."""
    limit = SIGNED_LIMIT if signed else UNSIGNED_LIMIT
    if n > limit:
        raise CapacityError(f"exact mode for family {family.value} is limited to n <= {limit} (got {n})")
    group, want = (factorial(n) << n, family.sector_sign) if signed else (factorial(n), None)
    # m cycles of one length, + first: (their signs, the signs' product, m+! m-!)
    splits = [[((1,) * (m - k) + (-1,) * k, (-1) ** k, factorial(m - k) * factorial(k)) for k in range(m + 1)]
              if signed else [((), 1, factorial(m))] for m in range(n + 1)]
    table = []

    def walk(rest, top, lengths, signs, total, div):
        for j in range(min(rest, top), 0, -1):
            for m in range(rest // j, 0, -1):
                left, run, power = rest - j * m, lengths + (j,) * m, div * (2 * j if signed else j) ** m
                for chunk, sign, split in splits[m]:
                    if left:
                        walk(left, j - 1, run, signs + chunk, total * sign, power * split)
                    elif want in (None, total * sign):
                        table.append((run, signs + chunk, total * sign, group // (power * split)))

    walk(n, n, (), (), 1, 1)
    del walk  # it holds itself and the table through its closure: free both now, not at the next gc
    order = group >> (want is not None)
    assert sum(row[3] for row in table) == order, f"class sizes do not sum to {order}"
    return order, table


def enumerate_classes(n: int, family: WeylFamily) -> ClassTable:
    """Class labels and exact probabilities for one family at size n: each
    class size over the table's order.  A label's lengths are non-increasing,
    + before - at equal length; entries come in `_classes`'s walk order,
    which for partitions is reverse lexicographic."""
    _check_family(family)
    check_positive_int("n", n)
    signed = family.signed_labels
    order, classes = _classes(n, family, signed)
    # labels hold exact-size tuples: tuple() of an iterator over-allocates
    entries = tuple((SignedCycleType(n, (*zip(lengths, signs),)) if signed else Partition(n, lengths),
                     Fraction(count, order)) for lengths, signs, _, count in classes)
    return ClassTable(n=n, family=family, entries=entries)


def _law(n: int, family: WeylFamily, signed: bool, pairs: bool | None, bits) -> tuple[int, list]:
    """The order of `_classes(n, family, signed)` and its class sizes summed
    by half-lattice mask: the profile on sizes 1..n//2, then bits(lengths,
    signs, total).  The profile is the achievable sizes (of the projection,
    for signed classes) when `pairs` is False, (k, +) at bit 2k - 2 and
    (k, -) at 2k - 1 when True, and absent when None.  Pairs fold by total
    sign, so they fill one dict per sector, + first; else only the first."""
    order, classes = _classes(n, family, signed)  # checks the cap before anything is built from n
    half, keep = n // 2, (1 << n // 2 + 1) - 2
    spread = [int(f"{i:b}", 4) for i in range(1 << half)] if pairs else None  # bit i to bit 2i
    laws = [{}, {}]
    for lengths, signs, total, count in classes:
        if pairs:  # lengths ascending
            plus, minus = signed_subset_masks(zip(reversed(lengths), reversed(signs)), keep)
            mask = spread[plus >> 1] | spread[minus >> 1] << 1 | bits(lengths, signs, total) << 2 * half
        elif pairs is None:
            mask = bits(lengths, signs, total)
        else:
            mask = subset_sum_mask(reversed(lengths), keep) >> 1 | bits(lengths, signs, total) << half
        law = laws[bool(pairs) and total < 0]
        law[mask] = law.get(mask, 0) + count
    return order, laws


def _cover(vec: list[int], half: int) -> list[int]:
    """vec[S] weighs the tuples of - elements whose AND holds S; the result
    weighs, for each T, those whose AND holds some pair of every size T
    touches.  T has one base-4 digit (k, +) | (k, -) << 1 per size k <= half,
    then the sign bits, which pass unchanged.  By inclusion-exclusion a
    non-zero size digit takes vec's (k, +) + (k, -) - (k, +-) entries; at
    k = n/2 a - element's pairs are swap-closed, so the three are equal and
    that is the (k, +-) entry.  Each pass moves the top digit to the bottom."""
    for digit in reversed(range((len(vec).bit_length() - 1) // 2)):
        q = len(vec) >> 2
        parts = vec[:q], vec[q:2 * q], vec[2 * q:3 * q], vec[3 * q:]
        if digit < half:
            either = list(map(sub, map(add, parts[1], parts[2]), parts[3]))
            parts = parts[0], either, either, either
        vec = list(chain.from_iterable(zip(*parts)))
    return vec


def _alternating(vec: list[int]) -> int:
    """sum_T (-1)^|T| vec[T], one bit at a time."""
    while len(vec) > 1:
        vec = list(map(sub, vec, vec[len(vec) >> 1:]))
    return vec[0]


def _prob_no_common(n: int, l: int, order: int, laws: list) -> Fraction:
    """Prob(the AND of l independent masks is empty), the masks drawn with
    the class sizes `_law(n, ...)` gives, out of `order`.  With superset
    sums g of one sector's law it is sum_T (-1)^|T| g(T)^l.  In B a -
    element holds (k, e) with (n - k, -e), so a set the + elements share
    must be covered, size by size, by the - elements, and (g+ + g-)^l
    splits into sum_j C(l, j) sum_T (-1)^|T| g+(T)^j `_cover`(g-^(l - j))(T)."""
    plus, minus = laws if laws[0] else laws[::-1]
    width = max(chain(plus, minus)).bit_length()
    if minus:  # one base-4 digit per size, then one for the sign bits
        width += width & 1
    sums = []
    for law in filter(None, (plus, minus)):
        vec = [0] * (1 << width)
        for mask, count in law.items():
            vec[mask] = count
        for _ in range(width):  # superset sums over the top bit, which then moves to the bottom
            high = vec[len(vec) >> 1:]
            vec = list(chain.from_iterable(zip(map(add, vec, high), high)))
        sums.append(vec)
    if not minus:
        return Fraction(_alternating(list(map(pow, sums[0], repeat(l)))), order**l)
    total = 0
    for j in range(l + 1):
        covered = _cover(list(map(pow, sums[1], repeat(l - j))), n // 2)
        total += comb(l, j) * _alternating(list(map(mul, map(pow, sums[0], repeat(j)), covered)))
    return Fraction(total, order**l)


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
    "all_even": _Event(False, False, lambda lengths, signs, total: 0 if any(k & 1 for k in lengths) else 1),
    "all_positive": _Event(True, False, lambda lengths, signs, total: 0 if -1 in signs else 1),
}
EVENTS = tuple(_EVENTS)


def check_event(event: str, family: WeylFamily) -> None:
    """Reject a family that is not a WeylFamily, an unknown event, or one
    that reads signs on family A."""
    _check_family(family)
    if event not in EVENTS:
        raise ValidationError(f"unknown event {event!r}; expected one of {EVENTS}")
    if _EVENTS[event].signed and not family.signed_labels:
        unsigned = tuple(name for name, row in _EVENTS.items() if not row.signed)
        raise ValidationError(f"event {event} needs a signed family (B, C, D+, D-); family A supports {unsigned}")


def _check_l(l: int) -> None:
    check_positive_int("l", l)
    if l > L_LIMIT:
        raise CapacityError(f"exact mode is limited to l <= {L_LIMIT} (got {l})")


def exact_prob(n: int, l: int, family: WeylFamily, event: str) -> Fraction:
    """Exact probability of an event of l uniform elements, by its row.
    The one place the event routes validate their input."""
    check_event(event, family)
    check_positive_int("n", n)
    _check_l(l)
    signed, intersects, bits = _EVENTS[event]
    # Cycle lengths have S_n's law in every family (signs are fair coins, a D
    # sector fixes only their product): S_n's partition table serves unless
    # the event reads signs or intersects (size, sign) pairs (B, D).  N reads
    # only the total sign, whose law the n = 1 table gives, with no cap.
    pairs = intersects and family.signed_profiles
    n = 1 if event == "N" else n
    empty = _prob_no_common(n, l, *_law(n, family, signed or pairs, pairs if intersects else None, bits))
    return empty if intersects else 1 - empty


def exact_prob_J(n: int, l: int, family: WeylFamily) -> Fraction:
    """Exact Prob(J^l): l independent uniform elements share no achievable
    proper size (families A, C) or (size, sign) pair (families B, D)."""
    return exact_prob(n, l, family, "J")


def exact_prob_J_and_not_N(n: int, l: int, family: WeylFamily) -> Fraction:
    """Exact Prob(J and not N) for signed-label families: J's AND with two
    total-sign bits, which survive only while all signs agree; 0 in a D sector."""
    return exact_prob(n, l, family, "J_and_not_N")


def exact_prob_J_bruteforce(n: int, l: int, family: WeylFamily) -> Fraction:
    """Independent route to Prob(J^l): group the labels of
    `enumerate_classes` by profile, then judge each multiset of l groups
    once with the runtime `event_J`, weighted by its l! / prod m_i!
    orderings and its groups' masses in integers over one denominator.
    Family C enumerates the signed table and projects, so it takes the
    signed cap.  Exponential in l: capped at 10^6 ordered tuples."""
    _check_l(l)
    _check_family(family)
    check_positive_int("n", n)
    # group identical profiles, keeping one representative object
    grouped: dict[object, list] = {}
    for label, p in enumerate_classes(n, family).entries:
        if family.signed_profiles:
            prof = signed_fixed_sets(label)
            key = prof.plus, prof.minus
        else:
            prof = fixed_sizes(project(label) if family is WeylFamily.C else label)
            key = prof.achievable
        grouped.setdefault(key, [prof, 0])[1] += p
    if len(grouped) ** l > _TUPLE_LIMIT:
        raise CapacityError(f"brute force is limited to {_TUPLE_LIMIT} tuples (got {len(grouped)}**{l})")
    profs, masses = zip(*grouped.values())
    den = lcm(*(p.denominator for p in masses))
    weights = [p.numerator * (den // p.denominator) for p in masses]
    total = 0
    for combo in combinations_with_replacement(range(len(profs)), l):
        if event_J([profs[i] for i in combo], family):
            orderings = factorial(l) // prod(factorial(len(list(run))) for _, run in groupby(combo))
            total += orderings * prod(weights[i] for i in combo)
    return Fraction(total, den**l)


def exact_prob_predicate(n: int, family: WeylFamily, predicate: str, l: int | None = None) -> Fraction:
    """One element's mass for all_even or all_positive (l must be omitted),
    or Prob(N^l) for same_sign, the l-element same-sign event."""
    if predicate == "same_sign":
        return exact_prob(n, l, family, "N")
    if predicate not in ("all_even", "all_positive"):
        raise ValidationError(f"unknown predicate {predicate!r}; expected all_even, all_positive or same_sign")
    if l is not None:
        raise ValidationError(f"{predicate} is a single-element mass; l applies only to same_sign")
    return exact_prob(n, 1, family, predicate)
