"""Exact small-n ground truth in rational arithmetic.

Enumerates conjugacy classes with their integer class sizes, `_classes`,
and computes Prob(J^l) two independent ways: the law of the running AND of
l element masks, and a direct sum over all l-tuples of class profiles
(the public labels of `enumerate_classes`).  Every event is the AND, over
its l elements, of one per-element mask: the profile (the achievable
sizes, or plus | minus << n for (size, sign) pairs) for events that
intersect, plus the event's own bits above bit 2n, such as the total
sign.  J and J_and_not_N hold when that AND ends empty; N and the
per-element rules hold when it does not.  `_EVENTS` holds one row per
event, read by validation, Monte Carlo and `exact_prob`, which sums the
class sizes by mask and runs one running AND on those integer weights; no
lattice of all masks is ever built.  Everything is a Fraction or an
integer; no floating point enters this module.

Capacity follows the table a route reads, checked in `_classes`: n <= 28
for S_n's partition table (J in A and C, all_even in every family), n <= 11
wherever the signed class table is read (J in B, D+, D-, J_and_not_N and
all_positive).  Event N reads the n = 1 table and has no cap on n.  Every
route takes l <= 16.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from typing import NamedTuple

from .cycletypes import (
    Partition,
    SignedCycleType,
    WeylFamily,
    _check_family,
    event_J,
    fixed_sizes,
    project,
    signed_fixed_sets,
    signed_subset_masks,
    subset_sum_mask,
)
from .errors import CapacityError, ValidationError, check_positive_int

# The oracle keeps only the running-AND states that occur, a few thousand
# at these caps, but their number and the class table still grow
# exponentially in n.  The caps keep the top of each range (A n = 28,
# B n = 11, l = 4) to about 1.5 s; the oracle exists for testing, not
# production.  Each of the l draws costs states x masks (B n = 11: 0.9, 14
# and 56 s at l = 4, 8 and 16); brute force takes about 10 us per tuple.
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
    count): the element form the `_EVENTS` bits read, with the integer
    class size.  The table is the family's signed table when `signed` (a D
    sector keeps its own total sign), else S_n's partition table (A's own,
    and the projection of every other family's uniform law).  n above the
    table's cap raises a CapacityError naming `family`.  One walk picks the
    longest remaining cycle length j, then its multiplicity m, then
    (signed) how many of the m cycles are positive, each descending, and
    carries the class-size divisor down: j^m m! in S_n, (2j)^m m+! m-! in
    the signed group.  The order is written only here: n!, 2^n n!, or
    2^(n-1) n! in a D sector, whose counts sum to it by a theorem (flip the
    sign of any one designated cycle) asserted here."""
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
    entries = tuple(
        (SignedCycleType(n, (*zip(lengths, signs),)) if signed else Partition(n, lengths),
         Fraction(count, order))
        for lengths, signs, _, count in classes
    )
    return ClassTable(n=n, family=family, entries=entries)


def _law(n: int, family: WeylFamily, signed: bool, pairs: bool | None, bits) -> dict[int, int]:
    """Class sizes of `_classes(n, family, signed)` summed by element mask:
    the profile, then bits(lengths, signs, total) above bit 2n.  The
    profile is the achievable sizes (of the projection, for signed
    classes) when `pairs` is False, plus | minus << n for (size, sign)
    pairs when True, and absent when None, so that one AND intersects all
    of them at once."""
    keep = (1 << n) - 2
    law: dict[int, int] = {}
    for lengths, signs, total, count in _classes(n, family, signed)[1]:
        mask = bits(lengths, signs, total) << 2 * n
        if pairs:
            plus, minus = signed_subset_masks(sorted(zip(lengths, signs)), keep)
            mask |= plus | minus << n
        elif pairs is not None:  # lengths are non-increasing
            mask |= subset_sum_mask(reversed(lengths), keep)
        law[mask] = law.get(mask, 0) + count
    return law


def _prob_empty_and(law: dict[int, int], l: int) -> Fraction:
    """Prob(the AND of l independent masks is empty), for masks drawn with
    the integer weights of `law`.

    Tracks the law of the running AND as a sparse dict state -> weight,
    with the weights divided by their gcd and den their sum, starting from
    the all-ones state -1 (which ANDs to each mask itself).  A state that
    reaches 0 stays 0, so its weight leaves the dict and only gains a
    factor den per later draw; the last draw just sums the weights of
    masks disjoint from each surviving state.  Only states that occur are
    kept, so no mask width enters.
    """
    g = gcd(*law.values())
    weights = [(mask, c // g) for mask, c in law.items()]
    den = sum(w for _, w in weights)
    state = {-1: 1}
    empty = 0
    for _ in range(l - 1):
        empty *= den
        nxt: dict[int, int] = {}
        for a, c in state.items():
            for mask, w in weights:
                b = a & mask
                if b:
                    nxt[b] = nxt.get(b, 0) + c * w
                else:
                    empty += c * w
        state = nxt
    empty *= den
    for a, c in state.items():
        empty += c * sum(w for mask, w in weights if not a & mask)
    return Fraction(empty, den**l)


def _sign_bit(lengths, signs, total: int) -> int:
    """Bit 0 for total sign +1, bit 1 for -1: it survives an AND only while
    every total sign agrees."""
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
        raise ValidationError(
            f"event {event} needs a signed family (B, C, D+, D-); family A supports {unsigned}"
        )


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
    # Cycle lengths have S_n's law in every family (signs are fair coins and
    # a D sector fixes only their product), so S_n's partition table serves
    # unless the event reads signs or intersects (size, sign) pairs (B, D).
    # N reads only the total sign, whose law is the same at every n (the
    # sector-mass theorem `_classes` asserts): the n = 1 table
    # serves, with no cap.
    pairs = intersects and family.signed_profiles
    law = _law(1 if event == "N" else n, family, signed or pairs, pairs if intersects else None, bits)
    empty = _prob_empty_and(law, l)
    return empty if intersects else 1 - empty


def exact_prob_J(n: int, l: int, family: WeylFamily) -> Fraction:
    """Exact Prob(J^l): l independent uniform elements share no achievable
    proper size (families A, C) or (size, sign) pair (families B, D)."""
    return exact_prob(n, l, family, "J")


def exact_prob_J_and_not_N(n: int, l: int, family: WeylFamily) -> Fraction:
    """Exact Prob(J and not N) for signed-label families: J's running AND
    with the total sign as two more mask bits, which survive only while
    every sign agrees; 0 in a D sector."""
    return exact_prob(n, l, family, "J_and_not_N")


def exact_prob_J_bruteforce(n: int, l: int, family: WeylFamily) -> Fraction:
    """Independent route to Prob(J^l): enumerate all l-tuples of distinct
    profiles (with aggregated probabilities) and evaluate the event per
    tuple with the runtime event evaluator.  For family C this enumerates
    the signed table and projects, so it is capped at the signed limit.
    Exponential in l; meant for n <= 6, l <= 3 cross-checks, and capped at
    10^6 tuples.
    """
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
    total = Fraction(0)
    for combo in itertools.product(grouped.values(), repeat=l):
        if event_J([prof for prof, _ in combo], family):
            total += prod(p for _, p in combo)
    return total


def exact_prob_predicate(n: int, family: WeylFamily, predicate: str, l: int | None = None) -> Fraction:
    """One element's mass for all_even or all_positive (l must be omitted),
    or Prob(N^l) for same_sign, the l-element same-sign event."""
    if predicate == "same_sign":
        return exact_prob(n, l, family, "N")
    if predicate not in ("all_even", "all_positive"):
        raise ValidationError(
            f"unknown predicate {predicate!r}; expected all_even, all_positive or same_sign"
        )
    if l is not None:
        raise ValidationError(f"{predicate} is a single-element mass; l applies only to same_sign")
    return exact_prob(n, 1, family, predicate)
