"""Exact small-n ground truth in rational arithmetic.

Enumerates conjugacy classes with their exact probabilities and computes
Prob(J^l) two independent ways: the law of the running AND of l profile
masks (J holds iff that AND is empty), and a direct sum over all l-tuples
of class profiles.  One mask law serves every oracle call: class
probabilities summed by profile mask, where a mask is the achievable
sizes, or plus | minus << n for (size, sign) pairs.  The running AND
starts from the all-ones state -1 and keeps only the states that occur,
with integer weights; no lattice of all masks is ever built.  Everything
is a Fraction or an integer; no floating point enters this module.
`_EVENTS` holds one row per event, read by validation, Monte Carlo and
`exact_prob`.

Capacity follows the table a route reads, chosen in `_entries`: n <= 28
for S_n's partition table (J in A and C, all_even in every family), n <= 11
wherever the signed class table is read (J in B, D+, D-, J_and_not_N and
all_positive).  Event N needs no table and has no cap.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
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
)
from .errors import CapacityError, ValidationError, check_positive_int

# The oracle keeps only the running-AND states that occur, a few thousand
# at these caps, but their number and the class table still grow
# exponentially in n.  The caps keep the top of each range (A n = 28,
# B n = 11, l = 4) to about 1.5 s; the oracle exists for testing, not
# production.
UNSIGNED_LIMIT = 28
SIGNED_LIMIT = 11


@dataclass(frozen=True)
class ClassTable:
    """All class labels of one family at size n with exact probabilities."""

    n: int
    family: WeylFamily
    entries: tuple[tuple[object, Fraction], ...]


def _check_capacity(n: int, family: WeylFamily, signed: bool) -> None:
    """Hold a valid n to the cap of the table the work reads: the signed
    class table (`signed`) or S_n's partition table."""
    limit = SIGNED_LIMIT if signed else UNSIGNED_LIMIT
    if n > limit:
        raise CapacityError(
            f"exact mode for family {family.value} is limited to n <= {limit} (got {n})"
        )


def _partitions(n: int, maxpart: int | None = None):
    """All partitions of n as non-increasing tuples."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _partition_prob(parts: tuple[int, ...]) -> Fraction:
    """Probability that a uniform element of S_n has this cycle type:
    1 / prod_j j^{m_j} m_j!  (reciprocal of the centralizer order)."""
    den = 1
    for j, m in Counter(parts).items():
        den *= j**m * factorial(m)
    return Fraction(1, den)


def _signed_classes(n: int):
    """All signed cycle types of n with probabilities
    1 / prod_j (2j)^{m_j} m_j^+! m_j^-!  in canonical label order."""
    for parts in _partitions(n):
        # per part size j, descending: its m_j cycles split m+ positive, m- negative.
        # Labels join exact-size tuples: tuples built from a generator are
        # over-allocated, which cost 0.5 MB of peak memory on the exact benchmark.
        splits = [
            [(((j, 1),) * mp + ((j, -1),) * (m - mp), (2 * j) ** m * factorial(mp) * factorial(m - mp))
             for mp in range(m, -1, -1)]
            for j, m in Counter(parts).items()
        ]
        for choice in itertools.product(*splits):
            chunks, dens = zip(*choice)
            yield SignedCycleType(n=n, cycles=sum(chunks, ())), Fraction(1, prod(dens))


def enumerate_classes(n: int, family: WeylFamily) -> ClassTable:
    """Class labels and exact probabilities for one family at size n.

    D sectors are the total-sign-constrained halves of the signed table with
    probabilities doubled; each sector carrying exactly half the mass is a
    theorem (flip the sign of any one designated cycle), asserted here.
    """
    _check_family(family)
    check_positive_int("n", n)
    _check_capacity(n, family, family.signed_labels)
    if family is WeylFamily.A:
        entries = [
            (Partition(n=n, parts=parts), _partition_prob(parts)) for parts in _partitions(n)
        ]
    elif family.sector_sign is None:  # B and C share the signed table
        entries = list(_signed_classes(n))
    else:
        want = family.sector_sign
        kept = [(s, p) for s, p in _signed_classes(n) if s.total_sign == want]
        sector_mass = sum(p for _, p in kept)
        assert sector_mass == Fraction(1, 2), f"sector mass {sector_mass} != 1/2"
        entries = [(s, 2 * p) for s, p in kept]
    total = sum(p for _, p in entries)
    assert total == 1, f"class probabilities sum to {total}"
    return ClassTable(n=n, family=family, entries=tuple(entries))


def _entries(n: int, family: WeylFamily, signed: bool):
    """The family's signed class table when `signed`, else S_n's partition
    table (A's own, and the projection of every other family's uniform law).
    Every exact route reads its table here; n above that table's cap raises
    a CapacityError naming `family`."""
    _check_capacity(n, family, signed)
    return enumerate_classes(n, family if signed else WeylFamily.A).entries


def _law(entries, signed_profiles: bool) -> dict[int, Fraction]:
    """Class probabilities summed by profile mask: the achievable sizes
    (of the projection, for signed labels), or plus | minus << n when the
    event reads (size, sign) pairs, so that one AND intersects both."""
    law: dict[int, Fraction] = {}
    for label, p in entries:
        if signed_profiles:
            prof = signed_fixed_sets(label)
            mask = prof.plus | prof.minus << label.n
        else:
            mask = fixed_sizes(label if isinstance(label, Partition) else project(label)).achievable
        law[mask] = law.get(mask, 0) + p
    return law


def _prob_empty_and(masses: dict[int, Fraction], l: int) -> Fraction:
    """Prob(the AND of l independent profile masks is empty), for masks
    drawn from `masses` (whose total may be below 1: a sign sector).

    Tracks the law of the running AND as a sparse dict state -> weight, in
    integers over the lcm denominator, starting from the all-ones state -1
    (which ANDs to each mask itself).  A state that reaches 0 stays 0, so
    its weight leaves the dict and only gains a factor W (the total weight)
    per later draw; the last draw just sums the weights of masks disjoint
    from each surviving state.  Only states that occur are kept, so no
    mask width enters.
    """
    den = 1
    for f in masses.values():
        den = lcm(den, f.denominator)
    weights = [(mask, f.numerator * (den // f.denominator)) for mask, f in masses.items()]
    total_weight = sum(w for _, w in weights)
    state = {-1: 1}
    empty = 0
    for _ in range(l - 1):
        empty *= total_weight
        nxt: dict[int, int] = {}
        for a, c in state.items():
            for mask, w in weights:
                b = a & mask
                if b:
                    nxt[b] = nxt.get(b, 0) + c * w
                else:
                    empty += c * w
        state = nxt
    empty *= total_weight
    for a, c in state.items():
        empty += c * sum(w for mask, w in weights if not a & mask)
    return Fraction(empty, den**l)


def _prob_J(n: int, l: int, family: WeylFamily) -> Fraction:
    # A and C's J reads only plain sizes, and the uniform signed law projects
    # to the uniform S_n class law, so both use the partition table (this
    # keeps C at the unsigned capacity).
    signed = family.signed_profiles
    return _prob_empty_and(_law(_entries(n, family, signed), signed), l)


def _prob_J_and_not_N(n: int, l: int, family: WeylFamily) -> Fraction:
    # Prob(J and all signs equal to e) is the same running-AND law with the
    # single-element masses restricted to the sign-e sector, so
    # Prob(J and not N) = Prob(J) - sum_e Prob(J and all signs e).  Even C
    # needs its signed table here.
    entries = _entries(n, family, True)
    signed = family.signed_profiles
    # the table's law is the sum of its sector laws: each label is profiled once
    plus, minus = (_law([(s, p) for s, p in entries if s.total_sign == e], signed) for e in (1, -1))
    total = {mask: plus.get(mask, 0) + minus.get(mask, 0) for mask in plus.keys() | minus.keys()}
    return _prob_empty_and(total, l) - _prob_empty_and(plus, l) - _prob_empty_and(minus, l)


def _prob_N(n: int, l: int, family: WeylFamily) -> Fraction:
    # 2^(1-l) in B and C, whose total sign is a fair coin (the sector-mass
    # theorem `enumerate_classes` asserts), 1 in a D sector
    return Fraction(1) if family.sector_sign is not None else Fraction(2, 2**l)


class _Event(NamedTuple):
    """What one event means; `_count_range` says how a trial settles it."""

    signed: bool  # reads cycle signs, so family A cannot take it
    intersects: bool  # J-type: holds when the profile intersections end empty
    mixed: bool  # reads whether two total signs differ
    fails: Callable[[Sequence[int], Sequence[int]], bool] | None  # per element, on (lengths, signs)
    exact: Callable[[int, int, WeylFamily], Fraction] | None  # None: (passing mass) ** l


# One row per event, in the order the CLI lists them.
_EVENTS = {
    "J": _Event(False, True, False, None, _prob_J),
    "J_and_not_N": _Event(True, True, True, None, _prob_J_and_not_N),
    "N": _Event(True, False, True, None, _prob_N),
    "all_even": _Event(False, False, False, lambda lengths, signs: any(k & 1 for k in lengths), None),
    "all_positive": _Event(True, False, False, lambda lengths, signs: -1 in signs, None),
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


def exact_prob(n: int, l: int, family: WeylFamily, event: str) -> Fraction:
    """Exact probability of an event of l uniform elements, by its row.
    The one place the event routes validate their input."""
    check_event(event, family)
    check_positive_int("n", n)
    check_positive_int("l", l)
    row = _EVENTS[event]
    if row.exact is not None:
        return row.exact(n, l, family)
    # Given the cycle lengths, signs are fair coins and a D sector fixes only
    # their product, so a rule on lengths alone sees S_n's class law.
    mass = Fraction(0)
    for label, p in _entries(n, family, row.signed):
        lengths, signs = (label.parts, ()) if isinstance(label, Partition) else zip(*label.cycles)
        if not row.fails(lengths, signs):
            mass += p
    return mass**l


def exact_prob_J(n: int, l: int, family: WeylFamily) -> Fraction:
    """Exact Prob(J^l): l independent uniform elements share no achievable
    proper size (families A, C) or (size, sign) pair (families B, D)."""
    return exact_prob(n, l, family, "J")


def exact_prob_J_and_not_N(n: int, l: int, family: WeylFamily) -> Fraction:
    """Exact Prob(J and not N) for signed-label families, by the running-AND
    law of each sign sector; 0 in a D sector."""
    return exact_prob(n, l, family, "J_and_not_N")


def exact_prob_J_bruteforce(n: int, l: int, family: WeylFamily) -> Fraction:
    """Independent route to Prob(J^l): enumerate all l-tuples of distinct
    profiles (with aggregated probabilities) and evaluate the event per
    tuple with the runtime event evaluator.  For family C this enumerates
    the signed table and projects, so it is capped at the signed limit.
    Exponential in l; meant for n <= 6, l <= 3 cross-checks.
    """
    check_positive_int("l", l)
    _check_family(family)
    check_positive_int("n", n)
    entries = _entries(n, family, family.signed_labels)
    # group identical profiles, keeping one representative object
    grouped: dict[object, list] = {}
    for label, p in entries:
        if family.signed_profiles:
            prof = signed_fixed_sets(label)
            key = prof.plus, prof.minus
        else:
            prof = fixed_sizes(project(label) if family is WeylFamily.C else label)
            key = prof.achievable
        grouped.setdefault(key, [prof, 0])[1] += p
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
