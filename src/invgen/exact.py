"""Exact small-n ground truth in rational arithmetic.

Computes Prob(J^l) two independent ways.  The oracle builds the law of
one element's mask by a DP over cycle lengths (`_law`) and sums it by
inclusion-exclusion.  Brute force reads the conjugacy classes with their
integer class sizes (`enumerate_classes`, from the tables the samplers
draw small-n elements from, `sampling._class_table`) and sums over the
multisets of l class profiles.  Every event is the AND, over its l
elements, of one per-element mask: the profile (achievable sizes, or
(size, sign) pairs) for events that intersect, plus the event's own bits,
such as the total sign.  J and J_and_not_N hold when that AND ends empty.
N and the per-element rules hold when it does not, and they have closed
forms (`_per_element`), so the oracle reads no class table.  Each
event's row, `cycletypes._EVENTS`, which Monte Carlo reads too, tells
`_law` the group, the mask layout and the sectors of an event's law.  A
fixed set's complement turns (k, e) into (n - k, s e), s the total sign,
so `_law` keeps sizes 1..n//2 and `_prob_no_common` works on that half
lattice, in integers: no floating point enters this module.

Capacity follows the group a route reads, checked by `_check_cap`: n <= 28
for S_n (J in A and C, all_even in every family), n <= 11 wherever the
signed group is read (J in B, D+, D-, J_and_not_N and all_positive).
Event N has no cap on n.  Every route takes l <= 16.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, groupby, repeat
from math import comb, factorial, lcm, prod
from operator import add, mul, sub

from .cycletypes import (_EVENTS, EVENTS, Partition, SignedCycleType, WeylFamily,  # noqa: F401 (public here too)
                         _check_family, check_event, event_J, fixed_sizes, project, signed_fixed_sets)
from .errors import CapacityError, ValidationError, _echo, check_positive_int
from .sampling import _class_table

# The half lattice has 2^(n//2) points, 4^(n//2) for sign pairs, and its
# sums cost most: at the caps (A n = 28, B n = 11) a call takes up to about
# 0.06 s at any l <= 16, of which the DP's law takes under 8 ms.  The oracle
# exists for testing, not production.  Brute force judges each multiset of
# l profiles once, about 4 us each with its weights, counted by its
# l! / prod m_i! orderings; its cap still counts ordered tuples.
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


def _check_cap(n: int, family: WeylFamily, signed: bool) -> None:
    if n > (limit := SIGNED_LIMIT if signed else UNSIGNED_LIMIT):
        raise CapacityError(f"exact mode for family {family.value} is limited to n <= {limit} (got {_echo(n, str)})")


def enumerate_classes(n: int, family: WeylFamily) -> ClassTable:
    """Class labels and exact probabilities for one family at size n: each
    class size over the table's order.  A label's lengths are non-increasing,
    + before - at equal length; entries come in the samplers' table order
    (`sampling._class_table`), which for partitions is reverse
    lexicographic."""
    _check_family(family)
    check_positive_int("n", n)
    signed = family.signed_labels
    _check_cap(n, family, signed)
    table = _class_table(n, signed, family.sector_sign)
    # labels hold exact-size tuples: tuple() of an iterator over-allocates
    entries = tuple((SignedCycleType(n, (*zip(lengths, signs),)) if signed else Partition(n, lengths),
                     Fraction(count, table.order)) for lengths, signs, _, count in table.classes)
    return ClassTable(n=n, family=family, entries=entries)


def _law(n: int, family: WeylFamily, event: str) -> tuple[int, list, int]:
    """The order of the group an intersecting `event` reads in `family`,
    its class sizes summed by half-lattice mask in each total-sign sector
    that holds a class, + first, and the number of size digits, n//2,
    `_fold` reads.  Cycle lengths have S_n's law in every family (signs
    are fair coins, a D sector fixes only their product), so S_n serves
    unless the event reads signs or intersects (size, sign) pairs (B, D).
    A mask is the profile on sizes 1..n//2, then the row's bits: the
    achievable sizes (of the projection, for signed classes), or (k, +) at
    bit 2k - 2 and (k, -) at 2k - 1 for pairs, whose complements turn on
    the total sign and so split by sector.

    The law reads no class table.  A DP over cycle lengths j = n..1, each
    length's - cycles before its + cycles, merges equal states (size used,
    + track, - track, sign parity), the tracks on sizes 0..n//2: a + cycle
    shift-ors both tracks, a - cycle swaps them for pairs and shift-ors
    the one track otherwise.  A state's weight starts at the group order,
    and the c-th cycle of one length and sign divides it by (2j or j) c,
    exactly, as each merged summand is the order over a centraliser's in a
    smaller group.  So the states at size n hold the summed class sizes;
    their row bits read only the total sign."""
    (signed, _, bits), pairs = _EVENTS[event], family.signed_profiles
    laws = [defaultdict(int), defaultdict(int)]  # by total sign, for pairs
    _check_cap(n, family, signed := signed or pairs)
    half, step, group = n // 2, 1 + pairs, factorial(n) << n if signed else factorial(n)
    # a key is the mask being built, size 0 included: (k, +) at bit k step and, for pairs, (k, -) at
    # bit 2k + 1, for k <= half; then the sign parity at bit 2n + 2, which no track bit reaches, as a
    # track holds no size above the size used
    top, even, odd = (1 << step * (half + 1)) - 1, (4 << 2 * half) // 3, 1 << 2 * n + 2  # even: pairs' (k, +) bits
    states = [{1: group}] + [{} for _ in range(n)]  # by size used
    for j in range(n, 0, -1):
        # a length's - cycles, then its + cycles: the divisor's unit, whether the tracks swap, the parity flip
        for unit, swap, flip in ((2 * j, pairs, odd), (2 * j, False, 0)) if signed else ((j, False, 0),):
            for used in range(n - j, -1, -1):  # downwards, so no state this step makes is stepped again
                for key, weight in states[used].items():
                    for c in range(1, (n - used) // j + 1):
                        moved = key >> 1 & even | (key & even) << 1 if swap else key
                        key, weight = (key | moved << step * j) & (top | odd) ^ flip, weight // (unit * c)
                        if j > 1 or flip or used + c == n:  # the last step, + 1-cycles, only completes
                            target = states[used + j * c]
                            target[key] = target.get(key, 0) + weight
    for key, weight in states[n].items():
        total = -1 if key & odd else 1
        if family.sector_sign in (None, total):
            laws[pairs and total < 0][(key & top) >> step | bits((), (), total) << step * half] += weight
    return group >> (family.sector_sign is not None), [law for law in laws if law], half


def _fold(vec: list[int], half: int) -> list[int]:
    """vec[S] weighs the tuples whose AND holds S: one base-4 digit
    (k, +) | (k, -) << 1 per size k <= half, then the sign bits, which pass
    unchanged.  Each size digit becomes one bit, "some pair of size k",
    whose entry is (k, +) + (k, -) - (k, +-) by inclusion-exclusion.  A
    size the + elements share needs only some pair of that size in the -
    elements' AND (at k = n/2 their pairs are swap-closed).  So over one
    digit, a from the + elements and b from the - elements,
    sum_t (-1)^|t| a_t c_t with c_0 = b_0 and c_t = fold(b)_1 for t > 0 is
    a_0 b_0 - fold(a)_1 fold(b)_1, the same sum over the folded bit.  Each
    pass moves the bottom digit to the top."""
    for digit in range((len(vec).bit_length() - 1) // 2):
        parts = [vec[i::4] for i in range(4)]
        if digit < half:
            parts = parts[0], list(map(sub, map(add, parts[1], parts[2]), parts[3]))
        vec = list(chain.from_iterable(parts))
    return vec


def _prob_no_common(l: int, order: int, laws: list, half: int) -> Fraction:
    """Prob(the AND of l independent masks is empty), the masks drawn with
    the class sizes of `_law`'s sectors, out of `order`.  With superset
    sums g of one sector's law it is sum_T (-1)^|T| g(T)^l.  In B a -
    element holds (k, e) with (n - k, -e), so a set the + elements share
    must be met, size by size, by some pair the - elements share, and
    (g+ + g-)^l splits into sum_j C(l, j) sum_U (-1)^|U|
    `_fold`(g+^j)(U) `_fold`(g-^(l - j))(U).  Each sum streams against
    one list of the signs (-1)^|T|, built by doubling."""
    width = max(chain(*laws)).bit_length()
    if len(laws) > 1:  # one base-4 digit per size, then one for the sign bits
        width += width & 1
    sums = []
    for law in laws:
        vec = [0] * (1 << width)
        for mask, count in law.items():
            vec[mask] = count
        for _ in range(width):  # superset sums over the top bit, which then moves to the bottom
            high = vec[len(vec) >> 1:]
            vec = list(chain.from_iterable(zip(map(add, vec, high), high)))
        sums.append(vec)
    if len(sums) == 1:
        terms = [(1, map(pow, sums[0], repeat(l)))]
    else:
        width -= min(width >> 1, half)  # `_fold` keeps one bit of each size digit
        terms = ((comb(l, j), map(mul, _fold(list(map(pow, sums[0], repeat(j))), half),
                                  _fold(list(map(pow, sums[1], repeat(l - j))), half))) for j in range(l + 1))
    signs = [1]
    for _ in range(width):
        signs += [-sign for sign in signs]
    return Fraction(sum(weight * sum(map(mul, signs, values)) for weight, values in terms), order**l)


def _check_l(l: int) -> None:
    check_positive_int("l", l)
    if l > L_LIMIT:
        raise CapacityError(f"exact mode is limited to l <= {L_LIMIT} (got {_echo(l, str)})")


def _per_element(n: int, l: int, family: WeylFamily, event: str) -> Fraction:
    """Prob(event) of l uniform elements for an event that does not
    intersect, in closed form.  N: a total sign is a fair coin in B and C,
    so l of them agree with chance 2^(1 - l), and a D sector fixes it.  The
    others hold for l elements with chance p^l.  all_even: cycle lengths
    have S_n's law in every family, and p = C(n, n/2) / 2^n at even n, 0 at
    odd n.  all_positive: given its lengths each cycle is + with chance
    1/2, so p = E[2^-cycles] = C(2n, n) / 4^n in B and C; a D+ sector, half
    the group, holds those elements twice as often, and D- none.  all_even
    keeps S_n's cap and all_positive the signed one."""
    if event == "N":
        return Fraction(1) if family.sector_sign else Fraction(2, 2**l)
    _check_cap(n, family, _EVENTS[event].signed)
    if event == "all_even":
        return Fraction(0 if n & 1 else comb(n, n // 2), 2**n) ** l
    return (Fraction(comb(2 * n, n), 4**n) * (1 + (family.sector_sign or 0))) ** l  # x 1, 2, 0 in B/C, D+, D-


def exact_prob(n: int, l: int, family: WeylFamily, event: str) -> Fraction:
    """Exact probability of an event of l uniform elements, by its row:
    for an event that intersects `_law` reads the row and
    `_prob_no_common` sums, and the others have closed forms
    (`_per_element`).  The one place the event routes validate their
    input."""
    check_event(event, family)
    check_positive_int("n", n)
    _check_l(l)
    if _EVENTS[event].intersects:
        return _prob_no_common(l, *_law(n, family, event))
    return _per_element(n, l, family, event)


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
    _check_l(l)  # enumerate_classes checks the family, then n
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
        raise ValidationError(f"unknown predicate {_echo(predicate)}; expected all_even, all_positive or same_sign")
    if l is not None:
        raise ValidationError(f"{predicate} is a single-element mass; l applies only to same_sign")
    return exact_prob(n, 1, family, predicate)
