"""Tests for the exact class tables and the half-lattice oracle."""

import itertools
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm, prod

import hypothesis.strategies as st
import pytest
from hypothesis import given

from invgen import exact
from invgen.montecarlo import check_event
import test_events
from invgen import (
    CapacityError,
    ValidationError,
    WeylFamily,
    enumerate_classes,
    event_J,
    exact_prob,
    exact_prob_J,
    exact_prob_J_and_not_N,
    exact_prob_J_bruteforce,
    exact_prob_predicate,
    fixed_sizes,
    make_partition,
    make_signed,
)
from invgen.cycletypes import _sign_bit, signed_subset_masks, subset_sum_mask
from invgen.sampling import _class_table

A, B, C = WeylFamily.A, WeylFamily.B, WeylFamily.C
DP, DM = WeylFamily.D_PLUS, WeylFamily.D_MINUS

F = Fraction


def dense_inclusion_exclusion(masses, l):
    """Reference for `running_and`: Prob(no common lattice point among l
    draws) = sum_K (-1)^|K| q_K^l with q_K = Prob(one profile covers K),
    by a dense superset-sum zeta transform over all 2^univ lattice points
    in integer arithmetic; univ is the widest mask's width."""
    univ = max(mask.bit_length() for mask in masses)
    den = 1
    for f in masses.values():
        den = lcm(den, f.denominator)
    size = 1 << univ
    acc = [0] * size
    for mask, f in masses.items():
        acc[mask] += f.numerator * (den // f.denominator)
    for b in range(univ):
        bit = 1 << b
        step = bit << 1
        for base in range(0, size, step):
            for k in range(base, base + bit):
                acc[k] += acc[k + bit]
    total = 0
    for k in range(size):
        v = acc[k]
        if v:
            total += -(v**l) if k.bit_count() & 1 else v**l
    return Fraction(total, den**l)


def running_and(law, l):
    """Prob(the AND of l independent masks is empty), for masks drawn with
    the integer weights of `law`: the oracle `exact_prob` replaced, kept
    as an independent reference for the half lattice.

    Tracks the law of the running AND as a sparse dict state -> weight,
    with the weights divided by their gcd and den their sum, starting from
    the all-ones state -1 (which ANDs to each mask itself).  A state that
    reaches 0 stays 0, so its weight leaves the dict and only gains a
    factor den per later draw; the last draw just sums the weights of
    masks disjoint from each surviving state.
    """
    g = gcd(*law.values())
    weights = [(mask, c // g) for mask, c in law.items()]
    den = sum(w for _, w in weights)
    state = {-1: 1}
    empty = 0
    for _ in range(l - 1):
        empty *= den
        nxt = {}
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


def table_classes(n, signed, want):
    """The order of `_class_table(n, signed, want)` and its classes as
    (lengths, signs, total, count), read back from the table's bytes (a
    byte per cycle, length << 1, plus 1 for a - cycle) and its running
    class sizes; signs are () in S_n's table."""
    table = _class_table(n, signed, want)
    classes, before = [], 0
    for start, stop, running in zip(table.bounds, table.bounds[1:], table.cumulative):
        element = table.cycles[start:stop]
        lengths = tuple(b >> 1 for b in element)
        signs = tuple(-1 if b & 1 else 1 for b in element) if signed else ()
        classes.append((lengths, signs, -1 if signs.count(-1) & 1 else 1, running - before))
        before = running
    return table.order, classes


def full_law(n, family, bits):
    """Class sizes of the family's own table (`_class_table`, under the
    oracle's cap) summed by full element mask: the profile on every proper
    size, plus | minus << n for (size, sign) pairs in families B and D,
    then bits(lengths, signs, total) above bit 2n.  Returns the law in
    integers and as probabilities."""
    keep = (1 << n) - 2
    exact._check_cap(n, family, family.signed_labels)
    order, classes = table_classes(n, family.signed_labels, family.sector_sign)
    law = Counter()
    for lengths, signs, total, count in classes:
        mask = bits(lengths, signs, total) << 2 * n
        if family.signed_profiles:
            plus, minus = signed_subset_masks(sorted(zip(lengths, signs)), keep)
            mask |= plus | minus << n
        else:
            mask |= subset_sum_mask(sorted(lengths), keep)
        law[mask] += count
    return dict(law), {mask: Fraction(count, order) for mask, count in law.items()}


def table_law(n, family, event):
    """Reference for `exact._law` on the events that intersect, the route
    its DP over cycle lengths replaced: walk the class table
    (`_class_table`, under the oracle's cap), run one profile DP per class,
    and sum the class sizes by half-lattice mask in each total-sign
    sector, + first.  Returns what `_law` does."""
    signed, _, bits = exact._EVENTS[event]
    pairs = family.signed_profiles
    exact._check_cap(n, family, signed or pairs)
    order, classes = table_classes(n, signed or pairs, family.sector_sign)
    half, keep = n // 2, (1 << n // 2 + 1) - 2
    laws = [{}, {}]
    for lengths, signs, total, count in classes:
        if pairs:  # (k, +) at bit 2k - 2, (k, -) at bit 2k - 1
            plus, minus = signed_subset_masks(zip(reversed(lengths), reversed(signs)), keep)
            mask = int(f"{plus >> 1:b}", 4) | int(f"{minus >> 1:b}", 4) << 1 | bits(lengths, signs, total) << 2 * half
        else:
            mask = subset_sum_mask(reversed(lengths), keep) >> 1 | bits(lengths, signs, total) << half
        law = laws[pairs and total < 0]
        law[mask] = law.get(mask, 0) + count
    return order, [law for law in laws if law], half


def table_event(n, l, family, event):
    """Reference for `exact_prob` on the events that do not intersect, the
    route its closed forms replaced: sum the class table's rows by their
    `_EVENTS` bits (S_n's table unless the event reads signs), then take
    Prob(the AND of l masks is not empty).  The total sign's law is the
    same at every n, so N reads the table at min(n, SIGNED_LIMIT)."""
    signed, _, bits = exact._EVENTS[event]
    size = min(n, exact.SIGNED_LIMIT) if event == "N" else n
    order, classes = table_classes(size, signed, family.sector_sign if signed else None)
    law = Counter()
    for lengths, signs, total, count in classes:
        law[bits(lengths, signs, total)] += count
    return 1 - exact._prob_no_common(l, order, [law], 0)


def cover(vec, half):
    """Reference for `exact._fold`, the rule it replaced: vec[S] weighs the
    tuples of - elements whose AND holds S; the result weighs, for each T,
    those whose AND holds some pair of every size T touches.  T has one
    base-4 digit (k, +) | (k, -) << 1 per size k <= half, then the sign
    bits, which pass unchanged; a non-zero size digit takes vec's
    (k, +) + (k, -) - (k, +-) entry in all three of its places."""
    for digit in reversed(range((len(vec).bit_length() - 1) // 2)):
        q = len(vec) >> 2
        parts = vec[:q], vec[q:2 * q], vec[2 * q:3 * q], vec[3 * q:]
        if digit < half:
            either = [b + c - d for b, c, d in zip(*parts[1:])]
            parts = parts[0], either, either, either
        vec = list(itertools.chain.from_iterable(zip(*parts)))
    return vec


def alternating(vec):
    """sum_T (-1)^|T| vec[T], by halving: the sum the sign list replaced."""
    while len(vec) > 1:
        vec = [a - b for a, b in zip(vec, vec[len(vec) >> 1:])]
    return vec[0]


def covered_sum(l, order, laws, half):
    """Reference for B's two-sector branch of `exact._prob_no_common`, the
    route it replaced: superset sums g+ and g- on the base-4 lattice, then
    sum_j C(l, j) sum_T (-1)^|T| g+(T)^j cover(g-^(l - j))(T)."""
    width = max(itertools.chain(*laws)).bit_length()
    width += width & 1
    sums = []
    for law in laws:
        vec = [0] * (1 << width)
        for mask, count in law.items():
            vec[mask] = count
        for bit in range(width):
            for index in range(len(vec)):
                if not index >> bit & 1:
                    vec[index] += vec[index | 1 << bit]
        sums.append(vec)
    plus, minus = sums
    total = sum(comb(l, j) * alternating([a**j * c for a, c in zip(plus, cover([b ** (l - j) for b in minus], half))])
                for j in range(l + 1))
    return Fraction(total, order**l)


class TestClassTables:
    def test_a2(self):
        table = dict(enumerate_classes(2, A).entries)
        assert table == {make_partition([2]): F(1, 2), make_partition([1, 1]): F(1, 2)}

    def test_b1(self):
        table = dict(enumerate_classes(1, B).entries)
        assert table == {make_signed([(1, 1)]): F(1, 2), make_signed([(1, -1)]): F(1, 2)}

    @pytest.mark.parametrize(
        "family,n",
        [(A, n) for n in range(1, 29)] + [(f, n) for f in (B, C, DP, DM) for n in range(1, 12)],
    )
    def test_contract_up_to_the_caps(self, family, n):
        # every label canonical and listed once, and the probabilities sum to 1
        entries = enumerate_classes(n, family).entries
        labels = [label for label, _ in entries]
        for label in labels:
            if family.signed_labels:
                assert label == make_signed(list(label.cycles))
            else:
                assert label == make_partition(list(label.parts))
        assert len(set(labels)) == len(labels)
        assert sum(p for _, p in entries) == 1

    @pytest.mark.parametrize("family,sign", [(DP, 1), (DM, -1)])
    def test_sector_labels(self, family, sign):
        for label, _ in enumerate_classes(5, family).entries:
            assert label.total_sign == sign

    def test_sector_is_doubled_restriction(self):
        full = dict(enumerate_classes(4, B).entries)
        plus = dict(enumerate_classes(4, DP).entries)
        assert plus == {lab: 2 * p for lab, p in full.items() if lab.total_sign == 1}

    def test_d_sectors_at_n1(self):
        assert dict(enumerate_classes(1, DP).entries) == {make_signed([(1, 1)]): F(1)}
        assert dict(enumerate_classes(1, DM).entries) == {make_signed([(1, -1)]): F(1)}

    def test_c_labels_are_signed(self):
        # family C is labelled by signed types; only the J event projects
        for label, _ in enumerate_classes(3, C).entries:
            assert hasattr(label, "total_sign")

    @pytest.mark.parametrize(
        "family,n",
        [(A, n) for n in range(1, 7)] + [(f, n) for f in (B, C, DP, DM) for n in range(1, 5)],
    )
    def test_class_sizes_count_the_whole_group(self, family, n):
        # every (signed) permutation once: a cycle's sign is the product of
        # its points' signs, and a D sector keeps one total sign
        counts = Counter()
        for perm in itertools.permutations(range(n)):
            cycles, seen = [], set()
            for start in range(n):
                if start not in seen:
                    cycle = [start]
                    while perm[cycle[-1]] != start:
                        cycle.append(perm[cycle[-1]])
                    seen.update(cycle)
                    cycles.append(cycle)
            if not family.signed_labels:
                counts[make_partition([len(c) for c in cycles])] += 1
                continue
            for eps in itertools.product((1, -1), repeat=n):
                label = make_signed([(len(c), prod(eps[i] for i in c)) for c in cycles])
                if family.sector_sign in (None, label.total_sign):
                    counts[label] += 1
        order = sum(counts.values())
        assert dict(enumerate_classes(n, family).entries) == {lab: F(c, order) for lab, c in counts.items()}

    def test_capacity(self):
        with pytest.raises(CapacityError, match="28"):
            enumerate_classes(29, A)
        with pytest.raises(CapacityError, match="11"):
            enumerate_classes(12, B)
        # C's labels are the signed table, so its table has the signed cap
        with pytest.raises(CapacityError, match="11"):
            enumerate_classes(12, C)


class TestExactJ:
    def test_half(self):
        assert exact_prob_J(2, 1, A) == F(1, 2)

    def test_three_quarters(self):
        assert exact_prob_J(2, 2, A) == F(3, 4)

    @pytest.mark.parametrize("family", [A, B, C, DP, DM])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_n1_is_certain(self, family, l):
        assert exact_prob_J(1, l, family) == 1

    def test_monotone_in_l(self):
        vals = [exact_prob_J(5, l, A) for l in range(1, 5)]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_c_equals_a(self, n):
        assert exact_prob_J(n, 2, C) == exact_prob_J(n, 2, A)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_b_at_least_a(self, n):
        assert exact_prob_J(n, 3, B) >= exact_prob_J(n, 3, A)

    @pytest.mark.parametrize("family", [A, B, C, DP, DM])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_routes_agree(self, n, family):
        for l in (2, 4):
            assert exact_prob_J(n, l, family) == exact_prob_J_bruteforce(n, l, family), l

    @pytest.mark.parametrize("family", [A, B, C, DP, DM])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_multisets_match_ordered_tuples(self, n, family):
        for l in (1, 2, 3):
            assert exact_prob_J_bruteforce(n, l, family) == test_events.brute(n, l, family, "J"), l

    def test_validation(self):
        with pytest.raises(ValidationError):
            exact_prob_J(0, 2, A)
        with pytest.raises(ValidationError):
            exact_prob_J(4, 0, A)
        # the family-C brute force used to compare a str n with its cap: TypeError
        with pytest.raises(ValidationError, match="n must be a positive integer"):
            exact_prob_J_bruteforce("5", 2, C)

    @pytest.mark.parametrize("family,cap", [(A, 28), (C, 28), (B, 11), (DP, 11), (DM, 11)])
    def test_capacity(self, family, cap):
        assert 0 < exact_prob_J(cap, 1, family) <= 1
        message = re.escape(f"family {family.value} is limited to n <= {cap}")
        with pytest.raises(CapacityError, match=message):
            exact_prob_J(cap + 1, 2, family)
        # l = 16 costs about what l = 4 does: the lattice does not grow with l
        assert 0 < exact_prob_J(3, exact.L_LIMIT, family) <= 1
        with pytest.raises(CapacityError, match="l <= 16"):
            exact_prob_J(3, exact.L_LIMIT + 1, family)

    def test_bruteforce_capacity(self):
        # brute force reads C's signed table and projects it
        with pytest.raises(CapacityError, match="family C is limited to n <= 11"):
            exact_prob_J_bruteforce(12, 2, C)
        # l = 2^64 used to raise a raw OverflowError from itertools.product
        with pytest.raises(CapacityError, match="l <= 16"):
            exact_prob_J_bruteforce(2, 2**64, A)
        # 35 distinct profiles: 42,875 tuples at l = 3, 1,500,625 at l = 4
        assert 0 < exact_prob_J_bruteforce(6, 3, B) < 1
        with pytest.raises(CapacityError, match="limited to 1000000 tuples"):
            exact_prob_J_bruteforce(6, 4, B)

    def test_l_checked_before_capacity(self):
        # the order exact_prob uses for every event
        with pytest.raises(ValidationError, match="l must be a positive integer"):
            exact_prob_J(29, 0, A)

    def test_a_allows_large_n(self):
        # unsigned capacity is wider than the signed one
        value = exact_prob_J(16, 2, A)
        assert 0 < value < 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_prob_J(4, 2, "A"),
        lambda: enumerate_classes(4, "B"),
        lambda: exact_prob_predicate(4, "A", "all_even"),
        lambda: exact_prob_J_and_not_N(4, 2, "B"),
        lambda: exact_prob_J_bruteforce(4, 2, "C"),
        lambda: event_J([fixed_sizes(make_partition([2, 1]))], "A"),
        lambda: check_event("J", "A"),
        lambda: exact_prob(4, 2, "A", "J"),
    ],
    ids=["J", "classes", "predicate", "J_and_not_N", "bruteforce", "event_J", "check_event", "exact_prob"],
)
def test_family_must_be_a_weyl_family(call):
    # a family token used to fail with AttributeError on a str
    with pytest.raises(ValidationError, match="family must be a WeylFamily, got '[ABC]'"):
        call()


class TestSparseMatchesDense:
    """The running AND equals the dense zeta transform it once replaced,
    and the half-lattice oracle equals both."""

    @pytest.mark.parametrize(
        "family,n",
        [(A, n) for n in range(1, 15)] + [(f, n) for f in (B, DP, DM) for n in range(1, 8)],
    )
    def test_full_masses(self, family, n):
        law, masses = full_law(n, family, exact._EVENTS["J"].bits)
        for l in (1, 2, 3, 4):
            value = running_and(law, l)
            assert value == dense_inclusion_exclusion(masses, l), l
            assert exact_prob(n, l, family, "J") == value, l

    @pytest.mark.parametrize("family", [B, C, DP, DM])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_sign_tagged_laws(self, family, n):
        # J_and_not_N's input: each profile with its total sign's bit above bit 2n
        law, masses = full_law(n, family, _sign_bit)
        assert sum(masses.values()) == 1
        for l in (1, 2, 3, 4):
            value = running_and(law, l)
            assert value == dense_inclusion_exclusion(masses, l), l
            assert exact_prob(n, l, family, "J_and_not_N") == value, l

    @pytest.mark.parametrize(
        "family,n,event",
        [(A, 28, "J"), (B, 11, "J"), (DP, 11, "J"), (DM, 11, "J")]
        + [(B, 11, "J_and_not_N"), (C, 11, "J_and_not_N")],
    )
    def test_caps_at_l4(self, family, n, event):
        # the top of each table, where the running AND takes up to a second
        law, _ = full_law(n, family, exact._EVENTS[event].bits)
        assert exact_prob(n, 4, family, event) == running_and(law, 4)

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize(
        "family,event",
        [(f, "J") for f in (B, DP, DM)] + [(f, "J_and_not_N") for f in (B, C, DP)],
    )
    def test_long_tuples(self, family, event, n):
        # B's binomial sum over sectors at long tuples, where j and l - j both reach 8
        law, _ = full_law(n, family, exact._EVENTS[event].bits)
        for l in (8, 16):
            assert exact_prob(n, l, family, event) == running_and(law, l), l


class TestLawMatchesTable:
    """`_law`'s DP over cycle lengths builds, for the events that
    intersect, the same law as the class walk it replaced (`table_law`),
    mask for mask and sector for sector: so the row bits of J and
    J_and_not_N read only the total sign.  Above a cap both raise the same
    CapacityError."""

    @pytest.mark.parametrize(
        "family,event",
        [(f, "J") for f in (A, B, C, DP, DM)] + [(f, "J_and_not_N") for f in (B, C, DP, DM)],
    )
    @pytest.mark.parametrize("n", [*range(1, 13), 20, 28, 29])
    def test_same_law(self, family, event, n):
        unsigned = event == "J" and not family.signed_profiles
        if n > (exact.UNSIGNED_LIMIT if unsigned else exact.SIGNED_LIMIT):
            message = f"exact mode for family {family.value} is limited to n <= "
            with pytest.raises(CapacityError, match=re.escape(message)) as want:
                table_law(n, family, event)
            with pytest.raises(CapacityError) as got:
                exact._law(n, family, event)
            assert str(got.value) == str(want.value)
        else:
            assert exact._law(n, family, event) == table_law(n, family, event)


class TestPerElementMatchesTable:
    """The closed forms of N, all_even and all_positive equal the class
    tables they replaced (`table_event`) at every l, wherever the event's
    cap allows; above it, all_even and all_positive raise the CapacityError
    of the group they once read."""

    @pytest.mark.parametrize(
        "family,event",
        [(A, "all_even")] + [(f, e) for f in (B, C, DP, DM) for e in ("N", "all_even", "all_positive")],
    )
    @pytest.mark.parametrize("n", [*range(1, 13), 20, 28])
    def test_same_value(self, family, event, n):
        limit = exact.SIGNED_LIMIT if exact._EVENTS[event].signed else exact.UNSIGNED_LIMIT
        if event != "N" and n > limit:
            message = f"exact mode for family {family.value} is limited to n <= {limit} (got {n})"
            with pytest.raises(CapacityError, match=re.escape(message)):
                exact_prob(n, 1, family, event)
            return
        for l in (1, 2, 3, 4, 5, 6, 8, 16):
            assert exact_prob(n, l, family, event) == table_event(n, l, family, event), l


class TestLongTuples:
    """Properties up to l = 16, where the half lattice costs about what it
    does at l = 4 and the running AND took up to a minute."""

    @pytest.mark.parametrize(
        "family,n,event",
        [(f, 28, "J") for f in (A, C)] + [(f, 11, "J") for f in (B, DP, DM)]
        + [(f, 11, "J_and_not_N") for f in (B, C, DP, DM)],
    )
    def test_non_decreasing_in_l(self, family, n, event):
        # one more element can only shrink the AND, so it ends empty at least as often
        values = [exact_prob(n, l, family, event) for l in range(1, exact.L_LIMIT + 1)]
        assert values == sorted(values)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
    def test_d_sectors_agree_at_odd_n(self, n):
        """-1 is central in the signed group and has total sign (-1)^n, so
        at odd n multiplying by it swaps the D+ and D- sectors.  It maps each
        fixed (size, sign) pair (k, e) to (k, (-1)^k e), the same bijection
        in every element of a tuple, so it keeps J: D+ and D- give the same
        Prob(J^l) at every l."""
        for l in range(1, exact.L_LIMIT + 1):
            assert exact_prob_J(n, l, DP) == exact_prob_J(n, l, DM), l

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_d_sectors_differ_at_even_n(self, n):
        # at even n, -1 lies in D+ and maps each sector to itself
        assert exact_prob_J(n, 2, DP) != exact_prob_J(n, 2, DM)


class TestFold:
    """B's sum folds each size digit of both sectors, where it once covered
    the - sector's digits: the same values on half the points per size."""

    @pytest.mark.parametrize("n", range(1, exact.SIGNED_LIMIT + 1))
    @pytest.mark.parametrize("event", ["J", "J_and_not_N"])
    def test_matches_covered_sum(self, event, n):
        order, laws, half = exact._law(n, B, event)
        assert len(laws) == 2
        for l in (1, 2, 3, 4, 5, 6, 8, 16):
            assert exact._prob_no_common(l, order, laws, half) == covered_sum(l, order, laws, half), l

    @given(st.integers(1, 4), st.booleans(), st.data())
    def test_fold_keeps_the_alternating_sum(self, half, sign_digit, data):
        # a digit adds a0 h0 - (a1 + a2 - a3)(h1 + h2 - h3) either way
        values = st.lists(st.integers(-10**6, 10**6), min_size=4 ** (half + sign_digit),
                          max_size=4 ** (half + sign_digit))
        a, h = data.draw(values), data.draw(values)
        covered = alternating([x * y for x, y in zip(a, cover(h, half))])
        assert alternating([x * y for x, y in zip(exact._fold(a, half), exact._fold(h, half))]) == covered

    def test_peak_memory_at_the_cap(self):
        # every sum streams: no list of g(T)^l and no halving copies (7 MB when they were built)
        tracemalloc.start()
        try:
            exact_prob(28, 16, A, "J")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 10**6


class TestPredicates:
    def test_all_even(self):
        assert exact_prob_predicate(4, A, "all_even") == F(3, 8)

    def test_all_even_is_per_element(self):
        # all_even is a single-element mass; the all-l probability is its power
        with pytest.raises(ValidationError):
            exact_prob_predicate(4, A, "all_even", 3)

    @pytest.mark.parametrize("n", [6, 100])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_same_sign(self, l, n):
        # a closed form, with no class table and so no cap
        assert exact_prob_predicate(n, B, "same_sign", l) == F(1, 2 ** (l - 1))

    def test_same_sign_needs_l(self):
        with pytest.raises(ValidationError):
            exact_prob_predicate(6, B, "same_sign")

    @pytest.mark.parametrize("family", [DP, DM])
    @pytest.mark.parametrize("n", [6, 100])
    def test_same_sign_in_sector(self, n, family):
        assert exact_prob_predicate(n, family, "same_sign", 4) == 1

    def test_all_positive(self):
        assert exact_prob_predicate(1, B, "all_positive") == F(1, 2)

    def test_all_positive_decays_in_n(self):
        vals = [exact_prob_predicate(n, B, "all_positive") for n in range(1, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("family", [B, C, DP, DM])
    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_all_even_matches_signed_table(self, n, family):
        # B and C read the partition table: their uniform law projects to S_n's
        entries = enumerate_classes(n, family).entries
        direct = sum((p for s, p in entries if all(length % 2 == 0 for length, _ in s.cycles)), F(0))
        assert exact_prob_predicate(n, family, "all_even") == direct

    @pytest.mark.parametrize("family", [B, C, DP, DM])
    def test_capacity_follows_table(self, family):
        # all_even needs only cycle lengths, so every family reads S_n's
        # partition table up to its cap; same_sign needs no table at all
        for n in (12, 28):
            assert exact_prob(n, 2, family, "all_even") == exact_prob(n, 2, A, "all_even")
        with pytest.raises(CapacityError, match="n <= 28"):
            exact_prob(29, 2, family, "all_even")
        assert exact_prob(12, 2, family, "N") == (1 if family.sector_sign else F(1, 2))
        # no route takes l above L_LIMIT, not even N, which has no cap on n
        with pytest.raises(CapacityError, match="l <= 16"):
            exact_prob(12, 17, family, "N")
        # all_positive reads the signed table
        message = re.escape(f"family {family.value} is limited to n <= 11")
        with pytest.raises(CapacityError, match=message):
            exact_prob(12, 2, family, "all_positive")

    def test_signed_predicate_rejects_a(self):
        with pytest.raises(ValidationError):
            exact_prob_predicate(4, A, "all_positive")

    def test_unknown_predicate(self):
        with pytest.raises(ValidationError):
            exact_prob_predicate(4, A, "sorted")


class TestJAndNotN:
    def test_known_value(self):
        assert exact_prob_J_and_not_N(4, 2, B) == F(25, 96)

    def test_l1_vanishes(self):
        assert exact_prob_J_and_not_N(5, 1, B) == 0

    @pytest.mark.parametrize("family", [DP, DM])
    def test_sectors_vanish(self, family):
        assert exact_prob_J_and_not_N(4, 3, family) == 0

    def test_bounded_by_J(self):
        assert exact_prob_J_and_not_N(5, 3, B) <= exact_prob_J(5, 3, B)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_sector_split(self, n):
        # N holds when all total signs agree.  B's signs are fair and each sector is
        # uniform given its sign, so J and N splits as 2^-l (P_D+(J) + P_D-(J)); C's
        # signs are fair coins independent of its lengths, and J in C is J in A
        for l in range(1, 6):
            both = (exact_prob_J(n, l, DP) + exact_prob_J(n, l, DM)) / 2**l
            assert exact_prob_J_and_not_N(n, l, B) == exact_prob_J(n, l, B) - both
            assert exact_prob_J_and_not_N(n, l, C) == exact_prob_J(n, l, A) * (1 - F(2, 2**l))
            assert exact_prob_J_and_not_N(n, l, DP) == exact_prob_J_and_not_N(n, l, DM) == 0

    @pytest.mark.parametrize("l", [8, 16])
    @pytest.mark.parametrize("n", [7, 8, 11])
    def test_sector_split_long_tuples(self, n, l):
        both = (exact_prob_J(n, l, DP) + exact_prob_J(n, l, DM)) / 2**l
        assert exact_prob_J_and_not_N(n, l, B) == exact_prob_J(n, l, B) - both

    def test_complement_bounded_by_N(self):
        gap = exact_prob_J(5, 3, B) - exact_prob_J_and_not_N(5, 3, B)
        assert gap <= exact_prob_predicate(5, B, "same_sign", 3)

    def test_rejects_unsigned(self):
        with pytest.raises(ValidationError):
            exact_prob_J_and_not_N(4, 2, A)

    @pytest.mark.parametrize("family", [B, C, DP, DM])
    def test_capacity(self, family):
        # even C enumerates the signed table here
        with pytest.raises(CapacityError, match="11"):
            exact_prob_J_and_not_N(12, 2, family)
