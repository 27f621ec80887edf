"""Distributional and determinism checks for the cycle-type samplers."""

import math
import random
from collections import Counter
from functools import cache
from itertools import chain, islice

import pytest
from scipy import stats

from invgen import (
    Partition,
    RngState,
    ValidationError,
    WeylFamily,
    enumerate_classes,
    project,
    sample_partition,
    sample_signed,
    sample_signed_conditioned,
)
from invgen.cycletypes import _signed_label
import invgen.exact as exact
import invgen.sampling as sampling
from invgen.sampling import (_MIX1, _MIX2, GOLDEN, LANES, M64, PARTITION_TABLE_LIMIT, SIGNED_TABLE_LIMIT, TWO64,
                             _draws, _kernel, _lanes, _pick, _picks, _sample_cycles, _table, mix64)

SIGNIFICANCE = 1e-3


def sample_signed_rejecting(n, want_sign, rng):
    """Reference sector sampler: resample until the total sign is right.
    Exact by construction, so it cross-checks the sign-flip sampler."""
    while True:
        label = sample_signed(n, rng)
        if label.total_sign == want_sign:
            return label


# the public sampler of each family that has one; C reads B's
TABLE_SAMPLERS = {
    WeylFamily.A: sample_partition,
    WeylFamily.B: sample_signed,
    WeylFamily.D_PLUS: lambda n, rng: sample_signed_conditioned(n, 1, rng),
    WeylFamily.D_MINUS: lambda n, rng: sample_signed_conditioned(n, -1, rng),
}


def chi_square_ok(counts, table, draws):
    """Counts keyed by class label vs exact probabilities; True if not rejected."""
    observed = [counts.get(label, 0) for label, _ in table.entries]
    expected = [float(prob) * draws for _, prob in table.entries]
    assert sum(observed) == draws
    _, pvalue = stats.chisquare(observed, expected)
    return pvalue > SIGNIFICANCE


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RngState(5, 3)
        b = RngState(5, 3)
        assert [a.next64() for _ in range(20)] == [b.next64() for _ in range(20)]

    def test_streams_differ(self):
        a = RngState(5, 0)
        b = RngState(5, 1)
        assert [a.next64() for _ in range(4)] != [b.next64() for _ in range(4)]

    def test_seeds_differ(self):
        a = RngState(5, 0)
        b = RngState(6, 0)
        assert [a.next64() for _ in range(4)] != [b.next64() for _ in range(4)]

    def test_seed_reduced_mod_two_to_64(self):
        # the documented contract: an integer seed outside 0..2^64-1 wraps
        assert RngState(-1, 3).next64() == RngState(2**64 - 1, 3).next64()
        assert RngState(2**70 + 5, 0).next64() == RngState(5, 0).next64()

    @pytest.mark.parametrize(
        "seed, stream", [("1", 0), (1.5, 0), (None, 0), (1, "x"), (1, 0.5), (True, 0), (1, True)]
    )
    def test_rejects_non_integer_seed_or_stream(self, seed, stream):
        # "1" used to be accepted and fail at the first next64() with TypeError,
        # and True to draw seed 1's stream
        with pytest.raises(ValidationError, match="seed and stream must be integers"):
            RngState(seed, stream)

    def test_sampler_replayable(self):
        out1 = [sample_partition(9, RngState(42, t)) for t in range(50)]
        out2 = [sample_partition(9, RngState(42, t)) for t in range(50)]
        assert out1 == out2


@pytest.mark.parametrize(
    "sampler",
    [sample_partition, sample_signed, lambda n, rng: sample_signed_conditioned(n, 1, rng)],
    ids=["partition", "signed", "conditioned"],
)
def test_samplers_reject_n_above_two_to_64(sampler):
    # n is checked before the rng, so no draw starts: at such n the
    # stick-breaking rejection limit is 0 and the first draw never ended
    with pytest.raises(ValidationError, match="n must be at most 2\\^64"):
        sampler(2**64 + 1, None)


@pytest.mark.parametrize("family", TABLE_SAMPLERS, ids=lambda f: f.value)
def test_samplers_reject_a_non_rng(family):
    with pytest.raises(ValidationError, match="rng must be an RngState, got 5$"):
        TABLE_SAMPLERS[family](3, 5)


@pytest.mark.parametrize("n, want, named", [(0, 0, "n"), (3, 0, "want_sign"), (3, True, "want_sign"), (3, 1, "rng")])
def test_checks_run_n_then_want_sign_then_rng(n, want, named):
    with pytest.raises(ValidationError, match=f"^{named} must be"):
        sample_signed_conditioned(n, want, None)


# (family, sampler, n, draws, seed) of each chi-square case; the D+ sector
# at n = 2 is (2,+) 1/2, (1+,1+) 1/4, (1-,1-) 1/4
LAW_CASES = {
    "partition_top": (WeylFamily.A, sample_partition, 6, 1_000_000, 2024),
    **{f"partition_{n}": (WeylFamily.A, sample_partition, n, 200_000, 77 + n) for n in (2, 3, 4, 5)},
    "signed_top": (WeylFamily.B, sample_signed, 4, 1_000_000, 99),
    **{f"signed_{n}": (WeylFamily.B, sample_signed, n, 200_000, 55 + n) for n in (1, 2, 3)},
    "n2_positive_sector": (WeylFamily.D_PLUS, TABLE_SAMPLERS[WeylFamily.D_PLUS], 2, 200_000, 11),
    **{f"sector_table_{name}": (family, TABLE_SAMPLERS[family], 4, 200_000, 13)
       for name, family in (("plus", WeylFamily.D_PLUS), ("minus", WeylFamily.D_MINUS))},
    **{f"reject_{name}": (family, lambda n, rng, want=want: sample_signed_rejecting(n, want, rng), 4, 100_000, 17)
       for name, family, want in (("plus", WeylFamily.D_PLUS, 1), ("minus", WeylFamily.D_MINUS, -1))},
}


@pytest.fixture(params=["table", "stick_breaking"])
def draw_path(request):
    """Runs a test at the table draws, then with the table caps at 0."""
    if request.param == "stick_breaking":
        request.getfixturevalue("stick_breaking")


class TestLaws:
    """Each sampler's class law.  The chi-square cases run once per draw
    path, so `_sample_cycles` stays checked against `sampling._class_table`,
    which the table draws read, at the same sizes and seeds."""

    @pytest.mark.parametrize("family, sampler, n, draws, seed", LAW_CASES.values(), ids=LAW_CASES)
    def test_chi_square(self, draw_path, family, sampler, n, draws, seed):
        rng = RngState(seed, 0)
        counts = Counter(sampler(n, rng) for _ in range(draws))
        assert chi_square_ok(counts, enumerate_classes(n, family), draws)

    def test_mean_cycle_count_harmonic(self):
        # E[#cycles] = H_n for uniform permutations
        n, draws = 10_000, 2_000
        h_n = sum(1 / k for k in range(1, n + 1))
        rng = RngState(31337, 0)
        mean = sum(len(sample_partition(n, rng).parts) for _ in range(draws)) / draws
        assert abs(mean - h_n) / h_n < 0.05

    @pytest.mark.parametrize(
        "sample",
        [sample_partition, lambda n, rng: project(sample_signed_conditioned(n, -1, rng))],
        ids=["A", "D-"],
    )
    def test_longest_cycle_law_at_a_million(self, sample):
        # P(longest cycle > n/2) = H_n - H_(n//2) exactly for a uniform
        # permutation; a D- draw's sign flip must leave its lengths alone
        n, draws = 10**6, 20_000
        p = math.fsum(1 / k for k in range(n // 2 + 1, n + 1))
        rng = RngState(1_000_003, 0)
        hits = sum(sample(n, rng).parts[0] > n // 2 for _ in range(draws))
        assert abs(hits / draws - p) < 3 * math.sqrt(p * (1 - p) / draws)

    def test_postcondition_sign(self):
        rng = RngState(23, 0)
        for trial in range(2_000):
            want = 1 if trial % 2 else -1
            sct = sample_signed_conditioned(1 + trial % 9, want, rng)
            assert sct.total_sign == want

    def test_rejects_bad_sign(self):
        with pytest.raises(ValidationError):
            sample_signed_conditioned(3, 0, RngState(0, 0))

    @pytest.mark.parametrize("family", [WeylFamily.A, WeylFamily.B, WeylFamily.D_PLUS], ids=lambda f: f.value)
    def test_rejects_zero_n(self, family):
        with pytest.raises(ValidationError):
            TABLE_SAMPLERS[family](0, RngState(0, 0))


def scalar_walk(state, count):
    """`count` draws of the stream whose state is `state`, one next64 at a time."""
    rng = RngState(0)
    rng.state = state
    return [rng.next64() for _ in range(count)]


def scalar_sample(draws, n, signed, want_sign=None):
    """The draw-by-draw stick-breaking walk, as the reference: each length
    draw is tested against the exact limit (2^64 // rem) * rem, and when
    `signed` the draw after the length of every 64th cycle is a sign word,
    whose bits from the top are the signs of that cycle and the 63 after it.
    Returns the element and the draws it read."""
    lengths, signs, rem, used = [], [], n, 0
    while rem:
        u = next(draws)
        used += 1
        if u < TWO64 // rem * rem:
            i = len(lengths)
            lengths.append(1 + u % rem)
            rem -= lengths[-1]
            if signed:
                if i % 64 == 0:
                    word = next(draws)
                    used += 1
                signs.append(-1 if word >> (63 - i % 64) & 1 else 1)
    total = -1 if signs.count(-1) & 1 else 1
    if want_sign is not None and total != want_sign:
        signs[-1] = -signs[-1]
        total = want_sign
    return (lengths, signs, total), used


@cache
def class_entries(n, family):
    """`enumerate_classes(n, family).entries`, built once per (n, family)."""
    return enumerate_classes(n, family).entries


def scalar_table_walk(rng, n, family):
    """The class that one table draw reads, as the reference: next64 draws
    until one is below (2^64 // order) * order, r = that draw mod order,
    then a linear scan for the first class whose running size exceeds r.
    Sizes are `enumerate_classes`'s probabilities times the order: n!,
    2^n n!, or 2^(n-1) n! in a D sector.  Returns the label and the number
    of draws rejected."""
    entries = class_entries(n, family)
    order = math.factorial(n)
    if family.signed_labels:
        order <<= n - (family.sector_sign is not None)
    rejected = 0
    while (u := rng.next64()) >= TWO64 // order * order:
        rejected += 1
    running = 0
    for label, p in entries:
        running += p * order
        if running > u % order:
            return label, rejected


def unmix64(y):
    """The inverse of mix64: each xorshift undone by iterating it to its
    fixed point, each product by the multiplier's inverse mod 2^64."""
    def unshift(y, k):
        x = y
        for _ in range(64 // k):
            x = y ^ x >> k
        return x

    y = unshift(y, 31) * pow(_MIX2, -1, TWO64) & M64
    y = unshift(y, 27) * pow(_MIX1, -1, TWO64) & M64
    return unshift(y, 30)


class TestBatchedStream:
    # 2^64 - GOLDEN: the first lane's state wraps to 0
    STATES = [0, M64, TWO64 - GOLDEN]

    @pytest.mark.parametrize("k", range(1, LANES + 1))
    def test_batches_are_the_scalar_draws(self, k):
        for s in self.STATES:
            assert list(_kernel(k)[0](s)) == scalar_walk(s, k)
            # draws k and k + 1 straddle the first batch boundary
            assert list(islice(_draws(s, _kernel(k)), 2 * k + 1)) == scalar_walk(s, 2 * k + 1)

    @pytest.mark.parametrize("k", range(1, LANES + 1))
    def test_many_streams_are_the_scalar_draws(self, k):
        # draw j of k streams at once; near 2^64 the sum state + j*GOLDEN
        # carries past bit 63, which the lane must drop
        rng = random.Random(k)
        states = [rng.getrandbits(64) for _ in range(k)]
        near = [TWO64 - GOLDEN if i % 2 else M64 - rng.randrange(256) for i in range(k)]
        for lanes in (states, near):
            for j in (1, 2, 3, 33):
                assert list(_kernel(k)[1](lanes, j)) == [scalar_walk(s, j)[-1] for s in lanes]
            j = (1 << 64) + 5  # j*GOLDEN past 2^64: the step is taken mod 2^64
            assert list(_kernel(k)[1](lanes, j)) == [mix64(s + j * GOLDEN) for s in lanes]

    def test_every_lane_count_has_a_kernel(self):
        # _lanes grows with n, so n = 1 and n = 2^64 bound what it can pick
        picks = {_lanes(n, signed) for n in (1, 2**64) for signed in (False, True)}
        assert min(picks) >= 1 and max(picks) == LANES

    def test_rejection_is_counted(self):
        # 2^64 mod 3 = 1: at rem = 3 the limit is 2^64 - 1, so M64 is
        # rejected and 2^64 - 2 (a length of 3) is the largest draw kept
        draws = iter([M64, TWO64 - 2, 5])
        assert _sample_cycles(draws, 3, signed=False) == ([3], [], 1)
        assert next(draws) == 5
        # one sign word, 2^63, after the first length: signs -, +
        draws = iter([M64, 0, 2**63, M64, 5])
        assert _sample_cycles(draws, 3, signed=True) == ([1, 2], [-1, 1], -1)
        assert next(draws) == 5

    def test_sign_words(self):
        # 130 cycles of length 1 read three words, after cycles 0, 64 and
        # 128; cycle i takes bit 63 - i % 64 of word i // 64
        words = [0xF0 << 56, 1, 3 << 62]
        draws = []
        for i in range(130):
            draws.append(0)
            if i % 64 == 0:
                draws.append(words[i // 64])
        rest = iter(draws + [7])
        lengths, signs, total = _sample_cycles(rest, 130, signed=True)
        minus = [0, 1, 2, 3, 127, 128, 129]
        assert lengths == [1] * 130 and next(rest) == 7  # it read the 133 draws
        assert [i for i, sign in enumerate(signs) if sign < 0] == minus and total == -1
        assert _sample_cycles(iter(draws), 130, True, want_sign=1)[1][-1] == 1
        assert scalar_sample(iter(draws), 130, True) == ((lengths, signs, total), 133)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("signed", [False, True])
    def test_acceptance_matches_the_exact_limit(self, n, signed):
        # first draws on each side of 2^64 - n and of the limit
        lim = TWO64 // n * n
        rest = scalar_walk(n, 600)
        for u in {0, TWO64 - n, TWO64 - n + 1, lim - 1, lim, M64} - {TWO64}:
            draws = chain([u], rest)
            element, used = scalar_sample(chain([u], rest), n, signed)
            assert _sample_cycles(draws, n, signed) == element, u
            assert next(draws) == rest[used - 1], u

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 2**63 + 1])
    @pytest.mark.parametrize("want", [None, 0, 1, -1], ids=["partition", "signed", "plus", "minus"])
    def test_public_samplers_leave_the_scalar_state(self, stick_breaking, n, want):
        # with the table caps at 0 every n breaks sticks; at n = 2^63 + 1
        # about half of the first length draws are rejected
        signed = want is not None
        rejected = 0
        for seed in range(20):
            rng, ref = RngState(seed, 3), RngState(seed, 3)
            (lengths, signs, _), used = scalar_sample(iter(ref.next64, None), n, signed, want or None)
            rejected += used - len(lengths) - (signed and -(-len(lengths) // 64))
            family = {None: WeylFamily.A, 0: WeylFamily.B, 1: WeylFamily.D_PLUS, -1: WeylFamily.D_MINUS}[want]
            label = _signed_label(n, zip(lengths, signs)) if signed else Partition(n, tuple(sorted(lengths)[::-1]))
            assert TABLE_SAMPLERS[family](n, rng) == label
            assert rng.state == ref.state
        assert rejected > 0 if n == 2**63 + 1 else rejected == 0

    @pytest.mark.parametrize(
        "family, n",
        [(family, n) for family in TABLE_SAMPLERS for n in (1, 2, 7, 11, 12, 16, 19, 20)
         if n <= (SIGNED_TABLE_LIMIT if family.signed_labels else PARTITION_TABLE_LIMIT)],
        ids=str,
    )
    def test_table_draws_are_the_scalar_walk(self, monkeypatch, family, n):
        # below the caps a public sampler reads its family's class table;
        # 20! leaves 7.7% of the draws rejected, so A at n = 20 rejects
        # some.  The reference reads enumerate_classes, so the oracle's
        # signed cap is raised to the samplers' for n = 12..16
        monkeypatch.setattr(exact, "SIGNED_LIMIT", max(exact.SIGNED_LIMIT, SIGNED_TABLE_LIMIT))
        rejected = 0
        for seed in range(60):
            rng, ref = RngState(seed, 5), RngState(seed, 5)
            label, skipped = scalar_table_walk(ref, n, family)
            rejected += skipped
            assert TABLE_SAMPLERS[family](n, rng) == label
            assert rng.state == ref.state
        if n == 20:
            assert rejected > 0

    @pytest.mark.parametrize("family", TABLE_SAMPLERS, ids=lambda f: f.value)
    def test_a_rejected_table_draw(self, family):
        # from this state the next draw is M64, at or above the limit of
        # every order that does not divide 2^64, as 7! and 2^7 7! do not
        n = 7
        assert mix64(unmix64(M64)) == M64
        state = (unmix64(M64) - GOLDEN) & M64
        rng, ref = RngState(0), RngState(0)
        rng.state = ref.state = state
        label, rejected = scalar_table_walk(ref, n, family)
        assert rejected >= 1
        assert TABLE_SAMPLERS[family](n, rng) == label and rng.state == ref.state
        # the class _pick picks is the sampler's label, in enumerate_classes's order
        index, after = _pick(state, _table(n, family.signed_labels, family.sector_sign))
        assert enumerate_classes(n, family).entries[index][0] == label and after == ref.state

    @pytest.mark.parametrize("family, n", [(WeylFamily.A, 8), (WeylFamily.A, 20), (WeylFamily.B, 11),
                                           (WeylFamily.D_PLUS, 11), (WeylFamily.D_MINUS, 7),
                                           (WeylFamily.B, 16), (WeylFamily.D_MINUS, 16)], ids=str)
    def test_picks_are_the_scalar_table_draws(self, monkeypatch, family, n):
        # 3 * LANES - 7 streams, a count no lane width divides, read a round
        # at a time: each round's picks and each stream's next state are
        # those of one `_pick` per stream.  Stream 5's first draw is M64,
        # rejected at n = 7; at A n = 20, 7.7% of the draws are, and at
        # signed n = 16 3.4%
        table = _table(n, family.signed_labels, family.sector_sign)
        bases = [mix64(t) for t in range(3 * LANES - 7)]
        bases[5] = (unmix64(M64) - GOLDEN) & M64
        states = list(bases)
        fallbacks = []

        def counting(state, table):
            fallbacks.append(state)
            return _pick(state, table)

        monkeypatch.setattr(sampling, "_pick", counting)
        for j in range(1, 5):
            picks = _picks(bases, j, table)
            for t, state in enumerate(states):
                index, states[t] = _pick(state, table)
                assert picks[t] == index and (bases[t] + j * GOLDEN) & M64 == states[t], (j, t)
        if n in (7, 16, 20):
            assert fallbacks

    def test_table_caps(self):
        # n! fits one draw up to n = 20, and 2^n n! up to n = 16; the caps
        # pick the table, not the oracle's limits
        assert math.factorial(PARTITION_TABLE_LIMIT) < TWO64 < math.factorial(PARTITION_TABLE_LIMIT + 1)
        cap = SIGNED_TABLE_LIMIT
        assert math.factorial(cap) << cap < TWO64 < math.factorial(cap + 1) << cap + 1
        for signed, cap in ((False, PARTITION_TABLE_LIMIT), (True, SIGNED_TABLE_LIMIT)):
            assert _table(cap, signed) is not None and _table(cap + 1, signed) is None

    @pytest.mark.parametrize("want", [1, -1])
    @pytest.mark.parametrize("n", range(1, SIGNED_TABLE_LIMIT + 1))
    def test_sector_table_is_a_filter_of_the_signed_table(self, n, want):
        # a D sector's classes are the signed table's classes of its total
        # sign (a count of - cycles, odd bytes, of want's parity), in the
        # same order and with the same sizes, in a group of half the order
        def classes(table):
            sizes = [b - a for a, b in zip([0, *table.cumulative], table.cumulative)]
            return [(table.cycles[a:b], size) for a, b, size in zip(table.bounds, table.bounds[1:], sizes)]

        full, sector = _table(n, True), _table(n, True, want)
        assert 2 * sector.order == full.order
        assert classes(sector) == [(cycles, size) for cycles, size in classes(full)
                                   if (-1) ** sum(b & 1 for b in cycles) == want]

    @pytest.mark.parametrize("want", [None, 1, -1], ids=["signed", "plus", "minus"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_elements_are_the_stick_breaking_shape(self, n, want):
        # the engine reads a table class as it reads a stick-breaking
        # draw: (lengths, signs, total), in label order, with the total
        # sign of the class's label
        table = sampling._class_table(n, True, want)
        elements = list(sampling._elements(table))
        assert len(elements) == len(table.bounds) - 1
        for i, element in enumerate(elements):
            label = sampling._label(table, i, n, True)
            assert len(element) == 3, element
            lengths, signs, total = element
            assert [*zip(lengths, signs)] == list(label.cycles) and total == label.total_sign
