"""Distributional and determinism checks for the cycle-type samplers."""

import math
from collections import Counter

import pytest
from scipy import stats

from invgen import (
    RngState,
    ValidationError,
    WeylFamily,
    enumerate_classes,
    project,
    sample_partition,
    sample_signed,
    sample_signed_conditioned,
)

SIGNIFICANCE = 1e-3


def sample_signed_rejecting(n, want_sign, rng):
    """Reference sector sampler: resample until the total sign is right.
    Exact by construction, so it cross-checks the sign-flip sampler."""
    while True:
        label = sample_signed(n, rng)
        if label.total_sign == want_sign:
            return label


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

    def test_randbelow_range(self):
        rng = RngState(1, 0)
        draws = [rng.randbelow(7) for _ in range(1000)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    @pytest.mark.parametrize("m", [-3, 0, 1.5, True, "7"])
    def test_randbelow_rejects_non_positive_ints(self, m):
        # -3 used to return -1, 1.5 returned 1.0, 0 raised ZeroDivisionError
        with pytest.raises(ValidationError, match="m must be a positive integer"):
            RngState(1, 0).randbelow(m)

    def test_randbelow_rejects_above_two_to_64(self):
        # the rejection limit was 0 here, so the draw loop never ended
        with pytest.raises(ValidationError, match="at most 2\\^64"):
            RngState(1, 0).randbelow(2**65)

    def test_randbelow_edges(self):
        rng, raw = RngState(1, 0), RngState(1, 0)
        # m = 2^64 accepts every draw, so it returns the raw output
        assert rng.randbelow(2**64) == raw.next64()
        assert rng.randbelow(1) == 0


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


class TestPartitionDistribution:
    def test_exact_at_top_size(self):
        n, draws = 6, 1_000_000
        table = enumerate_classes(n, WeylFamily.A)
        rng = RngState(2024, 0)
        counts = Counter(sample_partition(n, rng) for _ in range(draws))
        assert chi_square_ok(counts, table, draws)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exact_small(self, n):
        draws = 200_000
        table = enumerate_classes(n, WeylFamily.A)
        rng = RngState(77 + n, 0)
        counts = Counter(sample_partition(n, rng) for _ in range(draws))
        assert chi_square_ok(counts, table, draws)

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

    def test_rejects_zero_n(self):
        with pytest.raises(ValidationError):
            sample_partition(0, RngState(0, 0))


class TestSignedDistribution:
    def test_exact_at_top_size(self):
        n, draws = 4, 1_000_000
        table = enumerate_classes(n, WeylFamily.B)
        rng = RngState(99, 0)
        counts = Counter(sample_signed(n, rng) for _ in range(draws))
        assert chi_square_ok(counts, table, draws)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_small(self, n):
        draws = 200_000
        table = enumerate_classes(n, WeylFamily.B)
        rng = RngState(55 + n, 0)
        counts = Counter(sample_signed(n, rng) for _ in range(draws))
        assert chi_square_ok(counts, table, draws)

    def test_rejects_zero_n(self):
        with pytest.raises(ValidationError):
            sample_signed(0, RngState(0, 0))


class TestConditionedSampler:
    def test_n2_positive_sector(self):
        # sector probabilities: (2,+) 1/2, (1+,1+) 1/4, (1-,1-) 1/4
        draws = 200_000
        rng = RngState(11, 0)
        counts = Counter(sample_signed_conditioned(2, 1, rng) for _ in range(draws))
        table = enumerate_classes(2, WeylFamily.D_PLUS)
        assert chi_square_ok(counts, table, draws)

    @pytest.mark.parametrize("want", [1, -1])
    def test_matches_sector_table(self, want):
        n, draws = 4, 200_000
        family = WeylFamily.D_PLUS if want == 1 else WeylFamily.D_MINUS
        table = enumerate_classes(n, family)
        rng = RngState(13, 0)
        counts = Counter(sample_signed_conditioned(n, want, rng) for _ in range(draws))
        assert chi_square_ok(counts, table, draws)

    @pytest.mark.parametrize("want", [1, -1])
    def test_reject_method_matches_sector_table(self, want):
        n, draws = 4, 100_000
        family = WeylFamily.D_PLUS if want == 1 else WeylFamily.D_MINUS
        table = enumerate_classes(n, family)
        rng = RngState(17, 0)
        counts = Counter(sample_signed_rejecting(n, want, rng) for _ in range(draws))
        assert chi_square_ok(counts, table, draws)

    def test_postcondition_sign(self):
        rng = RngState(23, 0)
        for trial in range(2_000):
            want = 1 if trial % 2 else -1
            sct = sample_signed_conditioned(1 + trial % 9, want, rng)
            assert sct.total_sign == want

    def test_rejects_bad_sign(self):
        with pytest.raises(ValidationError):
            sample_signed_conditioned(3, 0, RngState(0, 0))

    def test_rejects_zero_n(self):
        with pytest.raises(ValidationError):
            sample_signed_conditioned(0, 1, RngState(0, 0))


class TestRandbelowUniformity:
    @pytest.mark.parametrize("m", [7, 10, 1000])
    def test_uniform(self, m):
        # rejection sampling keeps non-power-of-two moduli unbiased
        draws = 100_000
        rng = RngState(7, m)
        counts = Counter(rng.randbelow(m) for _ in range(draws))
        observed = [counts.get(k, 0) for k in range(m)]
        _, pvalue = stats.chisquare(observed, [draws / m] * m)
        assert pvalue > SIGNIFICANCE
