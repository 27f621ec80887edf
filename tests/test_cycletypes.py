import hypothesis.strategies as st
import pytest
from hypothesis import given

from invgen import (
    CapacityError,
    Partition,
    RngState,
    SignedSizeProfile,
    SizeProfile,
    ValidationError,
    WeylFamily,
    all_cycles_even,
    all_cycles_positive,
    event_J,
    event_N,
    fixed_sizes,
    make_partition,
    make_signed,
    project,
    sample_partition,
    sample_signed,
    sample_signed_conditioned,
    signed_fixed_sets,
    sweep,
)
from invgen.cycletypes import signed_subset_masks, subset_sum_mask

A = WeylFamily.A
B = WeylFamily.B


class TestMakePartition:
    def test_canonicalizes(self):
        p = make_partition([1, 3])
        assert p == Partition(n=4, parts=(3, 1))

    def test_single_part(self):
        assert make_partition([5]) == Partition(n=5, parts=(5,))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            make_partition([2, 0])
        with pytest.raises(ValidationError):
            make_partition([-1])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_partition([])


class TestMakeSigned:
    def test_canonical_order(self):
        s = make_signed([(1, -1), (2, 1), (2, -1)])
        assert s.cycles == ((2, 1), (2, -1), (1, -1))
        assert s.n == 5

    def test_total_sign(self):
        assert make_signed([(2, 1), (1, -1)]).total_sign == -1
        assert make_signed([(2, -1), (1, -1)]).total_sign == 1
        assert make_signed([(3, 1)]).total_sign == 1

    def test_rejects_bad_sign(self):
        with pytest.raises(ValidationError):
            make_signed([(2, 0)])

    def test_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            make_signed([(0, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_signed([])

    def test_shuffled_input_equal(self):
        a = make_signed([(3, 1), (1, -1), (3, -1)])
        b = make_signed([(1, -1), (3, -1), (3, 1)])
        assert a == b


class TestFixedSizes:
    def test_three_one(self):
        assert fixed_sizes(make_partition([3, 1])).sizes() == [1, 3]

    def test_n_cycle_fixes_nothing(self):
        assert fixed_sizes(make_partition([5])).sizes() == []

    def test_identity_fixes_everything(self):
        assert fixed_sizes(make_partition([1, 1, 1])).sizes() == [1, 2]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fixed_sizes(make_partition([2**28, 1])),
            lambda: signed_fixed_sets(make_signed([(2**28, 1), (1, -1)])),
        ],
        ids=["fixed_sizes", "signed_fixed_sets"],
    )
    def test_n_above_two_to_28(self, call):
        # the n-bit mask of a larger n would take gigabytes
        with pytest.raises(CapacityError, match=r"limited to n <= 2\^28 \(got 268435457\)"):
            call()


class TestSignedFixedSets:
    def test_example(self):
        prof = signed_fixed_sets(make_signed([(2, 1), (1, -1)]))
        assert prof.pairs() == [(2, 1), (1, -1)]
        assert prof.total_sign == -1

    def test_single_cycle(self):
        assert signed_fixed_sets(make_signed([(3, 1)])).pairs() == []

    def test_two_positive_singletons(self):
        assert signed_fixed_sets(make_signed([(1, 1), (1, 1)])).pairs() == [(1, 1)]


class TestProject:
    def test_forgets_signs(self):
        assert project(make_signed([(2, 1), (1, -1)])) == make_partition([2, 1])
        assert project(make_signed([(3, -1)])) == make_partition([3])
        assert project(make_signed([(1, 1), (1, -1)])) == make_partition([1, 1])


class TestEventJ:
    def test_empty_profile_wins(self):
        profs = [fixed_sizes(make_partition([5])), fixed_sizes(make_partition([4, 1]))]
        assert event_J(profs, A) is True

    def test_common_size(self):
        profs = [fixed_sizes(make_partition([3, 1])), fixed_sizes(make_partition([1, 1, 1, 1]))]
        assert event_J(profs, A) is False

    def test_signed_opposite_signs(self):
        profs = [
            signed_fixed_sets(make_signed([(2, 1), (1, -1)])),
            signed_fixed_sets(make_signed([(2, -1), (1, 1)])),
        ]
        assert event_J(profs, B) is True

    def test_mismatched_n(self):
        profs = [fixed_sizes(make_partition([3, 1])), fixed_sizes(make_partition([3]))]
        with pytest.raises(ValidationError):
            event_J(profs, A)

    def test_mixed_flavors(self):
        profs = [fixed_sizes(make_partition([2, 1])), signed_fixed_sets(make_signed([(2, 1), (1, 1)]))]
        with pytest.raises(ValidationError):
            event_J(profs, A)
        with pytest.raises(ValidationError):
            event_J(profs, B)

    def test_empty_list(self):
        with pytest.raises(ValidationError):
            event_J([], A)

    @pytest.mark.parametrize(
        "profile,family",
        [(SizeProfile(n=2**64, achievable=0), A), (SignedSizeProfile(n=2**64, plus=0, minus=0, total_sign=1), B)],
        ids=["A", "B"],
    )
    def test_n_above_two_to_28(self, profile, family):
        # (1 << n) - 2 was built before any cap: a raw MemoryError or OverflowError
        with pytest.raises(CapacityError, match=r"limited to n <= 2\^28"):
            event_J([profile], family)

    @pytest.mark.parametrize("family", [A, B])
    def test_non_profile_items(self, family):
        # used to read `.n` of an int: AttributeError
        with pytest.raises(ValidationError, match="needs one or more"):
            event_J([1], family)

    def test_family_c_takes_projections(self):
        signed = [make_signed([(2, 1), (1, -1)]), make_signed([(2, -1), (1, 1)])]
        profs = [fixed_sizes(project(s)) for s in signed]
        # both project to [2,1], so sizes 1 and 2 are common
        assert event_J(profs, WeylFamily.C) is False


class TestPredicates:
    def test_all_cycles_even(self):
        assert all_cycles_even(make_partition([2, 2])) is True
        assert all_cycles_even(make_partition([3, 1])) is False
        assert all_cycles_even(make_partition([4])) is True

    def test_all_cycles_positive(self):
        assert all_cycles_positive(make_signed([(2, 1), (1, 1)])) is True
        assert all_cycles_positive(make_signed([(3, -1)])) is False
        assert all_cycles_positive(make_signed([(1, 1)])) is True

    def test_event_N(self):
        assert event_N([make_signed([(2, 1)]), make_signed([(2, -1)])]) is False
        assert event_N([make_signed([(2, 1), (1, -1)]), make_signed([(3, -1)])]) is True
        assert event_N([make_signed([(2, 1)])]) is True

    def test_event_N_empty(self):
        with pytest.raises(ValidationError):
            event_N([])

    def test_event_N_non_label_items(self):
        # used to read `.n` of an int: AttributeError
        with pytest.raises(ValidationError, match="SignedCycleTypes"):
            event_N([1])

    def test_event_N_mismatched_n(self):
        with pytest.raises(ValidationError):
            event_N([make_signed([(2, 1)]), make_signed([(3, 1)])])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: fixed_sizes("31"), id="fixed_sizes"),
        pytest.param(lambda: project("x"), id="project"),
        pytest.param(lambda: make_signed("x"), id="make_signed"),
        pytest.param(lambda: make_signed(5), id="make_signed.non_iterable"),
        pytest.param(lambda: make_partition(None), id="make_partition.non_iterable"),
        pytest.param(lambda: signed_fixed_sets("x"), id="signed_fixed_sets"),
        pytest.param(lambda: signed_fixed_sets(make_partition([2, 1])), id="signed_fixed_sets.partition"),
        pytest.param(lambda: all_cycles_even("x"), id="all_cycles_even"),
        pytest.param(lambda: all_cycles_positive(None), id="all_cycles_positive"),
        pytest.param(lambda: event_J(5, A), id="event_J.non_iterable"),
        pytest.param(lambda: event_N(5), id="event_N.non_iterable"),
        pytest.param(lambda: sample_partition(5, "x"), id="sample_partition.rng"),
        pytest.param(lambda: sample_signed(5, None), id="sample_signed.rng"),
        pytest.param(lambda: sample_signed_conditioned(5, 1, 3), id="sample_signed_conditioned.rng"),
        # a bool or float sign used to pass `sign in (1, -1)`
        pytest.param(lambda: make_signed([(2, True)]), id="make_signed.bool_sign"),
        pytest.param(lambda: make_signed([(2, 1.0)]), id="make_signed.float_sign"),
        pytest.param(lambda: sample_signed_conditioned(5, True, RngState(1)), id="sample_signed_conditioned.bool_sign"),
        pytest.param(lambda: sweep(None), id="sweep.None"),
        pytest.param(lambda: sweep(5), id="sweep.non_iterable"),
    ],
)
def test_public_calls_reject_malformed_input(call):
    # each used to raise AttributeError (no `.n`, `.cycles` or `.state`),
    # TypeError (not iterable) or ValueError (unpacking "x")
    with pytest.raises(ValidationError):
        call()


class TestWeylFamily:
    def test_parse(self):
        assert WeylFamily.parse("A") is WeylFamily.A
        assert WeylFamily.parse("D+") is WeylFamily.D_PLUS
        assert WeylFamily.parse("D-") is WeylFamily.D_MINUS

    @pytest.mark.parametrize("token", ["E", ["A"], None])
    def test_parse_unknown(self, token):
        # an unhashable token used to raise TypeError
        with pytest.raises(ValidationError, match="unknown family"):
            WeylFamily.parse(token)

    def test_flags(self):
        assert not WeylFamily.A.signed_labels
        assert WeylFamily.C.signed_labels
        assert not WeylFamily.C.signed_profiles
        assert WeylFamily.B.signed_profiles
        assert WeylFamily.D_PLUS.sector_sign == 1
        assert WeylFamily.D_MINUS.sector_sign == -1
        assert WeylFamily.B.sector_sign is None


class TestComplementSymmetry:
    def test_unsigned_spot(self):
        prof = fixed_sizes(make_partition([4, 2, 1]))
        for k in range(1, 7):
            assert bool(prof.achievable >> k & 1) == bool(prof.achievable >> (7 - k) & 1)

    def test_signed_spot(self):
        s = make_signed([(3, -1), (2, 1), (1, 1)])
        prof = signed_fixed_sets(s)
        assert s.total_sign == -1
        # (k, eps) achievable iff (n-k, total*eps) achievable; total is -1 here
        for k in range(1, 6):
            assert bool(prof.plus >> k & 1) == bool(prof.minus >> (6 - k) & 1)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    def test_unsigned_profiles(self, parts):
        p = make_partition(parts)
        mask = fixed_sizes(p).achievable
        for k in range(1, p.n):
            assert mask >> k & 1 == mask >> (p.n - k) & 1

    @given(st.lists(st.tuples(st.integers(1, 12), st.sampled_from([1, -1])), min_size=1, max_size=10))
    def test_signed_profiles(self, cycles):
        # (k, e) achievable iff (n-k, total*e) achievable
        s = make_signed(cycles)
        prof = signed_fixed_sets(s)
        track = {1: prof.plus, -1: prof.minus}
        for k in range(1, s.n):
            for e in (1, -1):
                assert track[e] >> k & 1 == track[s.total_sign * e] >> (s.n - k) & 1


def proper_keep(data, n):
    """A random keep mask within bits 1..n-1."""
    return data.draw(st.integers(0, (1 << n) - 1)) & ((1 << n) - 2)


class TestRestrictedDP:
    """A keep mask restricts the DP's result and nothing else, whatever the
    input order; a long cycle skipped against keep's top bit changes no
    kept bit."""

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=12), st.data())
    def test_unsigned(self, lengths, data):
        n = sum(lengths)
        keep = proper_keep(data, n)
        assert subset_sum_mask(lengths, keep) == subset_sum_mask(lengths, (1 << n) - 2) & keep

    @given(st.lists(st.tuples(st.integers(1, 20), st.sampled_from([1, -1])), min_size=1, max_size=12), st.data())
    def test_signed(self, cycles, data):
        n = sum(length for length, _ in cycles)
        keep = proper_keep(data, n)
        plus, minus = signed_subset_masks(cycles, (1 << n) - 2)
        assert signed_subset_masks(cycles, keep) == (plus & keep, minus & keep)

    def test_order_does_not_matter(self):
        # a break at the first long cycle would drop the 1 that follows it
        keep = (1 << 4) - 2
        assert subset_sum_mask([2, 7, 1], keep) == subset_sum_mask([1, 2, 7], keep) == 0b1110
        assert signed_subset_masks([(7, -1), (1, -1)], keep) == signed_subset_masks([(1, -1), (7, -1)], keep)
