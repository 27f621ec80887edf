import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from invgen import (
    CapacityError,
    Partition,
    RngState,
    SignedCycleType,
    SignedSizeProfile,
    SizeProfile,
    ValidationError,
    WeylFamily,
    event_J,
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


class TestProfileValues:
    """A profile no element has is refused when it is built: n a positive
    int up to 2^28, masks non-negative ints over bits 1..n-1, total sign
    the int 1 or -1."""

    def test_negative_mask(self):
        # event_J([SizeProfile(4, -1)], A) used to answer False
        with pytest.raises(ValidationError, match="profile masks"):
            event_J([SizeProfile(4, -1)], A)

    @pytest.mark.parametrize(
        "fields",
        [dict(n=0), dict(n=-4), dict(n=True), dict(n=4.0), dict(n="4"), dict(achievable=-2),
         dict(achievable=1), dict(achievable=0b10011), dict(achievable=True), dict(achievable=6.0),
         dict(achievable=None)],
    )
    def test_bad_size_profile(self, fields):
        with pytest.raises(ValidationError):
            SizeProfile(**{"n": 4, "achievable": 0b110, **fields})

    @pytest.mark.parametrize(
        "fields",
        [dict(n=0), dict(n=True), dict(plus=-2), dict(minus=1), dict(plus=1 << 4), dict(minus="2"),
         dict(total_sign=0), dict(total_sign=2), dict(total_sign=True), dict(total_sign=-1.0)],
    )
    def test_bad_signed_profile(self, fields):
        with pytest.raises(ValidationError):
            SignedSizeProfile(**{"n": 4, "plus": 0b10, "minus": 0b1100, "total_sign": -1, **fields})

    def test_edges_accepted(self):
        assert SizeProfile(1, 0).sizes() == []
        assert SizeProfile(4, 0b1110).sizes() == [1, 2, 3]
        assert SignedSizeProfile(2**28, 1 << 2**28 - 1, 0, 1).plus.bit_length() == 2**28
        assert fixed_sizes(make_partition([1, 1, 1, 1])) == SizeProfile(4, 0b1110)


class TestProfileLists:
    """`sizes()` and `pairs()` cost a step per set bit and a byte per bit:
    a shift of the whole mask per k in 1..n-1 did not finish in minutes at
    n = 2^24."""

    def test_far_bits_at_two_to_24(self):
        n = 2**24
        assert SizeProfile(n, 2 | 1 << n - 1).sizes() == [1, n - 1]
        assert SignedSizeProfile(n, 1 << n - 1, 0, 1).pairs() == [(n - 1, 1)]
        assert SignedSizeProfile(n, 0, 1 << n - 1, -1).pairs() == [(n - 1, -1)]

    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), *[st.integers(0, (1 << n) - 1)] * 2)))
    @example((200, 0, 0))  # empty
    @example((200, (1 << 200) - 1, (1 << 200) - 1))  # dense
    @example((2_000, sum(1 << k for k in range(1, 2_000, 200)), 1 << 1_999))  # sparse
    def test_match_a_scan_of_every_size(self, fields):
        n, plus, minus = fields
        plus, minus = plus & ~1, minus & ~1
        assert SizeProfile(n, plus).sizes() == [k for k in range(1, n) if plus >> k & 1]
        assert SignedSizeProfile(n, plus, minus, 1).pairs() == (
            [(k, 1) for k in range(1, n) if plus >> k & 1] + [(k, -1) for k in range(1, n) if minus >> k & 1])


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
        "kind,fields,family",
        [(SizeProfile, dict(achievable=0), A), (SignedSizeProfile, dict(plus=0, minus=0, total_sign=1), B)],
        ids=["A", "B"],
    )
    def test_n_above_two_to_28(self, kind, fields, family):
        # (1 << n) - 2 was built before any cap: a raw MemoryError or
        # OverflowError; now such a profile is refused when it is built
        with pytest.raises(CapacityError, match=r"limited to n <= 2\^28"):
            event_J([kind(n=2**64, **fields)], family)

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


def generator_event_J(profiles, family):
    """Reference for `event_J`, the body its one pass replaced: check the
    kinds, then the n, then AND, each with its own generator."""
    if not isinstance(family, WeylFamily):
        raise ValidationError(f"family must be a WeylFamily, got {family!r}")
    kind = SignedSizeProfile if family.signed_profiles else SizeProfile
    profiles = list(profiles)
    if not profiles or not all(isinstance(p, kind) for p in profiles):
        raise ValidationError(f"event_J on family {family.value} needs one or more {kind.__name__}s")
    n = profiles[0].n
    if any(p.n != n for p in profiles):
        raise ValidationError("profiles must share the same n")
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


def _outcome(call):
    try:
        return call()
    except ValidationError as err:
        return type(err), str(err)


# a profile of either kind at n = 1..6, or an item that is no profile
_ANY_PROFILE = st.integers(1, 6).flatmap(lambda n: st.one_of(
    st.builds(SizeProfile, st.just(n), st.integers(0, (1 << n) - 1).map(lambda m: m & ~1)),
    st.builds(SignedSizeProfile, st.just(n), *[st.integers(0, (1 << n) - 1).map(lambda m: m & ~1)] * 2,
              st.sampled_from([1, -1])),
    st.sampled_from([None, 1, "A"]),
))


class TestEventJOnePass:
    """`event_J` checks, compares n and ANDs in one pass: the same answer
    and the same error as the generator body it replaced, on any list."""

    @given(st.lists(_ANY_PROFILE, max_size=5), st.sampled_from(list(WeylFamily)))
    def test_matches_the_generator_body(self, profiles, family):
        assert _outcome(lambda: event_J(profiles, family)) == _outcome(lambda: generator_event_J(profiles, family))

    @pytest.mark.parametrize(
        "family,right,other,wrong",
        [(A, fixed_sizes(make_partition([3, 1])), SizeProfile(3, 0), signed_fixed_sets(make_signed([(2, 1), (1, -1)]))),
         (B, signed_fixed_sets(make_signed([(3, 1), (1, -1)])), SignedSizeProfile(3, 0, 0, 1),
          fixed_sizes(make_partition([2, 1])))],
        ids=["A", "B"],
    )
    def test_wrong_kind_after_an_n_mismatch(self, family, right, other, wrong):
        # n = 4 then n = 3, then a profile of the other kind: the kind error wins wherever it stands
        kind = "SignedSizeProfiles" if family is B else "SizeProfiles"
        with pytest.raises(ValidationError, match=f"event_J on family {family.value} needs one or more {kind}$"):
            event_J([right, other, wrong], family)
        with pytest.raises(ValidationError, match="profiles must share the same n"):
            event_J([right, other], family)


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
        pytest.param(lambda: event_J(5, A), id="event_J.non_iterable"),
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



class TestLabelsAreChecked:
    """A label built directly, not by make_partition or make_signed, is
    checked where it is read: n a positive int, lengths positive ints
    summing to n, signs the int 1 or -1.  Each used to be read as if it
    named an element."""

    def test_parts_short_of_n(self):
        # used to give sizes [1]
        with pytest.raises(ValidationError, match="do not sum to its n"):
            fixed_sizes(Partition(n=3, parts=(1,)))

    def test_parts_past_n(self):
        # used to give no sizes
        with pytest.raises(ValidationError, match="do not sum to its n"):
            fixed_sizes(Partition(n=4, parts=(9, 9)))

    def test_sign_not_one_or_minus_one(self):
        # sign 5 used to be read as +
        with pytest.raises(ValidationError, match="cycle signs must be the int 1 or -1, got 5"):
            signed_fixed_sets(SignedCycleType(3, ((2, 5), (1, 1))))

    def test_sign_zero(self):
        # used to be taken, its total sign +
        with pytest.raises(ValidationError, match="cycle signs must be the int 1 or -1, got 0"):
            signed_fixed_sets(SignedCycleType(2, ((2, 0),)))

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: fixed_sizes(Partition(n=True, parts=(1,))), id="n-bool"),
            pytest.param(lambda: project(SignedCycleType(0, ())), id="n-zero"),
            pytest.param(lambda: fixed_sizes(Partition(n=2, parts=(2.0,))), id="float-part"),
            pytest.param(lambda: fixed_sizes(Partition(n=2, parts=None)), id="parts-not-iterable"),
            pytest.param(lambda: signed_fixed_sets(SignedCycleType(2, ((2, True),))), id="bool-sign"),
            pytest.param(lambda: signed_fixed_sets(SignedCycleType(2, (2,))), id="cycle-not-a-pair"),
            pytest.param(lambda: signed_fixed_sets(SignedCycleType(3, ((-1, 1), (4, 1)))), id="negative-length"),
        ],
    )
    def test_other_malformed_labels(self, call):
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


@pytest.mark.parametrize("family", list(WeylFamily))
def test_flags_match_their_definitions(family):
    # the three flags are plain attributes set once per member; these were their property bodies
    assert family.signed_labels is (family is not WeylFamily.A)
    assert family.signed_profiles is (family in (WeylFamily.B, WeylFamily.D_PLUS, WeylFamily.D_MINUS))
    sign = 1 if family is WeylFamily.D_PLUS else -1 if family is WeylFamily.D_MINUS else None
    assert family.sector_sign == sign and type(family.sector_sign) is type(sign)


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
