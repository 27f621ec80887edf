"""Monte Carlo estimates checked against the exact oracle and for determinism."""

import math
import multiprocessing
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from operator import mul, sub

import pytest

import invgen.exact as exact
import invgen.montecarlo as montecarlo
import test_events
from invgen import (
    CapacityError,
    Estimate,
    ExperimentSpec,
    RngState,
    ValidationError,
    WeylFamily,
    event_J,
    exact_prob,
    exact_prob_J,
    fixed_sizes,
    make_partition,
    make_signed,
    project,
    run,
    sample_partition,
    sample_signed,
    sample_signed_conditioned,
    signed_fixed_sets,
    sweep,
    sweep_seed,
    wilson_interval,
    wilson_interval_z,
)
from invgen.sampling import PARTITION_TABLE_LIMIT, SIGNED_TABLE_LIMIT, _class_table, _label

A, B, C = WeylFamily.A, WeylFamily.B, WeylFamily.C
DP, DM = WeylFamily.D_PLUS, WeylFamily.D_MINUS


def spec(n, l, family, event="J", trials=40_000, seed=90_210):
    return ExperimentSpec(n=n, l=l, family=family, event=event, trials=trials, master_seed=seed)


def assert_within_3_sigma(est, exact):
    low, high = wilson_interval_z(est.successes, est.spec.trials, 3.0)
    assert low <= float(exact) <= high, (est, float(exact))


# the largest n at which each family's elements are table draws
TABLE_CAPS = {A: PARTITION_TABLE_LIMIT, B: SIGNED_TABLE_LIMIT, C: SIGNED_TABLE_LIMIT,
              DP: SIGNED_TABLE_LIMIT, DM: SIGNED_TABLE_LIMIT}

# (n, l) of each event's Monte Carlo vs exact cells
CELLS = {"J": (4, 2), "J_and_not_N": (4, 2), "N": (5, 3), "all_even": (4, 2), "all_positive": (3, 2)}


class TestAgainstOracle:
    def test_documented_example(self):
        est = run(spec(2, 2, A, trials=1_000_000))
        assert_within_3_sigma(est, 0.75)

    @pytest.mark.parametrize(
        "event, family", test_events.PAIRS, ids=[f"{e}-{f.value}" for e, f in test_events.PAIRS]
    )
    def test_cell(self, event, family):
        # one cell per (event, family) pair the CLI accepts; where the exact
        # value is 0 or 1 (N and J_and_not_N in a D sector), 3σ allows no miss
        n, l = CELLS[event]
        est = run(spec(n, l, family, event=event))
        assert_within_3_sigma(est, exact_prob(n, l, family, event))

    @pytest.mark.parametrize("family", [DP, DM])
    @pytest.mark.parametrize("event, all_succeed", [("J_and_not_N", False), ("N", True)])
    def test_sector_settles_without_sampling(self, monkeypatch, family, event, all_succeed):
        # one total sign per D sector decides both events before any draw
        def no_sampling(*args):
            raise AssertionError("sampled an element of a settled trial")

        monkeypatch.setattr(montecarlo, "_sample_cycles", no_sampling)
        monkeypatch.setattr(montecarlo, "_picks", no_sampling)
        for n in (8, 1000, 1 << 16):  # a table draw, the one pass and the window
            est = run(spec(n, 4, family, event=event, trials=500))
            assert est.successes == (500 if all_succeed else 0)

    @staticmethod
    def recording_dp(monkeypatch, keeps, names=("subset_sum_mask", "signed_subset_masks")):
        """Record the keep mask of every profile DP montecarlo runs, or
        only of the DPs in `names`."""
        def recording(dp):
            def wrapped(cycles, keep):
                keeps.append(keep)
                return dp(cycles, keep)

            return wrapped

        for name in names:
            monkeypatch.setattr(montecarlo, name, recording(getattr(montecarlo, name)))

    @pytest.mark.parametrize("n", [8, 1000])
    @pytest.mark.parametrize("family", [B, C])
    def test_no_wasted_profile_dp(self, monkeypatch, stick_breaking, family, n):
        # a stick-breaking profile DP runs only while some track is alive,
        # and never for the events that do not intersect
        keeps = []
        self.recording_dp(monkeypatch, keeps)
        for event in ("J", "J_and_not_N"):
            run(spec(n, 4, family, event=event, trials=200))
        assert keeps and all(keeps)
        keeps.clear()
        for event in ("N", "all_even", "all_positive"):
            run(spec(n, 4, family, event=event, trials=200))
        assert keeps == []

    @pytest.mark.parametrize("family", [A, B, C, DP, DM])
    def test_table_elements_run_no_dp(self, monkeypatch, family):
        # at table n each class's row holds every event's masks: it is
        # built once per (n, family), one profile DP per class whichever
        # event asks first, and no element of any event runs a DP
        keeps = []
        self.recording_dp(monkeypatch, keeps)
        montecarlo._class_masks.cache_clear()
        for event in ("all_even",) if family is A else ("N", "all_even", "all_positive"):
            run(spec(8, 4, family, event=event, trials=200))
        assert len(keeps) == len(montecarlo._class_masks(8, family))
        keeps.clear()
        run(spec(8, 4, family, trials=200))
        run(spec(8, 4, family, trials=200, seed=1))
        assert keeps == []


class TestEngineMatchesDefinition:
    """The engine's half-lattice intersections, alive-bits DP, early exit
    and settle rules decide every trial of every (family, event) pair the
    CLI accepts as the definitions of test_events do on the public
    samplers' labels.  Both parities of n are covered, and B mixes total
    signs across a tuple.  The grid runs three ways: the one-pass loop every
    n here takes by default; the window pass forced on by a cut-off of 1,
    where only n = 1000 has sizes above the window; and a window of sizes
    1..2, where every n >= 5 does.  n up to 16 (A: 20) reads the class
    tables, whose elements take the one pass at any cut-off."""

    PAIRS = [(family, event) for event, family in test_events.PAIRS]

    @staticmethod
    def definition(s, t):
        rng = RngState(s.master_seed, t)
        family, n = s.family, s.n
        if family is A:
            labels = [sample_partition(n, rng) for _ in range(s.l)]
        elif family.sector_sign is None:
            labels = [sample_signed(n, rng) for _ in range(s.l)]
        else:
            labels = [sample_signed_conditioned(n, family.sector_sign, rng) for _ in range(s.l)]
        return test_events.holds(s.event, labels, family)

    def check(self, n, ls, family, event, trials):
        for l in ls:
            s = spec(n, l, family, event=event, trials=trials, seed=n * 31 + l)
            got = [montecarlo._count_range(s, t, t + 1) for t in range(trials)]
            assert got == [int(self.definition(s, t)) for t in range(trials)], (n, l)

    CUTOFFS = [
        pytest.param(montecarlo._WINDOW_CUTOFF, montecarlo._WINDOW, id="one-pass"),
        pytest.param(1, montecarlo._WINDOW, id="window"),
        pytest.param(1, 2, id="narrow-window"),
    ]

    @pytest.mark.parametrize("cutoff, window", CUTOFFS)
    @pytest.mark.parametrize("family, event", PAIRS)
    @pytest.mark.parametrize("n", [3, 4, 8, 16, 17, 33, 1000])
    def test_trial_for_trial(self, monkeypatch, cutoff, window, family, event, n):
        monkeypatch.setattr(montecarlo, "_WINDOW_CUTOFF", cutoff)
        monkeypatch.setattr(montecarlo, "_WINDOW", window)
        self.check(n, (1, 2, 3, 4, 8), family, event, 200)

    @pytest.mark.parametrize("cutoff, window", CUTOFFS)
    @pytest.mark.parametrize("family, event", PAIRS)
    def test_above_the_table_cap(self, monkeypatch, cutoff, window, family, event):
        # the smallest stick-breaking n (21 for A, 17 for the signed
        # families), where the narrow window leaves sizes above it in every pair
        self.test_trial_for_trial(monkeypatch, cutoff, window, family, event, TABLE_CAPS[family] + 1)

    @pytest.mark.parametrize("family, event", PAIRS)
    @pytest.mark.parametrize("offset", [0, 1])
    def test_at_the_cutoff(self, family, event, offset):
        self.check(montecarlo._WINDOW_CUTOFF + offset, (1, 2, 4, 8, 16), family, event, 4)

    @pytest.mark.parametrize("block", [montecarlo._BLOCK, 50])
    @pytest.mark.parametrize("family, event", PAIRS)
    def test_table_ranges(self, monkeypatch, block, family, event):
        # a table range runs its trials a round at a time, a block at a
        # time: its count is the definitions' over the range, with blocks of
        # 50 too, whose ends fall inside lane groups
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        for n in (8, TABLE_CAPS[family]):
            for l in (1, 2, 4, 8):
                s = spec(n, l, family, event=event, trials=300, seed=n * 37 + l)
                want = sum(self.definition(s, t) for t in range(7, 307))
                assert montecarlo._count_range(s, 7, 307) == want, (n, l)

    @pytest.mark.parametrize("cutoff, window", CUTOFFS)
    @pytest.mark.parametrize("family, event", PAIRS)
    def test_stick_breaking_ranges(self, monkeypatch, cutoff, window, family, event):
        # above the caps a range of trials keeps no state from one trial to
        # the next: its count is the definitions' over the range, whether
        # its trials take the one pass, the window or the narrow window
        monkeypatch.setattr(montecarlo, "_WINDOW_CUTOFF", cutoff)
        monkeypatch.setattr(montecarlo, "_WINDOW", window)
        n = TABLE_CAPS[family] + 1
        for l in (1, 2, 4, 8):
            s = spec(n, l, family, event=event, trials=300, seed=n * 37 + l)
            want = sum(self.definition(s, t) for t in range(7, 307))
            assert montecarlo._count_range(s, 7, 307) == want, l


class TestRowLawIsTheOracle:
    """At the table n a trial's outcome is the AND of its event's
    `_event_mask` and its l packed `_class_masks` rows, so the engine's
    success probability is a finite sum: read each row through the mask,
    weight it by its class size in `sampling._class_table`, run the AND
    over l draws as a law over states, starting from the mask, and
    P(AND = 0), or 1 minus it for the events that do not intersect, must
    equal `exact_prob` as a Fraction.  The samplers' class walk, the
    engine's packed rows and the oracle's DP with its inclusion-exclusion
    are written apart, and the running AND is not the oracle's sum, so the
    three meet here with no sampling noise, at every table n.  Above the
    oracle's signed cap the check raises it to the samplers' and takes
    l = 1, 2 only (at n = 13..16): a running AND over B's 1,167 J masks
    at l = 3 takes minutes."""

    CELLS = [(family, event, n) for family, event in TestEngineMatchesDefinition.PAIRS
             for n in range(1, TABLE_CAPS[family] + 1)]

    @pytest.mark.parametrize("family, event, n", CELLS)
    def test_every_table_n(self, monkeypatch, family, event, n):
        if family.signed_labels and n > exact.SIGNED_LIMIT:
            monkeypatch.setattr(exact, "SIGNED_LIMIT", SIGNED_TABLE_LIMIT)
        table = _class_table(n, family.signed_labels, family.sector_sign)
        mask = montecarlo._event_mask(event)
        sizes = map(sub, table.cumulative, [0, *table.cumulative])
        law = Counter()
        for row, size in zip(montecarlo._class_masks(n, family), sizes):
            law[row & mask] += size
        states, settled = {mask: 1}, 0  # open ANDs by weight; the weight of those that reached 0
        for l in (1, 2, 3) if n <= 12 else (1, 2):
            step = Counter()
            for state, weight in states.items():
                for row, size in law.items():
                    step[state & row] += weight * size
            settled = settled * table.order + step.pop(0, 0)
            states = step
            p = Fraction(settled, table.order**l)
            engine = p if montecarlo._EVENTS[event].intersects else 1 - p
            assert engine == exact_prob(n, l, family, event), l


class TestRowIsTheProfile:
    """A `_class_masks` row holds, from bit `_TRACKS` on, its class's
    proper profile on sizes 1..n-1 exactly as the public profile
    functions return it for the class's label: plus | minus << n of
    `signed_fixed_sets` in B and D, the sizes of `fixed_sizes` in A and
    of the projection's in C.  So the table route has no complement rule
    of its own, and a track the row drops or swaps shows here."""

    @pytest.mark.parametrize("family", [A, B, C, DP, DM])
    def test_every_row_at_every_table_n(self, family):
        for n in range(1, TABLE_CAPS[family] + 1):
            table = _class_table(n, family.signed_labels, family.sector_sign)
            for index, row in enumerate(montecarlo._class_masks(n, family)):
                label = _label(table, index, n, family.signed_labels)
                if family.signed_profiles:
                    profile = signed_fixed_sets(label)
                    want = profile.plus | profile.minus << n
                else:
                    want = fixed_sizes(project(label) if family.signed_labels else label).achievable
                assert row >> montecarlo._TRACKS == want, (n, label)


class TestPathLawIsTheOracle:
    """Above the table caps a trial's outcome is a function of its draws,
    and at tiny n the draws take few values that matter: a kept length
    draw at rem points left is read mod rem, so u = 0..rem-1 stand for
    every kept draw (`test_sampling`'s rejection boundary tests say so),
    each with weight 1/rem; an element's sign word is read on its top n
    bits, so their 2^n patterns stand for every word, each with weight
    2^-n.  With the table caps at 0, a walk over every such path of
    `_count_range(spec, 0, 1)` gives the engine's success probability as
    a Fraction, which must equal `exact_prob`.  So `_sample_cycles` (its
    lengths, sign words and D-sector flip) and the trial's passes (the
    window, the second pass and its reach) meet the oracle with no
    sampling noise."""

    @staticmethod
    def engine_prob(monkeypatch, n, l, family, event):
        path = []  # the (choice, options) of each draw of this trial, in order
        tried = []  # the choices of the next path, up to the draw it changes

        def take(options):
            choice = tried[len(path)] if len(path) < len(tried) else 0
            path.append((choice, options))
            return choice

        def draws():
            while True:  # one element a pass, each read to its end
                rem = n
                while rem:
                    u = take(rem)
                    yield u
                    if family.signed_labels and rem == n:  # n <= 64: one sign word, after the first length
                        yield take(1 << n) << 64 - n
                    rem -= 1 + u

        streams = []  # what the engine's two `_draws` calls read: the trial's start, then its draws
        monkeypatch.setattr(montecarlo, "_draws", lambda state, k: streams.pop())
        s = spec(n, l, family, event=event, trials=1)
        total = Fraction(0)
        while True:
            path.clear()
            streams[:] = [draws(), iter([0])]
            if montecarlo._count_range(s, 0, 1):
                total += Fraction(1, math.prod(options for _, options in path))
            while path and path[-1][0] + 1 == path[-1][1]:  # odometer: the last draw with a choice left
                path.pop()
            if not path:
                return total
            tried[:] = [choice for choice, _ in path]
            tried[-1] += 1

    # (n, l) of each family's cells: A n = 1..6 at l <= 2 and n <= 4 at
    # l = 3; the signed families n = 1..3 at l <= 2 and n = 4 at l = 1, and
    # B n = 4 at l = 2
    SIGNED_SIZES = [(n, l) for n in range(1, 4) for l in (1, 2)] + [(4, 1)]
    SIZES = {A: [(n, l) for n in range(1, 7) for l in (1, 2)] + [(n, 3) for n in range(1, 5)],
             B: SIGNED_SIZES + [(4, 2)], **dict.fromkeys((C, DP, DM), SIGNED_SIZES)}

    @pytest.mark.parametrize("family, event", TestEngineMatchesDefinition.PAIRS)
    def test_every_path(self, monkeypatch, stick_breaking, family, event):
        for n, l in self.SIZES[family]:
            assert self.engine_prob(monkeypatch, n, l, family, event) == exact_prob(n, l, family, event), (n, l)

    WINDOW_CELLS = [(A, "J", 1, [(4, 2), (5, 2), (6, 2), (4, 3)]), (A, "J", 2, [(6, 2)])] + [
        (family, event, 1, [(4, 2)])
        for family, event in [(B, "J"), (C, "J"), (DP, "J"), (DM, "J"), (B, "J_and_not_N"), (C, "J_and_not_N")]]

    @pytest.mark.parametrize("family, event, window, cells", WINDOW_CELLS,
                             ids=[f"{f.value}-{e}-window{w}" for f, e, w, _ in WINDOW_CELLS])
    def test_every_path_through_the_window(self, monkeypatch, stick_breaking, family, event, window, cells):
        # a cut-off of 1 sends every n through the window pass; at n >= 2
        # * (window + 1) sizes lie above it, so a second pass runs up to the reach
        monkeypatch.setattr(montecarlo, "_WINDOW_CUTOFF", 1)
        monkeypatch.setattr(montecarlo, "_WINDOW", window)
        for n, l in cells:
            assert self.engine_prob(monkeypatch, n, l, family, event) == exact_prob(n, l, family, event), (n, l)


class TestReachCap:
    """Hand-made tuples at n = 2^16 against the cap of the full-width pass
    at the tuple's reach, min(n - longest cycle): a subset holding a cycle
    longer than n/2 is larger than n/2, one without it sums to at most
    n - that cycle.  Every tuple empties the window (sizes 1..64)."""

    N = 1 << 16

    @staticmethod
    def draw_labels(monkeypatch, labels):
        """Make stick-breaking draw `labels` in order: cycle lengths for A,
        (length, sign) pairs for the signed families.  Returns the list of
        the labels drawn so far."""
        queue, drawn = iter(labels), []

        def handmade(draws, n, signed, want):
            cycles = next(queue)
            drawn.append(cycles)
            lengths = [c[0] for c in cycles] if signed else list(cycles)
            signs = [c[1] for c in cycles] if signed else []
            return lengths, signs, -1 if signs.count(-1) & 1 else 1

        monkeypatch.setattr(montecarlo, "_sample_cycles", handmade)
        return drawn

    @staticmethod
    def trial(monkeypatch, family, labels):
        """The trial's outcome, checked against event_J, and the keep mask
        of every profile DP it runs, when stick-breaking draws `labels`."""
        TestReachCap.draw_labels(monkeypatch, labels)
        keeps = []
        TestAgainstOracle.recording_dp(monkeypatch, keeps)
        got = montecarlo._count_range(spec(TestReachCap.N, len(labels), family), 0, 1)
        if family is A:
            profiles = [fixed_sizes(make_partition(lengths)) for lengths in labels]
        elif family.signed_profiles:
            profiles = [signed_fixed_sets(make_signed(cycles)) for cycles in labels]
        else:
            profiles = [fixed_sizes(project(make_signed(cycles))) for cycles in labels]
        assert got == event_J(profiles, family)
        return got, keeps

    SIGNED_AT_THE_REACH = [[(N - 1000, 1), (1000, 1)], [(N - 3000, -1), (1000, 1), (2000, -1)],
                           [(40000, 1), (1000, 1), (N - 41000, 1)]]  # every total +, so D+ draws them too

    @pytest.mark.parametrize(
        "family, labels",
        [
            (A, [[N - 1000, 1000], [N - 3000, 1000, 2000], [40000, 1000, N - 41000]]),
            (B, SIGNED_AT_THE_REACH),
            (C, SIGNED_AT_THE_REACH),
            (DP, SIGNED_AT_THE_REACH),
        ],
        ids=["A", "B", "C", "D+"],
    )
    def test_common_size_at_the_reach(self, monkeypatch, family, labels):
        # reaches 1000, 3000 and 25536; the only common size (B and D+:
        # pair (1000, +)) is the smallest, which a cap one bit short would
        # drop, on the one track (A, C), the pair (D+) or the swapped pairs (B)
        got, keeps = self.trial(monkeypatch, family, labels)
        assert got == 0
        assert max(keep.bit_length() for keep in keeps) == 1001

    @pytest.mark.parametrize(
        "family, labels",
        [
            (A, [[N - 50, 50], [N - 1000, 940, 60]]),
            (B, [[(N - 50, 1), (50, -1)], [(N - 1000, -1), (940, 1), (60, 1)]]),
        ],
        ids=["A", "B"],
    )
    def test_reach_inside_the_window(self, monkeypatch, family, labels):
        # the window empties and the first element's reach is 50: J holds
        # with no full-width DP
        got, keeps = self.trial(monkeypatch, family, labels)
        assert got == 1
        assert keeps and max(keep.bit_length() for keep in keeps) <= montecarlo._WINDOW + 1

    def test_common_pair_on_a_swapped_track(self, monkeypatch):
        # the - element holds (1000, -) where the others hold (1000, +), so
        # the plain tracks empty; swapped, it holds (1000, +) like them: the
        # tuple shares (N - 1000, +), and 1000 is the reach
        labels = [[(self.N - 1000, 1), (1000, 1)], [(self.N - 1000, 1), (1000, -1)],
                  [(self.N - 3000, 1), (1000, 1), (2000, 1)]]
        got, keeps = self.trial(monkeypatch, B, labels)
        assert got == 0
        assert max(keep.bit_length() for keep in keeps) == 1001

    def pairs_trial(self, monkeypatch, family, labels):
        """`trial`'s outcome, and the keep mask of every pairs DP it runs."""
        pairs = []
        TestAgainstOracle.recording_dp(monkeypatch, pairs, ("signed_subset_masks",))
        got, _ = self.trial(monkeypatch, family, labels)
        return got, pairs

    def test_sizes_disjoint_above_the_window(self, monkeypatch):
        # the reach is 1000 and the elements share no size up to it, so
        # the sizes step settles the trial: no pairs DP reads past the window
        got, pairs = self.pairs_trial(monkeypatch, B, [[(self.N - 1000, 1), (1000, 1)],
                                                       [(self.N - 3000, 1), (3000, 1)]])
        assert got == 1
        assert pairs and max(keep.bit_length() for keep in pairs) <= montecarlo._WINDOW + 1

    def test_one_size_shared_but_not_its_pairs(self, monkeypatch):
        # both hold size 1000, as (1000, +) and as (1000, -): the pairs DPs
        # of the full-width pass read that one size and J holds
        got, pairs = self.pairs_trial(monkeypatch, DP, [[(self.N - 1000, 1), (1000, 1)],
                                                        [(self.N - 1000, -1), (1000, -1)]])
        assert got == 1
        wide = [keep for keep in pairs if keep.bit_length() > montecarlo._WINDOW + 1]
        assert wide and set(wide) == {1 << 1000}


class TestDrawCount:
    """Above the caps a trial draws an element only when its outcome
    needs it: the tracks read elements until they empty, the window's
    second pass reads the whole tuple, and then the elements' bits are
    ANDed until that AND empties."""

    N = 1 << 16
    CASES = [
        (A, "J", 1000, [[999, 1], [998, 2], [997, 3], [996, 4]], 2),  # sizes 1, then 2: empty at element 2
        (A, "J", 1000, [[500, 499, 1], [500, 500], [500, 300, 200], [500, 400, 100]], 4),  # 500 common
        (A, "all_even", 1000, [[999, 1], [500, 500], [500, 500], [500, 500]], 1),
        (B, "N", 1000, [[(1000, 1)], [(1000, -1)], [(1000, 1)], [(1000, 1)]], 2),  # totals +, then -
        # tracks empty at element 2, then totals +, +, -
        (B, "J_and_not_N", 1000,
         [[(999, 1), (1, 1)], [(998, 1), (2, 1)], [(997, -1), (3, 1)], [(996, 1), (4, 1)]], 3),
        # the window (sizes 1..64) empties at element 2, so the second pass draws the rest
        (A, "J", N, [[N - 11, 10, 1], [N - 20, 20], [N - 30, 30], [N - 40, 40]], 4),
        # no window pass: the bits loop reads the stream alone, totals +, then -
        (B, "N", N, [[(N, 1)], [(N, -1)], [(N, 1)], [(N, 1)]], 2),
    ]

    @pytest.mark.parametrize("family, event, n, labels, want", CASES,
                             ids=[f"{f.value}-{e}-{n}-{w}" for f, e, n, _, w in CASES])
    def test_draws_only_what_settles_the_trial(self, monkeypatch, family, event, n, labels, want):
        drawn = TestReachCap.draw_labels(monkeypatch, labels)
        montecarlo._count_range(spec(n, 4, family, event=event), 0, 1)
        assert len(drawn) == want


class TestWindowLaw:
    """At n = 10^6 the window pass of J trials against its limit law, in A
    and in B.  Whether the window (sizes 1..w) stays alive depends only on
    each element's cycles of length <= w, and their counts C_1..C_w tend
    to independent Poisson(1/j) as n grows, with a total-variation error
    negligible at n = 10^6, w <= 64 (Arratia-Tavare 1992); in B each
    cycle's sign is a fair coin.  A wrapper around `_meet` counts the
    trials whose window call, the one given `read`, returns non-zero;
    that count must match the law at 3 sigma."""

    @staticmethod
    def pmf(j, w, mean):
        """Poisson(mean) probabilities of 0..w // j cycles of length j, the
        last taking the tail, since more j-cycles reach no further size <= w."""
        pmf = [math.exp(-mean) * mean**c / math.factorial(c) for c in range(w // j)]
        return pmf + [1 - math.fsum(pmf)]

    @staticmethod
    @cache
    def window_masks(w):
        """The limit law of one element's subset-sum mask on sizes 1..w, as
        {mask of bits 0..w-1 for sizes 1..w: probability}: a DP over
        j = 1..w with C_j capped at w // j."""
        full = (2 << w) - 1
        law = {1: 1.0}
        for j in range(1, w + 1):
            pmf = TestWindowLaw.pmf(j, w, 1 / j)
            step = Counter()
            for mask, p in law.items():
                for c, q in enumerate(pmf):
                    if c:
                        mask = (mask | mask << j) & full
                    step[mask] += p * q
            law = step
        return {mask >> 1: p for mask, p in law.items()}

    @staticmethod
    @cache
    def pair_masks(w):
        """The limit law of one signed element's (size, sign) pairs on sizes
        1..w, as {mask: probability} in `exact._fold`'s layout: bits 2k - 2
        and 2k - 1 hold (k, +) and (k, -).  A fair sign splits C_j into
        independent + and - counts, each Poisson(1/2j), and each is capped
        at w // j."""
        full = (2 << w) - 1
        law = {(1, 0): 1.0}
        for j in range(1, w + 1):
            pmf = TestWindowLaw.pmf(j, w, 1 / (2 * j))
            step = Counter()
            for (plus, minus), p in law.items():
                for c, q in enumerate(pmf):  # c + cycles extend both tracks
                    if c:
                        plus, minus = (plus | plus << j) & full, (minus | minus << j) & full
                    signed_p, signed_m = plus, minus
                    for d, r in enumerate(pmf):  # d - cycles cross them
                        if d:
                            signed_p, signed_m = (signed_p | signed_m << j) & full, (signed_m | signed_p << j) & full
                        step[signed_p, signed_m] += p * q * r
            law = step
        packed = Counter()
        for (plus, minus), p in law.items():
            packed[sum((plus >> k & 1 | (minus >> k & 1) << 1) << 2 * k - 2 for k in range(1, w + 1))] += p
        return packed

    @staticmethod
    def superset_sums(law, bits):
        """g(T), the chance that a mask of `law` holds every bit of T, over
        the 2^bits sets T."""
        g = [0.0] * (1 << bits)
        for mask, p in law.items():
            g[mask] += p
        for bit in (1 << b for b in range(bits)):
            for t in range(1 << bits):
                if not t & bit:
                    g[t] += g[t | bit]
        return g

    @staticmethod
    def alternating(values):
        """sum over T of (-1)^|T| values[T]."""
        return math.fsum(-x if t.bit_count() & 1 else x for t, x in enumerate(values))

    @classmethod
    def p_alive(cls, w, l):
        """P(the AND of l independent window masks is not 0) =
        1 - sum over T of (-1)^|T| g(T)^l."""
        return 1 - cls.alternating(x**l for x in cls.superset_sums(cls.window_masks(w), w))

    @classmethod
    def p_alive_signed(cls, w, l):
        """B's window is empty only when the plain pairs' AND and the
        swapped pairs' AND are both empty: a - element's pair tracks swap.
        Its total sign is a fair coin independent of the short cycles, as
        some long cycle carries a fair sign.  So, as `exact._prob_no_common`
        splits B by its j elements of sign +, P(empty) = sum_j C(l, j) 2^-l
        sum_U (-1)^|U| fold(g^j)(U) fold(g^(l-j))(U), with g the superset
        sums of the pair law and every size digit folded."""
        g = cls.superset_sums(cls.pair_masks(w), 2 * w)
        folds = [exact._fold([x**j for x in g], w) for j in range(l + 1)]
        empty = math.fsum(math.comb(l, j) * cls.alternating(map(mul, folds[j], folds[l - j])) for j in range(l + 1))
        return 1 - empty / 2**l

    def test_law_at_w_16(self):
        # the law's sizes and the values first computed from it
        assert len(self.window_masks(8)) == 131 and len(self.window_masks(16)) == 4817
        assert round(self.p_alive(16, 2), 5) == 0.78930 and round(self.p_alive(16, 4), 5) == 0.35532

    def test_signed_law_at_w_8(self):
        # the values first computed from it; the probabilities sum to 1
        assert math.isclose(math.fsum(self.pair_masks(8).values()), 1)
        assert round(self.p_alive_signed(8, 2), 5) == 0.66701 and round(self.p_alive_signed(8, 4), 5) == 0.17518

    @staticmethod
    def alive(monkeypatch, family, w, l):
        """The share of 10,000 J trials at n = 10^6 and seed 100w + l whose
        window stays alive, and its Wilson 3-sigma interval."""
        meet, alive = montecarlo._meet, []

        def counting(elements, keep, signed_profiles, swaps, read=None):
            got = meet(elements, keep, signed_profiles, swaps, read)
            if read is not None:
                alive.append(bool(got))
            return got

        monkeypatch.setattr(montecarlo, "_meet", counting)
        monkeypatch.setattr(montecarlo, "_WINDOW", w)
        trials = 10_000
        montecarlo._count_range(spec(10**6, l, family, trials=trials, seed=100 * w + l), 0, trials)
        assert len(alive) == trials
        return sum(alive) / trials, wilson_interval_z(sum(alive), trials, 3.0)

    @pytest.mark.parametrize("l", [2, 4])
    @pytest.mark.parametrize("w", [8, 16])
    def test_window_alive(self, monkeypatch, w, l):
        share, (low, high) = self.alive(monkeypatch, A, w, l)
        limit = self.p_alive(w, l)
        assert low <= limit <= high, (share, limit)

    @pytest.mark.parametrize("l", [2, 4])
    def test_signed_window_alive(self, monkeypatch, l):
        # B at w = 8: 2^16 points in the law's lattice
        share, (low, high) = self.alive(monkeypatch, B, 8, l)
        limit = self.p_alive_signed(8, l)
        assert low <= limit <= high, (share, limit)


class TestReplayContract:
    """What a replay of `run` through the public API relies on: trial t is
    decided by the family's public sampler on RngState(seed, t) on both
    sides of each table cap, and a run of the first k trials is a prefix
    of a longer run, at any thread count."""

    CASES = [(family, event, n) for event, family in test_events.PAIRS
             for n in (1, 2, TABLE_CAPS[family], TABLE_CAPS[family] + 1)]
    TRIALS = 60

    @pytest.mark.parametrize("family, event, n", CASES, ids=[f"{f.value}-{e}-{n}" for f, e, n in CASES])
    def test_run_is_the_public_replay(self, in_process_pool, monkeypatch, family, event, n):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        s = spec(n, 4, family, event=event, trials=self.TRIALS, seed=n * 7 + 3)
        outcomes = [TestEngineMatchesDefinition.definition(s, t) for t in range(self.TRIALS)]
        for k in (1, 4, self.TRIALS):
            prefix = replace(s, trials=k)
            assert run(prefix).successes == sum(outcomes[:k]), k
            assert run(prefix, threads=3) == run(prefix)


class TestWilson:
    def test_contains_p_hat(self):
        low, high = wilson_interval(57, 100)
        assert low <= 0.57 <= high
        assert 0.0 <= low < high <= 1.0

    def test_degenerate_counts(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high < 0.3
        low, high = wilson_interval(50, 50)
        assert low > 0.7 and high == 1.0

    def test_bounds_bracket_p_hat_exactly_at_the_edges(self):
        for trials in range(1, 2001):
            for successes in (0, trials):
                low, high = wilson_interval(successes, trials)
                p_hat = successes / trials
                # at the edges this forces low == 0.0 or high == 1.0
                assert 0.0 <= low <= p_hat <= high <= 1.0, (successes, trials)

    @pytest.mark.parametrize(
        "successes, trials",
        [(5, 3), (-1, 5), (0, 0), (1, -2), (True, 5), (1.0, 5), (1, 5.0), (1, True)],
    )
    def test_counts_validated(self, successes, trials):
        # (5, 3) used to raise a math domain error, (-1, 5) returned an
        # interval, (0, 0) divided by zero
        for call in (lambda: wilson_interval(successes, trials), lambda: wilson_interval_z(successes, trials, 3.0)):
            with pytest.raises(ValidationError):
                call()

    @pytest.mark.parametrize("z", [-1.0, 0, 0.0, float("nan"), float("inf"), True, "2", 1e200, 10**200])
    def test_z_validated(self, z):
        # -1.0 and nan used to return the zero-width "interval" (0.3, 0.3), as
        # 1e200 did once z * z overflowed to inf; 10**200 raised OverflowError
        with pytest.raises(ValidationError, match="z must be"):
            wilson_interval_z(3, 10, z)

    def test_z_with_a_finite_square(self):
        # just below the overflow of z * z the interval is the whole of [0, 1]
        assert wilson_interval_z(3, 10, 1.3e154) == (0.0, 1.0)

    def test_narrows_with_trials(self):
        w1 = wilson_interval_z(500, 1_000, 3.0)
        w2 = wilson_interval_z(5_000, 10_000, 3.0)
        assert w2[1] - w2[0] < w1[1] - w1[0]

    def test_confidence_widens(self):
        narrow = wilson_interval(57, 100, confidence=0.9)
        wide = wilson_interval(57, 100, confidence=0.999)
        assert narrow[0] > wide[0] and narrow[1] < wide[1]

    def test_confidence_validated(self):
        # "0.9" and None used to raise TypeError from the range check
        for confidence in (1.0, 0.0, float("nan"), True, "0.9", None):
            with pytest.raises(ValidationError, match=r"^confidence must be in \(0,1\)"):
                wilson_interval(3, 10, confidence=confidence)

    @pytest.mark.parametrize("confidence", [1e-17, 2**-53, 1 - 2**-53])
    def test_confidence_within_rounding_of_an_end(self, confidence):
        # (1 + confidence) / 2 rounds to 1/2 or to 1: z would be 0 or infinite
        with pytest.raises(ValidationError, match=r"^confidence must be more than 2\^-53 from 0 and from 1"):
            wilson_interval(5, 10, confidence=confidence)
        assert wilson_interval(5, 10, confidence=2**-52)[0] < 0.5

    def test_coverage(self):
        # 200 independent 99% intervals; expect ~2 misses, allow 6
        p = float(exact_prob_J(4, 2, A))
        misses = 0
        for i in range(200):
            est = run(spec(4, 2, A, trials=1_500, seed=500 + i))
            if not est.ci_low <= p <= est.ci_high:
                misses += 1
        assert misses <= 6, misses


class TestValidation:
    def test_bad_fields(self):
        for bad in [
            spec(0, 2, A),
            spec(4, 0, A),
            spec(4, 2, A, trials=0),
            spec(4, 2, A, event="j"),
            spec(4, 2, A, seed=-1),
            spec(4, 2, A, seed=1 << 64),
        ]:
            with pytest.raises(ValidationError):
                run(bad)

    @pytest.mark.parametrize("event", ["all_even", "J"])
    def test_n_above_two_to_64(self, event):
        # all_even's trials never ended there, and J raised a raw MemoryError
        with pytest.raises(ValidationError, match="n must be at most 2\\^64, got 18446744073709551617"):
            spec(2**64 + 1, 1, A, event=event, trials=1).validate()
        if event == "J":  # within 2^64, J's profiles are capped at 2^28
            with pytest.raises(CapacityError):
                spec(2**64, 1, A, event=event, trials=1).validate()
        else:
            spec(2**64, 1, A, event=event, trials=1).validate()

    @pytest.mark.parametrize("family,event", [(A, "J"), (B, "J"), (C, "J_and_not_N")])
    def test_profile_cap_for_intersecting_events(self, family, event):
        # a trial's first mask has n/2 bits: n = 2^64 raised a raw MemoryError
        with pytest.raises(CapacityError, match=r"limited to n <= 2\^28 \(got 268435457\)"):
            spec(2**28 + 1, 1, family, event=event, trials=1).validate()
        spec(2**28, 1, family, event=event, trials=1).validate()

    @pytest.mark.parametrize("event", ["N", "all_positive"])
    def test_no_profile_cap_without_intersection(self, event):
        spec(2**64, 1, B, event=event, trials=1).validate()

    def test_sweep_names_the_capped_spec(self):
        with pytest.raises(CapacityError, match="^spec 1: "):
            sweep([spec(4, 2, A, trials=1), spec(2**28 + 1, 2, A, trials=1)])

    @pytest.mark.parametrize("event", ["N", "all_positive", "J_and_not_N"])
    def test_unsigned_family_rejects_signed_events(self, event):
        with pytest.raises(ValidationError):
            run(spec(4, 2, A, event=event))

    @pytest.mark.parametrize("call", [run, lambda s: sweep([s])], ids=["run", "sweep"])
    @pytest.mark.parametrize("bad", ["x", None, (4, 2, A, "J", 10, 1)])
    def test_not_a_spec_rejected(self, call, bad):
        # run("x") used to raise AttributeError
        with pytest.raises(ValidationError, match="expected an ExperimentSpec"):
            call(bad)

    def test_family_string_rejected(self):
        with pytest.raises(ValidationError):
            run(spec(4, 2, "A"))

    @pytest.mark.parametrize("value", [True, False, -1, 1.0, "1"])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda v: run(spec(v, 2, A, trials=10)), id="spec.n"),
            pytest.param(lambda v: run(spec(4, v, A, trials=10)), id="spec.l"),
            pytest.param(lambda v: run(spec(4, 2, A, trials=v)), id="spec.trials"),
            pytest.param(lambda v: run(spec(4, 2, A, trials=10, seed=v)), id="spec.master_seed"),
            pytest.param(lambda v: sweep([spec(4, 2, A, trials=10, seed=v)]), id="sweep.master_seed"),
            pytest.param(lambda v: run(spec(4, 2, A, trials=10), threads=v), id="threads"),
            pytest.param(lambda v: exact_prob_J(v, 2, A), id="exact_prob_J.n"),
            pytest.param(lambda v: exact_prob_J(3, v, A), id="exact_prob_J.l"),
            pytest.param(lambda v: sample_partition(v, RngState(0, 0)), id="sample_partition.n"),
            pytest.param(lambda v: make_partition([2, v]), id="make_partition.part"),
            pytest.param(lambda v: make_signed([(2, 1), (v, -1)]), id="make_signed.length"),
        ],
    )
    def test_integer_fields_reject_bools_and_non_ints(self, call, value):
        # bool is an int subclass: True must not run as 1, nor False as seed 0
        with pytest.raises(ValidationError):
            call(value)

    @pytest.mark.parametrize("threads", [1, 2])
    # 1e-17 and 1e-300 used to run every trial and then fail on z = 0; 1 - 2^-53 raised StatisticsError
    @pytest.mark.parametrize("confidence", [0, 1, "0.99", None, 1e-17, 1e-300, 1 - 2**-53])
    def test_bad_confidence_rejected_before_any_trial(self, monkeypatch, confidence, threads):
        def never(*args, **kwargs):
            raise AssertionError("a trial or a child started")

        monkeypatch.setattr(montecarlo, "_count_range", never)
        monkeypatch.setattr(montecarlo, "_start", never)
        s = spec(4, 2, A, trials=10)
        match = (r"^confidence must be more than 2\^-53" if isinstance(confidence, float)
                 else r"^confidence must be in \(0,1\)")
        for call in (lambda: run(s, threads, confidence), lambda: sweep([s, s], threads, confidence)):
            with pytest.raises(ValidationError, match=match):
                call()


class TestDeterminism:
    def test_repeatable(self):
        a = run(spec(30, 4, B, trials=3_000))
        b = run(spec(30, 4, B, trials=3_000))
        assert a == b

    def test_threads_do_not_change_output(self):
        serial = run(spec(200, 4, B, trials=2_000), threads=1)
        parallel = run(spec(200, 4, B, trials=2_000), threads=3)
        assert serial == parallel

    def test_seed_changes_output(self):
        a = run(spec(30, 4, B, trials=3_000, seed=1))
        b = run(spec(30, 4, B, trials=3_000, seed=2))
        assert a.successes != b.successes

    def test_estimate_shape(self):
        s = spec(6, 2, A, trials=1_000)
        est = run(s, confidence=0.95)
        assert isinstance(est, Estimate)
        assert est.spec == s
        assert est.p_hat == est.successes / 1_000
        assert est.confidence == 0.95
        assert est.ci_low <= est.p_hat <= est.ci_high


class TestSweep:
    def test_per_index_seeds(self):
        specs = [spec(4, 2, A, trials=1_000, seed=999)] * 3
        out = sweep(specs)
        seeds = [est.spec.master_seed for est in out]
        assert seeds == [sweep_seed(999, i) for i in range(3)]
        assert len(set(seeds)) == 3
        # identical requested specs still get independent draws
        assert len({est.successes for est in out}) > 1 or out[0] != out[1]

    def test_rerun_identical(self):
        specs = [spec(n, 2, A, trials=1_000, seed=7) for n in (3, 5, 8)]
        assert sweep(specs) == sweep(specs)

    def test_row_rerunnable_standalone(self):
        # the seed recorded per row reproduces that row with run()
        out = sweep([spec(4, 2, A, trials=1_000, seed=42)] * 2)
        for est in out:
            assert run(est.spec) == est

    def test_empty(self):
        with pytest.raises(ValidationError):
            sweep([])

    @pytest.mark.parametrize("seed, index", [("1", 0), (1.5, 0), (True, 0), (1, "x"), (1, None)])
    def test_seed_rejects_non_integers(self, seed, index):
        # used to raise TypeError on ^ or +
        with pytest.raises(ValidationError, match="must be an integer"):
            sweep_seed(seed, index)

    def test_seed_reduced_mod_two_to_64(self):
        assert sweep_seed(-1, 2) == sweep_seed(2**64 - 1, 2)

    def test_error_names_index(self):
        specs = [spec(4, 2, A, trials=100), spec(0, 2, A, trials=100)]
        with pytest.raises(ValidationError, match="spec 1:"):
            sweep(specs)


class TestPoolLifetime:
    @pytest.fixture
    def children(self, monkeypatch):
        """Every child process montecarlo starts, in order.  They fork, so
        that a `_count_range` patched here runs in them too, whatever the
        default start method."""
        started = []
        start = montecarlo._start

        def counting_start(jobs):
            child, pipe = start(jobs)
            started.append(child)
            return child, pipe

        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
        monkeypatch.setattr(montecarlo, "_start", counting_start)
        return started

    def test_sweep_starts_one_child(self, children, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        specs = [spec(n, 2, B, trials=300, seed=5) for n in (3, 5, 8, 13, 21)]
        pooled = sweep(specs, threads=2)
        assert len(children) == 1
        assert sweep(specs, threads=1) == pooled
        assert len(children) == 1
        assert children[0].exitcode == 0
        assert multiprocessing.active_children() == []

    def test_failed_row_starts_no_child(self, children):
        # every row is validated before a child starts
        specs = [spec(6, 2, A, trials=200)] * 3 + [spec(0, 2, A, trials=200), spec(6, 2, A, trials=200)]
        with pytest.raises(ValidationError, match="spec 3:"):
            sweep(specs, threads=2)
        assert children == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [0, True])
    def test_bad_threads_rejected_before_a_child(self, children, threads):
        with pytest.raises(ValidationError, match="threads"):
            sweep([spec(4, 2, A, trials=100)], threads=threads)
        assert children == []

    def test_child_error_is_raised_here(self, children, monkeypatch):
        # the child's shares start past 0, so only the child raises
        count_range = montecarlo._count_range

        def child_fails(s, start, stop):
            if start:
                raise ArithmeticError("a child's share")
            return count_range(s, start, stop)

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "_count_range", child_fails)
        with pytest.raises(ArithmeticError, match="a child's share"):
            sweep([spec(8, 2, A, trials=100)] * 3, threads=2)
        assert len(children) == 1
        assert multiprocessing.active_children() == []

    def test_error_here_stops_the_child(self, children, monkeypatch):
        # the child's share would take a minute; the error in share 0 ends it
        def share_zero_fails(s, start, stop):
            if not start:
                raise ArithmeticError("share 0")
            time.sleep(60)

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "_count_range", share_zero_fails)
        began = time.perf_counter()
        with pytest.raises(ArithmeticError, match="share 0"):
            run(spec(8, 2, A, trials=100), threads=2)
        assert time.perf_counter() - began < 30
        assert len(children) == 1 and children[0].exitcode == -signal.SIGTERM
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "cpus, threads, workers",
        [(64, 100_000, [9, 0, 9, 0]), (3, 100_000, [2, 0, 2, 0]), (None, 8, [0, 0, 0, 0]),
         (64, 2, [1, 0, 1, 0])],
    )
    def test_workers_capped_by_cpus_and_trials(self, in_process_pool, monkeypatch, cpus, threads, workers):
        # share 0 runs in this process, so w workers start w - 1 children
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        s = spec(40, 4, B, trials=10)
        assert run(s, threads=threads) == run(s)
        assert sweep([s] * 3, threads=threads) == sweep([s] * 3)
        assert in_process_pool == workers

    def test_rows_with_fewer_trials_than_workers(self, in_process_pool, monkeypatch):
        # four workers cut each 1-trial row into three empty shares and one
        # trial; the D+ N row counts its shares without drawing
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        specs = [spec(9, 4, B, trials=1, seed=3), spec(40, 4, B, trials=10, seed=3),
                 spec(12, 3, DP, event="N", trials=1, seed=3)]
        assert sweep(specs, threads=4) == sweep(specs)
        assert in_process_pool == [3, 0]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_methods(self, method):
        # a child that does not fork gets its jobs pickled and imports
        # invgen afresh; it counts the same as share 0 run here
        code = f"""
import multiprocessing, os
import invgen.montecarlo as montecarlo
from invgen import ExperimentSpec, WeylFamily, sweep
multiprocessing.set_start_method({method!r})
os.cpu_count = lambda: 2
started = []
start = montecarlo._start
montecarlo._start = lambda jobs: started.append(jobs) or start(jobs)
specs = [ExperimentSpec(n, 3, family, "J", 40, 5) for n in (8, 30) for family in WeylFamily]
print(sweep(specs, threads=2) == sweep(specs), len(started), multiprocessing.active_children())
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True 1 []"

    def test_import_leaves_multiprocessing_out(self):
        # multiprocessing is imported only when a run starts a child
        code = "import sys, invgen.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestMemory:
    def test_table_range_is_run_in_blocks(self):
        # 500,000 table trials hold one block of states and masks at a
        # time: all of them at once would take tens of MB
        s = spec(8, 1, A, trials=500_000)
        montecarlo._count_range(s, 0, 10)  # the class table and masks, cached
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            montecarlo._count_range(s, 0, s.trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 2 << 20, peak - before

    def test_signed_tables_and_rows_at_the_cap_are_compact(self):
        # the signed class tables at the cap, n = 16 (B, D+ and D-), and the
        # rows of B, C, D+ and D- hold under 1 MB, traced in a fresh
        # interpreter with no gc.collect(), so that objects a build leaves
        # on CPython's free lists count too: tables of label tuples with
        # rows per event held 4.8 MB
        code = """
import tracemalloc
from invgen import WeylFamily
from invgen.montecarlo import _class_masks
from invgen.sampling import SIGNED_TABLE_LIMIT as n, _class_table
tracemalloc.start()
for want in (None, 1, -1):
    _class_table(n, True, want)
for family in (WeylFamily.B, WeylFamily.C, WeylFamily.D_PLUS, WeylFamily.D_MINUS):
    _class_masks(n, family)
print(n, tracemalloc.get_traced_memory()[0])
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        n, traced = map(int, out.stdout.split())
        assert n == 16 and traced < 1 << 20, traced


class TestLargeN:
    def test_million_points_runs(self):
        est = run(spec(1_000_000, 4, B, trials=40))
        assert 0.0 <= est.p_hat <= 1.0
        assert est.spec.trials == 40
