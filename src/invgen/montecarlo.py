"""Seeded Monte Carlo estimation of the tuple events at large n.

Each trial owns RNG stream `trial_index` of the master seed, so the result
is a pure function of the ExperimentSpec: thread count, shares and
execution order cannot change it.  Trials may stop sampling as soon as the
event outcome is determined (say, the running intersection went empty);
that is safe for the same reason — no other trial reads this stream.
What settles a trial of each event is that event's row of
`cycletypes._EVENTS`.

Each of min(threads, CPUs, largest trial count) workers takes one
contiguous share of every spec's trials.  The caller counts share 0 itself;
each other worker is one child process, given all its shares at once and
joined before the call returns.  With one worker no child starts.

Profiles are complement-symmetric: a subset of size k leaves one of size
n-k, with sign sigma*e for a subset of sign e when the element's total
sign is sigma.  So a trial keeps only sizes 1..n//2 of its running
intersection, plus, in B, a second (plus, minus) pair whose tracks are
swapped for every element with sigma = -1; J holds iff every intersection
is empty.  Outside B that pair would equal the plain pair (A, D+), mirror
it (D-) or lie inside it (C), so only B keeps it.  Each profile DP
computes only the bits still alive in those intersections, runs only
while one is, and skips every cycle longer than the top one.

At the samplers' table n (see `sampling`) an element is one table draw,
and its masks are its class's row of `_class_masks`, every event's packed
into one int and built once per (n, family) from the table's bytes; an
event reads the row through its `_event_mask`.  No stick-breaking, sort,
DP or label per element.  The trials run a block at a time, one round per
element: `sampling._picks` draws element j of every open trial, 32
streams per mix64, and one AND per trial settles it or keeps it open.
At n = 8, l = 4 a trial takes 1.0-3.1 us, against 2.3-7.2 us drawing
one trial at a time (A n = 16: 1.6-3.5 against 2.9-7.2 us), and 12-20 us
by stick-breaking (one core of a shared 2-vCPU VM, Python 3.11, in
process, medians of 7).

At n >= _WINDOW_CUTOFF (2^16) a trial that intersects runs a window pass
first: each element is drawn when needed and intersected on sizes 1..64
only, a DP over a few short cycles.  Most trials where J fails share such
a size, and they end there without a full-width DP.  Once the window
empties, the rest of the tuple is drawn, the elements are sorted fewest
cycles first (a sparse profile empties the intersection soonest) and read
again on the sizes above the window up to the tuple's reach, min(n -
longest cycle): a subset holding a cycle longer than n/2 is larger than
n/2, and one without it sums to at most n minus that cycle.  So each
full-width DP skips every cycle above the reach, and a reach inside the
window settles the trial with none.  Below the cut-off the window is the
whole half-lattice, which is the one-pass loop.

At n = 10^6 a J trial costs about 8/13, 22/56, 48/122, 59/104 and 91/136
us for A/B at l = 1, 2, 4, 8 and 16 (one core of a shared 2-vCPU VM,
Python 3.11.7; medians of interleaved runs, 15 of 800 trials at l <= 2
and 9 of 150 above, three repeats within 3 us of each other).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cache
from itertools import compress, islice, repeat
from operator import add, and_
from numbers import Real
from statistics import NormalDist

from .cycletypes import (_EVENTS, EVENTS, WeylFamily, _check_profile_n, _sign_bit,  # noqa: F401 (public here too)
                         check_event, signed_subset_masks, subset_sum_mask)
from .errors import CapacityError, ValidationError, _echo, as_list, check_positive_int
from .sampling import (GOLDEN, LANES, M64, _check_range, _check_seed, _class_table, _draws, _elements, _lanes, _picks,
                       _sample_cycles, _table, mix64)

# J trials at n >= _WINDOW_CUTOFF intersect sizes 1.._WINDOW before the
# rest; below 2^16 the window pass measured no faster than one pass
_WINDOW = 64
_WINDOW_CUTOFF = 1 << 16
# trials a table range runs at once, which bounds its memory
_BLOCK = 4096


@dataclass(frozen=True)
class ExperimentSpec:
    n: int
    l: int
    family: WeylFamily
    event: str
    trials: int
    master_seed: int

    def validate(self) -> None:
        _check_range("n", self.n)
        check_positive_int("l", self.l)
        check_positive_int("trials", self.trials)
        _check_seed("master_seed", self.master_seed)
        check_event(self.event, self.family)
        if _EVENTS[self.event].intersects:
            _check_profile_n(self.n)


@dataclass(frozen=True)
class Estimate:
    spec: ExperimentSpec
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    confidence: float


def wilson_interval_z(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval at a given z; stays sane at p near 0 or 1.

    The bounds always bracket p_hat exactly: float rounding would otherwise
    put the upper bound at 0.9999999999999998 when every trial succeeds,
    or the lower bound a hair above 0 when none does.
    """
    check_positive_int("trials", trials)
    if isinstance(successes, bool) or not isinstance(successes, int) or not 0 <= successes <= trials:
        raise ValidationError(f"successes must be an integer in 0..{_echo(trials, str)}, got {_echo(successes)}")
    # a z whose square overflows would clamp both bounds to p_hat, or raise
    if isinstance(z, bool) or not isinstance(z, (int, float)) or not (0 < z and z * z <= sys.float_info.max):
        raise ValidationError(f"z must be a positive number whose square is a finite float, got {_echo(z)}")
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, min(phat, center - half)), min(1.0, max(phat, center + half))


def _z(confidence: float) -> float:
    """The normal quantile at (1 + confidence) / 2.  Within 2^-53 of 0 or 1
    that point rounds to 1/2, where z is 0, or to 1, where it is infinite,
    so such a confidence is refused too."""
    if isinstance(confidence, bool) or not isinstance(confidence, Real) or not 0 < confidence < 1:
        raise ValidationError(f"confidence must be in (0,1), got {_echo(confidence)}")
    if not 2**-53 < confidence < 1 - 2**-53:
        raise ValidationError(f"confidence must be more than 2^-53 from 0 and from 1, got {_echo(confidence)}")
    return NormalDist().inv_cdf((1 + confidence) / 2)


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    return wilson_interval_z(successes, trials, _z(confidence))


# a `_class_masks` row holds event i's bits at bits 2i and 2i + 1, then the tracks
_TRACKS = 2 * len(EVENTS)


@cache
def _class_masks(n: int, family: WeylFamily) -> list[int]:
    """Per class of the table that family's sampler reads at n, in its
    order: its masks for every event packed into one int, read straight
    from the table's bytes.  Bits 2i and 2i + 1 hold the row's bits of
    event i of EVENTS; from bit _TRACKS on, fields of n//2 + 1 bits hold
    the profile on sizes 1..n//2 as a trial intersects it: (plus, minus)
    of the (size, sign) tracks in B and D, else the projection's sizes and
    0, and in B the pair again, swapped for a - element.  An event reads
    its rows through `_event_mask`, so the AND of a trial's rows and that
    mask is 0 exactly when the event's bits and, for an event that
    intersects, every track are empty.  Equal rows are one int."""
    width = n // 2 + 1
    low = (1 << width) - 2
    table = _class_table(n, family.signed_labels, family.sector_sign)
    events = [(bits, 2 * i) for i, (_, _, bits) in enumerate(_EVENTS.values())]
    rows, shared = [], {}
    for lengths, signs in _elements(table):  # in label order: the DPs take them reversed, lengths ascending
        total = -1 if signs.count(-1) & 1 else 1
        if family.signed_profiles:
            plus, minus = signed_subset_masks(zip(reversed(lengths), reversed(signs)), low)
        else:
            plus, minus = subset_sum_mask(reversed(lengths), low), 0
        tracks = plus | minus << width
        if family is WeylFamily.B:
            tracks |= (minus | plus << width if total < 0 else tracks) << 2 * width
        row = tracks << _TRACKS
        for bits, at in events:
            row |= bits(lengths, signs, total) << at
        rows.append(shared.setdefault(row, row))
    return rows


def _event_mask(event: str) -> int:
    """The bits of a `_class_masks` row that `event` reads: its own two,
    and every track if it intersects."""
    return 3 << 2 * EVENTS.index(event) | (-1 << _TRACKS if _EVENTS[event].intersects else 0)


def _count_range(spec: ExperimentSpec, start: int, stop: int) -> int:
    """Successes over trials start..stop-1; one settle rule serves every
    event.

    A trial keeps the running intersections of the half-lattice profiles
    (empty from the start for events that do not intersect) and `alive`,
    the AND of the row's bits of every element drawn.  It settles once
    both are empty: a success for the events that intersect, a failure for
    the others.  A trial that reads all l elements unsettled has the
    opposite outcome.

    At the sampler's table n the trials run a block of up to _BLOCK at a
    time, one round per element: round j draws element j of every trial
    still open (`_picks`), ANDs its `_class_masks` row into the trial's,
    and drops the trials whose AND is 0.  Element j is draw j of the
    trial's stream, rejected draws skipped, and the AND does not depend on
    order, so each trial has its one-at-a-time outcome.

    Above the table caps `elements[i]` is an element's stick-breaking
    cycles, drawn when the index first reaches it; its profile DP runs when
    it is read.  At n >= _WINDOW_CUTOFF the tracks start on sizes
    1.._WINDOW; once they empty, the tuple's other elements are drawn, the
    list is sorted fewest cycles first, the index goes back to 0 and the
    tracks restart on the sizes above, up to the tuple's reach.  The AND
    does not depend on order, so the outcome is the one-pass one.  In A
    and C the one track is `keep` itself.
    """
    n, l, seed, family = spec.n, spec.l, spec.master_seed, spec.family
    _, intersects, bits = _EVENTS[spec.event]
    signed, want = family.signed_labels, family.sector_sign
    # Within a D sector every total sign is equal, so the sign bits never
    # empty: J_and_not_N never holds, N always does.
    if want is not None and bits is _sign_bit:
        return 0 if intersects else stop - start
    # trial t's start state mix64(seed + (t+1)*GOLDEN) is draw t+1 of seed's stream
    starts = _draws(seed + start * GOLDEN, LANES)
    table = _table(n, signed, want)
    if table is not None:
        rows, mask = _class_masks(n, family), _event_mask(spec.event)
        unsettled = 0
        for first in range(start, stop, _BLOCK):
            bases = list(islice(starts, min(_BLOCK, stop - first)))
            ands = repeat(mask)  # the AND of each open trial's rows, through the event's mask
            for j in range(1, l + 1):
                ands = list(map(and_, ands, map(rows.__getitem__, _picks(bases, j, table))))
                bases = list(compress(bases, ands))
                ands = list(compress(ands, ands))
                if not ands:
                    break
            unsettled += len(ands)
        return stop - start - unsettled if intersects else unsettled
    signed_profiles, swaps = family.signed_profiles, family is WeylFamily.B
    low = (1 << (n // 2 + 1)) - 2 if intersects else 0
    window = low & ((2 << _WINDOW) - 2) if n >= _WINDOW_CUTOFF else low
    above = low & ~window
    k = _lanes(n, signed, min(l, 2))  # more lanes are wasted on trials that stop early
    successes = 0
    for state in islice(starts, stop - start):
        draws = _draws(state, k)
        inter_p = inter_m = swap_p = swap_m = keep = window
        rest = above
        alive = -1
        elements = []
        i = 0
        while i < l:
            if i == len(elements):
                element = _sample_cycles(draws, n, signed, want)
                elements.append(element)
                alive &= bits(*element)
            lengths, signs, total = elements[i]
            i += 1
            if keep:
                if not signed_profiles:
                    # one track (A, C): the DP's mask lies within keep, so it is the intersection
                    lengths.sort()
                    keep = subset_sum_mask(lengths, keep)
                else:
                    plus, minus = signed_subset_masks(sorted(zip(lengths, signs)), keep)
                    inter_p &= plus
                    inter_m &= minus
                    if swaps:  # a - element's tracks swap
                        if total < 0:
                            plus, minus = minus, plus
                        swap_p &= plus
                        swap_m &= minus
                        keep = inter_p | swap_p | (inter_m | swap_m)
                    else:
                        keep = inter_p | inter_m
                if keep:
                    continue
            if rest:  # the window emptied: draw the tuple's rest, then intersect up to its reach
                if i < l:
                    continue
                reach = n - max(max(element[0]) for element in elements)
                inter_p = inter_m = swap_p = swap_m = keep = rest & ((2 << reach) - 1)
                rest = 0
                elements.sort(key=lambda e: len(e[0]))
                i = 0
                continue
            if not alive:
                successes += intersects
                break
        else:
            successes += not intersects
    return successes


def _child(jobs, pipe) -> None:
    """A child's body: the counts of its (spec, start, stop) jobs, or the
    exception one raised, sent back through `pipe`."""
    try:
        pipe.send([_count_range(*job) for job in jobs])
    except Exception as exc:
        pipe.send(exc)


def _start(jobs):
    """A started child counting `jobs`, and the pipe it answers on."""
    import multiprocessing  # here, so that a one-worker run never loads it

    receive, send = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(target=_child, args=(jobs, send))
    child.start()
    send.close()
    return child, receive


def _estimate(specs: list[ExperimentSpec], threads: int, confidence: float) -> list[Estimate]:
    """Estimates of validated specs, in order.  Share w of every spec
    goes to child w, and share 0 runs here.  A child's exception is raised
    here, any error stops the children, and each is joined before this
    returns.  Trials are i.i.d., so equal shares carry equal work."""
    z = _z(confidence)
    workers = min(threads, os.cpu_count() or 1, max(spec.trials for spec in specs))
    children = []
    try:
        for w in range(1, workers):
            children.append(_start([(spec, w * spec.trials // workers, (w + 1) * spec.trials // workers)
                                    for spec in specs]))
        counts = [_count_range(spec, 0, spec.trials // workers) for spec in specs]
        for _, pipe in children:
            got = pipe.recv()
            if isinstance(got, Exception):
                raise got
            counts = list(map(add, counts, got))
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, _ in children:
            child.join()
    out = []
    for spec, successes in zip(specs, counts):
        ci_low, ci_high = wilson_interval_z(successes, spec.trials, z)
        out.append(Estimate(spec, successes, successes / spec.trials, ci_low, ci_high, confidence))
    return out


def _validate(spec: ExperimentSpec) -> None:
    if not isinstance(spec, ExperimentSpec):
        raise ValidationError(f"expected an ExperimentSpec, got {_echo(spec)}")
    spec.validate()


def run(spec: ExperimentSpec, threads: int = 1, confidence: float = 0.99) -> Estimate:
    """Run all trials of a spec and return the estimate with its Wilson
    interval.  Identical output for every thread count: trials are split
    deterministically and success counts add associatively."""
    _validate(spec)
    check_positive_int("threads", threads)
    return _estimate([spec], threads, confidence)[0]


def sweep_seed(master_seed: int, index: int) -> int:
    """Effective master seed for sweep position `index`; distinct positions
    get unrelated streams even for otherwise identical specs."""
    for name, value in (("master_seed", master_seed), ("index", index)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{name} must be an integer, got {_echo(value)}")
    return mix64(master_seed ^ ((index + 1) * GOLDEN & M64))


def sweep(specs, threads: int = 1, confidence: float = 0.99) -> list[Estimate]:
    """Run several specs with per-index derived master seeds, in order.

    Each returned Estimate carries the spec with its effective seed filled
    in, so any row can be reproduced on its own with `run`.  Every row is
    validated before any trial runs; with threads > 1 every row's shares go
    to the same child processes, which are joined before this returns or
    raises.
    """
    specs = as_list("specs", specs)
    if not specs:
        raise ValidationError("sweep needs at least one spec")
    check_positive_int("threads", threads)
    effective = []
    for i, spec in enumerate(specs):
        try:
            _validate(spec)
        except (ValidationError, CapacityError) as exc:
            raise type(exc)(f"spec {i}: {exc}") from exc
        effective.append(replace(spec, master_seed=sweep_seed(spec.master_seed, i)))
    return _estimate(effective, threads, confidence)
