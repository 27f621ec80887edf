"""Seeded Monte Carlo estimation of the tuple events at large n.

Each trial owns RNG stream `trial_index` of the master seed, so the result
is a pure function of the ExperimentSpec: thread count, shares and
execution order cannot change it.  Trials may stop sampling as soon as the
event outcome is determined (say, the running intersection went empty);
that is safe for the same reason — no other trial reads this stream.

Profiles are complement-symmetric: a subset of size k leaves one of size
n-k, with sign sigma*e for a subset of sign e when the element's total
sign is sigma.  So a trial keeps only sizes 1..n//2 of its running
intersection, plus, in B, a second (plus, minus) pair whose tracks are
swapped for every element with sigma = -1; J holds iff every intersection
is empty.  Outside B that pair would equal the plain pair (A, D+), mirror
it (D-) or lie inside it (C), so only B keeps it.  Each profile DP
computes only the bits still alive in those intersections, runs only
while one is, and skips every cycle longer than the top one.

Both routes read an element in one shape, the (lengths, signs, total)
triple: `sampling._elements` yields it for each class of a table and
`sampling._sample_cycles` returns it for each stick-breaking draw.  The
profile DPs put its cycles in their own order, and an event's bits read
the triple as it is.

The table route, `_open_table`: at the samplers' table n (see
`sampling`) an element is one table draw, and its masks are its class's
row of `_class_masks`, every event's packed into one int and built once
per (n, family) from the table's bytes; an event reads the row through
its `_event_mask`.  No stick-breaking, sort, DP or label per element.
The trials run a block at a time, one round per element:
`sampling._picks` draws element j of every open trial, 32 streams per
mix64, and one AND per trial settles it or keeps it open.  At n = 8,
l = 4 a trial takes 1.0-3.1 us, against 2.3-7.2 us drawing one trial at
a time (A n = 16: 1.6-3.5 against 2.9-7.2 us), and 12-20 us by
stick-breaking (one core of a shared 2-vCPU VM, Python 3.11, in process,
medians of 7).

The stick-breaking route, `_open_sticks`: above the table caps each
element is drawn by stick-breaking when a trial first reads it, and
`_meet` intersects the elements' profiles, each DP on the sizes still
alive.  A trial that intersects calls `_meet` once or twice.  The first
call reads the elements in draw order on the window: sizes 1..64 at n >=
_WINDOW_CUTOFF (2^16), a DP over a few short cycles, and below the
cut-off the whole half-lattice, which is the one pass.  Most trials where
J fails share a size in the window, and they end there without a
full-width DP.  If the window empties with sizes above it, the rest of
the tuple is drawn, the elements are sorted fewest cycles first (a sparse
profile empties the intersection soonest), and the second call reads
them on the sizes above the window up to the tuple's reach, min(n -
longest cycle): a subset holding a cycle longer than n/2 is larger than
n/2, and one without it sums to at most n minus that cycle.  So each
full-width DP skips every cycle above the reach, and a reach inside the
window settles the trial with none.  Once the tracks are empty, the AND
of the elements' bits settles the trial, and more elements are drawn
only while that AND is not 0; an event that does not intersect starts
there.

At n = 10^6 a J trial costs about 8/13, 22/56, 48/122, 59/104 and 91/136
us for A/B at l = 1, 2, 4, 8 and 16 (one core of a shared 2-vCPU VM,
Python 3.11.7; medians of interleaved runs, 15 of 800 trials at l <= 2
and 9 of 150 above, three repeats within 3 us of each other).

The settle rule, in `_count_range` alone: what settles a trial of each
event is that event's row of `cycletypes._EVENTS`.  Each route returns
how many of its trials stayed open, and `_count_range` turns that count
into successes by whether the event intersects.  It also settles every
trial of a sign event in a D sector before either route draws an element.

Each of min(threads, CPUs, largest trial count) workers takes one
contiguous share of every spec's trials.  The caller counts share 0 itself;
each other worker is one child process, given all its shares at once and
joined before the call returns.  With one worker no child starts.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, compress, islice, repeat
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
    order: its masks for every event packed into one int, built from the
    (lengths, signs, total) triple `sampling._elements` reads from the
    table's bytes.  Bits 2i and 2i + 1 hold the row's bits of
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
    for lengths, signs, total in _elements(table):
        if family.signed_profiles:
            plus, minus = signed_subset_masks(zip(lengths, signs), low)
        else:
            plus, minus = subset_sum_mask(lengths, low), 0
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


def _open_table(spec: ExperimentSpec, starts, table) -> int:
    """How many trials, one per start state, stay open at the sampler's
    table n.

    The trials run a block of up to _BLOCK at a time, one round per
    element: round j draws element j of every trial still open
    (`_picks`), ANDs its `_class_masks` row into the trial's, and drops
    the trials whose AND is 0.  Element j is draw j of the trial's stream,
    rejected draws skipped, and the AND does not depend on order, so each
    trial has its one-at-a-time outcome.
    """
    rows, mask = _class_masks(spec.n, spec.family), _event_mask(spec.event)
    unsettled = 0
    while bases := list(islice(starts, _BLOCK)):
        ands = repeat(mask)  # the AND of each open trial's rows, through the event's mask
        for j in range(1, spec.l + 1):
            ands = list(map(and_, ands, map(rows.__getitem__, _picks(bases, j, table))))
            bases = list(compress(bases, ands))
            ands = list(compress(ands, ands))
            if not ands:
                break
        unsettled += len(ands)
    return unsettled


def _meet(elements, keep: int, signed_profiles: bool, swaps: bool, read: list | None = None) -> int:
    """Intersect the profiles of `elements`, (lengths, signs, total) as
    `_sample_cycles` returns them, in order on the sizes in `keep`, and
    return the union of the tracks, 0 once they are empty.  It stops at
    the first element that empties them, reads none if `keep` is 0, and
    appends each element it reads to `read`.  The one home of the tracks:
    in A and C one, `keep` itself, on the projection; in B and D the
    (plus, minus) pair, and in B that pair again, swapped for a -
    element."""
    inter_p = inter_m = swap_p = swap_m = keep
    for element in elements if keep else ():
        if read is not None:
            read.append(element)
        lengths, signs, total = element
        if not signed_profiles:
            # one track (A, C): the DP's mask lies within keep, so it is the intersection
            keep = subset_sum_mask(lengths, keep)
        else:
            plus, minus = signed_subset_masks(zip(lengths, signs), keep)
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
        if not keep:
            break
    return keep


def _open_sticks(spec: ExperimentSpec, starts) -> int:
    """How many trials, one per start state, stay open above the table
    caps.

    A trial's elements are its stream's stick-breaking draws, each drawn
    when first read; its profile DP runs in `_meet`.  The first `_meet`
    reads them on the window, sizes 1.._WINDOW at n >= _WINDOW_CUTOFF and
    the whole half-lattice below.  If the window empties with sizes above
    it, the tuple's other elements are drawn, sorted fewest cycles first,
    and a second `_meet` reads them on the sizes above, up to the tuple's
    reach.  The AND does not depend on order, so the outcome is the
    one-pass one.  Once the tracks are empty one loop ANDs the bits of the
    elements read so far and then of the stream's, drawing further
    elements only while that AND is not 0.
    """
    n, l, family = spec.n, spec.l, spec.family
    _, intersects, bits = _EVENTS[spec.event]
    signed_profiles, swaps = family.signed_profiles, family is WeylFamily.B
    low = (1 << (n // 2 + 1)) - 2 if intersects else 0
    window = low & ((2 << _WINDOW) - 2) if n >= _WINDOW_CUTOFF else low
    above = low & ~window
    k = _lanes(n, family.signed_labels, min(l, 2))  # more lanes are wasted on trials that stop early
    ns, signeds, wants = repeat(n), repeat(family.signed_labels), repeat(family.sector_sign)
    unsettled = 0
    for state in starts:
        elements = []  # those read so far
        stream = map(_sample_cycles, (_draws(state, k),) * l, ns, signeds, wants)  # l elements, each drawn when read
        # an event that does not intersect skips the call, a few % of its trial at n = 1000
        keep = window and _meet(stream, window, signed_profiles, swaps, elements)
        if above and not keep:  # the window emptied: draw the tuple's rest, then intersect up to its reach
            elements += stream
            reach = n - max(max(lengths) for lengths, _, _ in elements)
            elements.sort(key=lambda element: len(element[0]))
            keep = _meet(elements, above & ((2 << reach) - 1), signed_profiles, swaps)
        alive = -1
        if not keep:  # the tracks are empty: the AND of the elements' bits settles the trial,
            for lengths, signs, total in chain(elements, stream):  # drawing more only while it is not 0
                alive &= bits(lengths, signs, total)
                if not alive:
                    break
        if alive:
            unsettled += 1
    return unsettled


def _count_range(spec: ExperimentSpec, start: int, stop: int) -> int:
    """Successes over trials start..stop-1; one settle rule serves every
    event and both routes.

    A trial keeps the running intersections of the half-lattice profiles
    (empty from the start for events that do not intersect) and `alive`,
    the AND of the row's bits of every element drawn.  It settles once
    both are empty: a success for the events that intersect, a failure for
    the others.  A trial that reads all l elements unsettled stays open
    and has the opposite outcome.  Each route returns how many of its
    trials stayed open, and this turns that count into successes.
    """
    _, intersects, bits = _EVENTS[spec.event]
    # Within a D sector every total sign is equal, so the sign bits never
    # empty: J_and_not_N never holds, N always does.
    if spec.family.sector_sign is not None and bits is _sign_bit:
        return 0 if intersects else stop - start
    # trial t's start state mix64(seed + (t+1)*GOLDEN) is draw t+1 of seed's stream
    starts = islice(_draws(spec.master_seed + start * GOLDEN, LANES), stop - start)
    table = _table(spec.n, spec.family.signed_labels, spec.family.sector_sign)
    unsettled = _open_sticks(spec, starts) if table is None else _open_table(spec, starts, table)
    return stop - start - unsettled if intersects else unsettled


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
