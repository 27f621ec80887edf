"""Seeded Monte Carlo estimation of the tuple events at large n.

Each trial owns RNG stream `trial_index` of the master seed, so the result
is a pure function of the ExperimentSpec: thread count, shares and
execution order cannot change it.  Trials may stop sampling as soon as the
event outcome is determined (say, the running intersection went empty);
that is safe for the same reason — no other trial reads this stream.
What settles a trial of each event is that event's row of `exact._EVENTS`.

Each of min(threads, CPUs, largest trial count) workers takes one
contiguous share of every spec's trials, all in one process pool that is
shut down before the call returns; with one worker no pool opens.

Profiles are complement-symmetric: a subset of size k leaves one of size
n-k, with sign sigma*e for a subset of sign e when the element's total
sign is sigma.  So a trial keeps only sizes 1..n//2 of its running
intersection, plus a second (plus, minus) pair whose tracks are swapped
for every element with sigma = -1; J holds iff every intersection is
empty.  Outside B that pair equals the plain pair (A, D+), mirrors it (D-)
or is a subset of it (C), so it adds no DP work.  Each profile DP computes
only the bits still alive in those intersections, runs only while one is,
and skips every cycle longer than the top one.

At n >= _WINDOW_CUTOFF (2^16) a trial that intersects runs a window pass
first: each element is drawn when needed and intersected on sizes 1..64
only, a DP over a few short cycles.  Most trials where J fails share such
a size, and they end there without a full-width DP.  Once the window
empties, the elements drawn so far are sorted fewest cycles first (a
sparse profile empties the intersection soonest) and read again on the
sizes above it; later ones are drawn with the usual early exit.  Below the
cut-off the window is the whole half-lattice, which is the one-pass loop.

At n = 10^6 a trial costs about 190 us for A and 410 us for B at l = 4,
and 15/21, 74/76, 280/501 and 296/523 us at l = 1, 2, 8 and 16, against
299 and 593 us at l = 4 for the one-pass loop (one core of a shared
2-vCPU VM, Python 3.11; best of 9 interleaved runs of 40 trials).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import islice
from numbers import Real
from statistics import NormalDist

from .cycletypes import WeylFamily, _check_profile_n, signed_subset_masks, subset_sum_mask
from .errors import CapacityError, ValidationError, as_list, check_positive_int
from .exact import _EVENTS, EVENTS, _sign_bit, check_event  # noqa: F401 (public names here too)
from .sampling import GOLDEN, LANES, M64, _check_range, _draws, _lanes, _sample_cycles, mix64

# J trials at n >= _WINDOW_CUTOFF intersect sizes 1.._WINDOW before the
# rest; below 2^16 the window pass measured no faster than one pass
_WINDOW = 64
_WINDOW_CUTOFF = 1 << 16


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
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= M64:
            raise ValidationError(f"master_seed must be a 64-bit integer, got {seed!r}")
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
        raise ValidationError(f"successes must be an integer in 0..{trials}, got {successes!r}")
    # a z whose square overflows would clamp both bounds to p_hat, or raise
    if isinstance(z, bool) or not isinstance(z, (int, float)) or not (0 < z and z * z <= sys.float_info.max):
        raise ValidationError(f"z must be a positive number whose square is a finite float, got {z!r}")
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, min(phat, center - half)), min(1.0, max(phat, center + half))


def _z(confidence: float) -> float:
    if isinstance(confidence, bool) or not isinstance(confidence, Real) or not 0 < confidence < 1:
        raise ValidationError(f"confidence must be in (0,1), got {confidence!r}")
    return NormalDist().inv_cdf((1 + confidence) / 2)


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    return wilson_interval_z(successes, trials, _z(confidence))


def _count_range(spec: ExperimentSpec, start: int, stop: int) -> int:
    """Successes over trials start..stop-1; one loop serves every event.

    A trial keeps the running intersections of the half-lattice profiles
    (empty from the start for events that do not intersect) and `alive`,
    the AND of the row's bits of every element drawn.  It settles once
    both are empty: a success for the events that intersect, a failure for
    the others.  A trial that reads all l elements unsettled has the
    opposite outcome.

    `elements[i]` is draw i of the trial's stream, drawn when the index
    first reaches it.  At n >= _WINDOW_CUTOFF the tracks start on sizes
    1.._WINDOW; once they empty, the list is sorted fewest cycles first,
    the index goes back to 0 and the tracks restart on the sizes above.
    The AND does not depend on order, so the outcome is the one-pass one.
    """
    n, l, seed, family = spec.n, spec.l, spec.master_seed, spec.family
    _, intersects, bits = _EVENTS[spec.event]
    signed, want = family.signed_labels, family.sector_sign
    # Within a D sector every total sign is equal, so the sign bits never
    # empty: J_and_not_N never holds, N always does.
    if want is not None and bits is _sign_bit:
        return 0 if intersects else stop - start
    signed_profiles = family.signed_profiles
    low = (1 << (n // 2 + 1)) - 2 if intersects else 0
    window = low & ((2 << _WINDOW) - 2) if n >= _WINDOW_CUTOFF else low
    above = low & ~window
    k = _lanes(n, signed, min(l, 2))  # more lanes are wasted on trials that stop early
    successes = 0
    # trial t's start state mix64(seed + (t+1)*GOLDEN) is draw t+1 of seed's stream
    for state in islice(_draws(seed + start * GOLDEN, LANES), stop - start):
        draws = _draws(state, k)
        inter_p = inter_m = swap_p = swap_m = keep = window
        rest = above
        alive = -1
        elements = []
        i = 0
        while i < l:
            if i == len(elements):
                element, _ = _sample_cycles(draws, n, signed, want)
                elements.append(element)
                alive &= bits(*element)
            lengths, signs, total = elements[i]
            i += 1
            if keep:
                if signed_profiles:
                    plus, minus = signed_subset_masks(sorted(zip(lengths, signs)), keep)
                else:
                    lengths.sort()
                    plus, minus = subset_sum_mask(lengths, keep), 0
                inter_p &= plus
                inter_m &= minus
                if total < 0:
                    plus, minus = minus, plus
                swap_p &= plus
                swap_m &= minus
                # OR the minus tracks (empty in A and C) apart: x | 0 copies x
                keep = inter_p | swap_p | (inter_m | swap_m)
                if keep:
                    continue
                if rest:  # the window emptied: intersect the rest
                    inter_p = inter_m = swap_p = swap_m = keep = rest
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


def _estimate(specs: list[ExperimentSpec], threads: int, confidence: float) -> list[Estimate]:
    """Estimates of validated specs, in order.  One worker runs every spec
    here; more cut each spec into one contiguous share per worker, send all
    shares of all specs to one pool, and sum each spec's own shares.  Trials
    are i.i.d., so equal shares carry equal expected work."""
    z = _z(confidence)
    workers = min(threads, os.cpu_count() or 1, max(spec.trials for spec in specs))
    if workers == 1:
        counts = [_count_range(spec, 0, spec.trials) for spec in specs]
    else:
        # imported here so that `import invgen` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(spec, w * spec.trials // workers, (w + 1) * spec.trials // workers)
                for spec in specs for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_count_range, *zip(*jobs))
            counts = [sum(islice(done, workers)) for _ in specs]
    out = []
    for spec, successes in zip(specs, counts):
        ci_low, ci_high = wilson_interval_z(successes, spec.trials, z)
        out.append(Estimate(spec, successes, successes / spec.trials, ci_low, ci_high, confidence))
    return out


def _validate(spec: ExperimentSpec) -> None:
    if not isinstance(spec, ExperimentSpec):
        raise ValidationError(f"expected an ExperimentSpec, got {spec!r}")
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
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    return mix64(master_seed ^ ((index + 1) * GOLDEN & M64))


def sweep(specs, threads: int = 1, confidence: float = 0.99) -> list[Estimate]:
    """Run several specs with per-index derived master seeds, in order.

    Each returned Estimate carries the spec with its effective seed filled
    in, so any row can be reproduced on its own with `run`.  Every row is
    validated before any trial runs; with threads > 1 all rows share one
    pool, which is shut down before this returns or raises.
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
