"""Seeded samplers for cycle-type class labels of uniform random elements.

The PRNG is SplitMix64: 64-bit counter state advanced by the golden-gamma
constant, outputs put through the murmur-style mix64 finalizer.  Stream
`t` of master seed `m` starts at state mix64(m + (t+1)*GOLDEN), so every
Monte Carlo trial owns an independent stream and results cannot depend on
scheduling.

Small n read a class table: n <= PARTITION_TABLE_LIMIT (20) for S_n, n <=
SIGNED_TABLE_LIMIT (16) for the signed group and for a D sector.  This
module owns the tables: `_class_table` walks the classes (longest
remaining length first, its multiplicity descending, then the number of +
cycles descending) with integer class sizes summing to the order (n!,
2^n n!, or 2^(n-1) n! in a sector), which fits one draw.  A table is
compact: its classes' cycles are one byte string, a byte per cycle, with
an array of where each class starts, and a label is read from them only
when a sampler returns it (`_label`).  At signed n = 16 the three tables
(5,822 classes in B) hold about 0.7 MB, most of it the running class
sizes, a list because bisect reads a list fastest.  An element is one
table draw (`_pick`): a draw u is kept if u < (2^64 // order) * order,
else the next one is read, and r = u mod order picks the first class
whose running size exceeds r.  sample_partition reads S_n's table,
sample_signed the signed one, and sample_signed_conditioned its sector's;
the Monte Carlo engine reads the table its family's sampler does, draw j
of many trials' streams at once (`_picks`: one mix64 over LANES streams,
a rejected lane read again by `_pick`), and brute force
(`exact.enumerate_classes`) reads the same tables under the exact
oracle's caps.  The caps here are the samplers' own.

Above the caps, cycle lengths come from stick-breaking: draw L uniform on
{1..remaining}, emit, repeat.  That realizes exactly the cycle-type law of
a uniform permutation of S_n.  Signs are independent fair coins per cycle,
read 64 at a time from one draw.  Stick-breaking reads its stream k draws
at a time (`_draws`: one mix64 over k lanes of an int, by the kernel
`_kernel(k)` builds the first time k is asked for): 32 draws cost about
nine scalar mix64 calls.  They are the scalar draws, so no output depends
on k.

`_sample` is the samplers' one entry, read by the three public samplers
and by `invgen sample`, and the one place their arguments are checked.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_right
from functools import cache
from itertools import chain, compress, count, islice, repeat
from operator import mod
from typing import NamedTuple

from .cycletypes import Partition, SignedCycleType, _check_sign, _signed_label
from .errors import ValidationError, _echo, check_positive_int

M64 = (1 << 64) - 1
TWO64 = 1 << 64
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
LANES = 32  # the most draws one batch computes
# the largest n whose elements are table draws, the samplers' own caps:
# where the order outgrows one draw, 20! < 2^64 < 21! for A and
# 2^16 16! < 2^64 < 2^17 17! for the signed tables (5,822 classes in B)
PARTITION_TABLE_LIMIT = 20
SIGNED_TABLE_LIMIT = 16


def mix64(x: int) -> int:
    """SplitMix64 output finalizer; bijective on 64-bit words."""
    x &= M64
    x = ((x ^ (x >> 30)) * _MIX1) & M64
    x = ((x ^ (x >> 27)) * _MIX2) & M64
    return x ^ (x >> 31)


class RngState:
    """One SplitMix64 stream, identified by (master seed, stream index).

    Both are integers (not bools); one outside 0..2^64-1 is reduced mod
    2^64, so seed -1 is seed 2^64 - 1.  Only a bool gets a type check;
    other non-integers fail the arithmetic.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int, stream: int = 0):
        try:
            if type(seed) is bool or type(stream) is bool:
                raise TypeError
            self.state = mix64((seed + (stream + 1) * GOLDEN) & M64)
        except TypeError:
            raise ValidationError(
                f"seed and stream must be integers, got {_echo(seed)} and {_echo(stream)}"
            ) from None

    def next64(self) -> int:
        self.state = s = (self.state + GOLDEN) & M64
        return mix64(s)


def _check_range(name: str, value) -> None:
    """A positive int at most 2^64, the most values one draw can cover:
    above it the rejection limit (2^64 // value) * value is 0 and no draw
    is ever accepted."""
    check_positive_int(name, value)
    if value > TWO64:
        raise ValidationError(f"{name} must be at most 2^64, got {_echo(value)}")


def _check_seed(name: str, seed) -> None:
    """A master seed is an int in 0..2^64 - 1, the states one stream can start from."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= M64:
        raise ValidationError(f"{name} must be a 64-bit integer, got {_echo(seed)}")


def _lanes(n: int, signed: bool, elements: int = 1) -> int:
    """Draws per batch: the expected draws of `elements` elements, H_n + signed
    each (a sign word per 64 cycles) with H_n <= 1 + ln n, capped at LANES.
    Stick-breaking all_even trials in A at n = 100, l = 4, where it picks 12,
    took 1.04-1.07x the time with 16 lanes and 1.39-1.40x with 32 (medians
    of 9 interleaved rounds of 300 trials, shared 2-vCPU VM)."""
    return min(LANES, math.ceil(elements * (1 + signed + math.log(n))))


@cache
def _kernel(k: int):
    """The k-lane kernels, built on the first call for k and then reused,
    each one mix64 over k lanes of an int (SWAR): `_batch(s)` is draws
    1..k of the stream whose state is s, `_streams(states, j)` is draw j
    of each of k streams.  A lane is the low half of a 128-bit slot, so its
    64x64-bit products fit; each step masks back to 64 bits."""
    ones = sum(1 << 128 * j for j in range(k))
    steps = sum((j + 1) * GOLDEN << 128 * j for j in range(k))
    mask = M64 * ones
    lanes = struct.Struct("<" + "Q8x" * k)  # the low halves, on any host

    def _mix(x: int) -> tuple[int, ...]:
        x = ((x ^ x >> 30) & mask) * _MIX1 & mask
        x = ((x ^ x >> 27) & mask) * _MIX2 & mask
        return lanes.unpack((x ^ x >> 31).to_bytes(16 * k, "little"))

    def _batch(s: int) -> tuple[int, ...]:
        return _mix(((s & M64) * ones + steps) & mask)

    def _streams(states, j: int) -> tuple[int, ...]:
        return _mix((int.from_bytes(lanes.pack(*states), "little") + (j * GOLDEN & M64) * ones) & mask)

    return _batch, _streams


def _draws(s: int, k: int):
    """The stream whose state is `s`, computed k draws at a time."""
    return chain.from_iterable(map(_kernel(k)[0], count(s, k * GOLDEN)))


class _Table(NamedTuple):
    """A class table as the samplers read it.  Class i's cycles are
    cycles[bounds[i]:bounds[i + 1]], in label order, one byte each:
    length << 1, plus 1 for a - cycle."""

    order: int
    limit: int  # (2^64 // order) * order: a draw at or above it is rejected
    cumulative: list[int]  # running sums of the class sizes: a list, which bisect reads fastest
    cycles: bytes  # every class's cycles, in walk order
    # where each class's cycles start, then where the last ends: C unsigned
    # ints in a byte string, as the array module's library takes 0.13 MB
    bounds: memoryview


# a table byte's length (a bytes.translate table), sign, and (length, sign), which labels share
_LENGTHS = bytes(b >> 1 for b in range(256))
_SIGNS = tuple(-1 if b & 1 else 1 for b in range(256))
_CYCLES = tuple(zip(_LENGTHS, _SIGNS))


@cache
def _class_table(n: int, signed: bool, want: int | None) -> _Table:
    """S_n's class table, or the signed one (want None) or a D sector's
    (want its total sign), with no cap: its classes' cycles and their
    integer class sizes' running sums.  One walk picks the longest
    remaining length j, its multiplicity m, then (signed) how many of the m
    cycles are positive, each descending, and carries the class size's
    divisor down: j^m m! in S_n, (2j)^m m+! m-! signed.  The order, n!,
    2^n n!, or 2^(n-1) n! in a D sector, is asserted to sum the sizes.  A
    length takes a byte, so n is at most 127."""
    group = math.factorial(n) << n if signed else math.factorial(n)
    # m cycles of length j, + first: (their bytes, their signs' product, (2j or j)^m m+! m-!), by j and m
    blocks = [[[(bytes((j << 1,)) * (m - k) + bytes((j << 1 | 1,)) * k, (-1) ** k,
                 (2 * j if signed else j) ** m * math.factorial(m - k) * math.factorial(k))
                for k in range(m + 1 if signed else 1)] for m in range(n // j + 1)] if j else []
              for j in range(n + 1)]
    order = group >> (want is not None)
    # the running sums grow from a first one dropped at the end: summing a
    # list of the sizes afterwards left 0.13 MB more resident at signed n = 16
    cycles, bounds, cumulative = bytearray(), bytearray(4), [0]

    def walk(rest, top, run, total, div):
        for j in range(min(rest, top), 0, -1):
            for m in range(rest // j, 0, -1):
                left = rest - j * m
                for chunk, sign, split in blocks[j][m]:
                    if left:
                        walk(left, j - 1, run + chunk, total * sign, div * split)
                    elif want in (None, total * sign):
                        cycles.extend(run + chunk)
                        bounds.extend(len(cycles).to_bytes(4, sys.byteorder))
                        cumulative.append(cumulative[-1] + group // (div * split))

    walk(n, n, b"", 1, 1)
    del walk  # it holds itself and the table through its closure: free both now, not at the next gc
    del cumulative[0]
    assert cumulative[-1] == order, f"class sizes do not sum to {order}"
    return _Table(order, TWO64 // order * order, cumulative, bytes(cycles), memoryview(bounds).cast("I"))


def _label(table: _Table, index: int, n: int, signed: bool):
    """The label of class `index`, a SignedCycleType of shared (length,
    sign) pairs or a Partition, its cycles already in label order.  The
    tuple is built at its exact size: tuple() of an iterator allocates a
    guess and resizes it, which strands tuples on CPython's free lists."""
    cycles = table.cycles[table.bounds[index]:table.bounds[index + 1]]
    if signed:
        return SignedCycleType(n, (*map(_CYCLES.__getitem__, cycles),))
    return Partition(n, (*cycles.translate(_LENGTHS),))


def _elements(table: _Table):
    """Each class as (lengths, signs, total), the shape `_sample_cycles`
    returns, in table order, read straight from the table's bytes: its
    lengths (a bytes) and signs (a list) in label order, and its total
    sign."""
    cycles, bounds = table.cycles, table.bounds
    for start, stop in zip(bounds, islice(bounds, 1, None)):
        element = cycles[start:stop]
        signs = [*map(_SIGNS.__getitem__, element)]
        yield element.translate(_LENGTHS), signs, -1 if signs.count(-1) & 1 else 1


def _table(n: int, signed: bool, want: int | None = None) -> _Table | None:
    """The class table the samplers read at n, or None above the table
    caps, where they break sticks."""
    if n > (SIGNED_TABLE_LIMIT if signed else PARTITION_TABLE_LIMIT):
        return None
    return _class_table(n, signed, want)


def _pick(state: int, table: _Table) -> tuple[int, int]:
    """One table draw from the stream whose state is `state`: the index of
    the class it picks and the state after it.  Draw u is rejected at or
    above the table's limit, else r = u mod order picks the first class
    whose cumulative size exceeds r."""
    order, limit, cumulative = table.order, table.limit, table.cumulative
    while True:
        state = (state + GOLDEN) & M64
        u = mix64(state)
        if u < limit:
            return bisect_right(cumulative, u % order), state


def _picks(bases: list[int], j: int, table: _Table) -> list[int]:
    """The class `_pick` picks at draw j of each stream whose start state is
    in `bases` (draw j is mix64 of the base plus j*GOLDEN), from one mix64
    per LANES streams.  A draw at or above the table's limit is read again
    by `_pick` from that draw's state, and its base moves to the state
    `_pick` ends on, less j steps: draw j + 1 of it is the draw after."""
    order, limit, cumulative = table.order, table.limit, table.cumulative
    draws = []
    for i in range(0, len(bases), LANES):
        lanes = bases[i:i + LANES]
        draws += _kernel(len(lanes))[1](lanes, j)
    picks = list(map(bisect_right, repeat(cumulative), map(mod, draws, repeat(order))))
    if max(draws, default=0) >= limit:
        step = j * GOLDEN
        for t, u in enumerate(draws):
            if u >= limit:
                picks[t], state = _pick((bases[t] + step) & M64, table)
                bases[t] = (state - step) & M64
    return picks


def _sample_cycles(draws, n: int, signed: bool, want_sign: int | None = None) -> tuple[list[int], list[int], int]:
    """An element read from the iterator `draws`: its stick-breaking cycle
    lengths in emission order, one fair sign per cycle when `signed` (else
    no signs), and the total sign.  It reads no draw past the element's
    last, so the caller's next draw is the one after it.

    With `want_sign`, the last-emitted cycle's sign is flipped when the
    total comes out wrong: the sector rule of sample_signed_conditioned.

    Signs come 64 to a word: the draw after the length of cycle i, for i a
    multiple of 64, is a word, and cycle i's sign is its bit 63 - i mod 64
    (1 for -).  A length draw u is kept if u < (2^64 // rem) * rem, which
    holds whenever u <= 2^64 - rem, so the common case needs no division.
    """
    lengths, signs, rem, bit = [], [], n, 0
    for u in draws:
        if u <= TWO64 - rem or u < TWO64 // rem * rem:
            length = 1 + u % rem
            lengths.append(length)
            if signed:
                if not bit:
                    word, bit = next(draws), 64
                bit -= 1
                signs.append(-1 if word >> bit & 1 else 1)
            rem -= length
            if not rem:
                break
    total = -1 if signs.count(-1) & 1 else 1
    if want_sign is not None and total != want_sign:
        signs[-1] = -signs[-1]
        total = want_sign
    return lengths, signs, total


def _sample(rng: RngState, n: int, signed: bool, want_sign: int | None = None):
    """The label of one element drawn from rng's stream: a table draw at
    small n, stick-breaking above.  It checks n, then want_sign (None, or a
    D sector's int 1 or -1), then rng, before any draw.  rng.state ends
    after the draws it read, which `read` counts as `_sample_cycles` takes
    them."""
    _check_range("n", n)
    if want_sign is not None:
        _check_sign("want_sign", want_sign)
    if not isinstance(rng, RngState):
        raise ValidationError(f"rng must be an RngState, got {_echo(rng)}")
    table = _table(n, signed, want_sign)
    if table is not None:
        index, rng.state = _pick(rng.state, table)
        return _label(table, index, n, signed)
    draws = compress(_draws(rng.state, _lanes(n, signed)), read := count(1))
    lengths, signs, _ = _sample_cycles(draws, n, signed, want_sign)
    rng.state = (rng.state + (next(read) - 1) * GOLDEN) & M64
    if signed:
        return _signed_label(n, zip(lengths, signs))
    return Partition(n=n, parts=tuple(sorted(lengths, reverse=True)))


def sample_partition(n: int, rng: RngState) -> Partition:
    """Cycle type of a uniform random element of S_n."""
    return _sample(rng, n, signed=False)


def sample_signed(n: int, rng: RngState) -> SignedCycleType:
    """Class label of a uniform random element of C2 wr S_n."""
    return _sample(rng, n, signed=True)


def sample_signed_conditioned(n: int, want_sign: int, rng: RngState) -> SignedCycleType:
    """Class label of a uniform element conditioned on total sign.

    Above the table caps, the sign of the last-emitted cycle is flipped
    when the total comes out wrong; given the shape, that map is a
    bijection between the two sign sectors, so conditioning is exact at
    O(1) extra cost.  Below them the draw reads the sector's own table.
    """
    return _sample(rng, n, signed=True, want_sign=want_sign)
