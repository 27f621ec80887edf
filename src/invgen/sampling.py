"""Seeded samplers for cycle-type class labels of uniform random elements.

The PRNG is SplitMix64: 64-bit counter state advanced by the golden-gamma
constant, outputs put through the murmur-style mix64 finalizer.  Stream
`t` of master seed `m` starts at state mix64(m + (t+1)*GOLDEN), so every
Monte Carlo trial owns an independent stream and results cannot depend on
scheduling.

Pure Python on purpose.  A sampler reads its stream k draws at a time
(`_batch`, one mix64 over k lanes of an int): 32 draws cost about nine
scalar mix64 calls.  They are the scalar draws, so no output depends on k.

Cycle lengths come from stick-breaking: draw L uniform on {1..remaining},
emit, repeat.  That realizes exactly the cycle-type law of a uniform
permutation of S_n; signs are independent fair coins per cycle.
"""

from __future__ import annotations

import math
import struct
from itertools import chain, count

from .cycletypes import Partition, SignedCycleType, _signed_label
from .errors import ValidationError, check_positive_int

M64 = (1 << 64) - 1
TWO64 = 1 << 64
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
LANES = 32  # the most draws one batch computes


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
                f"seed and stream must be integers, got {seed!r} and {stream!r}"
            ) from None

    def next64(self) -> int:
        self.state = s = (self.state + GOLDEN) & M64
        return mix64(s)

    def randbelow(self, m: int) -> int:
        """Uniform on {0..m-1} for 1 <= m <= 2^64; rejection keeps it
        exactly uniform."""
        _check_range("m", m)
        lim = (TWO64 // m) * m
        while True:
            u = self.next64()
            if u < lim:
                return u % m


def _check_range(name: str, value) -> None:
    """A positive int at most 2^64, the most values one draw can cover:
    above it the rejection limit (2^64 // value) * value is 0 and no draw
    is ever accepted."""
    check_positive_int(name, value)
    if value > TWO64:
        raise ValidationError(f"{name} must be at most 2^64, got {value!r}")


def _lanes(n: int, signed: bool, elements: int = 1) -> int:
    """Draws per batch: the expected draws of `elements` elements, (1 + signed)
    H_n each with H_n <= 1 + ln n, capped at LANES.  At n = 2, 16 lanes made
    a trial 34-42% slower than the scalar walk."""
    return min(LANES, math.ceil(elements * (1 + signed) * (1 + math.log(n))))


def _kernel(k: int):
    """The k-lane `_batch`: draws 1..k of the stream whose state is s, by one
    mix64 over k lanes of an int (SWAR).  A lane is the low half of a 128-bit
    slot, so its 64x64-bit products fit; each step masks back to 64 bits."""
    ones = sum(1 << 128 * j for j in range(k))
    steps = sum((j + 1) * GOLDEN << 128 * j for j in range(k))
    mask = M64 * ones
    unpack = struct.Struct("<" + "Q8x" * k).unpack  # the low halves, on any host

    def _batch(s: int) -> tuple[int, ...]:
        x = ((s & M64) * ones + steps) & mask
        x = ((x ^ x >> 30) & mask) * _MIX1 & mask
        x = ((x ^ x >> 27) & mask) * _MIX2 & mask
        return unpack((x ^ x >> 31).to_bytes(16 * k, "little"))

    return _batch


_BATCH = [None] + [_kernel(k) for k in range(1, LANES + 1)]


def _draws(s: int, k: int):
    """The stream whose state is `s`, computed k draws at a time."""
    return chain.from_iterable(map(_BATCH[k], count(s, k * GOLDEN)))


def _sample_cycles(
    draws, n: int, signed: bool, want_sign: int | None = None
) -> tuple[tuple[list[int], list[int], int], int]:
    """An element (stick-breaking cycle lengths in emission order, one fair
    sign per cycle when `signed` (else no signs), the total sign) and the
    number of draws it read from the iterator `draws`.

    With `want_sign`, the last-emitted cycle's sign is flipped when the
    total comes out wrong: the sector rule of sample_signed_conditioned.

    A cycle's sign is the top bit of the draw after its length draw.  A
    length draw u is kept if u < (2^64 // rem) * rem, which holds whenever
    u <= 2^64 - rem, so the common case needs no division.
    """
    lengths = []
    signs = []
    rem = n
    rejected = 0
    for u in draws:
        if u <= TWO64 - rem or u < TWO64 // rem * rem:
            length = 1 + u % rem
            lengths.append(length)
            if signed:
                signs.append(-1 if next(draws) >> 63 else 1)
            rem -= length
            if not rem:
                break
        else:
            rejected += 1
    total = -1 if signs.count(-1) & 1 else 1
    if want_sign is not None and total != want_sign:
        signs[-1] = -signs[-1]
        total = want_sign
    return (lengths, signs, total), (len(lengths) << signed) + rejected


def _sample(rng: RngState, n: int, signed: bool, want_sign: int | None = None):
    """_sample_cycles on rng's stream; rng.state ends after the draws it read."""
    element, used = _sample_cycles(_draws(rng.state, _lanes(n, signed)), n, signed, want_sign)
    rng.state = (rng.state + used * GOLDEN) & M64
    return element


def _check_rng(rng) -> None:
    if not isinstance(rng, RngState):
        raise ValidationError(f"rng must be an RngState, got {rng!r}")


def sample_partition(n: int, rng: RngState) -> Partition:
    """Cycle type of a uniform random element of S_n."""
    _check_range("n", n)
    _check_rng(rng)
    lengths, _, _ = _sample(rng, n, signed=False)
    lengths.sort(reverse=True)
    return Partition(n=n, parts=tuple(lengths))


def sample_signed(n: int, rng: RngState) -> SignedCycleType:
    """Class label of a uniform random element of C2 wr S_n."""
    _check_range("n", n)
    _check_rng(rng)
    lengths, signs, _ = _sample(rng, n, signed=True)
    return _signed_label(n, zip(lengths, signs))


def sample_signed_conditioned(n: int, want_sign: int, rng: RngState) -> SignedCycleType:
    """Class label of a uniform element conditioned on total sign.

    The sign of the last-emitted cycle is flipped when the total comes out
    wrong; given the shape, that map is a bijection between the two sign
    sectors, so conditioning is exact at O(1) extra cost.
    """
    _check_range("n", n)
    if type(want_sign) is not int or want_sign not in (1, -1):  # rejects True and -1.0 too
        raise ValidationError(f"want_sign must be the int 1 or -1, got {want_sign!r}")
    _check_rng(rng)
    lengths, signs, _ = _sample(rng, n, signed=True, want_sign=want_sign)
    return _signed_label(n, zip(lengths, signs))
