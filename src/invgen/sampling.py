"""Seeded samplers for cycle-type class labels of uniform random elements.

The PRNG is SplitMix64: 64-bit counter state advanced by the golden-gamma
constant, outputs put through the murmur-style mix64 finalizer.  Stream
`t` of master seed `m` starts at state mix64(m + (t+1)*GOLDEN), so every
Monte Carlo trial owns an independent stream and results cannot depend on
scheduling.  Pure Python on purpose: constructing a stream costs about a
microsecond, which is what the trial budget allows.

Cycle lengths come from stick-breaking: draw L uniform on {1..remaining},
emit, repeat.  That realizes exactly the cycle-type law of a uniform
permutation of S_n; signs are independent fair coins per cycle.
"""

from __future__ import annotations

from .cycletypes import Partition, SignedCycleType, _signed_label
from .errors import ValidationError, check_positive_int

M64 = (1 << 64) - 1
TWO64 = 1 << 64
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 output finalizer; bijective on 64-bit words."""
    x &= M64
    x = ((x ^ (x >> 30)) * _MIX1) & M64
    x = ((x ^ (x >> 27)) * _MIX2) & M64
    return x ^ (x >> 31)


class RngState:
    """One SplitMix64 stream, identified by (master seed, stream index).

    Both are integers (not bools); one outside 0..2^64-1 is reduced mod
    2^64, so seed -1 is seed 2^64 - 1.  Built once per Monte Carlo trial,
    so only a bool gets a type check; other non-integers fail the arithmetic.
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


def _sample_cycles(
    rng: RngState, n: int, signed: bool, want_sign: int | None = None
) -> tuple[list[int], list[int], int]:
    """Stick-breaking cycle lengths in emission order, one fair sign per
    cycle when `signed` (else no signs), and the total sign.

    With `want_sign`, the last-emitted cycle's sign is flipped when the
    total comes out wrong: the sector rule of sample_signed_conditioned.

    Hot path: the mix is inlined and the stream state lives in a local
    until the end.  A cycle's sign is the top bit of the draw right after
    its accepted length draw.
    """
    s = rng.state
    lengths = []
    signs = []
    rem = n
    while rem:
        lim = (TWO64 // rem) * rem
        length = 0
        while True:
            s = (s + GOLDEN) & M64
            z = ((s ^ (s >> 30)) * _MIX1) & M64
            z = ((z ^ (z >> 27)) * _MIX2) & M64
            u = z ^ (z >> 31)
            if length:
                signs.append(-1 if u >> 63 else 1)
                break
            if u < lim:
                length = 1 + u % rem
                if not signed:
                    break
        lengths.append(length)
        rem -= length
    rng.state = s
    total = -1 if signs.count(-1) & 1 else 1
    if want_sign is not None and total != want_sign:
        signs[-1] = -signs[-1]
        total = want_sign
    return lengths, signs, total


def _check_rng(rng) -> None:
    if not isinstance(rng, RngState):
        raise ValidationError(f"rng must be an RngState, got {rng!r}")


def sample_partition(n: int, rng: RngState) -> Partition:
    """Cycle type of a uniform random element of S_n."""
    _check_range("n", n)
    _check_rng(rng)
    lengths, _, _ = _sample_cycles(rng, n, signed=False)
    lengths.sort(reverse=True)
    return Partition(n=n, parts=tuple(lengths))


def sample_signed(n: int, rng: RngState) -> SignedCycleType:
    """Class label of a uniform random element of C2 wr S_n."""
    _check_range("n", n)
    _check_rng(rng)
    lengths, signs, _ = _sample_cycles(rng, n, signed=True)
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
    lengths, signs, _ = _sample_cycles(rng, n, signed=True, want_sign=want_sign)
    return _signed_label(n, zip(lengths, signs))
