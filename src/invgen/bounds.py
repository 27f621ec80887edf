"""Classical-group layer: separable-element proportions, the chain from a
Weyl-level bound b <= Prob(J^4) to a lower bound on invariable generation
by four elements, and the field-size threshold solver.

The missing-separable mass is modeled as Prob(not S) = 1 - s^l for l
independent elements, each separable with probability at least s.  With
the 7/8 factor this reproduces the conjectured threshold table exactly
(positivity at b = 1/3 is the algebraic condition s^4 > 17/24); a union
bound l*(1-s) does not, so the independence model is the one used.

All threshold arithmetic is exact Fractions; floats appear only when
callers format reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .cycletypes import WeylFamily
from .errors import NoSolutionError, ValidationError


class ClassicalTag(Enum):
    SL = "SL"
    SU = "SU"
    SP_ODD_Q = "Sp_odd_q"
    SP_EVEN_Q = "Sp_even_q"
    SO_ODD_DIM = "SO_odd_dim"
    SO_EVEN_DIM_PLUS = "SO_even_dim_plus"
    SO_EVEN_DIM_MINUS = "SO_even_dim_minus"


class _Row(NamedTuple):
    """What a classical tag means to the bound chain.  The separable
    proportion is s = 1 - first/q + rescue/q^2; for the orthogonal groups
    (Weyl family B, D+ or D-) that row holds for even q, and at odd q they
    share an explicit lower bound, which is never truncated.  `sharp` says
    whether the sharp variant (factor 1 instead of 7/8, no same-sign
    correction) is available: the underlying inequality must hold without
    the N event."""

    weyl: WeylFamily
    parity: int | None  # the q % 2 the tag requires, if any
    first: int
    rescue: int
    sharp: bool


_ROWS = {
    ClassicalTag.SL: _Row(WeylFamily.A, None, 1, 0, True),
    ClassicalTag.SU: _Row(WeylFamily.A, None, 1, 0, True),
    ClassicalTag.SP_ODD_Q: _Row(WeylFamily.C, 1, 3, 5, True),
    ClassicalTag.SP_EVEN_Q: _Row(WeylFamily.C, 0, 2, 2, False),
    ClassicalTag.SO_ODD_DIM: _Row(WeylFamily.B, None, 2, 2, False),
    ClassicalTag.SO_EVEN_DIM_PLUS: _Row(WeylFamily.D_PLUS, None, 2, 2, True),
    ClassicalTag.SO_EVEN_DIM_MINUS: _Row(WeylFamily.D_MINUS, None, 2, 2, True),
}


@dataclass(frozen=True)
class ClassicalFamily:
    tag: ClassicalTag
    q: int


@dataclass(frozen=True)
class BoundReport:
    family: ClassicalFamily
    s: Fraction
    b_J4: Fraction
    l: int
    i4_lower: Fraction
    weyl_family: WeylFamily

    def to_dict(self) -> dict:
        return {
            "family": self.family.tag.value,
            "q": self.family.q,
            "weyl_family": self.weyl_family.value,
            "s": float(self.s),
            "s_exact": str(self.s),
            "b_j4": float(self.b_J4),
            "b_j4_exact": str(self.b_J4),
            "l": self.l,
            "i4_lower": float(self.i4_lower),
            "i4_lower_exact": str(self.i4_lower),
        }


def _check_q(q) -> None:
    if isinstance(q, bool) or not isinstance(q, int) or q < 2:
        raise ValidationError(f"q must be an integer >= 2, got {q!r}")


def _row(tag) -> _Row:
    if not isinstance(tag, ClassicalTag):
        raise ValidationError(f"unknown classical family {tag!r}")
    return _ROWS[tag]


def _validate(f: ClassicalFamily, **flags) -> _Row:
    if not isinstance(f, ClassicalFamily):
        raise ValidationError(f"expected a ClassicalFamily, got {f!r}")
    row = _row(f.tag)
    _check_q(f.q)
    if row.parity is not None and f.q % 2 != row.parity:
        raise ValidationError(f"{f.tag.value} needs {('even', 'odd')[row.parity]} q, got {f.q}")
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise ValidationError(f"{name} must be True or False, got {value!r}")
    return row


def weyl_family_of(f) -> WeylFamily:
    """The Weyl family whose class statistics govern a classical family."""
    return _row(f.tag if isinstance(f, ClassicalFamily) else f).weyl


def _as_fraction(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (Fraction, int, float, str)):
        raise ValidationError(f"expected a number, got {x!r}")
    try:
        return Fraction(x)  # a float's exact binary value; deterministic
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValidationError(f"cannot parse {x!r} as a fraction") from None


def _proportion(row: _Row, q: int, conservative: bool, odd_q: bool) -> Fraction:
    if odd_q and row.weyl in (WeylFamily.B, WeylFamily.D_PLUS, WeylFamily.D_MINUS):
        return 1 - Fraction(2, q - 1) - Fraction(1, (q - 1) ** 2)
    return 1 - Fraction(row.first, q) + (0 if conservative else Fraction(row.rescue, q * q))


def separable_proportion(f: ClassicalFamily, conservative: bool = False) -> Fraction:
    """Limiting lower bound on the proportion of separable elements.

    With conservative=True the positive 1/q^2 rescue terms are dropped
    (sign-safe truncation).  The SO odd-q row is already an explicit lower
    bound and is never truncated.
    """
    s = _proportion(_validate(f, conservative=conservative), f.q, conservative, odd_q=f.q % 2 == 1)
    if s < 0:
        warnings.warn(
            f"separable proportion for {f.tag.value} at q={f.q} is negative; clamped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        s = Fraction(0)
    return s


def solver_proportion(tag: ClassicalTag, q: int) -> Fraction:
    """Conservative proportion used when solving for the threshold, clamped
    at 0.  The solver scans every integer q, so SO tags use the odd-q bound
    (the weaker of the two parities, matching the single table row they
    share) at every q, and Sp tags skip their parity check."""
    row = _row(tag)
    _check_q(q)
    return max(_proportion(row, q, conservative=True, odd_q=True), Fraction(0))


def i4_lower_bound(
    f: ClassicalFamily, b_J4, sharp_a: bool = False, conservative: bool = False
) -> BoundReport:
    """Lower bound on the probability that four random elements invariably
    generate: factor * b - (1 - s^4), factor 7/8 by default.  Not clamped;
    a non-positive value means no conclusion at this q."""
    row = _validate(f, sharp_a=sharp_a, conservative=conservative)
    b = _as_fraction(b_J4)
    if not 0 <= b <= 1:
        raise ValidationError(f"b_J4 must be in [0,1], got {b_J4!r}")
    if sharp_a and not row.sharp:
        raise ValidationError(
            f"the sharp variant is unavailable for {f.tag.value}; "
            "it needs the same-sign correction"
        )
    s = separable_proportion(f, conservative=conservative)
    factor = Fraction(1) if sharp_a else Fraction(7, 8)
    i4 = factor * b - (1 - s**4)
    return BoundReport(family=f, s=s, b_J4=b, l=4, i4_lower=i4, weyl_family=row.weyl)


def i3_upper_bound(f: ClassicalFamily, j3) -> Fraction:
    """Upper bound on generation by three elements: j3 + (1 - s^3)."""
    _validate(f)
    j = _as_fraction(j3)
    if not 0 <= j <= 1:
        raise ValidationError(f"j3 must be in [0,1], got {j3!r}")
    s = separable_proportion(f)
    return j + (1 - s**3)


def solve_K4(tag: ClassicalTag, b_J4=Fraction(1, 3)) -> int:
    """Largest integer q >= 2 with i4 <= 0 under the conservative
    proportion; positivity is then guaranteed for every q above it.

    The formulas are treated as functions over all integers q (the
    threshold an even q can land on matters even for an odd-q family).
    Exact arithmetic throughout; doubling then binary search on the
    monotone boundary.
    """
    b = _as_fraction(b_J4)
    if not 0 < b <= 1:
        raise ValidationError(f"b_J4 must be in (0,1], got {b_J4!r}")

    def positive(q: int) -> bool:
        s = solver_proportion(tag, q)
        return Fraction(7, 8) * b - (1 - s**4) > 0

    if positive(2):
        return 1  # already positive at the smallest field size
    hi = 4
    while not positive(hi):
        hi *= 2
        if hi > 1 << 60:
            raise NoSolutionError(
                f"no threshold below 2^60 for {tag.value} with b_J4={b_J4!r}; the bound stays non-positive"
            )
    lo = 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return lo
