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


_SO_TAGS = (ClassicalTag.SO_ODD_DIM, ClassicalTag.SO_EVEN_DIM_PLUS, ClassicalTag.SO_EVEN_DIM_MINUS)
# The sharp variant (factor 1 instead of 7/8, no same-sign correction) is
# only available where the underlying inequality holds without the N event.
_SHARP_A_TAGS = (
    ClassicalTag.SL,
    ClassicalTag.SU,
    ClassicalTag.SP_ODD_Q,
    ClassicalTag.SO_EVEN_DIM_PLUS,
    ClassicalTag.SO_EVEN_DIM_MINUS,
)

_WEYL_OF = {
    ClassicalTag.SL: WeylFamily.A,
    ClassicalTag.SU: WeylFamily.A,
    ClassicalTag.SP_ODD_Q: WeylFamily.C,
    ClassicalTag.SP_EVEN_Q: WeylFamily.C,
    ClassicalTag.SO_ODD_DIM: WeylFamily.B,
    ClassicalTag.SO_EVEN_DIM_PLUS: WeylFamily.D_PLUS,
    ClassicalTag.SO_EVEN_DIM_MINUS: WeylFamily.D_MINUS,
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


def _validate(f: ClassicalFamily) -> None:
    if not isinstance(f.tag, ClassicalTag):
        raise ValidationError(f"unknown classical family {f.tag!r}")
    _check_q(f.q)
    if f.tag is ClassicalTag.SP_ODD_Q and f.q % 2 == 0:
        raise ValidationError(f"{f.tag.value} needs odd q, got {f.q}")
    if f.tag is ClassicalTag.SP_EVEN_Q and f.q % 2 == 1:
        raise ValidationError(f"{f.tag.value} needs even q, got {f.q}")


def weyl_family_of(f) -> WeylFamily:
    """The Weyl family whose class statistics govern a classical family."""
    tag = f.tag if isinstance(f, ClassicalFamily) else f
    try:
        return _WEYL_OF[tag]
    except KeyError:
        raise ValidationError(f"unknown classical family {tag!r}") from None


def _as_fraction(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (Fraction, int, float, str)):
        raise ValidationError(f"expected a number, got {x!r}")
    try:
        return Fraction(x)  # a float's exact binary value; deterministic
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValidationError(f"cannot parse {x!r} as a fraction") from None


# tag -> (first-order term a, 1/q^2 rescue term c): s = 1 - a/q + c/q^2.
# The SO rows hold for even q; at odd q SO has an explicit lower bound,
# which is never truncated.
_PROPORTION = {
    ClassicalTag.SL: (1, 0),
    ClassicalTag.SU: (1, 0),
    ClassicalTag.SP_ODD_Q: (3, 5),
    ClassicalTag.SP_EVEN_Q: (2, 2),
    ClassicalTag.SO_ODD_DIM: (2, 2),
    ClassicalTag.SO_EVEN_DIM_PLUS: (2, 2),
    ClassicalTag.SO_EVEN_DIM_MINUS: (2, 2),
}


def _proportion(tag: ClassicalTag, q: int, conservative: bool, so_odd_row: bool) -> Fraction:
    if tag in _SO_TAGS and so_odd_row:
        return 1 - Fraction(2, q - 1) - Fraction(1, (q - 1) ** 2)
    first, rescue = _PROPORTION[tag]
    return 1 - Fraction(first, q) + (0 if conservative else Fraction(rescue, q * q))


def separable_proportion(f: ClassicalFamily, conservative: bool = False) -> Fraction:
    """Limiting lower bound on the proportion of separable elements.

    With conservative=True the positive 1/q^2 rescue terms are dropped
    (sign-safe truncation).  The SO odd-q row is already an explicit lower
    bound and is never truncated.
    """
    _validate(f)
    s = _proportion(f.tag, f.q, conservative, so_odd_row=f.q % 2 == 1)
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
    if not isinstance(tag, ClassicalTag):
        raise ValidationError(f"unknown classical family {tag!r}")
    _check_q(q)
    return max(_proportion(tag, q, conservative=True, so_odd_row=True), Fraction(0))


def i4_lower_bound(
    f: ClassicalFamily, b_J4, sharp_a: bool = False, conservative: bool = False
) -> BoundReport:
    """Lower bound on the probability that four random elements invariably
    generate: factor * b - (1 - s^4), factor 7/8 by default.  Not clamped;
    a non-positive value means no conclusion at this q."""
    _validate(f)
    b = _as_fraction(b_J4)
    if not 0 <= b <= 1:
        raise ValidationError(f"b_J4 must be in [0,1], got {b}")
    if sharp_a and f.tag not in _SHARP_A_TAGS:
        raise ValidationError(
            f"the sharp variant is unavailable for {f.tag.value}; "
            "it needs the same-sign correction"
        )
    s = separable_proportion(f, conservative=conservative)
    factor = Fraction(1) if sharp_a else Fraction(7, 8)
    i4 = factor * b - (1 - s**4)
    return BoundReport(
        family=f, s=s, b_J4=b, l=4, i4_lower=i4, weyl_family=weyl_family_of(f)
    )


def i3_upper_bound(f: ClassicalFamily, j3) -> Fraction:
    """Upper bound on generation by three elements: j3 + (1 - s^3)."""
    _validate(f)
    j = _as_fraction(j3)
    if not 0 <= j <= 1:
        raise ValidationError(f"j3 must be in [0,1], got {j}")
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
        raise ValidationError(f"b_J4 must be in (0,1], got {b}")

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
                f"no threshold below 2^60 for {tag.value} with b_J4={b}; the bound stays non-positive"
            )
    lo = 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return lo
