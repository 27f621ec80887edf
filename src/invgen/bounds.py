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

import sys
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .cycletypes import WeylFamily
from .errors import NoSolutionError, ValidationError, _echo


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
    the N event.  `token` is the family's name on the command line; Sp's
    two rows share one, told apart by the parity of q."""

    token: str
    weyl: WeylFamily
    parity: int | None  # the q % 2 the tag requires, if any
    first: int
    rescue: int
    sharp: bool


_ROWS = {
    ClassicalTag.SL: _Row("SL", WeylFamily.A, None, 1, 0, True),
    ClassicalTag.SU: _Row("SU", WeylFamily.A, None, 1, 0, True),
    ClassicalTag.SP_ODD_Q: _Row("Sp", WeylFamily.C, 1, 3, 5, True),
    ClassicalTag.SP_EVEN_Q: _Row("Sp", WeylFamily.C, 0, 2, 2, False),
    ClassicalTag.SO_ODD_DIM: _Row("SO", WeylFamily.B, None, 2, 2, False),
    ClassicalTag.SO_EVEN_DIM_PLUS: _Row("SO+", WeylFamily.D_PLUS, None, 2, 2, True),
    ClassicalTag.SO_EVEN_DIM_MINUS: _Row("SO-", WeylFamily.D_MINUS, None, 2, 2, True),
}
_TOKENS = tuple(dict.fromkeys(row.token for row in _ROWS.values()))  # the CLI's family tokens, in row order


def _tag_of(token: str, q: int | None) -> ClassicalTag:
    """The tag whose row has `token` and admits q's parity; with no q, the
    odd-q one, the row the threshold solver reads (for Sp, the table's
    single, weaker row)."""
    for tag, row in _ROWS.items():
        if row.token == token and row.parity in (None, 1 if q is None else q % 2):
            return tag
    raise ValidationError(f"unknown classical family {_echo(token)}; expected {', '.join(_TOKENS)}")


@dataclass(frozen=True)
class ClassicalFamily:
    tag: ClassicalTag
    q: int


_FRACTIONS = ("s", "b_J4", "i4_lower")  # the report's Fraction fields, in the order reports show them


@dataclass(frozen=True)
class BoundReport:
    family: ClassicalFamily
    s: Fraction
    b_J4: Fraction
    l: int
    i4_lower: Fraction
    weyl_family: WeylFamily

    def to_dict(self) -> dict:
        """The report's fields, keyed in lower case, each Fraction as a
        float and as its exact text under key + "_exact"; ValidationError
        if str() could not print one."""
        record = {"family": self.family.tag.value, "q": self.family.q, "weyl_family": self.weyl_family.value,
                  "l": self.l}
        for name in _FRACTIONS:
            value = getattr(self, name)
            record[name.lower()], record[name.lower() + "_exact"] = float(value), _exact(value)
        return record


def _check_q(q) -> None:
    if isinstance(q, bool) or not isinstance(q, int) or q < 2:
        raise ValidationError(f"q must be an integer >= 2, got {_echo(q)}")


def _row(tag) -> _Row:
    if not isinstance(tag, ClassicalTag):
        raise ValidationError(f"unknown classical family {_echo(tag)}")
    return _ROWS[tag]


def _validate(f: ClassicalFamily) -> _Row:
    if not isinstance(f, ClassicalFamily):
        raise ValidationError(f"expected a ClassicalFamily, got {_echo(f)}")
    row = _row(f.tag)
    _check_q(f.q)
    if row.parity is not None and f.q % 2 != row.parity:
        raise ValidationError(f"{f.tag.value} needs {('even', 'odd')[row.parity]} q, got {_echo(f.q, str)}")
    return row


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit; 0, no limit, before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _exact(value: Fraction) -> str:
    """str(value), which refuses ints past the interpreter's digit limit."""
    try:
        return str(value)
    except ValueError:
        raise ValidationError(f"a number in the bounds report has more than {_digit_limit()} digits, "
                              "the interpreter's limit for printing one") from None


def _check_exponent(text: str, name: str) -> None:
    """Refuse a decimal exponent past the interpreter's int digit limit
    before Fraction spends minutes on its power of ten; the value could not
    be printed anyway.  ValueError if the text after an e is not an
    integer, which Fraction refuses too."""
    _, marker, exponent = text.strip().lower().partition("e")
    limit = _digit_limit()
    if marker and limit and abs(int(exponent)) > limit:
        raise ValidationError(f"{name} exponent must be within ±{limit}, the interpreter's int digit limit, "
                              f"got {_echo(text)}")


def _as_fraction(x, name: str = "b_J4") -> Fraction:
    """x as an exact Fraction (a float's exact binary value), once its
    exponent and its exact text are within the interpreter's digit limit."""
    if isinstance(x, bool) or not isinstance(x, (Fraction, int, float, str)):
        raise ValidationError(f"expected a number, got {_echo(x)}")
    try:
        if isinstance(x, str):
            _check_exponent(x, name)
        value = Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValidationError(f"cannot parse {_echo(x)} as a fraction") from None
    _exact(value)
    return value


def _probability(x, name: str, positive: bool = False) -> Fraction:
    """x read by `_as_fraction` as a probability: in [0, 1], or in (0, 1]
    when positive.  The one range check of every probability argument, the
    CLI's --b-j4 included; its error gives the argument's name and echoes
    x as given."""
    value = _as_fraction(x, name)
    if not (0 < value if positive else 0 <= value) or value > 1:
        raise ValidationError(f"{name} must be in {'(' if positive else '['}0,1], got {_echo(x)}")
    return value


def _proportion(row: _Row, q: int, solver: bool) -> Fraction:
    """The row's separable proportion at q, clamped at 0, the only clamp.
    The orthogonal rows take their shared explicit lower bound at odd q,
    and the solver's rule takes it at every q.  Every other case is
    1 - first/q + rescue/q^2, without the rescue term under the solver's
    rule.  SO, SO+ and SO- at q = 3 are negative and give 0."""
    if row.weyl in (WeylFamily.B, WeylFamily.D_PLUS, WeylFamily.D_MINUS) and (solver or q % 2):
        s = 1 - Fraction(2, q - 1) - Fraction(1, (q - 1) ** 2)
    else:
        s = 1 - Fraction(row.first, q) + (0 if solver else Fraction(row.rescue, q * q))
    return max(s, Fraction(0))


def separable_proportion(f: ClassicalFamily) -> Fraction:
    """Limiting lower bound on the proportion of separable elements,
    clamped at 0 (a negative value, as for SO at q = 3, is returned as 0).
    This is the proportion reports print; `solver_proportion` gives the
    threshold solver's."""
    return _proportion(_validate(f), f.q, False)


def solver_proportion(tag: ClassicalTag, q: int) -> Fraction:
    """Sign-safe proportion used when solving for the threshold, clamped
    at 0 like every proportion: the 1/q^2 rescue terms are dropped.  The
    solver scans every integer q, so SO tags use the odd-q bound (the
    weaker of the two parities, matching the single table row they share)
    at every q, and Sp tags skip their parity check."""
    row = _row(tag)
    _check_q(q)
    return _proportion(row, q, True)


def _i4(b: Fraction, s: Fraction, sharp_a: bool = False) -> Fraction:
    """The i4 rule, factor * b - (1 - s^4): factor 1 under sharp_a, else
    7/8.  Read by `i4_lower_bound` and by `solve_K4`."""
    return (1 if sharp_a else Fraction(7, 8)) * b - (1 - s**4)


def i4_lower_bound(f: ClassicalFamily, b_J4, sharp_a: bool = False) -> BoundReport:
    """Lower bound on the probability that four random elements invariably
    generate: factor * b - (1 - s^4), factor 7/8 by default.  Not clamped;
    a non-positive value means no conclusion at this q."""
    row = _validate(f)
    if not isinstance(sharp_a, bool):
        raise ValidationError(f"sharp_a must be True or False, got {_echo(sharp_a)}")
    b = _probability(b_J4, "b_J4")
    if sharp_a and not row.sharp:
        raise ValidationError(
            f"the sharp variant is unavailable for {f.tag.value}; "
            "it needs the same-sign correction"
        )
    s = _proportion(row, f.q, False)
    return BoundReport(family=f, s=s, b_J4=b, l=4, i4_lower=_i4(b, s, sharp_a), weyl_family=row.weyl)


def i3_upper_bound(f: ClassicalFamily, j3) -> Fraction:
    """Upper bound on generation by three elements: j3 + (1 - s^3)."""
    row = _validate(f)
    return _probability(j3, "j3") + (1 - _proportion(row, f.q, False) ** 3)


def solve_K4(tag: ClassicalTag, b_J4=Fraction(1, 3)) -> int:
    """Largest integer q >= 2 with i4 <= 0 under the solver's
    proportion; positivity is then guaranteed for every q above it.

    The formulas are treated as functions over all integers q (the
    threshold an even q can land on matters even for an odd-q family).
    Exact arithmetic throughout: doubling finds a positive q, then
    `bisect_left` the first one, positivity being monotone in q.
    """
    b = _probability(b_J4, "b_J4", positive=True)

    def positive(q: int) -> bool:
        return _i4(b, solver_proportion(tag, q)) > 0

    hi = 4  # positive(2) is never true: every row's s at q = 2 is at most 1/2, so 1 - s^4 > 7/8
    while not positive(hi):
        hi *= 2
        if hi > 1 << 60:
            raise NoSolutionError(
                f"no threshold below 2^60 for {tag.value} with b_J4={_echo(b_J4)}; the bound stays non-positive"
            )
    return bisect_left(range(hi), True, lo=3, key=positive) - 1  # the first positive q in 3..hi, less one
