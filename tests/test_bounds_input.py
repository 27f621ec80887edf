"""Bad input to the bound layer raises ValidationError instead of an
arithmetic error or a silent answer."""

import pytest

from invgen import (
    ValidationError,
    i3_upper_bound,
    i4_lower_bound,
    separable_proportion,
    solve_K4,
    solver_proportion,
)
from invgen.bounds import ClassicalFamily, ClassicalTag as T


@pytest.mark.parametrize(
    "tag,q",
    [
        (T.SO_ODD_DIM, 1),  # was ZeroDivisionError
        (T.SL, 0),  # was ZeroDivisionError
        (T.SL, 2.5),  # was TypeError
        (T.SL, True),  # was 0, as if q = 1
        (T.SL, False),
        (T.SL, -3),
        (T.SL, "13"),
    ],
)
def test_solver_proportion_rejects_q(tag, q):
    with pytest.raises(ValidationError, match="q must be an integer >= 2"):
        solver_proportion(tag, q)


def test_solver_proportion_rejects_tag():
    with pytest.raises(ValidationError, match="unknown classical family"):
        solver_proportion("SL", 13)


@pytest.mark.parametrize("b", [True, False])
def test_solve_k4_rejects_bool_b(b):
    # True was read as b = 1 and gave a threshold of 2
    with pytest.raises(ValidationError, match="expected a number"):
        solve_K4(T.SL, b)


@pytest.mark.parametrize("b", [float("nan"), float("inf")])
def test_solve_k4_rejects_non_finite_b(b):
    with pytest.raises(ValidationError, match="cannot parse"):
        solve_K4(T.SL, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: separable_proportion(f),
        lambda f: i4_lower_bound(f, 0.3),
        lambda f: i3_upper_bound(f, 0.3),
    ],
    ids=["separable_proportion", "i4_lower_bound", "i3_upper_bound"],
)
@pytest.mark.parametrize("f", [None, "SL", T.SL, (T.SL, 13)])
def test_bounds_reject_non_family(call, f):
    # None used to raise AttributeError: 'NoneType' object has no attribute 'tag'
    with pytest.raises(ValidationError, match="expected a ClassicalFamily"):
        call(f)


SL_13 = ClassicalFamily(T.SL, 13)


@pytest.mark.parametrize(
    "call",
    [
        lambda flag: i4_lower_bound(SL_13, 0.3, sharp_a=flag),
        lambda flag: i4_lower_bound(SL_13, 0.3, conservative=flag),
        lambda flag: separable_proportion(SL_13, conservative=flag),
    ],
    ids=["i4_lower_bound-sharp_a", "i4_lower_bound-conservative", "separable_proportion-conservative"],
)
@pytest.mark.parametrize("flag", ["false", "True", 0, 1, None, 1.0])
def test_bounds_reject_non_bool_flag(call, flag):
    # sharp_a="false" used to apply the sharp factor 1, as sharp_a=True does
    with pytest.raises(ValidationError, match="must be True or False"):
        call(flag)


@pytest.mark.parametrize(
    "call",
    [
        lambda b: i4_lower_bound(SL_13, b),
        lambda b: i3_upper_bound(SL_13, b),
        lambda b: solve_K4(T.SL, b),
    ],
    ids=["i4_lower_bound", "i3_upper_bound", "solve_K4"],
)
def test_out_of_range_echoes_the_argument(call):
    # the message used to print the expanded Fraction, 401 digits here
    with pytest.raises(ValidationError, match="must be in") as info:
        call("1e400")
    assert "'1e400'" in str(info.value) and len(str(info.value)) < 40
