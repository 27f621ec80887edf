"""Bad input to the bound layer raises ValidationError instead of an
arithmetic error or a silent answer."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from invgen import (
    NoSolutionError,
    ValidationError,
    i3_upper_bound,
    i4_lower_bound,
    separable_proportion,
    solve_K4,
    solver_proportion,
)
from invgen.bounds import ClassicalFamily, ClassicalTag as T
from invgen.cli import _parse_bj4

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python has no int digit limit")
SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    [lambda flag: i4_lower_bound(SL_13, 0.3, sharp_a=flag)],
    ids=["i4_lower_bound-sharp_a"],
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


# each reader of a probability: the call, and the rule its range error states
PROBABILITY_READERS = {
    "i4_lower_bound": (lambda b: i4_lower_bound(SL_13, b), "b_J4 must be in [0,1]"),
    "i3_upper_bound": (lambda b: i3_upper_bound(SL_13, b), "j3 must be in [0,1]"),
    "solve_K4": (lambda b: solve_K4(T.SL, b), "b_J4 must be in (0,1]"),
    "cli-b-j4": (lambda b: _parse_bj4(str(b)), "b-j4 must be in (0,1]"),  # --b-j4 and the config key
}


@pytest.mark.parametrize("reader", list(PROBABILITY_READERS))
@pytest.mark.parametrize("b", [0, 1, -Fraction(1, 10**9), 1 + Fraction(1, 10**9)],
                         ids=["0", "1", "below-0", "above-1"])
def test_probability_edges(reader, b):
    # 1 is accepted everywhere and 0 where the range is closed; a value
    # 10^-9 outside the range is refused with the reader's message
    call, rule = PROBABILITY_READERS[reader]
    if 0 <= b <= 1 and not (b == 0 and "(0,1]" in rule):
        call(b)
        return
    with pytest.raises(ValidationError) as info:
        call(b)
    shown = str(b) if reader == "cli-b-j4" else b  # the CLI reads text
    assert str(info.value) == f"{rule}, got {shown!r}"


# each public bound function that reads a number b: the call, and the name its errors give b
READERS = {
    "i4_lower_bound": ("i4_lower_bound(SL_13, b)", "b_J4"),
    "i3_upper_bound": ("i3_upper_bound(SL_13, b)", "j3"),
    "solve_K4": ("solve_K4(T.SL, b)", "b_J4"),
}
each_reader = pytest.mark.parametrize("call,name", list(READERS.values()), ids=list(READERS))
TOO_LONG = (f"a number in the bounds report has more than {DIGIT_LIMIT} digits, "
            "the interpreter's limit for printing one")


@needs_digit_limit
@each_reader
@pytest.mark.parametrize("b", ["1e-99999999", "1E+99999999"])
def test_exponent_past_the_digit_limit(call, name, b):
    # Fraction built 10^99999999 for minutes; the call runs in a child
    # process, so a hang fails here within seconds
    script = ("from invgen import ValidationError, i3_upper_bound, i4_lower_bound, solve_K4\n"
              "from invgen.bounds import ClassicalFamily, ClassicalTag as T\n"
              f"SL_13, b = ClassicalFamily(T.SL, 13), {b!r}\n"
              f"try:\n    {call}\nexcept ValidationError as exc:\n    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=5,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.stdout, proc.stderr) == (
        f"{name} exponent must be within ±{DIGIT_LIMIT}, the interpreter's int digit limit, got {b!r}\n", "")


@needs_digit_limit
@each_reader
def test_value_past_the_print_limit(call, name):
    # i4 and i3 used to answer with a b no report could print, and solve_K4
    # to end in a raw ValueError while echoing it in NoSolutionError
    b = Fraction(1, 10 ** (DIGIT_LIMIT + 100))
    with pytest.raises(ValidationError) as info:
        eval(call, {**globals(), "b": b})
    assert str(info.value) == TOO_LONG


@needs_digit_limit
def test_report_past_the_print_limit():
    # i4's denominator holds q^4, 6,000 digits here: to_dict raised a raw ValueError
    report = i4_lower_bound(ClassicalFamily(T.SL, 10**1500), Fraction(1, 3))
    with pytest.raises(ValidationError) as info:
        report.to_dict()
    assert str(info.value) == TOO_LONG


@needs_digit_limit
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: separable_proportion(ClassicalFamily(T.SP_ODD_Q, 10**5000)), "Sp_odd_q needs odd q, got "),
        (lambda: i4_lower_bound(ClassicalFamily(T.SP_EVEN_Q, 10**5000 + 1), "1/3"), "Sp_even_q needs even q, got "),
        (lambda: separable_proportion(ClassicalFamily(T.SL, -10**5000)), "q must be an integer >= 2, got "),
        (lambda: solver_proportion(T.SL, -10**5000), "q must be an integer >= 2, got "),
        (lambda: separable_proportion(10**5000), "expected a ClassicalFamily, got "),
    ],
    ids=["parity-odd", "parity-even", "check_q", "solver", "not-a-family"],
)
def test_q_past_the_print_limit(call, message):
    # formatting q into the message raised Python's raw int-to-str ValueError
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message + "an unprintable int (past the int digit limit)"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: solve_K4(T.SL, Fraction(10**4000 + 1, 10**4000)), "b_J4 must be in (0,1], got Fraction(1000"),
        (lambda: i3_upper_bound(SL_13, "1" + "0" * 4000), "j3 must be in [0,1], got '1000"),
        (lambda: i4_lower_bound(SL_13, "2" + "0" * 4000), "b_J4 must be in [0,1], got '2000"),
        (lambda: solve_K4(T.SL, Fraction(1, 10**4000)), "no threshold below 2^60 for SL with b_J4=Fraction(1, 1000"),
        (lambda: solve_K4(T.SL, "x" * 5000), "cannot parse 'xxx"),
        (lambda: i4_lower_bound(ClassicalFamily("SL" * 1000, 13), "1/3"), "unknown classical family 'SLSL"),
    ],
    ids=["solve_K4-range", "i3-range", "i4-range", "no-threshold", "parse", "tag"],
)
def test_long_arguments_are_cut(call, message):
    # the message echoed the whole argument: 8,041 characters for the solve_K4 range case
    with pytest.raises((ValidationError, NoSolutionError)) as info:
        call()
    text = str(info.value)
    assert text.startswith(message) and len(text) < 200
    assert re.search(r"\.\.\. \(\d+ characters\)", text)
