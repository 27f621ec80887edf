"""The one echo rule: every caller value the package puts in an error
message goes through `errors._echo`, so a long value is cut and an int
past the interpreter's digit limit is named, not printed."""

import re
import sys

import pytest

from invgen import ExperimentSpec, InvgenError, RngState, WeylFamily, exact_prob, make_partition, make_signed
from invgen.errors import _echo, as_list, check_positive_int
from invgen.montecarlo import check_event, sweep_seed, wilson_interval
from invgen.sampling import sample_partition

A = WeylFamily.A
HUGE = 10**5000  # past the int digit limit of Python 3.10.7 and later
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7


class TestEcho:
    def test_short_text_is_unchanged(self):
        assert _echo("x" * 98) == repr("x" * 98)
        assert _echo(12, str) == "12"

    def test_long_text_is_cut(self):
        assert _echo("x" * 300) == "'" + "x" * 59 + "... (302 characters)"

    @pytest.mark.parametrize("room", [60, 61, 100, 120])
    def test_room(self, room):
        # a value is whole within its room, and cut to at most the room past it
        assert _echo("x" * (room - 2), str, room) == "x" * (room - 2)
        for length in (room + 1, 10**6):
            assert len(_echo("x" * length, str, room)) <= room

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python has no int digit limit")
    def test_unprintable_int(self):
        assert _echo(HUGE) == _echo(-HUGE, str) == "an unprintable int (past the int digit limit)"


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_prob(-HUGE, 4, A, "J"),
        lambda: exact_prob(HUGE, 4, A, "J"),
        lambda: exact_prob(8, -HUGE, A, "J"),
        lambda: exact_prob(8, 4, A, "x" * 300),
        lambda: make_partition([-HUGE]),
        lambda: make_signed([(1, 1), (3, "x" * 300)]),
        lambda: make_signed(["x" * 300]),
        lambda: ExperimentSpec(8, 4, A, "J", 10, HUGE).validate(),
        lambda: ExperimentSpec(HUGE, 4, A, "J", 10, 0).validate(),
        lambda: ExperimentSpec(8, 4, A, "J", -HUGE, 0).validate(),
        lambda: check_event("x" * 300, A),
        lambda: check_positive_int("n", "x" * 300),
        lambda: as_list("items", HUGE),
        lambda: sample_partition(HUGE, RngState(0)),
        lambda: RngState("x" * 300),
        lambda: sweep_seed("x" * 300, 0),
        lambda: wilson_interval(HUGE, 10),
        lambda: WeylFamily.parse("x" * 300),
    ],
    ids=["exact-n", "exact-n-cap", "exact-l", "exact-event", "partition", "signed-sign", "signed-pair",
         "spec-seed", "spec-n", "spec-trials", "check_event", "positive-int", "as_list", "sampler-n",
         "rng-seed", "sweep_seed", "wilson", "family"],
)
def test_long_or_unprintable_values_are_cut(call):
    # each raised a raw ValueError from repr() or str(), or echoed the whole value
    with pytest.raises(InvgenError) as info:
        call()
    text = str(info.value)
    assert len(text) < 200
    assert re.search(r"\.\.\. \(\d+ characters\)|an unprintable int", text), text
