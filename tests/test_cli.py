"""End-to-end tests of the command-line interface (in-process, plus one subprocess smoke)."""

import importlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import invgen
import invgen.montecarlo as montecarlo
from invgen import (
    ClassicalFamily,
    ClassicalTag,
    ExperimentSpec,
    ValidationError,
    WeylFamily,
    exact_prob_J,
    exact_prob_J_and_not_N,
    exact_prob_predicate,
    i4_lower_bound,
    make_partition,
    make_signed,
    run,
    sweep_seed,
)
from invgen.bounds import _as_fraction
from invgen.cli import _COMMANDS, _OPTIONS, _as_bool, _build_parser, _option, _parse_cycles, _split_list, main

CSV_HEADER = "n,l,family,event,trials,successes,p_hat,ci_low,ci_high,seed"
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python has no int digit limit")


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_deterministic(self, capsys):
        first = cli(capsys, "sample", "--n", "5", "--family", "A", "--count", "3", "--seed", "7")
        second = cli(capsys, "sample", "--n", "5", "--family", "A", "--count", "3", "--seed", "7")
        assert first == second
        assert first[0] == 0
        assert len(first[1].splitlines()) == 3

    def test_n1_is_forced(self, capsys):
        code, out, _ = cli(capsys, "sample", "--n", "1", "--family", "A", "--count", "2")
        assert code == 0
        assert out == "1\n1\n"

    def test_d_minus_sector(self, capsys):
        code, out, _ = cli(capsys, "sample", "--n", "6", "--family", "D-", "--count", "20", "--seed", "3")
        assert code == 0
        for line in out.splitlines():
            minus_cycles = sum(1 for tok in line.split(",") if tok.endswith("-"))
            assert minus_cycles % 2 == 1, line

    def test_bad_family(self, capsys):
        code, _, err = cli(capsys, "sample", "--n", "5", "--family", "Z", "--count", "1")
        assert code == 2
        assert "error:" in err

    def test_missing_n(self, capsys):
        code, _, err = cli(capsys, "sample", "--family", "A")
        assert code == 2
        assert "--n" in err


class TestFixedsets:
    def test_unsigned(self, capsys):
        assert cli(capsys, "fixedsets", "--cycles", "3,1") == (0, "1 3\n", "")

    def test_signed(self, capsys):
        # the signs on the tokens make the label signed; no flag says so
        assert cli(capsys, "fixedsets", "--cycles", "2+,1-") == (0, "(2,+) (1,-)\n", "")

    def test_single_cycle_has_none(self, capsys):
        assert cli(capsys, "fixedsets", "--cycles", "5") == (0, "\n", "")

    @pytest.mark.parametrize("cycles,err", [("3+,1", "bad signed cycle token '1'; expected like 3+ or 1-"),
                                            ("3,1-", "bad cycle length '1-'")])
    def test_mixed_signs_refused(self, capsys, cycles, err):
        # the first token decides: a sign on it needs one on every token, none on it allows none
        assert cli(capsys, "fixedsets", "--cycles", cycles) == (2, "", f"error: {err}\n")

    def test_garbage(self, capsys):
        code, _, _ = cli(capsys, "fixedsets", "--cycles", "0")
        assert code == 2

    def test_digit_that_int_rejects(self, capsys):
        # '²'.isdigit() is True, but int('²') used to raise a raw ValueError
        code, out, err = cli(capsys, "fixedsets", "--cycles", "²,1")
        assert (code, out) == (2, "")
        assert "bad cycle length '²'" in err

    @pytest.mark.parametrize("cycles", ["18446744073709551616", "18446744073709551616+"])
    def test_huge_cycle(self, capsys, cycles):
        # the profile's n-bit mask used to raise a raw MemoryError
        code, out, err = cli(capsys, "fixedsets", "--cycles", cycles)
        assert (code, out) == (2, "")
        assert err == "error: fixed-set profiles are limited to n <= 2^28 (got 18446744073709551616)\n"

    @needs_digit_limit
    @pytest.mark.parametrize("signed", [False, True])
    def test_token_past_the_int_digit_limit(self, capsys, signed):
        # int() refuses more than sys.get_int_max_str_digits() digits: a raw ValueError, exit 1
        token = "9" * 5000 + "+" * signed
        code, out, err = cli(capsys, "fixedsets", "--cycles", token)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: bad signed cycle token '9999" if signed else "error: bad cycle length '9999")

    @pytest.mark.parametrize("cycles", ["1,,2", "1,2,"])
    def test_empty_item(self, capsys, cycles):
        code, out, err = cli(capsys, "fixedsets", "--cycles", cycles)
        assert (code, out) == (2, "")
        assert "empty item" in err and repr(cycles) in err


def regex_cycles(text):
    """Reference for `_parse_cycles`: signed tokens read by the regex it
    used before one isdecimal rule covered both flavours.  A sign on the
    first token makes the label signed."""
    tokens = _split_list(text, "cycle")
    if re.search(r"[+-]$", tokens[0]):
        pairs = []
        for tok in tokens:
            m = re.match(r"^(\d+)([+-])$", tok)
            if not m:
                raise ValidationError(f"bad signed cycle token {tok!r}; expected like 3+ or 1-")
            pairs.append((int(m.group(1)), 1 if m.group(2) == "+" else -1))
        return make_signed(pairs)
    parts = []
    for tok in tokens:
        if not tok.isdecimal():
            raise ValidationError(f"bad cycle length {tok!r}")
        parts.append(int(tok))
    return make_partition(parts)


class TestCycleTokens:
    BODIES = ["3", "12", "0", "007", "\u0663", "\uff13", "\u00b2", "", "1 2", "+3", "-3", "3+1", "3-1"]
    ENDS = ["", "+", "-", "++", "+-", "--", " +", "- ", "+ "]

    def test_matches_regex_parser(self):
        def outcome(parse, text):
            try:
                return parse(text)
            except ValidationError as e:
                return f"error: {e}"

        tokens = [body + end for body in self.BODIES for end in self.ENDS]
        texts = tokens + [f"{a}, {b}" for a in ("2+", "2", "\u0663-") for b in tokens]
        assert [outcome(_parse_cycles, t) for t in texts] == [outcome(regex_cycles, t) for t in texts]

    def test_unicode_digits_read_as_int_does(self):
        assert _parse_cycles("\u0663+,\uff13-") == make_signed([(3, 1), (3, -1)])
        assert _parse_cycles("\u0663,\uff13") == make_partition([3, 3])


class TestEstimate:
    def test_csv_shape(self, capsys):
        code, out, _ = cli(
            capsys, "estimate", "--n", "2", "--l", "2", "--family", "A",
            "--trials", "1000", "--seed", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# invgen ")
        assert lines[1].startswith("# config ")
        assert lines[2] == CSV_HEADER
        row = lines[3].split(",")
        expected = run(ExperimentSpec(2, 2, WeylFamily.A, "J", 1000, 5))
        assert row[:6] == ["2", "2", "A", "J", "1000", str(expected.successes)]
        assert float(row[6]) == expected.p_hat
        assert row[9] == "5"

    def test_hex_seed(self, capsys):
        dec = cli(capsys, "estimate", "--n", "4", "--family", "B", "--trials", "200", "--seed", "16")
        hexed = cli(capsys, "estimate", "--n", "4", "--family", "B", "--trials", "200", "--seed", "0x10")
        assert dec == hexed

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "est.csv"
        code, out, _ = cli(capsys, "estimate", "--n", "3", "--family", "A", "--trials", "100")
        code2, out2, _ = cli(
            capsys, "estimate", "--n", "3", "--family", "A", "--trials", "100",
            "--out", str(path),
        )
        assert code == code2 == 0
        assert out2 == ""
        assert path.read_text() == out

    def test_out_unwritable(self, capsys, tmp_path):
        code, _, err = cli(
            capsys, "estimate", "--n", "3", "--family", "A", "--trials", "10",
            "--out", str(tmp_path / "no" / "such" / "dir.csv"),
        )
        assert code == 1 and "error:" in err

    def test_jsonl(self, capsys):
        code, out, _ = cli(
            capsys, "estimate", "--n", "4", "--family", "B", "--trials", "300",
            "--seed", "11", "--format", "jsonl",
        )
        assert code == 0
        meta_line, row_line = out.splitlines()
        meta = json.loads(meta_line)["meta"]
        assert meta["seed"] == 11 and meta["family"] == "B"
        row = json.loads(row_line)
        assert row["n"] == 4 and row["trials"] == 300 and row["seed"] == 11
        assert 0.0 <= row["p_hat"] <= 1.0

    def test_threads_do_not_change_stdout(self, capsys):
        one = cli(capsys, "estimate", "--n", "50", "--family", "B", "--trials", "400", "--threads", "1")
        two = cli(capsys, "estimate", "--n", "50", "--family", "B", "--trials", "400", "--threads", "2")
        assert one == two

    def test_threads_beyond_cpus(self, capsys, in_process_pool, monkeypatch):
        # at most one worker per CPU and per trial: 10 trials, 10 workers,
        # so 9 children beside this process
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        argv = ("estimate", "--n", "50", "--family", "B", "--trials", "10")
        assert cli(capsys, *argv, "--threads", "100000") == cli(capsys, *argv, "--threads", "1")
        assert in_process_pool == [9, 0]

    def test_one_trial_starts_no_child(self, capsys, in_process_pool, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        argv = ("estimate", "--n", "50", "--family", "B", "--trials", "1")
        assert cli(capsys, *argv, "--threads", "2") == cli(capsys, *argv, "--threads", "1")
        assert in_process_pool == [0, 0]

    def test_bad_confidence_fails_before_any_row(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_count_range", never)
        code, out, err = cli(capsys, "sweep", "--ns", "8,9", "--family", "A", "--confidence", "2")
        assert (code, out) == (2, "")
        assert err == "error: confidence must be in (0,1), got 2.0\n"

    def test_event_flag(self, capsys):
        code, out, _ = cli(
            capsys, "estimate", "--n", "20", "--family", "D+", "--event", "N",
            "--trials", "50", "--l", "3",
        )
        assert code == 0
        # the sector conditions all total signs equal; N always holds
        assert ",50,1.0," in out.splitlines()[3]

    def test_event_family_mismatch(self, capsys):
        code, _, err = cli(
            capsys, "estimate", "--n", "4", "--family", "A", "--event", "N", "--trials", "10"
        )
        assert code == 2 and "error:" in err

    def test_gap_compat_is_gone(self, capsys):
        # invgen 0.6.0 removed the flag, which printed the bare proportion
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--n", "100", "--family", "C", "--gap-compat", "--seed", "3"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "unrecognized arguments: --gap-compat" in captured.err

    def test_trials_100_gives_the_old_bare_proportion(self, capsys):
        # `estimate --n 100 --family C --gap-compat --seed 3` printed 0.63
        code, out, _ = cli(capsys, "estimate", "--n", "100", "--family", "C", "--trials", "100", "--seed", "3")
        assert code == 0
        row = dict(zip(CSV_HEADER.split(","), out.splitlines()[3].split(",")))
        assert (row["trials"], row["successes"], row["p_hat"]) == ("100", "63", "0.63")

    def test_bad_trials(self, capsys):
        code, _, _ = cli(capsys, "estimate", "--n", "4", "--family", "A", "--trials", "-5")
        assert code == 2

    def test_bad_seed(self, capsys):
        code, _, _ = cli(capsys, "estimate", "--n", "4", "--family", "A", "--seed", "zz")
        assert code == 2

    @pytest.mark.parametrize("family", ["A", "B"])
    def test_huge_n_for_J(self, capsys, family):
        # the trial's first n/2-bit mask used to raise a raw MemoryError
        n = "18446744073709551616"
        code, out, err = cli(
            capsys, "estimate", "--family", family, "--event", "J", "--n", n, "--trials", "1", "--l", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: fixed-set profiles are limited to n <= 2^28 (got {n})\n"


def test_csv_tokens_need_no_quoting():
    # CSV rows are plain comma joins; the only fields that are not numbers are these tokens
    tokens = [f.value for f in WeylFamily] + list(invgen.EVENTS)
    assert not [t for t in tokens if set(t) & set(',"\r\n')]


class TestSweep:
    def test_rows_and_seeds(self, capsys):
        code, out, _ = cli(
            capsys, "sweep", "--ns", "2,3,4", "--l", "2", "--family", "A",
            "--trials", "200", "--seed", "99",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[3:]]
        assert [r[0] for r in rows] == ["2", "3", "4"]
        assert [int(r[9]) for r in rows] == [sweep_seed(99, i) for i in range(3)]

    def test_bad_ns(self, capsys):
        code, _, _ = cli(capsys, "sweep", "--ns", "2,x", "--family", "A", "--trials", "10")
        assert code == 2

    @pytest.mark.parametrize("ns", ["4,,5", "4,5,"])
    def test_empty_item(self, capsys, ns):
        code, out, err = cli(capsys, "sweep", "--ns", ns, "--family", "A", "--trials", "10")
        assert (code, out) == (2, "")
        assert "empty item" in err and repr(ns) in err

    def test_missing_ns(self, capsys):
        code, _, err = cli(capsys, "sweep", "--family", "A", "--trials", "10")
        assert code == 2 and "--ns" in err


class TestExact:
    def test_three_quarters(self, capsys):
        code, out, _ = cli(capsys, "exact", "--n", "2", "--l", "2", "--family", "A")
        assert code == 0
        assert out.startswith("3/4 = 0.75")

    def test_trivial_one(self, capsys):
        code, out, _ = cli(capsys, "exact", "--n", "1", "--l", "3", "--family", "B")
        assert code == 0
        assert out.startswith("1 = 1.0")

    @pytest.mark.parametrize(
        "args,limit",
        [
            ("--n 29 --l 2 --family A", "n <= 28"),
            ("--n 12 --l 2 --family B", "n <= 11"),
            ("--n 4 --l 20 --family B --event N", "l <= 16"),
        ],
    )
    def test_capacity_named(self, capsys, args, limit):
        code, _, err = cli(capsys, "exact", *args.split())
        assert code == 2
        assert limit in err

    @pytest.mark.parametrize(
        "n,family,limit",
        [("99999999999999999999999", "A", 28), ("10000000000", "A", 28), ("10000000000", "B", 11)],
    )
    def test_capacity_checked_before_building_from_n(self, n, family, limit):
        # masks of n bits were built before the cap was checked: a raw
        # OverflowError at 10^23 (exit 1), about 1.3 GB at 10^10; the child
        # gets 512 MB of address space
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "invgen", "exact", "--n", n, "--family", family],
            capture_output=True, text=True, preexec_fn=cap_memory,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: exact mode for family {family} is limited to n <= {limit} (got {n})\n"

    def test_all_even_reads_the_partition_table(self, capsys):
        # used to exit 2 with "limited to n <= 11", though family C answered
        code, out, _ = cli(capsys, "exact", "--n", "12", "--l", "2", "--family", "B", "--event", "all_even")
        assert code == 0
        assert out.startswith("53361/1048576 = ")

    @pytest.mark.parametrize(
        "family,event,expected",
        [
            ("B", "J", exact_prob_J(5, 3, WeylFamily.B)),
            ("B", "J_and_not_N", exact_prob_J_and_not_N(5, 3, WeylFamily.B)),
            ("C", "J_and_not_N", exact_prob_J_and_not_N(5, 3, WeylFamily.C)),
            ("B", "N", exact_prob_predicate(5, WeylFamily.B, "same_sign", 3)),
            ("D+", "N", exact_prob_predicate(5, WeylFamily.D_PLUS, "same_sign", 3)),
            ("A", "all_even", exact_prob_predicate(5, WeylFamily.A, "all_even") ** 3),
            ("D-", "all_even", exact_prob_predicate(5, WeylFamily.D_MINUS, "all_even") ** 3),
            ("C", "all_positive", exact_prob_predicate(5, WeylFamily.C, "all_positive") ** 3),
        ],
    )
    def test_event_matches_library(self, capsys, family, event, expected):
        code, out, _ = cli(capsys, "exact", "--n", "5", "--l", "3", "--family", family, "--event", event)
        assert code == 0
        assert out == f"{expected} = {float(expected)!r}\n"

    def test_event_defaults_to_J(self, capsys):
        assert cli(capsys, "exact", "--n", "5", "--l", "3", "--family", "B") == cli(
            capsys, "exact", "--n", "5", "--l", "3", "--family", "B", "--event", "J"
        )

    @pytest.mark.parametrize("event", ["J_and_not_N", "N", "all_positive"])
    def test_signed_event_rejects_a(self, capsys, event):
        code, out, err = cli(capsys, "exact", "--n", "4", "--family", "A", "--event", event)
        assert (code, out) == (2, "")
        assert f"event {event} needs a signed family" in err

    @pytest.mark.parametrize("event", ["J", "J_and_not_N", "N", "all_even", "all_positive"])
    def test_bad_l(self, capsys, event):
        code, out, err = cli(capsys, "exact", "--n", "4", "--l", "0", "--family", "B", "--event", event)
        assert (code, out) == (2, "")
        assert "l must be a positive integer" in err

    def test_unknown_event(self, capsys, tmp_path):
        code, out, err = cli(capsys, "exact", "--n", "4", "--family", "B", "--event", "sorted")
        assert (code, out) == (2, "")
        assert "unknown event 'sorted'" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("event=sorted\n")
        code, out, err = cli(capsys, "exact", "--n", "4", "--family", "B", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "unknown event 'sorted'" in err


class TestBounds:
    @pytest.mark.parametrize("family,expected", [("SL", "12"), ("SU", "12"), ("Sp", "36"), ("SO", "25"), ("SO+", "25"), ("SO-", "25")])
    def test_solve_k(self, capsys, family, expected):
        code, out, _ = cli(capsys, "bounds", "--family", family)
        assert code == 0
        assert expected in out.split()

    def test_solve_k_decimal_b(self, capsys):
        code, out, _ = cli(capsys, "bounds", "--family", "SL", "--b-j4", "0.33333333")
        assert code == 0 and "12" in out.split()

    def test_report_human(self, capsys):
        code, out, _ = cli(capsys, "bounds", "--family", "SL", "--q", "13")
        assert code == 0
        assert "i4" in out and "13" in out

    def test_report_json(self, capsys):
        code, out, _ = cli(capsys, "bounds", "--family", "SL", "--q", "13", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "SL" and data["q"] == 13
        assert data["i4_lower"] > 0

    def test_sp_parity_dispatch(self, capsys):
        odd = cli(capsys, "bounds", "--family", "Sp", "--q", "9", "--json")
        even = cli(capsys, "bounds", "--family", "Sp", "--q", "8", "--json")
        assert odd[0] == even[0] == 0
        assert json.loads(odd[1])["family"] == "Sp_odd_q"
        assert json.loads(even[1])["family"] == "Sp_even_q"

    def test_sharp_a_rejected_for_even_sp(self, capsys):
        code, _, err = cli(capsys, "bounds", "--family", "Sp", "--q", "8", "--sharp-a")
        assert code == 2 and "error:" in err

    def test_no_q_prints_k4(self, capsys):
        # with no field size to report at, bounds solves for the threshold
        assert cli(capsys, "bounds", "--family", "SL") == (0, "K4(SL) = 12\n", "")
        code, out, err = cli(capsys, "bounds", "--family", "SL", "--json")
        assert (code, err, json.loads(out)["K4"]) == (0, "", 12)

    def test_bad_b(self, capsys):
        # --b-j4 is read by the bounds library's own reader, so it fails with its message
        with pytest.raises(ValidationError) as info:
            _as_fraction("junk", "b-j4")
        code, out, err = cli(capsys, "bounds", "--family", "SL", "--b-j4", "junk")
        assert (code, out, err) == (2, "", f"error: {info.value}\n")

    def test_zero_b_is_refused_by_the_cli(self, capsys):
        # i4_lower_bound accepts b = 0 (a bound of -(1 - s^4)); the CLI's --b-j4 is in (0, 1]
        assert i4_lower_bound(ClassicalFamily(ClassicalTag.SL, 13), "0").i4_lower < 0
        code, out, err = cli(capsys, "bounds", "--family", "SL", "--q", "13", "--b-j4", "0")
        assert (code, out, err) == (2, "", "error: b-j4 must be in (0,1], got '0'\n")

    def test_b_out_of_range_echoes_the_text(self, capsys):
        # the message used to print the expanded Fraction, 401 digits here
        code, _, err = cli(capsys, "bounds", "--family", "Sp", "--q", "4", "--b-j4", "1e400")
        assert code == 2
        assert "'1e400'" in err and len(err) < 80

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_sharp_a_needs_q(self, capsys, tmp_path, via_config):
        # the threshold solver has no q, so no factor to sharpen
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sharp-a = yes\n")
        extra = ["--config", str(cfg)] if via_config else ["--sharp-a"]
        assert cli(capsys, "bounds", "--family", "SL", *extra) == (2, "", "error: --sharp-a needs --q\n")

    def test_no_solution_exit_1(self, capsys):
        code, _, err = cli(capsys, "bounds", "--family", "SL", "--b-j4", "1e-30")
        assert code == 1 and "error:" in err

    def test_no_solution_echoes_the_text(self, capsys):
        # the message used to print the expanded Fraction: 482 bytes here
        code, _, err = cli(capsys, "bounds", "--family", "SL", "--b-j4", "1e-400")
        (line,) = err.splitlines()
        assert code == 1 and line.startswith("error:")
        assert "1e-400" in line and len(line) <= 200

    @needs_digit_limit
    @pytest.mark.parametrize(
        "extra",
        [["--q", "7" * 1502], ["--q", "7" * 1502, "--json"], ["--q", "13", "--b-j4", f"1e-{DIGIT_LIMIT}"],
         ["--json", "--b-j4", "1" + "0" * (DIGIT_LIMIT - 17) + f"1e-{DIGIT_LIMIT}"]],
        ids=["q", "q-json", "b-j4", "k4-json"],
    )
    def test_report_past_the_print_limit(self, capsys, extra):
        # i4's denominator holds q^4 (or b's 10^4300), too many digits for str(): the
        # report used to print its first lines, then end in a raw ValueError, exit 1.
        # At the default limit, b = (10^4283 + 1) / 10^4300 has K4 = 45714285714285712, but b is not printable
        code, out, err = cli(capsys, "bounds", "--family", "SL", *extra)
        assert (code, out) == (2, "")
        assert err == (f"error: a number in the bounds report has more than {DIGIT_LIMIT} digits, "
                       "the interpreter's limit for printing one\n")

    @needs_digit_limit
    @pytest.mark.parametrize("b", [f"1e-{DIGIT_LIMIT + 1}", "1e-9999999", "1e-99999999", "1E+99999999"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_exponent_past_the_digit_limit(self, capsys, tmp_path, b, via_config):
        # Fraction built 10^99999999 for more than a minute before the report failed to print it
        argv = ["bounds", "--family", "SL", "--q", "13"]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"b-j4 = {b}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--b-j4", b]
        start = time.perf_counter()
        code, out, err = cli(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == (f"error: b-j4 exponent must be within ±{DIGIT_LIMIT}, the interpreter's int digit limit, "
                       f"got {b!r}\n")


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nl=2\nfamily=A\ntrials=500\nseed=9\n")
        via_config = cli(capsys, "estimate", "--config", str(cfg))
        explicit = cli(
            capsys, "estimate", "--n", "4", "--l", "2", "--family", "A",
            "--trials", "500", "--seed", "9",
        )
        assert via_config == explicit

    def test_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\nfamily=A\ntrials=500\nseed=9\n")
        overridden = cli(capsys, "estimate", "--config", str(cfg), "--trials", "200")
        explicit = cli(
            capsys, "estimate", "--n", "4", "--family", "A", "--trials", "200", "--seed", "9"
        )
        assert overridden == explicit

    def test_comments_and_blanks(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nn=2\nfamily=A\ntrials=50\n")
        assert cli(capsys, "estimate", "--config", str(cfg))[0] == 0

    def test_bad_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n\n")
        code, _, _ = cli(capsys, "estimate", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "argv,bad_key",
        [
            (["sample", "--n", "3", "--family", "A"], "trials"),
            (["fixedsets", "--cycles", "3,1"], "trails"),
            (["estimate", "--n", "4", "--family", "A"], "trails"),
            (["sweep", "--ns", "2,3", "--family", "A"], "gap_compat"),
            (["estimate", "--n", "4", "--family", "A"], "gap_compat"),
            (["exact", "--n", "2", "--family", "A"], "trails"),
            (["bounds", "--family", "SL"], "trails"),
            (["fixedsets", "--cycles", "3+,1-"], "signed"),
            (["bounds", "--family", "SL"], "solve_k"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else v,
    )
    def test_unknown_key_rejected(self, capsys, tmp_path, argv, bad_key):
        # a key the subcommand has no flag for is a typo, not a silent default;
        # signed and solve_k are no keys, since the input decides them, and
        # gap_compat is none since invgen 0.6.0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n{bad_key.replace('_', '-')}=5\n")
        code, out, err = cli(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"{cfg}:2" in err and repr(bad_key) in err

    @pytest.mark.parametrize(
        "argv,lines,key",
        [
            (["exact"], ["n = 5", "family=A", "n=6"], "n"),
            (["bounds", "--family", "SL"], ["b-j4 = 1/2", "# the same key", "b_j4 = 1/3"], "b_j4"),
        ],
        ids=["n", "b-j4-then-b_j4"],
    )
    def test_repeated_key_rejected(self, capsys, tmp_path, argv, lines, key):
        # the last one used to win silently: exact ran at n = 6, and K4(SL) was 1/3's
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code, out, err = cli(capsys, *argv, "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {cfg}:3: key {key!r} given again (first on line 1)\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = cli(capsys, "estimate", "--config", str(tmp_path / "absent.cfg"))
        assert code == 1 and "error:" in err

    def test_not_utf8(self, capsys, tmp_path):
        # used to end in a raw UnicodeDecodeError traceback, exit 1
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe=1\n")
        code, out, err = cli(capsys, "estimate", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"{cfg}: not UTF-8 text" in err

    def test_byte_order_mark_skipped(self, capsys, tmp_path):
        # an editor's UTF-8 byte-order mark was read as part of the first
        # key: `unknown key '\\ufeffn' for exact`, exit 2
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn=5\nfamily=A\n")
        assert cli(capsys, "exact", "--config", str(cfg)) == cli(capsys, "exact", "--n", "5", "--family", "A")

    def test_not_utf8_after_a_byte_order_mark(self, capsys, tmp_path):
        # the bad byte is counted from the start of the file, mark included
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn=5\n\xff=1\n")
        code, out, err = cli(capsys, "exact", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {cfg}: not UTF-8 text (invalid start byte at byte 7)\n")


LONG = "x" * 300
BIG = "1" + "0" * 500  # an int of 501 digits: it parses, then a range check echoes it


class TestLongValuesAreCut:
    """Every value the CLI echoes in an error goes through `errors._echo`:
    each case exits 2 with one `error:` line of at most 200 characters,
    where it echoed the whole value."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--family", "A", "--n", BIG],
            ["estimate", "--family", "A", "--n", "1" + "0" * 5000],
            ["estimate", "--family", "A", "--n", "8", "--event", LONG],
            ["estimate", "--family", "A", "--n", "8", "--seed", "9" * 300],
            ["estimate", "--family", "A", "--n", "8", "--seed", LONG],
            ["estimate", "--family", "A", "--n", "8", f"--trials=-{BIG}"],
            ["estimate", "--family", "A", "--n", "8", "--confidence", LONG],
            ["estimate", "--family", "A", "--n", "8", "--format", LONG],
            ["estimate", "--family", LONG, "--n", "8"],
            ["sweep", "--family", "A", "--ns", "2," * 150 + ","],
            ["sample", "--family", "A", "--n", "3", f"--count=-{BIG}"],
            ["exact", "--family", "A", "--n", BIG],
            ["exact", "--family", "A", "--n", "8", "--l", BIG],
            ["fixedsets", "--cycles", LONG],
            ["fixedsets", "--cycles", "3+," + "3" * 300],
            ["bounds", "--family", LONG, "--q", "13"],
            ["bounds", "--family", "SL", "--b-j4", LONG],
            ["bounds", "--family", "SL", "--b-j4", BIG],
        ],
        ids=["n-range", "n-digits", "event", "seed-range", "seed-text", "trials", "confidence", "format",
             "family", "ns-empty-item", "count", "exact-n", "exact-l", "cycles", "signed-cycles",
             "classical-family", "b-j4-text", "b-j4-range"],
    )
    def test_flag(self, capsys, argv):
        code, out, err = cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201, err

    @pytest.mark.parametrize(
        "command, path, line",
        [
            ("bounds", "run.cfg", "json=" + LONG),
            ("bounds", "run.cfg", LONG),
            ("bounds", "run.cfg", LONG + "=1"),
            ("estimate", "run.cfg", LONG + "=1"),
            ("sweep", "run.cfg", LONG + "=1"),
            ("estimate", f"{'d' * 150}/{'d' * 150}/run.cfg", "trails=5"),
            ("estimate", f"{'d' * 90}/run.cfg", LONG + "=1"),
            ("bounds", f"{'d' * 90}/run.cfg", LONG),
        ],
        ids=["bool", "no-equals", "key", "estimate-key", "sweep-key", "path", "path-and-key", "path-and-line"],
    )
    def test_config(self, capsys, tmp_path, monkeypatch, command, path, line):
        # the line names the file: a short path, one of 309 characters, or
        # one of 98 that shares the line with a long key or line
        monkeypatch.chdir(tmp_path)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(line + "\n")
        argv = [token for dest, value in BASE_OPTIONS[command].items() for token in (flag(dest), value)]
        code, out, err = cli(capsys, command, *argv, "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201, err

    @pytest.mark.parametrize(
        "argv",
        [["estimate", "--family", "A", "--n", "3", "--config", "y" * 3000],
         ["estimate", "--family", "A", "--n", "3", "--trials", "5", "--out", f"absent/{'z' * 300}/o.csv"]],
        ids=["config", "out"],
    )
    def test_os_error(self, capsys, tmp_path, monkeypatch, argv):
        # a file the OS refuses exits 1 with its reason and the name cut,
        # where it printed the raw OSError, the whole name in it
        monkeypatch.chdir(tmp_path)
        code, out, err = cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201, err

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_empty_file_name(self, capsys, tmp_path, monkeypatch, flag):
        # an empty name is shown as '', where the line ended in a bare colon
        monkeypatch.chdir(tmp_path)
        code, out, err = cli(capsys, "estimate", "--n", "3", "--family", "A", "--trials", "5", flag, "")
        assert (code, out, err) == (1, "", "error: No such file or directory: ''\n")


# each subcommand's option dests; each is a --flag (dashes for
# underscores) and a config key of the same name
DESTS = {
    "sample": {"n", "family", "count", "seed"},
    "fixedsets": {"cycles"},
    "estimate": {"n", "l", "family", "event", "trials", "seed", "threads", "confidence",
                 "format", "out"},
    "sweep": {"ns", "l", "family", "event", "trials", "seed", "threads", "confidence",
              "format", "out"},
    "exact": {"n", "l", "family", "event"},
    "bounds": {"family", "q", "b_j4", "sharp_a", "json"},
}
BOOL_DESTS = {"sharp_a", "json"}
# a valid, quick call of each subcommand
BASE_OPTIONS = {
    "sample": {"n": "3", "family": "A"},
    "fixedsets": {"cycles": "3,1"},
    "estimate": {"n": "3", "family": "A", "trials": "10"},
    "sweep": {"ns": "2,3", "family": "A", "trials": "10"},
    "exact": {"n": "3", "family": "B"},
    "bounds": {"family": "SL", "q": "13"},
}
MALFORMED = {
    "n": "x", "ns": "2,x", "l": "x", "family": "Z", "event": "sorted", "trials": "x",
    "count": "x", "seed": "zz", "threads": "x", "confidence": "x", "format": "xml",
    "cycles": "3,x", "q": "x", "b_j4": "junk",
}


def flag(dest):
    return "--" + dest.replace("_", "-")


def base_argv(command, skip):
    argv = [command]
    for dest, value in BASE_OPTIONS[command].items():
        if dest != skip:
            argv += [flag(dest), value]
    return argv


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(DESTS))
    def test_dests(self, command):
        args = _build_parser().parse_args([command])
        assert set(vars(args)) - {"command", "config"} == DESTS[command]

    @pytest.mark.parametrize(
        "command,dest",
        [(c, d) for c in sorted(DESTS) for d in sorted(DESTS[c] - BOOL_DESTS - {"out"})],
    )
    def test_malformed_flag_and_config_fail_alike(self, capsys, tmp_path, command, dest):
        argv = base_argv(command, skip=dest)
        via_flag = cli(capsys, *argv, flag(dest), MALFORMED[dest])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest}={MALFORMED[dest]}\n")
        via_config = cli(capsys, *argv, "--config", str(cfg))
        assert via_flag == via_config
        code, out, err = via_flag
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,dest", [(c, d) for c in sorted(DESTS) for d in sorted(DESTS[c] & BOOL_DESTS)]
    )
    def test_bool_config(self, capsys, tmp_path, command, dest):
        # bool flags are bare; their config keys take yes/no words
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest}=maybe\n")
        code, out, err = cli(capsys, *base_argv(command, skip=dest), "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: bad boolean 'maybe'\n")

    @pytest.mark.parametrize(
        "command,dest,word",
        [("bounds", "json", "off"), ("bounds", "sharp_a", "0"), ("bounds", "json", " False ")],
    )
    def test_false_config_is_the_flag_left_out(self, capsys, tmp_path, command, dest, word):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest}={word}\n")
        argv = base_argv(command, skip=dest)
        assert cli(capsys, *argv, "--config", str(cfg)) == cli(capsys, *argv)

    @pytest.mark.parametrize("command,dest", [(c, d) for c in sorted(_COMMANDS) for d in [*_COMMANDS[c][2], "config"]])
    def test_repeated_flag_rejected(self, capsys, command, dest):
        # the last one used to win silently: `exact --n 5 --family A --n 6` ran at n = 6;
        # the refusal comes before any value is read, so "x" is never parsed
        given = [flag(dest)] + ["x"] * (dest not in BOOL_DESTS)
        code, out, err = cli(capsys, *base_argv(command, skip=dest), *given, *given)
        assert (code, out, err) == (2, "", f"error: flag {flag(dest)} given more than once\n")


JUNK = st.sampled_from(["", " ", "x", "-", "٣", "1e3", "0x", "nan", "\t7 ", "a\x00b", "\udcff", LONG, BIG, "-" + BIG])
SMALL = st.integers(-2, 12).map(str)
HUGE = st.sampled_from([str(2**28 + 1), str(2**64), str(2**64 + 1), "-" + BIG])
NOT_HUGE = JUNK.filter(lambda text: text != BIG)  # l, trials or count that big could run for ages
# dest (or (command, dest)) -> generated option texts: valid ones, values out
# of range and malformed ones, each small enough to be quick to run
TEXTS = {
    "n": st.one_of(SMALL, st.integers(13, 40).map(str), HUGE, JUNK),
    "ns": st.lists(st.one_of(SMALL, HUGE, JUNK), min_size=1, max_size=4).map(",".join),
    "l": st.one_of(st.integers(-2, 6).map(str), NOT_HUGE),
    "family": st.one_of(st.sampled_from(["A", "B", "C", "D+", "D-", "d+"]), JUNK),
    ("bounds", "family"): st.one_of(st.sampled_from(["SL", "SU", "Sp", "SO", "SO+", "SO-", "A"]), JUNK),
    "event": st.one_of(st.sampled_from(invgen.EVENTS), JUNK),
    "trials": st.one_of(st.integers(-2, 20).map(str), NOT_HUGE),
    "count": st.one_of(st.integers(-2, 4).map(str), NOT_HUGE),
    "seed": st.one_of(st.integers(-2, 2**64 + 2).map(str), st.sampled_from(["0x5eed", "0xg"]), JUNK),
    "threads": st.one_of(st.sampled_from(["1", "0", "-1"]), NOT_HUGE),  # one worker: no child starts
    "confidence": st.one_of(st.sampled_from(["0.9", "1", "0", "inf", "1e-300"]), JUNK),
    "format": st.one_of(st.sampled_from(["csv", "jsonl", "xml"]), JUNK),
    "out": st.sampled_from(["-", "o.csv", "", ".", "absent/o.csv", "z" * 300, f"absent/{'z' * 300}/o", "a\x00b"]),
    "cycles": st.one_of(st.lists(st.sampled_from(["0", "1", "3", "9", "3+", "1-", "-1", "", "+", "2+-"]), min_size=1, max_size=5)
                        .map(",".join), HUGE, JUNK),
    "q": st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["4096", str(2**64)]), JUNK),
    "b_j4": st.one_of(st.sampled_from(["1/3", "0.5", "0", "2", "1/0", "-1/3", "1e-5"]), JUNK),
}
BOOL_WORDS = st.sampled_from(["yes", "no", "1", "off", "maybe", ""])
# --config: a file written with the generated lines ("bin.cfg" with a byte
# that is not UTF-8), or a path with no file, too long, a directory or a NUL
CONFIG_PATHS = ("run.cfg", f"{'d' * 90}/run.cfg", "bin.cfg", "missing.cfg", "y" * 3000, ".", "", "c\x00d")


def texts(command, dest):
    return TEXTS[(command, dest)] if (command, dest) in TEXTS else TEXTS[dest]


@st.composite
def generated_calls(draw):
    """An argv drawn from `_COMMANDS` and `_OPTIONS`, usually a valid base
    call with some options replaced; at times with one flag given twice,
    with a --config file of key=value lines (keys of any command, some
    malformed lines) and with a stray argument.  Returns the argv and the
    file's lines, if any."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = dict(BASE_OPTIONS[command]) if draw(st.integers(0, 3)) else {}
    for dest in draw(st.lists(st.sampled_from(sorted(_COMMANDS[command][2])), unique=True)):
        options[dest] = None if _option(command, dest)[0] is _as_bool else draw(texts(command, dest))
    given = list(options.items())
    if given and draw(st.integers(0, 4)) == 0:
        given.append(draw(st.sampled_from(given)))
    argv = [command]
    for dest, text in given:
        argv += [flag(dest)] + ([] if text is None else [text])
    lines = None
    if draw(st.booleans()):
        dests = sorted({key if isinstance(key, str) else key[1] for key in _OPTIONS})
        lines = [f"{dest}={draw(BOOL_WORDS if dest in BOOL_DESTS else texts(command, dest))}"
                 for dest in draw(st.lists(st.sampled_from(dests), unique=True, max_size=4))]
        lines += draw(st.lists(st.sampled_from(["# note", "", "junk", LONG, LONG + "=1", "=1"]), max_size=2))
        argv += ["--config", draw(st.sampled_from(CONFIG_PATHS))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "stray", "--n"])))
    return argv, lines


class TestGeneratedCalls:
    """Every call exits 0, 1 or 2, and a failing one prints argparse's
    usage or one `error:` line of at most 200 characters."""

    @settings(max_examples=600, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(call=generated_calls())
    def test_battery(self, capsys, tmp_path, monkeypatch, call):
        argv, lines = call
        monkeypatch.chdir(tmp_path)
        if lines is not None:
            path = Path(argv[-1])
            if path.name == "bin.cfg":
                path.write_bytes(b"n=3\n\xff=1\n")
            elif argv[-1] in CONFIG_PATHS[:2]:
                path.parent.mkdir(exist_ok=True)
                path.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        try:
            code, _, err = cli(capsys, *argv)
        except SystemExit as exc:  # argparse
            code, err = exc.code, capsys.readouterr().err
        assert code in (0, 1, 2), (argv, err)
        if code:
            one_line = err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201
            assert one_line or err.startswith("usage: "), (argv, err)

    @pytest.mark.parametrize("where", ["out-flag", "out-config", "config"])
    def test_nul_in_a_path(self, capsys, tmp_path, monkeypatch, where):
        # open() refuses a NUL with a ValueError, which main let out as a
        # traceback; a config file's out= line can carry one from a shell
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("out=o\x00.csv\n")
        argv = ["estimate", "--n", "3", "--family", "A", "--trials", "5"]
        argv += {"out-flag": ["--out", "o\x00.csv"], "out-config": ["--config", "run.cfg"],
                 "config": ["--config", "run\x00.cfg"]}[where]
        code, out, err = cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad path ") and err.endswith(": it holds a NUL character\n"), err


class TestTopLevel:
    def test_no_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("invgen ")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("command", [["estimate", "--n", "4"], ["sweep", "--ns", "4,5"]], ids=["estimate", "sweep"])
    def test_output_names_the_version(self, capsys, command, fmt):
        # exactly where the goldens hold their version token (make_goldens.versioned):
        # the CSV `# invgen X` line and config, or the JSON-lines meta
        code, out, _ = cli(capsys, *command, "--family", "B", "--trials", "10", "--format", fmt)
        assert code == 0
        version, lines = invgen.__version__, out.splitlines()
        if fmt == "csv":
            assert lines[0] == f"# invgen {version}" and lines[1].startswith("# config ")
            assert json.loads(lines[1].removeprefix("# config "))["version"] == version
            assert out.count(version) == 2
        else:
            assert json.loads(lines[0])["meta"]["version"] == version
            assert out.count(version) == 1

    def test_console_script(self, capsys):
        # the `invgen` command that pip installs; no tomllib before 3.11
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^\[project\.scripts\]\n(?:[^\[].*\n)*?invgen = "([\w.]+):(\w+)"$',
                          text, re.M)
        assert match, "pyproject.toml declares no invgen console script"
        target = getattr(importlib.import_module(match.group(1)), match.group(2))
        assert callable(target)
        with pytest.raises(SystemExit) as exc:
            target(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"invgen {invgen.__version__}\n"

    @pytest.mark.parametrize("family", ["SO", "SO+", "SO-"])
    def test_bounds_at_a_negative_proportion_is_quiet(self, family):
        # s < 0 at q = 3 is clamped to 0 in silence; a RuntimeWarning once printed two stderr lines
        proc = subprocess.run(
            [sys.executable, "-m", "invgen", "bounds", "--family", family, "--q", "3"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1:] == [
            "s        = 0.0 (0)", "b_J4     = 0.3333333333333333 (1/3)",
            "i4_lower = -0.7083333333333334 (-17/24)", "no conclusion at this q (bound not positive)",
        ]

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "invgen", "exact", "--n", "2", "--l", "2", "--family", "A"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("3/4 = 0.75")


ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

# README lines of the form `invgen <args>  # -> <expected stdout>`
README_EXAMPLES = re.findall(r"^invgen (.+?)\s+# -> (.+)$", README, re.M)


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 5


@pytest.mark.parametrize("args,expected", README_EXAMPLES, ids=[a for a, _ in README_EXAMPLES])
def test_readme_example(capsys, args, expected):
    assert cli(capsys, *args.split()) == (0, expected + "\n", "")


def test_readme_library_block():
    # the Python block under "## Library", run as a reader would, against this checkout's src
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README, re.M | re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and lines[2:] == ["1/4", "36"], proc.stdout
