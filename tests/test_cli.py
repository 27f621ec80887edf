"""End-to-end tests of the command-line interface (in-process, plus one subprocess smoke)."""

import importlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import invgen
import invgen.montecarlo as montecarlo
from invgen import (
    ExperimentSpec,
    WeylFamily,
    exact_prob_J,
    exact_prob_J_and_not_N,
    exact_prob_predicate,
    run,
    sweep_seed,
)
from invgen.cli import _build_parser, main

CSV_HEADER = "n,l,family,event,trials,successes,p_hat,ci_low,ci_high,seed"


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
        assert cli(capsys, "fixedsets", "--cycles", "2+,1-", "--signed") == (0, "(2,+) (1,-)\n", "")

    def test_single_cycle_has_none(self, capsys):
        assert cli(capsys, "fixedsets", "--cycles", "5") == (0, "\n", "")

    def test_signs_need_signed_flag(self, capsys):
        code, _, err = cli(capsys, "fixedsets", "--cycles", "2+,1-")
        assert code == 2 and "error:" in err

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
        argv = ["--cycles", cycles] + ["--signed"] * cycles.endswith("+")
        code, out, err = cli(capsys, "fixedsets", *argv)
        assert (code, out) == (2, "")
        assert err == "error: fixed-set profiles are limited to n <= 2^28 (got 18446744073709551616)\n"

    @pytest.mark.parametrize("cycles", ["1,,2", "1,2,"])
    def test_empty_item(self, capsys, cycles):
        code, out, err = cli(capsys, "fixedsets", "--cycles", cycles)
        assert (code, out) == (2, "")
        assert "empty item" in err and repr(cycles) in err


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
        # at most one worker per CPU and per trial: 10 trials, 10 workers
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        argv = ("estimate", "--n", "50", "--family", "B", "--trials", "10")
        assert cli(capsys, *argv, "--threads", "100000") == cli(capsys, *argv, "--threads", "1")
        assert in_process_pool == [10]

    def test_one_trial_opens_no_pool(self, capsys, in_process_pool, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        argv = ("estimate", "--n", "50", "--family", "B", "--trials", "1")
        assert cli(capsys, *argv, "--threads", "2") == cli(capsys, *argv, "--threads", "1")
        assert in_process_pool == []

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

    def test_gap_compat(self, capsys):
        code, out, _ = cli(capsys, "estimate", "--n", "100", "--family", "B", "--gap-compat", "--seed", "3")
        assert code == 0
        # bare proportion, two decimals, defaults trials=100 l=4 event=J
        expected = run(ExperimentSpec(100, 4, WeylFamily.B, "J", 100, 3))
        assert out == f"{expected.p_hat:.2f}\n"

    def test_gap_compat_out(self, capsys, tmp_path):
        path = tmp_path / "gap.txt"
        code, out, _ = cli(
            capsys, "estimate", "--n", "100", "--family", "B", "--gap-compat", "--seed", "3",
            "--out", str(path),
        )
        assert (code, out) == (0, "")
        expected = run(ExperimentSpec(100, 4, WeylFamily.B, "J", 100, 3))
        assert path.read_text() == f"{expected.p_hat:.2f}\n"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_gap_compat_rejects_format(self, capsys, tmp_path, fmt):
        path = tmp_path / "gap.txt"
        code, out, err = cli(
            capsys, "estimate", "--n", "100", "--family", "B", "--gap-compat",
            "--out", str(path), "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert "--format does not apply with --gap-compat" in err
        assert not path.exists()

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
        code, out, _ = cli(capsys, "bounds", "--family", family, "--solve-k")
        assert code == 0
        assert expected in out.split()

    def test_solve_k_decimal_b(self, capsys):
        code, out, _ = cli(capsys, "bounds", "--family", "SL", "--solve-k", "--b-j4", "0.33333333")
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

    def test_needs_q_or_solve(self, capsys):
        code, _, err = cli(capsys, "bounds", "--family", "SL")
        assert code == 2 and "error:" in err

    def test_bad_b(self, capsys):
        code, _, _ = cli(capsys, "bounds", "--family", "SL", "--solve-k", "--b-j4", "junk")
        assert code == 2

    def test_b_out_of_range_echoes_the_text(self, capsys):
        # the message used to print the expanded Fraction, 401 digits here
        code, _, err = cli(capsys, "bounds", "--family", "Sp", "--q", "4", "--b-j4", "1e400")
        assert code == 2
        assert "'1e400'" in err and len(err) < 80

    @pytest.mark.parametrize(
        "extra,flag",
        [(["--q", "13"], "--q"), (["--sharp-a"], "--sharp-a"), (["--sharp-a", "--q", "13"], "--q")],
    )
    def test_solve_k_rejects_report_flags(self, capsys, extra, flag):
        code, out, err = cli(capsys, "bounds", "--family", "SL", "--solve-k", *extra)
        assert (code, out) == (2, "")
        assert f"error: {flag} does not apply with --solve-k" in err

    def test_no_solution_exit_1(self, capsys):
        code, _, err = cli(capsys, "bounds", "--family", "SL", "--solve-k", "--b-j4", "1e-30")
        assert code == 1 and "error:" in err

    def test_no_solution_echoes_the_text(self, capsys):
        # the message used to print the expanded Fraction: 482 bytes here
        code, _, err = cli(capsys, "bounds", "--family", "SL", "--solve-k", "--b-j4", "1e-400")
        (line,) = err.splitlines()
        assert code == 1 and line.startswith("error:")
        assert "1e-400" in line and len(line) <= 200


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
            (["exact", "--n", "2", "--family", "A"], "trails"),
            (["bounds", "--family", "SL", "--solve-k"], "trails"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else v,
    )
    def test_unknown_key_rejected(self, capsys, tmp_path, argv, bad_key):
        # a key the subcommand has no flag for is a typo, not a silent default
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n{bad_key.replace('_', '-')}=5\n")
        code, out, err = cli(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"{cfg}:2" in err and repr(bad_key) in err

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


# each subcommand's option dests; each is a --flag (dashes for
# underscores) and a config key of the same name
DESTS = {
    "sample": {"n", "family", "count", "seed"},
    "fixedsets": {"cycles", "signed"},
    "estimate": {"n", "l", "family", "event", "trials", "seed", "threads", "confidence",
                 "format", "out", "gap_compat"},
    "sweep": {"ns", "l", "family", "event", "trials", "seed", "threads", "confidence",
              "format", "out"},
    "exact": {"n", "l", "family", "event"},
    "bounds": {"family", "q", "b_j4", "solve_k", "sharp_a", "json"},
}
BOOL_DESTS = {"signed", "gap_compat", "solve_k", "sharp_a", "json"}
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


class TestTopLevel:
    def test_no_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("invgen ")

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
