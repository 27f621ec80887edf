"""Command-line surface: sampling, profile inspection, Monte Carlo
estimation, exact oracles, and classical bound reports.

Output artifacts (CSV or JSON lines) embed the tool version and the
resolved run configuration including the master seed, enough to re-run
bit-identically.  Execution-only knobs (--threads, --out) are not part of
the configuration, so files are byte-identical across thread counts.

Exit codes: 0 success, 1 runtime failure (I/O, no solution), 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .bounds import ClassicalFamily, ClassicalTag, i4_lower_bound, solve_K4
from .cycletypes import (
    Partition,
    WeylFamily,
    fixed_sizes,
    make_partition,
    make_signed,
    signed_fixed_sets,
)
from .errors import CapacityError, NoSolutionError, ValidationError, check_positive_int
from .exact import exact_prob_J, exact_prob_J_and_not_N, exact_prob_predicate
from .montecarlo import EVENTS, ExperimentSpec, check_event, run, sweep
from .sampling import (
    RngState,
    sample_partition,
    sample_signed,
    sample_signed_conditioned,
)

_CSV_COLUMNS = ("n", "l", "family", "event", "trials", "successes", "p_hat", "ci_low", "ci_high", "seed")
_SIGNED_TOKEN = re.compile(r"^(\d+)([+-])$")


# ---------------------------------------------------------------- parsing

def _parse_seed(text: str) -> int:
    text = str(text).strip()
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text)
    except ValueError:
        raise ValidationError(f"bad seed {text!r}; expected decimal or 0x-hex") from None
    if not 0 <= value < 1 << 64:
        raise ValidationError(f"seed must fit in 64 bits, got {text}")
    return value


def _parse_bj4(text: str) -> Fraction:
    try:
        value = Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad b-j4 value {text!r}; expected a fraction like 1/3 or a decimal") from None
    if not 0 < value <= 1:
        raise ValidationError(f"b-j4 must be in (0,1], got {value}")
    return value


def _split_list(text, what: str) -> list[str]:
    """Comma-separated items, stripped.  An empty item (as in `4,,5` or a
    trailing comma) is an error, not silently dropped."""
    text = str(text)
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise ValidationError(f"empty {what} list")
    if "" in tokens:
        raise ValidationError(f"empty item {tokens.index('') + 1} in {what} list {text!r}")
    return tokens


def _parse_cycles(text: str, signed: bool):
    tokens = _split_list(text, "cycle")
    if signed:
        pairs = []
        for tok in tokens:
            m = _SIGNED_TOKEN.match(tok)
            if not m:
                raise ValidationError(f"bad signed cycle token {tok!r}; expected like 3+ or 1-")
            pairs.append((int(m.group(1)), 1 if m.group(2) == "+" else -1))
        return make_signed(pairs)
    parts = []
    for tok in tokens:
        if not tok.isdigit():
            raise ValidationError(f"bad cycle length {tok!r}")
        parts.append(int(tok))
    return make_partition(parts)


def _classical_tag(token: str, q: int | None) -> ClassicalTag:
    if token == "SL":
        return ClassicalTag.SL
    if token == "SU":
        return ClassicalTag.SU
    if token == "Sp":
        # no q means the threshold solver; that uses the table's single
        # (odd-q, weaker) Sp row
        if q is None or q % 2 == 1:
            return ClassicalTag.SP_ODD_Q
        return ClassicalTag.SP_EVEN_Q
    if token == "SO":
        return ClassicalTag.SO_ODD_DIM
    if token == "SO+":
        return ClassicalTag.SO_EVEN_DIM_PLUS
    if token == "SO-":
        return ClassicalTag.SO_EVEN_DIM_MINUS
    raise ValidationError(
        f"unknown classical family {token!r}; expected SL, SU, Sp, SO, SO+, SO-"
    )


def _as_int(text) -> int:
    try:
        return int(str(text).strip())
    except ValueError:
        raise ValidationError(f"bad integer {text!r}") from None


def _as_float(text) -> float:
    try:
        return float(str(text).strip())
    except ValueError:
        raise ValidationError(f"bad number {text!r}") from None


def _as_bool(text) -> bool:
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"bad boolean {text!r}")


def _parse_ns(text: str) -> list[int]:
    return [_as_int(t) for t in _split_list(text, "n")]


def _format_label(label) -> str:
    if isinstance(label, Partition):
        return ",".join(str(p) for p in label.parts)
    return ",".join(f"{length}{'+' if sign > 0 else '-'}" for length, sign in label.cycles)


# ------------------------------------------------------- config resolution

def _load_config(args) -> dict[str, str]:
    """key=value lines, # comments; keys mirror the subcommand's long flag
    names, and any other key is an error rather than silently ignored."""
    path = args.config
    if path is None:
        return {}
    allowed = set(vars(args)) - {"command", "func", "config"}
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in allowed:
                raise ValidationError(
                    f"{path}:{lineno}: unknown key {key!r} for {args.command}; "
                    f"expected one of {', '.join(sorted(allowed))}"
                )
            out[key] = value.strip()
    return out


def _resolve(args, config: dict, key: str, cast, default):
    """Flags win over the config file, which wins over the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return cast(config[key])
    return default


def _require(value, flag: str):
    if value is None:
        raise ValidationError(f"missing required flag {flag}")
    return value


# ------------------------------------------------------------ output

def _render(estimates, meta: dict, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# invgen {__version__}\n")
        buf.write("# config " + json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for est in estimates:
            s = est.spec
            writer.writerow(
                [s.n, s.l, s.family.value, s.event, s.trials, est.successes,
                 repr(est.p_hat), repr(est.ci_low), repr(est.ci_high), s.master_seed]
            )
        return buf.getvalue()
    if fmt == "jsonl":
        lines = [json.dumps({"meta": meta}, sort_keys=True)]
        for est in estimates:
            s = est.spec
            lines.append(json.dumps(
                {"n": s.n, "l": s.l, "family": s.family.value, "event": s.event,
                 "trials": s.trials, "successes": est.successes, "p_hat": est.p_hat,
                 "ci_low": est.ci_low, "ci_high": est.ci_high, "seed": s.master_seed},
                sort_keys=True,
            ))
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown format {fmt!r}; expected csv or jsonl")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _meta(command: str, **fields) -> dict:
    meta = {"command": command, "version": __version__}
    meta.update(fields)
    return meta


# ------------------------------------------------------------ commands

def cmd_sample(args) -> int:
    config = _load_config(args)
    n = _require(_resolve(args, config, "n", _as_int, None), "--n")
    family = WeylFamily.parse(_require(_resolve(args, config, "family", str, None), "--family"))
    count = _resolve(args, config, "count", _as_int, 1)
    seed = _parse_seed(_resolve(args, config, "seed", str, "0"))
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    for i in range(count):
        rng = RngState(seed, i)  # one stream per label, like trial streams
        if family is WeylFamily.A:
            label = sample_partition(n, rng)
        elif family.sector_sign is None:
            label = sample_signed(n, rng)
        else:
            label = sample_signed_conditioned(n, family.sector_sign, rng)
        print(_format_label(label))
    return 0


def cmd_fixedsets(args) -> int:
    config = _load_config(args)
    signed = _resolve(args, config, "signed", _as_bool, False)
    cycles = _require(_resolve(args, config, "cycles", str, None), "--cycles")
    label = _parse_cycles(cycles, signed)
    if signed:
        prof = signed_fixed_sets(label)
        pieces = [f"({k},+)" for k in range(1, prof.n) if prof.plus >> k & 1]
        pieces += [f"({k},-)" for k in range(1, prof.n) if prof.minus >> k & 1]
        print(" ".join(pieces))
    else:
        prof = fixed_sizes(label)
        print(" ".join(str(k) for k in prof.sizes()))
    return 0


def _mc_common(args, config, sweep_mode: bool):
    gap = False if sweep_mode else _resolve(args, config, "gap_compat", _as_bool, False)
    family = WeylFamily.parse(_require(_resolve(args, config, "family", str, None), "--family"))
    l = _resolve(args, config, "l", _as_int, 4)
    trials = _resolve(args, config, "trials", _as_int, 100 if gap else 10000)
    event = _resolve(args, config, "event", str, "J")
    seed = _parse_seed(_resolve(args, config, "seed", str, "0"))
    threads = _resolve(args, config, "threads", _as_int, 1)
    confidence = _resolve(args, config, "confidence", _as_float, 0.99)
    fmt = _resolve(args, config, "format", str, "csv")
    out = _resolve(args, config, "out", str, None)
    if fmt not in ("csv", "jsonl"):
        raise ValidationError(f"unknown format {fmt!r}; expected csv or jsonl")
    return gap, family, l, trials, event, seed, threads, confidence, fmt, out


def cmd_estimate(args) -> int:
    config = _load_config(args)
    gap, family, l, trials, event, seed, threads, confidence, fmt, out = _mc_common(
        args, config, sweep_mode=False
    )
    n = _require(_resolve(args, config, "n", _as_int, None), "--n")
    spec = ExperimentSpec(n=n, l=l, family=family, event=event, trials=trials, master_seed=seed)
    est = run(spec, threads=threads, confidence=confidence)
    if gap:
        print(f"{est.p_hat:.2f}")
        return 0
    meta = _meta("estimate", n=n, l=l, family=family.value, event=event, trials=trials,
                 seed=seed, confidence=confidence, format=fmt)
    _emit(_render([est], meta, fmt), out)
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    _, family, l, trials, event, seed, threads, confidence, fmt, out = _mc_common(
        args, config, sweep_mode=True
    )
    ns = _parse_ns(_require(_resolve(args, config, "ns", str, None), "--ns"))
    specs = [
        ExperimentSpec(n=n, l=l, family=family, event=event, trials=trials, master_seed=seed)
        for n in ns
    ]
    estimates = sweep(specs, threads=threads, confidence=confidence)
    meta = _meta("sweep", ns=ns, l=l, family=family.value, event=event, trials=trials,
                 seed=seed, confidence=confidence, format=fmt)
    _emit(_render(estimates, meta, fmt), out)
    return 0


def cmd_exact(args) -> int:
    config = _load_config(args)
    n = _require(_resolve(args, config, "n", _as_int, None), "--n")
    l = _resolve(args, config, "l", _as_int, 4)
    family = WeylFamily.parse(_require(_resolve(args, config, "family", str, None), "--family"))
    event = _resolve(args, config, "event", str, "J")
    check_event(event, family)
    if event == "J":
        value = exact_prob_J(n, l, family)
    elif event == "J_and_not_N":
        value = exact_prob_J_and_not_N(n, l, family)
    elif event == "N":
        value = exact_prob_predicate(n, family, "same_sign", l)
    else:  # all_even, all_positive: single-element masses, elements independent
        check_positive_int("l", l)
        value = exact_prob_predicate(n, family, event) ** l
    print(f"{value} = {float(value)!r}")
    return 0


def cmd_bounds(args) -> int:
    config = _load_config(args)
    token = _require(_resolve(args, config, "family", str, None), "--family")
    b = _parse_bj4(_resolve(args, config, "b_j4", str, "1/3"))
    solve = _resolve(args, config, "solve_k", _as_bool, False)
    sharp = _resolve(args, config, "sharp_a", _as_bool, False)
    as_json = _resolve(args, config, "json", _as_bool, False)
    q = _resolve(args, config, "q", _as_int, None)
    if solve:
        tag = _classical_tag(token, None)
        k = solve_K4(tag, b)
        if as_json:
            print(json.dumps(
                {"family": token, "tag": tag.value, "b_j4": float(b),
                 "b_j4_exact": str(b), "K4": k},
                sort_keys=True,
            ))
        else:
            print(f"K4({token}) = {k}")
        return 0
    if q is None:
        raise ValidationError("bounds needs --q or --solve-k")
    tag = _classical_tag(token, q)
    report = i4_lower_bound(ClassicalFamily(tag=tag, q=q), b, sharp_a=sharp)
    if as_json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(f"family {tag.value} (q={q}), weyl family {report.weyl_family.value}")
        print(f"s        = {float(report.s)!r} ({report.s})")
        print(f"b_J4     = {float(report.b_J4)!r} ({report.b_J4})")
        print(f"i4_lower = {float(report.i4_lower)!r} ({report.i4_lower})")
        if report.i4_lower <= 0:
            print("no conclusion at this q (bound not positive)")
    return 0


# ------------------------------------------------------------ wiring

def _add_config_flag(p) -> None:
    p.add_argument("--config", help="key=value file whose keys mirror the flags; flags win")


def _add_mc_flags(p, sweep_mode: bool) -> None:
    if sweep_mode:
        p.add_argument("--ns", help="comma-separated n values")
    else:
        p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--family", help="Weyl family: A, B, C, D+, D-")
    p.add_argument("--event", choices=EVENTS)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", help="64-bit master seed, decimal or 0x-hex")
    p.add_argument("--threads", type=int)
    p.add_argument("--confidence", type=float)
    p.add_argument("--format", choices=("csv", "jsonl"))
    p.add_argument("--out", help="output path (default stdout)")
    if not sweep_mode:
        p.add_argument("--gap-compat", dest="gap_compat", action="store_const", const=True,
                       help="l=4, trials=100 defaults; print the bare proportion")
    _add_config_flag(p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invgen",
        description="Invariable-generation experiments on Weyl groups: "
                    "samplers, Monte Carlo estimates, exact oracles, classical bounds.",
    )
    parser.add_argument("--version", action="version", version=f"invgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw cycle-type class labels")
    p.add_argument("--n", type=int)
    p.add_argument("--family", help="Weyl family: A, B, C, D+, D-")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", help="64-bit master seed, decimal or 0x-hex")
    _add_config_flag(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fixedsets", help="achievable proper fixed-set sizes of one cycle type")
    p.add_argument("--cycles", help="cycle type, like 3,1 or 3+,1-")
    p.add_argument("--signed", action="store_const", const=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_fixedsets)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of one experiment")
    _add_mc_flags(p, sweep_mode=False)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="Monte Carlo estimates over a list of n")
    _add_mc_flags(p, sweep_mode=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exact", help="exact small-n probability of an event (default J)")
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--family", help="Weyl family: A, B, C, D+, D-")
    p.add_argument("--event", choices=EVENTS)
    _add_config_flag(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("bounds", help="classical-group bound report / threshold solver")
    p.add_argument("--family", help="classical family: SL, SU, Sp, SO, SO+, SO-")
    p.add_argument("--q", type=int)
    p.add_argument("--b-j4", dest="b_j4", help="Weyl-level bound b, fraction or decimal (default 1/3)")
    p.add_argument("--solve-k", dest="solve_k", action="store_const", const=True)
    p.add_argument("--sharp-a", dest="sharp_a", action="store_const", const=True)
    p.add_argument("--json", action="store_const", const=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
