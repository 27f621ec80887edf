"""Command-line surface: sampling, profile inspection, Monte Carlo
estimation, exact oracles, and classical bound reports.

Each option is declared once, in `_OPTIONS`, and each subcommand lists
its options with their defaults in `_COMMANDS`.  Every flag is also a
key of the `--config` file; a flag wins over the file, which wins over
the default, and both texts go through the same converter, so a bad
value fails the same way (exit 2, one `error:` line) from either place.

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
import functools
import io
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

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
from .errors import CapacityError, NoSolutionError, ValidationError
from .exact import exact_prob
from .montecarlo import EVENTS, ExperimentSpec, run, sweep
from .sampling import RngState, sample_partition, sample_signed, sample_signed_conditioned

_COLUMNS = ("n", "l", "family", "event", "trials", "successes", "p_hat", "ci_low", "ci_high", "seed")
_SIGNED_TOKEN = re.compile(r"^(\d+)([+-])$")


# ---------------------------------------------------------------- parsing

def _parse_seed(text: str) -> int:
    text = text.strip()
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text)
    except ValueError:
        raise ValidationError(f"bad seed {text!r}; expected decimal or 0x-hex") from None
    if not 0 <= value < 1 << 64:
        raise ValidationError(f"seed must fit in 64 bits, got {text}")
    return value


def _parse_bj4(text: str) -> str:  # the text: the bounds functions echo it in their errors
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad b-j4 value {text!r}; expected a fraction like 1/3 or a decimal") from None
    if not 0 < value <= 1:
        raise ValidationError(f"b-j4 must be in (0,1], got {text!r}")
    return text.strip()


def _split_list(text: str, what: str) -> list[str]:
    """Comma-separated items, stripped.  An empty item (as in `4,,5` or a
    trailing comma) is an error, not silently dropped."""
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
        if not tok.isdecimal():  # what int() reads: isdigit() also passes '²'
            raise ValidationError(f"bad cycle length {tok!r}")
        parts.append(int(tok))
    return make_partition(parts)


# token -> (tag at odd q, tag at even q); the threshold solver has no q and
# reads the odd-q row, the table's single (weaker) Sp row
_CLASSICAL = {
    "SL": (ClassicalTag.SL, ClassicalTag.SL),
    "SU": (ClassicalTag.SU, ClassicalTag.SU),
    "Sp": (ClassicalTag.SP_ODD_Q, ClassicalTag.SP_EVEN_Q),
    "SO": (ClassicalTag.SO_ODD_DIM, ClassicalTag.SO_ODD_DIM),
    "SO+": (ClassicalTag.SO_EVEN_DIM_PLUS, ClassicalTag.SO_EVEN_DIM_PLUS),
    "SO-": (ClassicalTag.SO_EVEN_DIM_MINUS, ClassicalTag.SO_EVEN_DIM_MINUS),
}


def _classical_tag(token: str, q: int | None) -> ClassicalTag:
    if token not in _CLASSICAL:
        raise ValidationError(f"unknown classical family {token!r}; expected {', '.join(_CLASSICAL)}")
    return _CLASSICAL[token][q is not None and q % 2 == 0]


def _as_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValidationError(f"bad integer {text!r}") from None


def _as_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ValidationError(f"bad number {text!r}") from None


def _as_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"bad boolean {text!r}")


def _as_format(text: str) -> str:
    if text not in ("csv", "jsonl"):
        raise ValidationError(f"unknown format {text!r}; expected csv or jsonl")
    return text


def _parse_ns(text: str) -> list[int]:
    return [_as_int(t) for t in _split_list(text, "n")]


def _format_label(label) -> str:
    if isinstance(label, Partition):
        return ",".join(str(p) for p in label.parts)
    return ",".join(f"{length}{'+' if sign > 0 else '-'}" for length, sign in label.cycles)


# ---------------------------------------------------------------- options

REQUIRED = object()  # the default of an option that has none

# dest -> (converter, help), one entry per option.  The flag is --dest with
# dashes for underscores, and the config key is dest.  A (command, dest)
# key overrides dest for the one command that gives the flag another
# meaning.  Flags hold raw text, so a flag and a config value pass through
# the same converter; _as_bool options are bare flags.
_OPTIONS = {
    "n": (_as_int, "n of S_n, B_n, C_n or D_n"),
    "ns": (_parse_ns, "comma-separated n values"),
    "l": (_as_int, "number of elements l"),
    "family": (WeylFamily.parse, "Weyl family: A, B, C, D+, D-"),
    ("bounds", "family"): (str, f"classical family: {', '.join(_CLASSICAL)}"),
    "event": (str, f"event: {', '.join(EVENTS)}"),
    "trials": (_as_int, "Monte Carlo trials"),
    "count": (_as_int, "labels to draw"),
    "seed": (_parse_seed, "64-bit master seed, decimal or 0x-hex"),
    "threads": (_as_int, "worker processes, at most one per CPU; the output does not depend on it"),
    "confidence": (_as_float, "Wilson interval confidence"),
    "format": (_as_format, "csv or jsonl"),
    "out": (str, "output path (default stdout)"),
    "gap_compat": (_as_bool, "l=4, trials=100 defaults; print the bare proportion"),
    "cycles": (str, "cycle type, like 3,1 or 3+,1-"),
    "signed": (_as_bool, "the cycles carry signs"),
    "q": (_as_int, "field size q"),
    "b_j4": (_parse_bj4, "Weyl-level bound b, fraction or decimal (default 1/3)"),
    "solve_k": (_as_bool, "solve for the threshold K4 instead of reporting at --q"),
    "sharp_a": (_as_bool, "factor 1 instead of 7/8 where the family allows it"),
    "json": (_as_bool, "print JSON"),
}


def _option(command: str, dest: str):
    return _OPTIONS.get((command, dest)) or _OPTIONS[dest]


def _load_config(path, command: str, allowed) -> dict[str, str]:
    """key=value lines, # comments; keys mirror the subcommand's long flag
    names, and any other key is an error rather than silently ignored."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in allowed:
            raise ValidationError(
                f"{path}:{lineno}: unknown key {key!r} for {command}; "
                f"expected one of {', '.join(sorted(allowed))}"
            )
        out[key] = value.strip()
    return out


def _options(args, defaults: dict) -> SimpleNamespace:
    """Resolve each option in `defaults` order: the flag if given, else the
    config key, else the default.  Either text goes through the option's
    converter, so the first bad value is reported the same way."""
    config = _load_config(args.config, args.command, defaults)
    resolved = {}
    for dest, default in defaults.items():
        text = getattr(args, dest)
        if text is None:
            text = config.get(dest)
        if text is not None:
            resolved[dest] = _option(args.command, dest)[0](text)
        elif default is REQUIRED:
            raise ValidationError(f"missing required flag --{dest.replace('_', '-')}")
        else:
            resolved[dest] = default
    return SimpleNamespace(**resolved)


# ------------------------------------------------------------ output

def _render(estimates, meta: dict, fmt: str) -> str:
    rows = [
        (e.spec.n, e.spec.l, e.spec.family.value, e.spec.event, e.spec.trials, e.successes,
         e.p_hat, e.ci_low, e.ci_high, e.spec.master_seed)
        for e in estimates
    ]
    if fmt == "jsonl":
        lines = [{"meta": meta}] + [dict(zip(_COLUMNS, row)) for row in rows]
        return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    buf = io.StringIO()
    buf.write(f"# invgen {__version__}\n")
    buf.write("# config " + json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _meta(command: str, o) -> dict:
    """The run configuration: every resolved option but the execution-only
    knobs, so files are byte-identical across --threads and --out."""
    meta = {k: v for k, v in vars(o).items() if k not in ("threads", "out", "gap_compat")}
    meta.update(command=command, version=__version__, family=o.family.value)
    return meta


# ------------------------------------------------------------ commands

def cmd_sample(o) -> int:
    if o.count < 1:
        raise ValidationError(f"count must be >= 1, got {o.count}")
    for i in range(o.count):
        rng = RngState(o.seed, i)  # one stream per label, like trial streams
        if o.family is WeylFamily.A:
            label = sample_partition(o.n, rng)
        elif o.family.sector_sign is None:
            label = sample_signed(o.n, rng)
        else:
            label = sample_signed_conditioned(o.n, o.family.sector_sign, rng)
        print(_format_label(label))
    return 0


def cmd_fixedsets(o) -> int:
    label = _parse_cycles(o.cycles, o.signed)
    if o.signed:
        pieces = [f"({k},{'+' if sign > 0 else '-'})" for k, sign in signed_fixed_sets(label).pairs()]
    else:
        pieces = fixed_sizes(label).sizes()
    print(" ".join(map(str, pieces)))
    return 0


def cmd_estimate(o) -> int:
    if o.gap_compat and o.format is not None:
        raise ValidationError("--format does not apply with --gap-compat, which prints a bare proportion")
    if o.trials is None:
        o.trials = 100 if o.gap_compat else 10000
    spec = ExperimentSpec(n=o.n, l=o.l, family=o.family, event=o.event, trials=o.trials,
                          master_seed=o.seed)
    est = run(spec, threads=o.threads, confidence=o.confidence)
    if o.gap_compat:
        _emit(f"{est.p_hat:.2f}\n", o.out)
        return 0
    o.format = o.format or "csv"
    _emit(_render([est], _meta("estimate", o), o.format), o.out)
    return 0


def cmd_sweep(o) -> int:
    specs = [
        ExperimentSpec(n=n, l=o.l, family=o.family, event=o.event, trials=o.trials, master_seed=o.seed)
        for n in o.ns
    ]
    estimates = sweep(specs, threads=o.threads, confidence=o.confidence)
    _emit(_render(estimates, _meta("sweep", o), o.format), o.out)
    return 0


def cmd_exact(o) -> int:
    value = exact_prob(o.n, o.l, o.family, o.event)
    print(f"{value} = {float(value)!r}")
    return 0


def cmd_bounds(o) -> int:
    if o.solve_k:
        tag = _classical_tag(o.family, None)
        for flag, given in (("--q", o.q is not None), ("--sharp-a", o.sharp_a)):
            if given:
                raise ValidationError(f"{flag} does not apply with --solve-k")
        k = solve_K4(tag, o.b_j4)
        if o.json:
            b = Fraction(o.b_j4)
            print(json.dumps(
                {"family": o.family, "tag": tag.value, "b_j4": float(b), "b_j4_exact": str(b), "K4": k},
                sort_keys=True,
            ))
        else:
            print(f"K4({o.family}) = {k}")
        return 0
    if o.q is None:
        raise ValidationError("bounds needs --q or --solve-k")
    tag = _classical_tag(o.family, o.q)
    report = i4_lower_bound(ClassicalFamily(tag=tag, q=o.q), o.b_j4, sharp_a=o.sharp_a)
    if o.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(f"family {tag.value} (q={o.q}), weyl family {report.weyl_family.value}")
        print(f"s        = {float(report.s)!r} ({report.s})")
        print(f"b_J4     = {float(report.b_J4)!r} ({report.b_J4})")
        print(f"i4_lower = {float(report.i4_lower)!r} ({report.i4_lower})")
        if report.i4_lower <= 0:
            print("no conclusion at this q (bound not positive)")
    return 0


# ------------------------------------------------------------ wiring

_MC = {"family": REQUIRED, "l": 4, "trials": 10000, "event": "J", "seed": 0, "threads": 1,
       "confidence": 0.99, "format": "csv", "out": None}

# name -> (command, help, {dest: default}); the dict order is the order
# the options are resolved in, so it fixes which bad value is reported
_COMMANDS = {
    "sample": (cmd_sample, "draw cycle-type class labels",
               {"n": REQUIRED, "family": REQUIRED, "count": 1, "seed": 0}),
    "fixedsets": (cmd_fixedsets, "achievable proper fixed-set sizes of one cycle type",
                  {"signed": False, "cycles": REQUIRED}),
    "estimate": (cmd_estimate, "Monte Carlo estimate of one experiment",
                 {"gap_compat": False, **_MC, "trials": None, "format": None, "n": REQUIRED}),
    "sweep": (cmd_sweep, "Monte Carlo estimates over a list of n", {**_MC, "ns": REQUIRED}),
    "exact": (cmd_exact, "exact small-n probability of an event (default J)",
              {"n": REQUIRED, "l": 4, "family": REQUIRED, "event": "J"}),
    "bounds": (cmd_bounds, "classical-group bound report / threshold solver",
               {"family": REQUIRED, "b_j4": Fraction(1, 3), "solve_k": False, "sharp_a": False,
                "json": False, "q": None}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invgen",
        description="Invariable-generation experiments on Weyl groups: "
                    "samplers, Monte Carlo estimates, exact oracles, classical bounds.",
    )
    parser.add_argument("--version", action="version", version=f"invgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in defaults:
            convert, help_text = _option(name, dest)
            bare = {"action": "store_const", "const": "true"} if convert is _as_bool else {}
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=help_text, **bare)
        p.add_argument("--config", help="key=value file whose keys mirror the flags; flags win")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    func, _, defaults = _COMMANDS[args.command]
    try:
        return func(_options(args, defaults))
    except (ValidationError, CapacityError, NoSolutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (NoSolutionError, OSError)) else 2
