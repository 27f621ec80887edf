"""Command-line surface: sampling, profile inspection, Monte Carlo
estimation, exact oracles, and classical bound reports.

Each option is declared once, in `_OPTIONS`, and each subcommand lists
its options with their defaults in `_COMMANDS`, the one place a default
is set (`estimate` and `sweep` share `_MC`'s).  Every flag is also a
key of the `--config` file; a flag wins over the file, which wins over
the default, and both texts go through the same converter, so a bad
value fails the same way (exit 2, one `error:` line) from either place.
A flag given twice, like a config key given twice, exits 2.  No option
states what the input already decides: `fixedsets` reads signs from the
`--cycles` tokens, and `bounds` without `--q` solves for K4.

`estimate` and `sweep` write one CSV or JSON-lines file, one row per
experiment.  Output artifacts embed the tool version and the
resolved run configuration including the master seed, enough to re-run
bit-identically.  Execution-only knobs (--threads, --out) are not part of
the configuration, so files are byte-identical across thread counts.

Exit codes: 0 success, 1 runtime failure (I/O, no solution), 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .bounds import _FRACTIONS, _TOKENS, ClassicalFamily, _as_fraction, _probability, _tag_of, i4_lower_bound, solve_K4
from .cycletypes import (
    _FAMILY_TOKENS,
    Partition,
    WeylFamily,
    fixed_sizes,
    make_partition,
    make_signed,
    signed_fixed_sets,
)
from .errors import CapacityError, NoSolutionError, ValidationError, _echo
from .exact import exact_prob
from .montecarlo import EVENTS, ExperimentSpec, run, sweep
from .sampling import RngState, _check_seed, _sample

_COLUMNS = ("n", "l", "family", "event", "trials", "successes", "p_hat", "ci_low", "ci_high", "seed")


# ---------------------------------------------------------------- parsing

def _parse_seed(text: str) -> int:
    text = text.strip()
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text)
    except ValueError:
        raise ValidationError(f"bad seed {_echo(text)}; expected decimal or 0x-hex") from None
    _check_seed("seed", value)
    return value


def _parse_bj4(text: str) -> str:
    """The --b-j4 text, stripped, once bounds reads it as a probability in
    (0, 1]: the bounds functions echo it in their errors.  Only the CLI
    refuses 0, which `i4_lower_bound` accepts."""
    _probability(text, "b-j4", positive=True)
    return text.strip()


def _split_list(text: str, what: str) -> list[str]:
    """Comma-separated items, stripped.  An empty item (as in `4,,5` or a
    trailing comma) is an error, not silently dropped."""
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise ValidationError(f"empty {what} list")
    if "" in tokens:
        raise ValidationError(f"empty item {tokens.index('') + 1} in {what} list {_echo(text)}")
    return tokens


def _parse_cycles(text: str):
    """Cycle lengths, each an isdecimal token (what int() reads: isdigit()
    also passes '²').  The label is signed when the first token ends in +
    or -, and then every token carries one trailing sign."""
    tokens = _split_list(text, "cycle")
    signed = tokens[0][-1] in "+-"
    cycles = []
    for tok in tokens:
        length, sign = (tok[:-1], tok[-1]) if signed else (tok, "+")
        try:
            if not length.isdecimal() or sign not in ("+", "-"):
                raise ValueError(tok)
            cycles.append((int(length), 1 if sign == "+" else -1))
        except ValueError:  # int() also refuses more digits than the interpreter's limit
            raise ValidationError(f"bad signed cycle token {_echo(tok)}; expected like 3+ or 1-" if signed
                                  else f"bad cycle length {_echo(tok)}") from None
    return make_signed(cycles) if signed else make_partition([length for length, _ in cycles])


def _as_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValidationError(f"bad integer {_echo(text)}") from None


def _as_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ValidationError(f"bad number {_echo(text)}") from None


def _as_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"bad boolean {_echo(text)}")


def _as_format(text: str) -> str:
    if text not in ("csv", "jsonl"):
        raise ValidationError(f"unknown format {_echo(text)}; expected csv or jsonl")
    return text


def _as_path(text: str) -> str:
    """A file name open() can take: one with a NUL character fails there
    with a bare ValueError, not an OSError."""
    if "\0" in text:
        raise ValidationError(f"bad path {_echo(text)}: it holds a NUL character")
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
    "family": (WeylFamily.parse, f"Weyl family: {', '.join(_FAMILY_TOKENS)}"),
    ("bounds", "family"): (str, f"classical family: {', '.join(_TOKENS)}"),
    "event": (str, f"event: {', '.join(EVENTS)}"),
    "trials": (_as_int, "Monte Carlo trials"),
    "count": (_as_int, "labels to draw"),
    "seed": (_parse_seed, "64-bit master seed, decimal or 0x-hex"),
    "threads": (_as_int, "worker processes, at most one per CPU; the output does not depend on it"),
    "confidence": (_as_float, "Wilson interval confidence"),
    "format": (_as_format, "csv or jsonl"),
    "out": (_as_path, "output path (default stdout)"),
    "cycles": (str, "cycle type, like 3,1 or 3+,1-"),
    "q": (_as_int, "field size q (without it, solve for the threshold K4)"),
    "b_j4": (_parse_bj4, "Weyl-level bound b, fraction or decimal (default 1/3)"),
    "sharp_a": (_as_bool, "factor 1 instead of 7/8 where the family allows it"),
    "json": (_as_bool, "print JSON"),
}


def _option(command: str, dest: str):
    return _OPTIONS.get((command, dest)) or _OPTIONS[dest]


def _echo_after(path, value) -> tuple[str, str]:
    """The config path and a value shown after it in one error line: they
    share 120 characters, each taking what the other leaves, and at least
    half, so the line's other words keep it within 200."""
    return _echo(path, str, max(120 - len(repr(value)), 60)), _echo(value, room=max(120 - len(path), 60))


def _load_config(path, command: str, allowed) -> dict[str, str]:
    """key=value lines, # comments; keys mirror the subcommand's long flag
    names, and any other key, or a key given twice (in any spelling), is
    an error rather than silently ignored or overwritten."""
    if path is None:
        return {}
    try:
        with open(_as_path(path), encoding="utf-8") as fh:
            lines = fh.read().removeprefix("\ufeff").split("\n")  # a byte-order mark is no part of a key
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{_echo(path, str)}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            where, shown = _echo_after(path, line)
            raise ValidationError(f"{where}:{lineno}: expected key=value, got {shown}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        where, shown = _echo_after(path, key)
        if key not in allowed:
            raise ValidationError(f"{where}:{lineno}: unknown key {shown} for {command}; see `invgen {command} --help`")
        if key in out:
            raise ValidationError(f"{where}:{lineno}: key {shown} given again (first on line {out[key][0]})")
        out[key] = lineno, value.strip()
    return {key: value for key, (_, value) in out.items()}


def _options(args, defaults: dict) -> SimpleNamespace:
    """Resolve each option in `defaults` order: the flag if given, else the
    config key, else the default.  Either text goes through the option's
    converter, so the first bad value is reported the same way.  A flag
    given twice is refused before any is read, as a config key is."""
    flags = {dest: getattr(args, dest) or [None] for dest in (*defaults, "config")}
    if repeated := [dest for dest, texts in flags.items() if len(texts) > 1]:
        raise ValidationError(f"flag --{repeated[0].replace('_', '-')} given more than once")
    config = _load_config(flags["config"][0], args.command, defaults)
    resolved = {}
    for dest, default in defaults.items():
        text = flags[dest][0]
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
    # no field needs CSV quoting: ints, float reprs, and family and event tokens
    lines = [f"# invgen {__version__}", "# config " + json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines += [",".join(map(str, row)) for row in [_COLUMNS, *rows]]
    return "".join(line + "\n" for line in lines)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _meta(command: str, o) -> dict:
    """The run configuration: every resolved option but the execution-only
    knobs, so files are byte-identical across --threads and --out."""
    meta = {k: v for k, v in vars(o).items() if k not in ("threads", "out")}
    meta.update(command=command, version=__version__, family=o.family.value)
    return meta


# ------------------------------------------------------------ commands

def cmd_sample(o) -> int:
    if o.count < 1:
        raise ValidationError(f"count must be >= 1, got {_echo(o.count, str)}")
    for i in range(o.count):
        # one stream per label, like trial streams
        label = _sample(RngState(o.seed, i), o.n, o.family.signed_labels, o.family.sector_sign)
        print(_format_label(label))
    return 0


def cmd_fixedsets(o) -> int:
    label = _parse_cycles(o.cycles)
    if isinstance(label, Partition):
        pieces = fixed_sizes(label).sizes()
    else:
        pieces = [f"({k},{'+' if sign > 0 else '-'})" for k, sign in signed_fixed_sets(label).pairs()]
    print(" ".join(map(str, pieces)))
    return 0


def cmd_estimate(o) -> int:
    spec = ExperimentSpec(n=o.n, l=o.l, family=o.family, event=o.event, trials=o.trials,
                          master_seed=o.seed)
    est = run(spec, threads=o.threads, confidence=o.confidence)
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
    """The threshold K4 without --q, else the i4 report at --q, as text or
    JSON.  The bounds library refuses a number it could not print, so no
    report prints in part."""
    tag = _tag_of(o.family, o.q)
    if o.q is None:
        if o.sharp_a:
            raise ValidationError("--sharp-a needs --q")
        k4 = solve_K4(tag, o.b_j4)
        b = _as_fraction(o.b_j4)
        record = {"family": o.family, "tag": tag.value, "b_j4": float(b), "b_j4_exact": str(b), "K4": k4}
        lines = [f"K4({o.family}) = {k4}"]
    else:
        report = i4_lower_bound(ClassicalFamily(tag=tag, q=o.q), o.b_j4, sharp_a=o.sharp_a)
        record = report.to_dict()
        lines = [f"family {record['family']} (q={record['q']}), weyl family {record['weyl_family']}"]
        lines += [f"{name:8} = {float(getattr(report, name))!r} ({getattr(report, name)})" for name in _FRACTIONS]
        if report.i4_lower <= 0:
            lines.append("no conclusion at this q (bound not positive)")
    print(json.dumps(record, sort_keys=True) if o.json else "\n".join(lines))
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
                  {"cycles": REQUIRED}),
    "estimate": (cmd_estimate, "Monte Carlo estimate of one experiment", {**_MC, "n": REQUIRED}),
    "sweep": (cmd_sweep, "Monte Carlo estimates over a list of n", {**_MC, "ns": REQUIRED}),
    "exact": (cmd_exact, "exact small-n probability of an event (default J)",
              {"n": REQUIRED, "l": 4, "family": REQUIRED, "event": "J"}),
    "bounds": (cmd_bounds, "classical-group bound report / threshold solver",
               {"family": REQUIRED, "b_j4": Fraction(1, 3), "sharp_a": False, "json": False, "q": None}),
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
            # every flag appends, so that _options can refuse one given twice; _as_bool flags are bare
            how = {"action": "append_const", "const": "true"} if convert is _as_bool else {"action": "append"}
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=help_text, **how)
        p.add_argument("--config", action="append", help="key=value file whose keys mirror the flags; flags win")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    func, _, defaults = _COMMANDS[args.command]
    try:
        return func(_options(args, defaults))
    except OSError as exc:  # the OS's reason and the file it names, which may be any length
        named = "" if exc.filename is None else ": " + (_echo(exc.filename, str) or "''")
        print(f"error: {exc.strerror or exc}{named}", file=sys.stderr)
        return 1
    except (ValidationError, CapacityError, NoSolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NoSolutionError) else 2
