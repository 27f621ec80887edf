"""Regenerate perfbench/pins.json, the exact values the benchmark checks.

    python3 perfbench/make_pins.py

Every value comes from the package's exact oracles; the brute-force cases
are also recomputed by brute force, and the script stops if the two
routes disagree.  Regenerate only when a change is meant to alter these
values, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from invgen import (  # noqa: E402
    ClassicalTag,
    WeylFamily,
    exact_prob_J,
    exact_prob_J_and_not_N,
    exact_prob_J_bruteforce,
    exact_prob_predicate,
    solve_K4,
)

import workloads  # noqa: E402


def mc_value(event: str, family: WeylFamily, n: int, l: int) -> Fraction:
    if event == "J":
        return exact_prob_J(n, l, family)
    if event == "J_and_not_N":
        return exact_prob_J_and_not_N(n, l, family)
    if event == "N":
        return exact_prob_predicate(n, family, "same_sign", l)
    return exact_prob_predicate(n, family, event) ** l


def main() -> int:
    pins = {"J": {}, "J_and_not_N": {}, "mc": {}, "K4": {}, "K4_third": {}}
    key = lambda *parts: "/".join(map(str, parts))  # noqa: E731
    for size in workloads.SIZES:
        j_keys, jn_keys, mc_keys = workloads.pin_domain(size)
        for f, n, l in j_keys:
            value = exact_prob_J(n, l, WeylFamily.parse(f))
            if (f, n, l) in workloads.BRUTE_CASES[size]:
                brute = exact_prob_J_bruteforce(n, l, WeylFamily.parse(f))
                if brute != value:
                    raise SystemExit(f"zeta and brute force disagree at {(f, n, l)}")
            pins["J"][key(f, n, l)] = str(value)
        for f, n, l in jn_keys:
            pins["J_and_not_N"][key(f, n, l)] = str(exact_prob_J_and_not_N(n, l, WeylFamily.parse(f)))
        for event, f, n, l in mc_keys:
            pins["mc"][key(event, f, n, l)] = str(mc_value(event, WeylFamily.parse(f), n, l))
        pins["K4"][size] = {}
        for tag, family in workloads.BOUND_TAGS:
            f, n, l = workloads.bound_source(family, size)
            b = Fraction(pins["J"][key(f, n, l)])
            pins["K4"][size][tag] = solve_K4(ClassicalTag(tag), b)
    for tag, _ in workloads.BOUND_TAGS:
        pins["K4_third"][tag] = solve_K4(ClassicalTag(tag), Fraction(1, 3))
    for table in ("J", "J_and_not_N", "mc"):
        pins[table] = dict(sorted(pins[table].items()))
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
