"""Regenerate the golden fixtures in tests/golden, the output bytes that
tests/test_golden.py pins.

    python3 tests/golden/make_goldens.py

Each fixture is a text file of blocks.  A block starts with a `$ ` line
naming what produced it (a CLI call, or a run of `next64` draws) and
holds that call's exact stdout; `sample.txt` ends with a block of library
sampler draws, one label a line.  The cases cover every sampler, both
Monte Carlo regimes (small n, where sampling dominates, and large n, where
the profile DP does), every event each family accepts, CSV and JSON-lines
rendering, the exact oracles at small n, and the classical bound reports
and threshold solver.  `exact_cells.txt` is not CLI output: it holds a
short hash of every `exact_prob` value (or its error's class name) over
every family and event at the n and l of CELL_NS and CELL_LS, so a
rewrite of the exact oracle shows the same results on 3,000 cells.
`mc_outcomes.txt` holds, per Monte Carlo spec of MC_CELLS, the outcome of
each trial, `_count_range(spec, t, t + 1)`, as one bit string: its count
of ones and a short hash.  The specs cross every branch of the trial loop
(table draws, stick-breaking below and above the window cut-off) at every
event and l of MC_LS, so a rewrite of the samplers or of the engine shows
the same draws and outcomes trial by trial.  Its last lines hold the
successes of whole ranges of the table specs, `_count_range(spec, a, b)`
for each (a, b) of `_mc_ranges`, where the engine runs many trials at
once.

Regenerate only when a change is meant to alter output bytes; such a
change also bumps the version and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from invgen import (EVENTS, InvgenError, RngState, ValidationError, WeylFamily, exact_prob,  # noqa: E402
                    sample_partition, sample_signed, sample_signed_conditioned)
from invgen.cli import _format_label, main as cli_main  # noqa: E402
from invgen.montecarlo import ExperimentSpec, _count_range, check_event  # noqa: E402

# exact_cells.txt: every (family, event) pair, errors included, at these n and l
CELL_NS = (*range(1, 13), 20, 28, 29)
CELL_LS = (1, 2, 3, 4, 5, 6, 8, 16)
# mc_outcomes.txt: (families, n, trials); the table draws reach A n = 20 and
# signed n = 16, and the window pass starts at n = 2^16; signed n = 12 was
# the first stick-breaking n up to invgen 0.6.0, and n = 17 is now
_SIGNED = ("B", "C", "D+", "D-")
MC_CELLS = (
    (("A",), 8, 1000), (("A",), 20, 1000), (_SIGNED, 11, 1000),
    (("A",), 21, 500), (_SIGNED, 12, 500), (_SIGNED, 17, 500),
    (("A", *_SIGNED), 1000, 200),
    (("A", *_SIGNED), 1 << 16, 16), (("A", *_SIGNED), (1 << 16) + 1, 16), (("A", *_SIGNED), 10**6, 16),
)
MC_LS = (1, 2, 4, 16)
# the MC_CELLS that have been table draws since invgen 0.2.0 (A n <= 20, signed n <= 11)
MC_TABLE_CELLS = MC_CELLS[:3]
# sample.txt's library block: (name, sampler, the n of each successive
# draw), table sizes (A n <= 20, signed n <= 16) alternating with others
_PARTITION_NS = (20, 21, 8, 1000, 1, 2, 5, 300)
_SIGNED_NS = (11, 12, 8, 1000, 1, 2, 5, 300)
LIBRARY_SAMPLES = (
    ("sample_partition", sample_partition, _PARTITION_NS),
    ("sample_signed", sample_signed, _SIGNED_NS),
    ("sample_signed_conditioned want_sign=1", lambda n, rng: sample_signed_conditioned(n, 1, rng), _SIGNED_NS),
    ("sample_signed_conditioned want_sign=-1", lambda n, rng: sample_signed_conditioned(n, -1, rng), _SIGNED_NS),
)
NEXT64_STREAMS = ((0, 0), (5, 3), ((1 << 64) - 1, 7))
NEXT64_DRAWS = 20


def _accepts(event: str, family: WeylFamily) -> bool:
    try:
        check_event(event, family)
    except ValidationError:
        return False
    return True


# family token -> every event it accepts, in EVENTS order
FAMILY_EVENTS = {
    family.value: tuple(e for e in EVENTS if _accepts(e, family)) for family in WeylFamily
}

# trials per estimate row by n: n <= 8 is cheap, n = 1000 is not
ESTIMATE_TRIALS = {1: 200, 8: 2000, 1000: 200}
CLASSICAL_TOKENS = ("SL", "SU", "Sp", "SO", "SO+", "SO-")


def _sample_calls():
    for family in ("A", "B", "C", "D+", "D-"):
        yield ["sample", "--n", "8", "--family", family, "--count", "12", "--seed", "20240601"]
    # above the table caps: stick-breaking; signed n = 12 is a table draw since invgen 0.7.0
    for family in ("A", "B", "C", "D+", "D-"):
        yield ["sample", "--n", "1000", "--family", family, "--count", "6", "--seed", "20240601"]
    yield ["sample", "--n", "21", "--family", "A", "--count", "12", "--seed", "20240601"]
    for family in ("B", "C", "D+", "D-"):
        yield ["sample", "--n", "12", "--family", family, "--count", "12", "--seed", "20240601"]
    for family in ("B", "C", "D+", "D-"):
        yield ["sample", "--n", "17", "--family", family, "--count", "12", "--seed", "20240601"]


def _sample_library_text() -> str:
    """Successive draws from one stream per public sampler, alternating a
    table n and a stick-breaking n: each element starts where the one
    before it ended."""
    out = []
    for name, sample, ns in LIBRARY_SAMPLES:
        rng = RngState(20240601, 9)
        out.append(f"$ {name} seed=20240601 stream=9 ns={','.join(map(str, ns))}\n")
        out.extend(f"{_format_label(sample(n, rng))}\n" for n in ns)
    return "".join(out)


def _fixedsets_calls():
    yield ["fixedsets", "--cycles", "3,1"]
    yield ["fixedsets", "--cycles", "5"]
    yield ["fixedsets", "--cycles", "6,4,4,2,1,1"]
    yield ["fixedsets", "--cycles", "2+,1-"]
    yield ["fixedsets", "--cycles", "4-,3+,2-,2+,1-"]


def _estimate_calls():
    for n, trials in ESTIMATE_TRIALS.items():
        for family, events in FAMILY_EVENTS.items():
            for event in events:
                yield ["estimate", "--n", str(n), "--l", "4", "--family", family,
                       "--event", event, "--trials", str(trials), "--seed", str(n * 1009 + 17)]


def _estimate_large_calls():
    for family in ("A", "B"):
        yield ["estimate", "--n", "100000", "--l", "4", "--family", family,
               "--trials", "20", "--seed", "0x5eed"]


def _estimate_window_calls():
    # n = 2*10^5 for every J / J_and_not_N family and l in {1, 2, 8, 16}:
    # large n, where the profile DP is most of a trial
    rows = [(family, "J", 4) for family in ("C", "D+", "D-")]
    rows += [(family, "J_and_not_N", 4) for family in ("B", "C")]
    rows += [(family, "J", l) for family in ("A", "B") for l in (1, 2, 8, 16)]
    for family, event, l in rows:
        yield ["estimate", "--n", "200000", "--l", str(l), "--family", family,
               "--event", event, "--trials", "20", "--seed", "0x5eed2"]


def _sweep_calls():
    yield ["sweep", "--ns", "1,2,5,16,17,100", "--l", "3", "--family", "B",
           "--event", "J_and_not_N", "--trials", "300", "--seed", "7"]
    yield ["sweep", "--ns", "3,8,40", "--family", "D-", "--trials", "300",
           "--seed", "11", "--format", "jsonl"]
    # all trials succeed / none do, at trial counts where the raw Wilson
    # bound rounds to the wrong side of p_hat
    yield ["estimate", "--n", "20", "--l", "3", "--family", "D+", "--event", "N", "--trials", "1000"]
    yield ["estimate", "--n", "1", "--family", "A", "--event", "all_even", "--trials", "7"]


def _exact_calls():
    for family in ("A", "B", "C", "D+", "D-"):
        for n in range(1, 7):
            for event in FAMILY_EVENTS[family]:
                yield ["exact", "--n", str(n), "--l", "3", "--family", family, "--event", event]
        yield ["exact", "--n", "6", "--family", family]
    # near the top of each table
    rows = [("A", 20, "J"), ("C", 20, "J")]
    rows += [(family, 9, "J") for family in ("B", "D+", "D-")]
    rows += [(family, 9, "J_and_not_N") for family in ("B", "C")]
    for family, n, event in rows:
        yield ["exact", "--n", str(n), "--l", "4", "--family", family, "--event", event]
    # at the caps, up to l = 16
    rows = [("A", 28, "J", 4), ("A", 28, "J", 16), ("B", 11, "J", 8), ("B", 11, "J", 16),
            ("D-", 11, "J", 16), ("B", 11, "J_and_not_N", 8), ("B", 11, "J_and_not_N", 16), ("D+", 11, "J", 16)]
    for family, n, event, l in rows:
        yield ["exact", "--n", str(n), "--l", str(l), "--family", family, "--event", event]


def _bounds_calls():
    for token in CLASSICAL_TOKENS:
        for q in ("13", "16"):
            yield ["bounds", "--family", token, "--q", q]
            yield ["bounds", "--family", token, "--q", q, "--json"]
        yield ["bounds", "--family", token]
        yield ["bounds", "--family", token, "--json"]
    yield ["bounds", "--family", "SL", "--q", "13", "--sharp-a", "--b-j4", "1/2"]
    yield ["bounds", "--family", "Sp", "--q", "9", "--json", "--b-j4", "0.4"]
    yield ["bounds", "--family", "SO", "--b-j4", "1/2"]
    yield ["bounds", "--family", "Sp", "--json", "--b-j4", "2/3"]
    for token in ("SU", "Sp", "SO+", "SO-"):
        yield ["bounds", "--family", token, "--q", "13", "--sharp-a"]


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"invgen {' '.join(argv)} exited {code}")
    return f"$ invgen {' '.join(argv)}\n" + buf.getvalue()


def _cell(n: int, l: int, family: WeylFamily, event: str) -> str:
    """A short sha256 of exact_prob's value, or the class name of its error."""
    try:
        value = exact_prob(n, l, family, event)
    except InvgenError as err:
        return type(err).__name__
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def _exact_cells_text() -> str:
    """One line per (family, event, n): the cells at each l of CELL_LS."""
    return "".join(f"{family.value} {event} {n}: {' '.join(_cell(n, l, family, event) for l in CELL_LS)}\n"
                   for family in WeylFamily for event in EVENTS for n in CELL_NS)


def _mc_specs(cells):
    """Every (token, spec) of the cells, at each event its family accepts and each l of MC_LS."""
    for families, n, trials in cells:
        for token in families:
            for event in FAMILY_EVENTS[token]:
                for l in MC_LS:
                    yield token, ExperimentSpec(n, l, WeylFamily.parse(token), event, trials, n * 1009 + l)


def _mc_ranges(trials: int):
    """Whole and offset trial ranges, and one of 4,200 trials: an engine
    that runs a range's trials in blocks of a few thousand splits it."""
    return (0, trials), (7, trials - 3), (trials - 100, trials + 4_100)


def _mc_outcomes_text() -> str:
    """One line per (family, event, n, l): the trials' outcome bits; then,
    per table spec, the successes over each range of `_mc_ranges`."""
    out = []
    for token, spec in _mc_specs(MC_CELLS):
        bits = "".join(str(_count_range(spec, t, t + 1)) for t in range(spec.trials))
        digest = hashlib.sha256(bits.encode()).hexdigest()[:16]
        out.append(f"{token} {spec.event} {spec.n} l={spec.l}: {bits.count('1')}/{spec.trials} {digest}\n")
    for token, spec in _mc_specs(MC_TABLE_CELLS):
        counts = " ".join(f"{a}..{b}={_count_range(spec, a, b)}" for a, b in _mc_ranges(spec.trials))
        out.append(f"{token} {spec.event} {spec.n} l={spec.l} ranges: {counts}\n")
    return "".join(out)


def _next64_text() -> str:
    out = []
    for seed, stream in NEXT64_STREAMS:
        rng = RngState(seed, stream)
        out.append(f"$ next64 seed={seed} stream={stream}\n")
        out.extend(f"{rng.next64()}\n" for _ in range(NEXT64_DRAWS))
    return "".join(out)


FIXTURES = {
    "next64.txt": _next64_text,
    "sample.txt": lambda: "".join(map(_run_cli, _sample_calls())) + _sample_library_text(),
    "fixedsets.txt": lambda: "".join(map(_run_cli, _fixedsets_calls())),
    "estimate.txt": lambda: "".join(map(_run_cli, _estimate_calls())),
    "estimate_large_n.txt": lambda: "".join(map(_run_cli, _estimate_large_calls())),
    "estimate_window.txt": lambda: "".join(map(_run_cli, _estimate_window_calls())),
    "sweep.txt": lambda: "".join(map(_run_cli, _sweep_calls())),
    "exact.txt": lambda: "".join(map(_run_cli, _exact_calls())),
    "bounds.txt": lambda: "".join(map(_run_cli, _bounds_calls())),
    "exact_cells.txt": _exact_cells_text,
    "mc_outcomes.txt": _mc_outcomes_text,
}


def main() -> int:
    for name, render in FIXTURES.items():
        (HERE / name).write_text(render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
