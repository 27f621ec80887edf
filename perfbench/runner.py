"""Executes workload calls against invgen and checks every output.

Calls the CLI offers (estimate, sweep, exact) go in-process through
`invgen.cli.main(argv)`, so the checked bytes are the bytes a user gets.
The rest go through public library functions.  Only the call itself is
timed; the checks that follow it are not.
"""

from __future__ import annotations

import io
import json
import math
import re
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from invgen import (
    ClassicalTag,
    ExperimentSpec,
    WeylFamily,
    enumerate_classes,
    exact_prob_J_and_not_N,
    exact_prob_J_bruteforce,
    fixed_sizes,
    i4_lower_bound,
    project,
    run,
    signed_fixed_sets,
    solve_K4,
)
from invgen.bounds import ClassicalFamily
import invgen.cli

from tracing import GOLDEN, M64, NullTracer, ReplayStats, replay
from workloads import BOUND_TAGS, Call, bound_source

CSV_HEADER = "n,l,family,event,trials,successes,p_hat,ci_low,ci_high,seed"
# z of the Wilson check against pinned exact values: a correct program
# falls outside with probability about 2.6e-12 per check.
WILSON_Z = 7.0
# The CLI's Wilson bounds are floats: at p_hat = 1 the upper bound prints
# as 0.9999999999999998.  Containment is checked to this tolerance and the
# rows that need it are counted and reported (Runner.ci_rounding).
CI_TOLERANCE = 1e-12
# Trials per row that untraced runs replay through the public API.
PREFIX_TRIALS = 4
_EXACT_LINE = re.compile(r"(\S+) = (\S+)\n")

perf_counter = time.perf_counter


def load_pins(path: Path) -> dict:
    """pins.json with its keys turned into tuples and values into Fractions."""
    raw = json.loads(Path(path).read_text())

    def keyed(table):
        return {tuple(int(p) if p.isdigit() else p for p in k.split("/")): Fraction(v)
                for k, v in table.items()}

    return {"J": keyed(raw["J"]), "J_and_not_N": keyed(raw["J_and_not_N"]),
            "mc": keyed(raw["mc"]), "K4": raw["K4"], "K4_third": raw["K4_third"]}


def _mix64(x: int) -> int:
    x &= M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def row_seed(master: int, index: int) -> int:
    """A sweep row's master seed, as the README's reproducibility section
    specifies it."""
    return _mix64(master ^ ((index + 1) * GOLDEN & M64))


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return center - half, center + half


class Runner:
    """Runs a plan's calls, times them, and counts checks.

    A run issues the plan several times, with fresh Monte Carlo seeds in
    every pass (`workloads.reseed`).  The first time a call is issued, its
    output is checked in full, and the first PREFIX_TRIALS trials of each
    Monte Carlo row are replayed against a fresh `run` of that prefix.  When
    the same call is issued again (exact and library calls in every pass,
    Monte Carlo calls in the traced pass), its output must be identical to
    the first.  A traced pass also wraps every call in spans and replays
    each Monte Carlo row in full.
    """

    def __init__(self, workdir: Path, pins: dict, size: str):
        self.workdir = workdir
        self.pins = pins
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.mc_trials = 0
        self.mc_seconds = 0.0
        self.mc_counts: dict[tuple, list[int]] = {}
        self.results: dict[tuple, Fraction] = {}
        # filled by traced calls only
        self.replay_stats = ReplayStats()
        self.replay_by_point: dict[tuple, ReplayStats] = {}
        self.replay_mismatches = 0
        self.exact_calls: list[tuple] = []
        self.bytes_out = 0
        self.pool_serial_s = 0.0
        self.pool_parallel_s = 0.0
        self.pool_threads = 1
        self.serial_pending: list[tuple] = []
        self.ci_rounding = 0
        self.passes = 0
        self._first_out: dict[Call, object] = {}
        self._call_id = 0

    # ------------------------------------------------------------ checks

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def finish(self) -> None:
        """Checks that need the whole run: the Monte Carlo estimates,
        pooled over all calls with the same (event, family, n, l), against
        pinned exact values."""
        for key, (succ, trials) in sorted(self.mc_counts.items()):
            exact = self.pins["mc"].get(key)
            if exact is None:
                continue
            lo, hi = wilson(succ, trials, WILSON_Z)
            self.check(lo - 1e-12 <= exact <= hi + 1e-12,
                       f"{key}: exact {float(exact):.6f} outside the z={WILSON_Z} Wilson "
                       f"interval [{lo:.6f}, {hi:.6f}] of {succ}/{trials}")

    # ------------------------------------------------------------ passes

    def run_pass(self, calls: list[Call], tracer=None) -> list[float]:
        """Issue the calls one after another; return each call's own time
        (plus, when traced, its replay), checks excluded.  A call that
        raises counts as a failed check and as time 0."""
        times = []
        for call in calls:
            dt = 0.0
            try:
                if tracer is not None:
                    tracer.call_id = self._call_id
                    with tracer.span("call." + call.op):
                        dt = self._execute(call, tracer)
                else:
                    dt = self._execute(call, None)
            except Exception as exc:  # a crash is a failed check, not the end of the run
                self.check(False, f"{call}: raised {type(exc).__name__}: {exc}")
            times.append(dt)
            self._call_id += 1
        self.passes += 1
        return times

    def _same_as_first(self, call: Call, out) -> bool:
        """True the first time `call` is issued; afterwards, check that its
        output is identical to the first and return False."""
        if call not in self._first_out:
            self._first_out[call] = out
            return True
        self.check(out == self._first_out[call], f"{call}: output differs from its first run")
        return False

    def _execute(self, call: Call, tracer) -> float:
        if call.op in ("estimate", "sweep"):
            return self._monte_carlo(call, tracer)
        if call.op == "exact":
            return self._exact(call, tracer)
        if call.op == "bruteforce":
            return self._library(call, tracer, exact_prob_J_bruteforce,
                                 "exact.exact_prob_J_bruteforce", self.pins["J"])
        if call.op == "j_not_n":
            return self._library(call, tracer, exact_prob_J_and_not_N,
                                 "exact.exact_prob_J_and_not_N", self.pins["J_and_not_N"])
        if call.op == "bounds":
            return self._bounds(call, tracer)
        raise ValueError(f"unknown op {call.op!r}")

    def _cli(self, argv: list[str], tracer) -> tuple[float, int]:
        if tracer is None:
            t0 = perf_counter()
            rc = invgen.cli.main(argv)
            return perf_counter() - t0, rc
        i = tracer.begin("cli.main")
        try:
            rc = invgen.cli.main(argv)
        finally:
            dt = tracer.finish(i)
        return dt, rc

    # ------------------------------------------------------- Monte Carlo

    def _mc_argv(self, call: Call, threads: int, out: Path) -> list[str]:
        return [call.op, "--ns" if call.op == "sweep" else "--n", ",".join(map(str, call.ns)),
                "--l", str(call.l), "--family", call.family, "--event", call.event,
                "--trials", str(call.trials), "--seed", str(call.seed),
                "--threads", str(threads), "--out", str(out)]

    def _monte_carlo(self, call: Call, tracer) -> float:
        out = self.workdir / "out.csv"
        out.unlink(missing_ok=True)
        dt, rc = self._cli(self._mc_argv(call, call.threads, out), tracer)
        self.latencies.append(dt)
        self.mc_seconds += dt
        self.mc_trials += call.trials * len(call.ns)
        data = out.read_bytes() if out.exists() else b""
        self.bytes_out += len(data)
        if not self.check(rc == 0 and bool(data), f"{call}: exit {rc}, {len(data)} bytes"):
            return dt
        first = self._same_as_first(call, data)
        if not first and tracer is None:
            return dt
        rows = self._parse_rows(call, data)
        if rows is None:
            return dt
        wall = dt
        for n, row_master, succ in rows:
            if first:
                # identical repeats are not independent trials: count once
                agg = self.mc_counts.setdefault((call.event, call.family, n, call.l), [0, 0])
                agg[0] += succ
                agg[1] += call.trials
            if tracer is not None:
                i = tracer.begin("montecarlo.replay")
                got, st = replay(tracer, n, call.l, call.family, call.event, call.trials, row_master)
                wall += tracer.finish(i)
                self.replay_stats.add(st)
                self.replay_by_point.setdefault((call.family, n, call.event), ReplayStats()).add(st)
                if got != succ:
                    self.replay_mismatches += 1
                self.check(got == succ, f"{call} n={n}: replay {got} != run {succ}")
            if first:
                k = min(PREFIX_TRIALS, call.trials)
                spec = ExperimentSpec(n=n, l=call.l, family=WeylFamily.parse(call.family),
                                      event=call.event, trials=k, master_seed=row_master)
                got, _ = replay(NullTracer(), n, call.l, call.family, call.event, k, row_master)
                ref = run(spec).successes
                self.check(got == ref, f"{call} n={n}: replay of {k} trials {got} != run {ref}")
        if call.threads > 1 and first and self.passes == 0:
            self.serial_pending.append((call, data, dt))
        return wall

    def _parse_rows(self, call: Call, data: bytes):
        """[(n, row master seed, successes)] after checking the rows echo
        the request and carry consistent estimates; None on a failure."""
        lines = data.decode().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        if not self.check(len(body) == len(call.ns) + 1 and body[0] == CSV_HEADER,
                          f"{call}: malformed CSV ({len(body)} lines)"):
            return None
        rows = []
        for i, (n, line) in enumerate(zip(call.ns, body[1:])):
            f = line.split(",")
            master = call.seed if call.op == "estimate" else row_seed(call.seed, i)
            want = [str(n), str(call.l), call.family, call.event, str(call.trials)]
            ok = len(f) == 10 and f[:5] == want and int(f[9]) == master
            if ok:
                succ = int(f[5])
                p, lo, hi = float(f[6]), float(f[7]), float(f[8])
                ok = (0 <= succ <= call.trials and p == succ / call.trials
                      and 0 <= lo <= p + CI_TOLERANCE and p <= hi + CI_TOLERANCE and hi <= 1)
                if ok and not lo <= p <= hi:
                    self.ci_rounding += 1
            if not self.check(ok, f"{call}: bad row {line!r}"):
                return None
            rows.append((n, master, succ))
        return rows

    def serial_checks(self) -> None:
        """Pooled outputs must be byte-identical to single-process runs of
        the same calls.  Run after a pass, and outside `instrument`, so the
        reference runs add no spans."""
        ref = self.workdir / "serial.csv"
        for call, data, parallel_s in self.serial_pending:
            ref.unlink(missing_ok=True)
            t0 = perf_counter()
            rc = invgen.cli.main(self._mc_argv(call, 1, ref))
            serial_s = perf_counter() - t0
            self.check(rc == 0 and ref.exists() and ref.read_bytes() == data,
                       f"{call}: --threads {call.threads} bytes differ from --threads 1")
            self.pool_serial_s += serial_s
            self.pool_parallel_s += parallel_s
            self.pool_threads = call.threads
        self.serial_pending.clear()

    # ------------------------------------------------------------- exact

    def _exact(self, call: Call, tracer) -> float:
        n = call.ns[0]
        buf = io.StringIO()
        with redirect_stdout(buf):
            dt, rc = self._cli(["exact", "--n", str(n), "--l", str(call.l),
                                "--family", call.family], tracer)
        self.latencies.append(dt)
        text = buf.getvalue()
        self.bytes_out += len(text.encode())
        if tracer is not None:
            self.exact_calls.append(("exact", call.family, n, call.l))
        if not self.check(rc == 0, f"{call}: exit {rc}"):
            return dt
        if not self._same_as_first(call, text):
            return dt
        m = _EXACT_LINE.fullmatch(text)
        if not self.check(m is not None, f"{call}: output {text!r}"):
            return dt
        value = Fraction(m[1])
        self.check(m[2] == repr(float(value)), f"{call}: float {m[2]} != {float(value)!r}")
        key = (call.family, n, call.l)
        self._check_pin(self.pins["J"], key, value, call)
        self.results[key] = value
        return dt

    def _check_pin(self, table: dict, key: tuple, value: Fraction, call: Call) -> None:
        pinned = table.get(key)
        self.check(pinned is not None and value == pinned,
                   f"{call}: {value} != pinned {pinned}")

    def _library(self, call: Call, tracer, fn, name: str, pins: dict) -> float:
        n = call.ns[0]
        family = WeylFamily.parse(call.family)
        if tracer is None:
            t0 = perf_counter()
            value = fn(n, call.l, family)
            dt = perf_counter() - t0
        else:
            i = tracer.begin(name)
            try:
                value = fn(n, call.l, family)
            finally:
                dt = tracer.finish(i)
            self.exact_calls.append((call.op, call.family, n, call.l))
        self.latencies.append(dt)
        if not self._same_as_first(call, value):
            return dt
        key = (call.family, n, call.l)
        self._check_pin(pins, key, value, call)
        if call.op == "bruteforce":
            zeta = self.results.get(key)
            self.check(zeta is not None and zeta == value,
                       f"{call}: brute force {value} != exact_prob_J {zeta}")
        return dt

    # ------------------------------------------------------------ bounds

    def _bound_input(self, family: str):
        fam, n, l = bound_source(family, self.size)
        if fam in ("A", "C"):
            return self.results.get(("A", n, l), self.results.get(("C", n, l)))
        return self.results.get((fam, n, l))

    def _bounds(self, call: Call, tracer) -> float:
        """For every classical tag: the threshold K4 at the plan's exact
        Prob(J^4) and at 1/3, and the i4 bound at one field size."""
        solve = solve_K4 if tracer is None else tracer.wrap(solve_K4, "bounds.solve_K4")
        i4 = i4_lower_bound if tracer is None else tracer.wrap(i4_lower_bound, "bounds.i4_lower_bound")
        inputs = [self._bound_input(family) for _, family in BOUND_TAGS]
        if not self.check(all(b is not None for b in inputs), f"{call}: exact inputs missing"):
            return 0.0
        t0 = perf_counter()
        out = []
        for (tag, _), q, b in zip(BOUND_TAGS, call.ns, inputs):
            ctag = ClassicalTag(tag)
            out.append((solve(ctag, b), solve(ctag, Fraction(1, 3)),
                        i4(ClassicalFamily(tag=ctag, q=q), b)))
        dt = perf_counter() - t0
        self.latencies.append(dt)
        for (tag, _), q, b, (k, k_third, report) in zip(BOUND_TAGS, call.ns, inputs, out):
            self.check(k == self.pins["K4"][self.size].get(tag), f"K4({tag}) = {k} at b={float(b)}")
            self.check(k_third == self.pins["K4_third"].get(tag), f"K4({tag}) = {k_third} at b=1/3")
            self.check(report.b_J4 == b and (q <= k or report.i4_lower > 0),
                       f"i4({tag}, q={q}) = {report.i4_lower} with K4 = {k}")
        return dt

    # ---------------------------------------------- computed exact counts

    def exact_counts(self) -> dict[str, int]:
        """Counts derived from the inputs of the traced exact calls, not
        measured: distinct profile masks per zeta call, 2^univ lattice
        points per zeta call, and distinct^l brute-force tuples."""
        cache: dict[tuple, int] = {}

        def distinct(table_family: str, n: int, signed: bool, projected: bool = False) -> int:
            key = (table_family, n, signed, projected)
            if key not in cache:
                table = enumerate_classes(n, WeylFamily.parse(table_family))
                if signed:
                    masks = {(p.plus, p.minus) for p in map(signed_fixed_sets, (lab for lab, _ in table.entries))}
                elif projected:
                    masks = {fixed_sizes(project(lab)).achievable for lab, _ in table.entries}
                else:
                    masks = {fixed_sizes(lab).achievable for lab, _ in table.entries}
                cache[key] = len(masks)
            return cache[key]

        out = {"distinct_masks": 0, "lattice_points": 0, "bruteforce_tuples": 0}
        for op, family, n, l in self.exact_calls:
            signed = WeylFamily.parse(family).signed_profiles
            if op == "exact":
                out["distinct_masks"] += distinct(family if signed else "A", n, signed)
                out["lattice_points"] += 1 << (2 * (n - 1) if signed else n - 1)
            elif op == "bruteforce":
                if family == "C":
                    d = distinct("B", n, False, projected=True)
                else:
                    d = distinct(family, n, signed)
                out["bruteforce_tuples"] += d**l
        return out
