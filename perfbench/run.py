"""invgen benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload mc_large_n --seed 1 --seconds 16 --trace 0

Run from the repository root (any directory whose `src/invgen` is the
package to measure).  With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it measures the per-layer metrics instead (see
perfbench/README.md).  Human-readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh interpreters started to time set-up, spread over the run between
# passes so that one slow spell of the machine does not hold them all; the
# first may also compile bytecode, so the median is reported.
SETUP_REPEATS = 11
# Seconds one pass over a full-size plan takes on a 2-core machine.  An
# untraced run makes floor(--seconds / this) passes, at least one, so every
# run of a workload does the same work whatever the machine's speed.
PASS_SECONDS = {"mc_large_n": 0.85, "mc_small_n": 0.9, "exact_oracle": 0.9, "mc_pool_sweep": 0.9}
# Median times of `calibrate()` and `calibrate_pool()` over a run on the
# 2-core machine of the baseline; see timed_run for how they scale setup_s
# and wall_ref_s.
CALIBRATION_REF_S = 0.02
POOL_CALIBRATION_REF_S = 0.094
# Pool starts in one `calibrate_pool()`, and loop iterations per worker.
POOL_PROBE_CYCLES = 5
POOL_PROBE_ITERATIONS = 30_000
# Fixed points of the per-layer baseline: (family, n) at l = 4, event J.
FIXED_POINTS = [(f, n) for f in ("A", "B") for n in (8, 1000, 10**5, 10**6)]
SUBPROCESS_TIMEOUT = 120

# Prints the child's own clock when the first call is ready; perf_counter
# is the system-wide monotonic clock, so the parent can subtract its start
# time without counting its own wake-up from waiting on the child.
SETUP_CODE = """
import sys
root, workload, seed, size = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import invgen, invgen.cli
import workloads
workloads.plan(workload, seed, size)
import time
print(repr(time.perf_counter()))
"""

PEAK_CODE = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from invgen import WeylFamily, exact_prob_J
from run import memory_kb
before = memory_kb("VmRSS")
exact_prob_J(int(sys.argv[3]), int(sys.argv[4]), WeylFamily.parse(sys.argv[2]))
print(memory_kb("VmHWM") - before)
"""

E2E_UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}


def memory_kb(field: str) -> int:
    """VmRSS (resident now) or VmHWM (peak) of this process, in KiB.

    Both belong to the process's own address space.  ru_maxrss, the
    fallback where /proc is missing, also carries the peak of the process
    this one was forked from, through fork and exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least ten samples above it; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def calibrate(iterations: int = 150_000) -> float:
    """Seconds taken by a fixed pure-Python integer loop: a probe of how
    fast the machine runs Python right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i & 1023
    return time.perf_counter() - t0


def calibrate_pool() -> float:
    """Seconds taken, POOL_PROBE_CYCLES times over, to start a pool of two
    worker processes, run a short `calibrate` in each, and shut the pool
    down: the steps of a pooled row of `sweep --threads 2`, so a probe of
    how fast the machine runs a pool right now, on both cores."""
    t0 = time.perf_counter()
    for _ in range(POOL_PROBE_CYCLES):
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(calibrate, [POOL_PROBE_ITERATIONS] * 2))
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, size: str) -> float:
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT), workload, str(seed), size],
                         check=True, timeout=SUBPROCESS_TIMEOUT, cwd=ROOT,
                         capture_output=True, text=True)
    return float(out.stdout) - t0


def timed_run(args, runner, workloads) -> tuple[dict, list[str]]:
    """The untraced run: the plan a fixed number of times, sized to
    --seconds, with fresh Monte Carlo seeds in every pass, and set-up timed
    between passes."""
    plan = workloads.plan(args.workload, args.seed, args.size)
    passes = 2 if args.size == "tiny" else max(1, int(args.seconds / PASS_SECONDS[args.workload]))
    # Speed probes, each run before the first pass and after every pass.
    # Set-up is one process, so the one-core loop scales it.  mc_pool_sweep
    # keeps both cores busy, so the probe for its wall time does too: when
    # another tenant takes one core, the pool slows down and a one-core
    # loop, which runs on the other, does not.
    if args.workload == "mc_pool_sweep":
        wall_probe, wall_reference = calibrate_pool, POOL_CALIBRATION_REF_S
    else:
        wall_probe, wall_reference = calibrate, CALIBRATION_REF_S
    probes = {calibrate: [], wall_probe: []}

    def run_probes():
        for fn, results in probes.items():
            results.append(fn())

    setups, times = [], []
    run_probes()
    for p in range(passes):
        while len(setups) < SETUP_REPEATS * (p + 1) // passes:
            setups.append(measure_setup(args.workload, args.seed, args.size))
        times.append(runner.run_pass(workloads.reseed(plan, p)))
        runner.serial_checks()
        run_probes()
    runner.finish()
    lat = runner.latencies
    tail_value, tail_pct = tail(lat)
    # wall_s: each call's median over the passes, summed.  A shared machine
    # speeds up and slows down by 20% for minutes at a time, and a run can
    # fall entirely in a slow spell; the probes slow down with it.  So the
    # bounded figures are set-up and wall_s at the probes' reference speed.  Monte Carlo calls get fresh seeds in every pass and
    # exact calls repeat, so the first pass is printed beside it: state kept
    # between calls would show as a first pass far slower than wall_s.
    wall = sum(statistics.median(per_call) for per_call in zip(*times))
    probe_s = {fn: statistics.median(results) for fn, results in probes.items()}
    setup = statistics.median(setups)
    metrics = {
        "setup_s": setup * CALIBRATION_REF_S / probe_s[calibrate],
        "wall_ref_s": wall * wall_reference / probe_s[wall_probe],
        "peak_rss_mb": memory_kb("VmHWM") / 1024,
    }
    lines = [
        f"passes {len(times)}, calls {len(lat)}, set-ups {len(setups)}",
        f"probes       calibrate median {probe_s[calibrate]:.5f} s (reference {CALIBRATION_REF_S} s)"
        + (f", calibrate_pool median {probe_s[calibrate_pool]:.5f} s (reference "
           f"{POOL_CALIBRATION_REF_S} s)" if calibrate_pool in probe_s else ""),
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setups)} fresh interpreters "
        f"({setup:.4f} s) at the reference speed",
        f"wall_ref_s   {metrics['wall_ref_s']:.4f} s   wall_s at the reference speed",
        f"wall_s       {wall:.4f} s   each call's median over {len(times)} passes, summed "
        f"(first pass {sum(times[0]):.4f} s, median pass {statistics.median(map(sum, times)):.4f} s)",
        f"call_p50_s   {statistics.median(lat):.6f} s   of {len(lat)} calls",
        f"call_tail_s  {tail_value:.6f} s   p{tail_pct:.1f} of {len(lat)} calls",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
    ]
    if runner.mc_trials:
        lines.append(f"trials_per_s {runner.mc_trials / runner.mc_seconds:.1f} 1/s   "
                     f"{runner.mc_trials} trials in {runner.mc_seconds:.3f} s of calls")
    return {k: _metric(v, E2E_UNITS[k]) for k, v in metrics.items()}, lines


def peak_alloc_mb(cases) -> float:
    """Largest peak resident growth of one `exact_prob_J` call among
    `cases`, each run in a fresh interpreter, because a process's peak
    never goes down."""
    peak_kb = 0
    for family, n, l in cases:
        out = subprocess.run([sys.executable, "-c", PEAK_CODE, str(ROOT), family, str(n), str(l)],
                             check=True, timeout=SUBPROCESS_TIMEOUT, capture_output=True, text=True)
        peak_kb = max(peak_kb, int(out.stdout))
    return peak_kb / 1024


def traced_run(args, runner, workloads, tracing) -> tuple[dict, list[str]]:
    """The plan runs twice: untraced, then traced with the replay.
    Per-layer metrics come from the traced pass only."""
    tracer = tracing.Tracer()
    runs: dict[tuple, list[float]] = {}
    classes = [0]

    def on_run(spec, dt):
        rec = runs.setdefault((spec.family.value, spec.n, spec.event), [0.0, 0])
        rec[0] += dt
        rec[1] += spec.trials

    def on_enumerate(table):
        classes[0] += len(table.entries)

    calls = workloads.plan(args.workload, args.seed, args.size)
    untraced = sum(runner.run_pass(calls))
    runner.serial_checks()
    with tracing.instrument(tracer, on_run, on_enumerate) as skipped:
        traced = sum(runner.run_pass(calls, tracer))
    runner.finish()

    spans = tracer.summary()
    total = lambda name: spans.get(name, {}).get("total", 0.0)  # noqa: E731
    self_time = lambda name: spans.get(name, {}).get("self", 0.0)  # noqa: E731
    count = lambda name: spans.get(name, {}).get("count", 0)  # noqa: E731
    per = lambda a, b, scale=1.0: a * scale / b if b else 0.0  # noqa: E731
    st = runner.replay_stats
    sample_s = sum((v["total"] for k, v in spans.items() if k.startswith("sampling.")), 0.0)
    profile_s = sum((v["total"] for k, v in spans.items() if k.startswith("cycletypes.")), 0.0)
    mc_trials = sum(t for _, t in runs.values())
    mc_busy = total("montecarlo.run")
    exact_counts = runner.exact_counts()
    bounds_names = ("bounds.solve_K4", "bounds.i4_lower_bound")
    exact_names = ("exact.exact_prob_J", "exact.exact_prob_J_bruteforce",
                   "exact.exact_prob_J_and_not_N")
    pooled = runner.pool_parallel_s > 0
    m = {
        "sampling.elements": (st.elements, "count"),
        "sampling.busy_s": (sample_s, "s"),
        "sampling.us_per_element": (per(sample_s, st.elements, 1e6), "us"),
        "sampling.cycles_per_element": (per(st.cycles, st.elements), "count"),
        "sampling.draws_per_element": (per(st.draws, st.elements), "count"),
        "cycletypes.profiles": (st.profiles, "count"),
        "cycletypes.busy_s": (profile_s, "s"),
        "cycletypes.us_per_profile": (per(profile_s, st.profiles, 1e6), "us"),
        "cycletypes.dp_steps": (st.dp_steps, "count"),
        "cycletypes.dp_bits_computed": (st.dp_bits, "bits"),
        "cycletypes.distinct_ratio": (per(st.distinct, st.profiles), "ratio"),
        "montecarlo.trials": (mc_trials, "count"),
        "montecarlo.busy_s": (mc_busy, "s"),
        "montecarlo.us_per_trial": (per(mc_busy, mc_trials, 1e6), "us"),
        "montecarlo.elements_per_trial": (per(st.elements, st.trials), "count"),
        "montecarlo.early_exit_ratio": (per(st.early_exits, st.trials), "ratio"),
        "montecarlo.replay_mismatches": (runner.replay_mismatches, "count"),
        "montecarlo.pool_calls": (count("montecarlo.pool"), "count"),
        "montecarlo.pool_overhead_s": (
            runner.pool_parallel_s - runner.pool_serial_s / runner.pool_threads if pooled else 0.0, "s"),
        "montecarlo.pool_speedup": (
            runner.pool_serial_s / runner.pool_parallel_s if pooled else 1.0, "ratio"),
        "exact.calls": (sum(count(n) for n in exact_names), "count"),
        "exact.enumerate_s": (total("exact.enumerate_classes"), "s"),
        "exact.classes": (classes[0], "count"),
        "exact.distinct_masks": (exact_counts["distinct_masks"], "count"),
        "exact.lattice_points": (exact_counts["lattice_points"], "count"),
        "exact.prob_J_s": (total("exact.exact_prob_J"), "s"),
        "exact.transform_s": (self_time("exact.exact_prob_J"), "s"),
        "exact.bruteforce_s": (total("exact.exact_prob_J_bruteforce"), "s"),
        "exact.bruteforce_tuples": (exact_counts["bruteforce_tuples"], "count"),
        "exact.J_and_not_N_s": (total("exact.exact_prob_J_and_not_N"), "s"),
        "exact.peak_alloc_mb": (
            peak_alloc_mb(workloads.EXACT_PEAK_CASES[args.size]) if runner.exact_calls else 0.0, "MB"),
        "bounds.calls": (sum(count(n) for n in bounds_names), "count"),
        "bounds.busy_s": (sum(total(n) for n in bounds_names), "s"),
        "cli.calls": (count("cli.main"), "count"),
        "cli.busy_s": (total("cli.main"), "s"),
        "cli.overhead_s": (self_time("cli.main"), "s"),
        "cli.bytes_out": (runner.bytes_out, "bytes"),
        "trace.overhead_frac": (per(traced, untraced) - 1.0, "ratio"),
    }
    trace_path = ROOT / ".perfbench" / f"trace-{args.workload}.jsonl"  # one per workload, overwritten
    tracer.write(trace_path)
    lines = [f"spans {len(tracer.start)} written to {trace_path.relative_to(ROOT)}",
             f"untraced wall {untraced:.4f} s, traced wall {traced:.4f} s"]
    lines += [f"note: {name} not found, so its spans are missing" for name in skipped]
    lines += [f"{k:32s} {v!r} {u}" for k, (v, u) in m.items()]
    for family, n in FIXED_POINTS:
        key = (family, n, "J")
        if key in runs and key in runner.replay_by_point:
            busy, trials = runs[key]
            rp = runner.replay_by_point[key]
            lines.append(f"fixed point {family} n={n} l=4 J: run {per(busy, trials, 1e6):.2f} us/trial, "
                         f"sampling {per(rp.sample_s, rp.elements, 1e6):.2f} us/element, "
                         f"profile {per(rp.profile_s, rp.profiles, 1e6):.2f} us/profile")
    return {k: _metric(v, u) for k, (v, u) in m.items()}, lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc_large_n", "mc_small_n", "exact_oracle", "mc_pool_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny keeps each workload's structure at smoke-test size")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "invgen" / "__init__.py").is_file():
        print(f"error: no invgen package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import invgen

    if Path(invgen.__file__).resolve().parent != (src / "invgen").resolve():
        print(f"error: imported invgen from {invgen.__file__}, not from {src}", file=sys.stderr)
        return 2
    import runner as runner_mod
    import tracing
    import workloads

    work = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = runner_mod.Runner(work, runner_mod.load_pins(HERE / "pins.json"), args.size)
        if args.trace:
            metrics, lines = traced_run(args, runner, workloads, tracing)
        else:
            metrics, lines = timed_run(args, runner, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}, "
          f"invgen {invgen.__version__}")
    for line in lines:
        print(line)
    frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"failed_frac  {frac!r}   {runner.failed} of {runner.attempted} checks failed")
    if runner.ci_rounding:
        print(f"note: {runner.ci_rounding} rows have a Wilson bound that misses p_hat by under "
              f"{runner_mod.CI_TOLERANCE} (float rounding in the program)")
    for what in runner.failures[:20]:
        print(f"FAILED: {what}")
    correct = runner.failed == 0 and runner.attempted > 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
