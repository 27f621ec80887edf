"""Spans for the traced run, recorded from outside the package.

Nothing under `src/` knows about tracing.  Spans come from two places:

- `instrument` swaps public functions, as the package's own modules see
  them, for timing wrappers (`invgen.cli.run`, `invgen.exact.
  enumerate_classes`, ...), and counts process pools by wrapping
  `ProcessPoolExecutor`.  Originals are restored on exit.
- `replay` re-executes every Monte Carlo trial layer by layer through the
  public API, with a span around each sampler and profile call.

Each span records name, start, end, parent and the id of the workload call
it belongs to.  Spans live in flat arrays and are written once, at the end.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from array import array
from contextlib import contextmanager
from itertools import accumulate

from invgen import (
    RngState,
    WeylFamily,
    fixed_sizes,
    project,
    sample_partition,
    sample_signed,
    sample_signed_conditioned,
    signed_fixed_sets,
)

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 increment, documented in the README
GOLDEN_INV = pow(GOLDEN, -1, 1 << 64)  # GOLDEN is odd, so the inverse exists

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder.  `begin` returns a span index; `finish`
    closes the innermost open span, which must be that index."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.call_id = -1

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name_ix.append(self._name(name))
        self.parent.append(self._stack[-1])
        self.call.append(self.call_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> float:
        t = perf_counter()
        self.end[i] = t
        top = self._stack.pop()
        if top != i:
            raise RuntimeError(f"span {i} closed while span {top} is open")
        return t - self.start[i]

    def record(self, name: str, start: float, end: float) -> None:
        """A span not nested by the stack (a pool's lifetime)."""
        self.name_ix.append(self._name(name))
        self.parent.append(self._stack[-1])
        self.call.append(self.call_id)
        self.start.append(start)
        self.end.append(end)

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def wrap(self, fn, name: str, on_call=None):
        """`fn` with a span around every call; `on_call(args, result, dt)`
        runs after each call returns."""
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.finish(i)
            if on_call is not None:
                on_call(args, result, dt)
            return result
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds, self seconds.  Self time is
        the span minus the spans whose parent it is; pool lifetimes, which
        overlap their parent's work, are not subtracted."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_t = list(dur)
        pool = self._name_ids.get("montecarlo.pool")
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and self.name_ix[i] != pool:
                self_t[p] -= dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            s = out.setdefault(self.names[self.name_ix[i]], {"count": 0, "total": 0.0, "self": 0.0})
            s["count"] += 1
            s["total"] += dur[i]
            s["self"] += self_t[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name_ix[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "call": self.call[i],
                }) + "\n")


class NullTracer:
    """Tracer stand-in for the untimed replay checks of untraced runs."""

    call_id = -1

    def begin(self, name: str) -> int:
        return 0

    def finish(self, i: int) -> float:
        return 0.0


@contextmanager
def instrument(tracer: Tracer, on_run=None, on_enumerate=None):
    """Wrap the package's public functions where its own modules call them.

    on_run(spec, dt) sees every `run`; on_enumerate(table) every class
    table.  A name that a later version of the package no longer binds is
    skipped, and its spans are missing: the context yields the skipped
    `module.name`s so the run can say which.
    """
    import invgen.cli as cli
    import invgen.exact as exact
    import invgen.montecarlo as montecarlo

    def run_hook(args, result, dt):
        if on_run is not None:
            on_run(args[0], dt)

    def enum_hook(args, result, dt):
        if on_enumerate is not None:
            on_enumerate(result)

    targets = [
        (cli, "run", "montecarlo.run", run_hook),
        (montecarlo, "run", "montecarlo.run", run_hook),
        (cli, "sweep", "montecarlo.sweep", None),
        (cli, "exact_prob_J", "exact.exact_prob_J", None),
        (exact, "enumerate_classes", "exact.enumerate_classes", enum_hook),
        (exact, "fixed_sizes", "exact.profile", None),
        (exact, "signed_fixed_sets", "exact.profile", None),
    ]
    saved, skipped = [], []
    for module, attr, name, hook in targets:
        if hasattr(module, attr):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, hook))
        else:
            skipped.append(f"{module.__name__}.{attr}")

    pool_cls = concurrent.futures.ProcessPoolExecutor
    orig_init, orig_shutdown = pool_cls.__init__, pool_cls.shutdown

    def init(self, *args, **kwargs):
        self._bench_started = perf_counter()
        orig_init(self, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        orig_shutdown(self, *args, **kwargs)
        started = self.__dict__.pop("_bench_started", None)
        if started is not None:
            tracer.record("montecarlo.pool", started, perf_counter())

    pool_cls.__init__, pool_cls.shutdown = init, shutdown
    try:
        yield skipped
    finally:
        pool_cls.__init__, pool_cls.shutdown = orig_init, orig_shutdown
        for module, attr, original in saved:
            setattr(module, attr, original)


class ReplayStats:
    """Counts and times accumulated over replayed trials."""

    FIELDS = ("trials", "early_exits", "elements", "cycles", "draws", "profiles",
              "distinct", "dp_steps", "dp_bits", "sample_s", "profile_s")

    def __init__(self):
        for f in self.FIELDS:
            setattr(self, f, 0)

    def add(self, other: "ReplayStats") -> None:
        for f in self.FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))


def replay(tracer, n: int, l: int, family: str, event: str, trials: int, seed: int):
    """Successes of one Monte Carlo row, recomputed trial by trial through
    the public API, plus the row's ReplayStats.

    Trial t owns RngState(seed, t).  Each element is drawn with the
    family's public sampler; J events then take the public profile and AND
    it into the running intersection, stopping as soon as the outcome is
    fixed, exactly as the engine does.
    """
    fam = WeylFamily.parse(family)
    want = fam.sector_sign
    if not fam.signed_labels:
        sample, sample_name = (lambda r: sample_partition(n, r)), "sampling.sample_partition"
    elif want is None:
        sample, sample_name = (lambda r: sample_signed(n, r)), "sampling.sample_signed"
    else:
        sample = lambda r: sample_signed_conditioned(n, want, r)  # noqa: E731
        sample_name = "sampling.sample_signed_conditioned"
    if fam.signed_profiles:
        key_of, profile, profile_name = (lambda x: x), signed_fixed_sets, "cycletypes.signed_fixed_sets"
    else:
        key_of = project if fam.signed_labels else (lambda x: x)
        profile, profile_name = fixed_sizes, "cycletypes.fixed_sizes"
    j_event = event in ("J", "J_and_not_N")
    not_n = event == "J_and_not_N"
    proper = (1 << n) - 2
    st = ReplayStats()
    seen = set()
    start, end = getattr(tracer, "start", None), getattr(tracer, "end", None)
    successes = 0
    for t in range(trials):
        rng = RngState(seed, t)
        inter_p = inter_m = proper
        empty = False
        first_sign = 0
        sign_diff = False
        ok = True
        used = 0
        for _ in range(l):
            before = rng.state
            i = tracer.begin(sample_name)
            label = sample(rng)
            tracer.finish(i)
            if start is not None:
                st.sample_s += end[i] - start[i]
            used += 1
            st.draws += ((rng.state - before) * GOLDEN_INV) & M64
            if fam.signed_labels:
                lengths = [c for c, _ in label.cycles]
                signs = [s for _, s in label.cycles]
            else:
                lengths, signs = list(label.parts), []
            st.cycles += len(lengths)
            if not_n or event == "N":
                total = label.total_sign
                if first_sign == 0:
                    first_sign = total
                elif total != first_sign:
                    sign_diff = True
            if j_event:
                key = key_of(label)
                i = tracer.begin(profile_name)
                prof = profile(key)
                tracer.finish(i)
                if start is not None:
                    st.profile_s += end[i] - start[i]
                st.profiles += 1
                seen.add(key)
                st.dp_steps += len(lengths)
                st.dp_bits += sum(accumulate(sorted(lengths)))
                if fam.signed_profiles:
                    inter_p &= prof.plus
                    inter_m &= prof.minus
                    empty = not (inter_p | inter_m)
                else:
                    inter_p &= prof.achievable
                    empty = inter_p == 0
                if empty and (sign_diff or not not_n):
                    break
            elif event == "N":
                if sign_diff:
                    ok = False
                    break
            elif event == "all_even":
                if any(x & 1 for x in lengths):
                    ok = False
                    break
            elif event == "all_positive":
                if any(s < 0 for s in signs):
                    ok = False
                    break
            else:
                raise ValueError(f"unknown event {event!r}")
        if j_event:
            ok = empty and (sign_diff or not not_n)
        successes += ok
        st.trials += 1
        st.elements += used
        st.early_exits += used < l
    st.distinct = len(seen)
    return successes, st
