"""The benchmark's four workloads as seeded call plans.

A plan is a fixed list of calls, each one user-level operation (a CLI
invocation or a public library call).  The plan of workload `w` under
workload seed `s` is a pure function of (w, s, size), so the same seed
gives the same inputs.  Its cost does not depend on the seed: seeds pick
invgen master seeds, call order, and choices between inputs of equal cost
(family A or C, which share the partition table).  That keeps run-to-run
spread down to what the program and the machine do.

A run issues the plan several times; `reseed` gives the Monte Carlo calls
of every later pass fresh master seeds, so no state kept between calls
can turn a repeat into a replay.

`size="tiny"` keeps every workload's structure at a size small enough for
the smoke test; the pinned exact values cover both sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("mc_large_n", "mc_small_n", "exact_oracle", "mc_pool_sweep")
SIZES = ("full", "tiny")

# Monte Carlo workloads use l = 4 throughout, the paper's J^4.
L = 4

# mc_large_n: (family, n, trials per call); four calls at n = 10^6 and two
# at n = 10^5 for each family.  Each call takes roughly 70 ms.
LARGE_CALLS = {
    "full": (("A", 10**6, 160), ("B", 10**6, 80)) * 4 + (("A", 10**5, 400), ("B", 10**5, 200)) * 2,
    "tiny": (("A", 10**6, 2), ("B", 10**6, 2), ("A", 10**5, 3), ("B", 10**5, 3)),
}

# mc_small_n: every (family, event) pair the CLI accepts at l = 4.
SMALL_COMBOS = tuple(
    [("A", e) for e in ("J", "all_even")]
    + [(f, e) for f in ("B", "C", "D+", "D-")
       for e in ("J", "J_and_not_N", "N", "all_even", "all_positive")]
)
# per combo: `estimate` at n = 8, and `sweep` over the other ns
SMALL_ESTIMATE = {"full": (8, 1000), "tiny": (8, 20)}
SMALL_SWEEP = {"full": ((16, 1000), 200), "tiny": ((16, 1000), 4)}

# mc_pool_sweep: about 20 small/medium n, two worker processes.
POOL_NS = {
    "full": (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768,
             1024, 1536, 2048, 3072, 4096, 6144),
    "tiny": (8, 16, 64),
}
POOL_CALLS = {"full": (("A", 200), ("B", 150)),
              "tiny": (("A", 10), ("B", 10))}
POOL_THREADS = 2

# exact_oracle.  A and C share the unsigned capacity; B, D+ and D- the
# signed one.  Calls stay at or below 0.15 s (A/C n <= 17, signed n <= 9):
# with calls of seconds, too few passes fit in a run for a per-call time
# to be steady on a shared machine (20% run-to-run at A n = 19..22).
# The capacity cases are measured for memory only, in traced runs
# (EXACT_PEAK_CASES).  Brute force is exponential in l, so it runs at
# n = 5, l = 3.
EXACT_UNSIGNED_NS = {"full": tuple(range(12, 18)), "tiny": (8, 9)}
EXACT_SIGNED_NS = {"full": (6, 7, 8, 9), "tiny": (5,)}
# (family, n, l) whose peak memory traced runs report, each in a child
EXACT_PEAK_CASES = {"full": (("A", 22, L), ("B", 10, L)), "tiny": (("A", 9, L), ("B", 5, L))}
EXACT_SIGNED_FAMILIES = ("B", "D+", "D-")
BRUTE_CASES = {"full": tuple((f, 5, 3) for f in ("A", "B", "C", "D+", "D-")),
               "tiny": (("A", 4, 2), ("B", 4, 2))}
J_NOT_N_CASES = {"full": (("B", 7), ("B", 8), ("C", 8), ("C", 9)),
                 "tiny": (("B", 5), ("C", 5))}
# classical tag -> Weyl family whose Prob(J^4) feeds its bound; the bound
# uses the value at the largest n of that family in the plan
BOUND_TAGS = (("SL", "A"), ("SU", "A"), ("Sp_odd_q", "C"), ("Sp_even_q", "C"),
              ("SO_odd_dim", "B"), ("SO_even_dim_plus", "D+"),
              ("SO_even_dim_minus", "D-"))
BOUND_QS = {"SL": (13, 16), "SU": (13, 16), "Sp_odd_q": (37, 41), "Sp_even_q": (64, 128),
            "SO_odd_dim": (27, 29), "SO_even_dim_plus": (27, 32),
            "SO_even_dim_minus": (27, 32)}


@dataclass(frozen=True)
class Call:
    """One user-level operation.

    op: "estimate" | "sweep" | "exact" (CLI); "bruteforce" | "j_not_n" |
    "bounds" (library).  For "bounds", `family` is unused and `ns` holds
    one q per entry of BOUND_TAGS.
    """

    op: str
    family: str = ""
    ns: tuple[int, ...] = ()
    l: int = L
    event: str = "J"
    trials: int = 0
    seed: int = 0
    threads: int = 1


def bound_source(family: str, size: str) -> tuple[str, int, int]:
    """(family, n, l) of the exact value a bound for `family` uses.  A and
    C share one value, so either family's result at that n serves."""
    if family in ("A", "C"):
        return family, EXACT_UNSIGNED_NS[size][-1], L
    return family, EXACT_SIGNED_NS[size][-1], L


def plan(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The workload's calls, in the order they are issued."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    rng = random.Random(f"invgen-bench:{workload}:{seed}")
    seed64 = lambda: rng.getrandbits(64)  # noqa: E731
    calls: list[Call] = []
    if workload == "mc_large_n":
        calls = [Call("estimate", f, (n,), trials=t, seed=seed64())
                 for f, n, t in LARGE_CALLS[size]]
        rng.shuffle(calls)
    elif workload == "mc_small_n":
        n8, t8 = SMALL_ESTIMATE[size]
        ns, ts = SMALL_SWEEP[size]
        for family, event in SMALL_COMBOS:
            calls.append(Call("estimate", family, (n8,), event=event, trials=t8, seed=seed64()))
            calls.append(Call("sweep", family, ns, event=event, trials=ts, seed=seed64()))
        rng.shuffle(calls)
    elif workload == "mc_pool_sweep":
        calls = [Call("sweep", f, POOL_NS[size], trials=t, seed=seed64(), threads=POOL_THREADS)
                 for f, t in POOL_CALLS[size]]
        rng.shuffle(calls)
    else:
        # A and C give the same value and cost, so the seed picks one per n.
        for n in EXACT_UNSIGNED_NS[size]:
            calls.append(Call("exact", rng.choice(("A", "C")), (n,)))
        for n in EXACT_SIGNED_NS[size]:
            for family in EXACT_SIGNED_FAMILIES:
                calls.append(Call("exact", family, (n,)))
        rng.shuffle(calls)
        for family, n, l in BRUTE_CASES[size]:
            calls += [Call("exact", family, (n,), l=l), Call("bruteforce", family, (n,), l=l)]
        calls += [Call("j_not_n", f, (n,)) for f, n in J_NOT_N_CASES[size]]
        calls.append(Call("bounds", ns=tuple(rng.choice(BOUND_QS[tag]) for tag, _ in BOUND_TAGS)))
    return calls


def reseed(calls: list[Call], pass_index: int) -> list[Call]:
    """The plan for pass `pass_index` of a run: the same calls in the same
    order, with Monte Carlo master seeds derived from (seed, pass_index).
    Pass 0 is the plan itself.  Exact and library calls have no seed; they
    repeat unchanged."""
    if pass_index == 0:
        return calls
    return [replace(c, seed=random.Random(f"{c.seed}:{pass_index}").getrandbits(64))
            if c.op in ("estimate", "sweep") else c for c in calls]


def pin_domain(size: str):
    """Every exact value the checks compare against, as pin keys.

    Returns (exact J keys (family, n, l), J_and_not_N keys (family, n, l),
    Monte Carlo keys (event, family, n, l)).  Monte Carlo keys have a pin
    only where the package's oracles reach.
    """
    j_keys = {(f, n, L) for f in ("A", "C") for n in EXACT_UNSIGNED_NS[size]}
    j_keys |= {(f, n, L) for f in EXACT_SIGNED_FAMILIES for n in EXACT_SIGNED_NS[size]}
    j_keys |= set(BRUTE_CASES[size])
    jn_keys = {(f, n, L) for f, n in J_NOT_N_CASES[size]}
    mc_keys = set()
    for family, event in SMALL_COMBOS:
        mc_keys.add((event, family, 8, L))
        if family in ("A", "C") and event == "J":
            mc_keys.add((event, family, 16, L))
        if family == "A" and event == "all_even":
            mc_keys.add((event, family, 16, L))
    return sorted(j_keys), sorted(jn_keys), sorted(mc_keys)
