"""Invariable-generation experiments on Weyl groups of types A, B, C, D:
seeded Monte Carlo at large n, exact rational oracles at small n, and the
arithmetic propagating Weyl-level probabilities to classical-group bounds.
"""

__version__ = "0.6.0"

from .bounds import (
    BoundReport,
    ClassicalFamily,
    ClassicalTag,
    i3_upper_bound,
    i4_lower_bound,
    separable_proportion,
    solve_K4,
    solver_proportion,
)
from .cycletypes import (
    EVENTS,
    Partition,
    SignedCycleType,
    SignedSizeProfile,
    SizeProfile,
    WeylFamily,
    event_J,
    fixed_sizes,
    make_partition,
    make_signed,
    project,
    signed_fixed_sets,
)
from .errors import (
    CapacityError,
    InvgenError,
    NoSolutionError,
    ValidationError,
)
from .exact import (
    ClassTable,
    enumerate_classes,
    exact_prob,
    exact_prob_J,
    exact_prob_J_and_not_N,
    exact_prob_J_bruteforce,
    exact_prob_predicate,
)
from .montecarlo import (
    Estimate,
    ExperimentSpec,
    run,
    sweep,
    sweep_seed,
    wilson_interval,
    wilson_interval_z,
)
from .sampling import (
    RngState,
    sample_partition,
    sample_signed,
    sample_signed_conditioned,
)
