"""Every event the CLI offers, on every family that accepts it: the exact
value equals a brute force over l-tuples of class labels.

The definitions below are written from the public per-tuple evaluator
`event_J` and from label fields (total signs, cycle lengths and cycle
signs), not from the engine or the oracle, and `TestEngineMatchesDefinition`
in test_montecarlo replays Monte Carlo trials against the same ones.  An
event added to `EVENTS` without a definition here fails `test_covers_events`.
"""

import itertools
import math
from fractions import Fraction

import pytest

from invgen import (
    EVENTS,
    Partition,
    ValidationError,
    WeylFamily,
    enumerate_classes,
    event_J,
    exact_prob,
    fixed_sizes,
    project,
    signed_fixed_sets,
)
from invgen.montecarlo import check_event


def partition(label):
    return label if isinstance(label, Partition) else project(label)


def profile(label, family):
    """The profile event_J reads: (size, sign) pairs for B and D, plain
    sizes of the projection for A and C."""
    return signed_fixed_sets(label) if family.signed_profiles else fixed_sizes(partition(label))


def holds_J(labels, family):
    return event_J([profile(x, family) for x in labels], family)


def same_sign(labels):
    return len({x.total_sign for x in labels}) == 1


def all_even(x):
    return all(k % 2 == 0 for k in partition(x).parts)


def all_positive(x):
    return all(s > 0 for _, s in x.cycles)


# event -> (what the event reads of one label, whether an l-tuple of labels
# holds it).  Labels that read the same are grouped by the brute force, so
# the first function must fix everything the second one looks at.
DEFINITIONS = {
    "J": (profile, holds_J),
    "J_and_not_N": (
        lambda x, family: (profile(x, family), x.total_sign),
        lambda labels, family: holds_J(labels, family) and not same_sign(labels),
    ),
    "N": (lambda x, family: x.total_sign, lambda labels, family: same_sign(labels)),
    "all_even": (lambda x, family: all_even(x), lambda labels, family: all(map(all_even, labels))),
    "all_positive": (lambda x, family: all_positive(x), lambda labels, family: all(map(all_positive, labels))),
}


def holds(event, labels, family) -> bool:
    return DEFINITIONS[event][1](labels, family)


def accepts(event, family) -> bool:
    try:
        check_event(event, family)
    except ValidationError:
        return False
    return True


PAIRS = [(event, family) for event in EVENTS for family in WeylFamily if accepts(event, family)]


def brute(n, l, family, event):
    reads, tuple_holds = DEFINITIONS[event]
    groups = {}
    for label, p in enumerate_classes(n, family).entries:
        key = reads(label, family)
        rep, mass = groups.get(key, (label, 0))
        groups[key] = (rep, mass + p)
    total = Fraction(0)
    for combo in itertools.product(groups.values(), repeat=l):
        if tuple_holds([rep for rep, _ in combo], family):
            total += math.prod(p for _, p in combo)
    return total


def test_covers_events():
    assert set(DEFINITIONS) == set(EVENTS)


@pytest.mark.parametrize("event, family", PAIRS, ids=[f"{e}-{f.value}" for e, f in PAIRS])
@pytest.mark.parametrize("n", range(1, 7))
def test_exact_matches_definition(event, family, n):
    for l in (1, 2, 3):
        assert exact_prob(n, l, family, event) == brute(n, l, family, event), l
