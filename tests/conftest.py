"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool montecarlo opens with one that runs `map`
    in this process; returns the `max_workers` of every pool opened, in
    order.  Lets a test ask for any worker count without forking a single
    process.  montecarlo opens a pool only for more than one worker, and
    caps workers by `os.cpu_count()`, so a test that counts pools pins
    `montecarlo.os.cpu_count`."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


@pytest.fixture
def stick_breaking(monkeypatch):
    """Set the samplers' table caps to 0, so that the public samplers and
    the Monte Carlo engine break sticks at every n: the law of
    `_sample_cycles` stays checked against the class tables that the
    table draws read."""
    import invgen.sampling as sampling

    monkeypatch.setattr(sampling, "PARTITION_TABLE_LIMIT", 0)
    monkeypatch.setattr(sampling, "SIGNED_TABLE_LIMIT", 0)
