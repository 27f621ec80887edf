"""Fixtures shared by the test modules."""

import pytest

import invgen.montecarlo as montecarlo


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace montecarlo's process pool with one that runs `map` in this
    process; returns the `max_workers` of every pool opened, in order.
    Lets a test ask for any worker count without forking a single process."""
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

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    return sizes
