"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace montecarlo's child start with one that counts the child's
    jobs in this process; returns how many children each `_estimate` call
    started, in order, 0 for a call with one worker.  Lets a test ask for
    any worker count without forking a single process.  montecarlo caps
    workers by `os.cpu_count()`, so a test that counts children pins
    `montecarlo.os.cpu_count`."""
    import invgen.montecarlo as montecarlo

    started = []
    estimate = montecarlo._estimate

    def start(jobs):
        started[-1] += 1
        counts = [montecarlo._count_range(*job) for job in jobs]
        return SimpleNamespace(terminate=lambda: None, join=lambda: None), SimpleNamespace(recv=lambda: counts)

    def counting_estimate(*args):
        started.append(0)
        return estimate(*args)

    monkeypatch.setattr(montecarlo, "_start", start)
    monkeypatch.setattr(montecarlo, "_estimate", counting_estimate)
    return started


@pytest.fixture
def stick_breaking(monkeypatch):
    """Set the samplers' table caps to 0, so that the public samplers and
    the Monte Carlo engine break sticks at every n: the law of
    `_sample_cycles` stays checked against the class tables that the
    table draws read."""
    import invgen.sampling as sampling

    monkeypatch.setattr(sampling, "PARTITION_TABLE_LIMIT", 0)
    monkeypatch.setattr(sampling, "SIGNED_TABLE_LIMIT", 0)
