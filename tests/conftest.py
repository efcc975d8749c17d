"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core import Jury, Worker, WorkerPool

#: Optional per-test wall-clock limit (seconds).  CI sets this for the
#: jobs that exercise the concurrent serving loop (the server suite, the
#: engine suite with telemetry forced on): a deadlock then fails the one
#: stuck test fast instead of hanging the whole job.
_TIMEOUT_ENV = "REPRO_TEST_TIMEOUT"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    limit = float(os.environ.get(_TIMEOUT_ENV, "0") or 0)
    if limit <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):  # pragma: no cover - only fires on hangs
        raise TimeoutError(
            f"test exceeded {_TIMEOUT_ENV}={limit:g}s (likely a deadlock "
            "in the concurrent serving path)"
        )

    # SIGALRM interrupts lock/condition waits on the main thread, which
    # is exactly where an intake/dispatch deadlock would park the test.
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def example2_qualities() -> np.ndarray:
    """The paper's Example 2/3 jury: qualities (0.9, 0.6, 0.6)."""
    return np.array([0.9, 0.6, 0.6])


@pytest.fixture
def figure1_pool() -> WorkerPool:
    """The Figure-1 candidate pool (workers A-G)."""
    return WorkerPool(
        [
            Worker("A", 0.77, 9),
            Worker("B", 0.70, 5),
            Worker("C", 0.80, 6),
            Worker("D", 0.65, 7),
            Worker("E", 0.60, 5),
            Worker("F", 0.60, 2),
            Worker("G", 0.75, 3),
        ]
    )


@pytest.fixture
def small_jury() -> Jury:
    """A three-member jury with distinct costs."""
    return Jury(
        [
            Worker("x", 0.8, 2.0),
            Worker("y", 0.7, 1.0),
            Worker("z", 0.6, 0.5),
        ]
    )
