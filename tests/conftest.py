"""Shared fixtures."""

import signal

import pytest

DEADLINE_S = 10.0


@pytest.fixture
def deadline():
    """Fail the test once it has run ``DEADLINE_S`` seconds, so that a call
    that would run for hours fails instead."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs SIGALRM")

    def expire(signum, frame):
        pytest.fail(f"still running after {DEADLINE_S:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
