"""A fixed time limit on every test, so that a fault which makes a kernel
loop forever fails its test, by name, instead of hanging the run."""

import signal

import pytest

# Far above the slowest test (a few seconds); no option changes it.
TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """A BaseException, so that no `except Exception` in the code under
    test swallows it."""


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "setitimer"):  # POSIX only
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
