"""A per-test time limit: a loop that stops advancing fails its test, not the whole suite."""

import signal

import pytest

TIME_LIMIT_S = 60


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    # SIGALRM runs no thread or subprocess; subprocess.run kills its child when interrupted
    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past the {TIME_LIMIT_S}-s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
