"""Settings for the whole suite.

Hypothesis: every @given test draws the same examples on every run, and no
example database is kept.  Hypothesis also caches the constants it reads
from the code under test; that cache goes to a temporary directory removed
at exit, so a run leaves no .hypothesis/ behind.

Deadline: each phase of a test (set-up, call, tear-down) runs under a real
time alarm of DEADLINE_S seconds, far above the slowest test (about 6 s).
A test that passes it fails by name with `DeadlinePassed`, and the run goes
on, so code that stops terminating fails its test instead of hanging the
suite.  No test overrides the deadline.
"""

import atexit
import contextlib
import shutil
import signal
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("dgb", derandomize=True, database=None)
settings.load_profile("dgb")

_home = tempfile.mkdtemp(prefix="dgb-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
set_hypothesis_home_dir(_home)


DEADLINE_S = 120


class DeadlinePassed(BaseException):
    """A test ran past its deadline.  It is not an Exception, so no `except
    Exception` in the code under test and no Hypothesis shrinking catches
    it; pytest reports it as the test's failure."""


def _expire(signum, frame):
    raise DeadlinePassed(f"the test ran past its deadline of {DEADLINE_S} s")


@contextlib.contextmanager
def _deadline():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _deadline():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _deadline():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    with _deadline():
        yield
