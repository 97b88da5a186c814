import signal

import pytest
from _pytest.outcomes import OutcomeException

from kingmesh.kings import KingClass
from kingmesh.mesh import catalog
from kingmesh.oracle import distribution_tables

# Each phase of every test, its setup (fixtures of any scope included), its
# call and its teardown, must end within this many seconds; the slowest takes
# about 5 s.  A fault that keeps a loop from ending then fails the test it
# shows in, and the session goes on to the next.
TIME_LIMIT_S = 30


class TimeLimitExceeded(OutcomeException):
    """A test phase ran past ``TIME_LIMIT_S``.  A ``BaseException``, not an
    ``Exception``, so that no handler in the code under test swallows it; and
    a test outcome, so that a fixture it stops keeps the error for every test
    that asks for it.  Not a ``pytest.fail.Exception``, which hypothesis
    catches to shrink the example, running it again with no limit."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"a test phase ran past {TIME_LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def _time_limited(item):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# as hooks, not an autouse fixture, so that the limit covers the setup of the
# session and module fixtures too, which run before any fixture of the test
pytest_runtest_setup = pytest_runtest_call = pytest_runtest_teardown = _time_limited


@pytest.fixture(scope="session")
def catalog_sweep_9():
    """Exhaustive distribution rows for every catalog pattern, n <= 9.

    One shared enumeration pass; several test modules compare against it.
    Returns {ident: DistributionTable} over the unrestricted class.
    """
    entries = catalog()
    tables = distribution_tables([e.pattern for e in entries], 9, KingClass.ALL)
    return {e.ident: t for e, t in zip(entries, tables)}
