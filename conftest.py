"""Tier-1 hang guard for every collected test, under tests/ and perfbench/.

A test whose setup or call runs longer than TEST_TIME_LIMIT_S dumps the
traceback of every thread and ends the pytest process, so a loop that
never ends fails the suite instead of stalling it.
"""

import faulthandler
import os
from contextlib import contextmanager

import pytest

# above the 900 s bound that tests/test_acceptance.py's full_comparison
# fixture asserts on itself
TEST_TIME_LIMIT_S = 1200

# pytest captures fd 2 while a test runs, and the exit would drop what
# was captured, so the dump goes to a copy of stderr taken beforehand
_STDERR = pytest.StashKey()


def pytest_configure(config):
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@contextmanager
def _time_limit(item):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=item.config.stash[_STDERR]
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _time_limit(item):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _time_limit(item):
        yield
