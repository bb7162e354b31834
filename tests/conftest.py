"""Shared fixtures: the two builtin scenarios are expensive (about ten
seconds each), so their traces are produced once per session and reused.
Each fixture also reports the wall-clock cost of the run itself, which the
acceptance tests check against their runtime budgets."""

import os
import time

import pytest

from delaysync.cli import load_scenario
from delaysync.harness import run_scenario


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """Every child a test starts, such as a trace.csv worker, is reaped."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process outlived the test")


def _timed_run(name):
    sc = load_scenario(name)
    t0 = time.perf_counter()
    trace = run_scenario(sc)
    return sc, trace, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ex1():
    return _timed_run("example1")


@pytest.fixture(scope="session")
def ex2():
    return _timed_run("example2")
