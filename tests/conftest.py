"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    a child of `_fork.forked` (a CSV reader of `load_csvs`) must not outlive
    the call that started it. A child left
    running fails every later test until it ends, so the first failure names
    the test at fault."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else pid})")
