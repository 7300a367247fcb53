import os

import pytest

from gridleague import tensor as T


@pytest.fixture(autouse=True)
def _debug_mode():
    """Tests run with NaN checks after every forward op."""
    T.set_debug_checks(True)
    yield
    T.set_debug_checks(False)


@pytest.fixture(autouse=True)
def _no_child_left():
    """A test fails if it leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left " + (f"unreaped (pid {pid})" if pid else "running"))
