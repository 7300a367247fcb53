import pytest

from gridleague import tensor as T


@pytest.fixture(autouse=True)
def _debug_mode():
    """Tests run with NaN checks after every forward op."""
    T.set_debug_checks(True)
    yield
    T.set_debug_checks(False)
