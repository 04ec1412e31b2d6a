"""Names the golden tests' comparison mode in the terminal summary."""

import pytest

_MODES = set()


@pytest.fixture
def golden_mode_ran():
    """The comparison modes the golden tests ran, for the summary."""
    return _MODES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _MODES:
        terminalreporter.write_line(
            "golden outputs compared in {} mode".format(", ".join(_MODES)))
