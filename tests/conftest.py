import contextlib
import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# every property draws the same examples on every run, so that tier-1 is
# reproducible and two trees compare on the same inputs; each test keeps
# its own max_examples
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_ACCEPTANCE_LINES = []


@pytest.fixture
def criterion():
    """Context manager recording one PASS/FAIL line per acceptance criterion.

    Usage: ``with criterion("name", budget_s=5.0): ...``.  The body's
    assertions decide the verdict; an optional wall-clock budget is part of
    the criterion and fails it when exceeded.
    """

    @contextlib.contextmanager
    def _criterion(name, budget_s=None):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            _ACCEPTANCE_LINES.append(f"FAIL {name}")
            raise
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            if elapsed >= budget_s:
                _ACCEPTANCE_LINES.append(
                    f"FAIL {name} ({elapsed:.2f}s, budget {budget_s:g}s)")
                raise AssertionError(
                    f"{name}: took {elapsed:.2f}s, budget {budget_s:g}s")
            _ACCEPTANCE_LINES.append(
                f"PASS {name} ({elapsed:.2f}s < {budget_s:g}s)")
        else:
            _ACCEPTANCE_LINES.append(f"PASS {name}")

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
