"""Shared pytest hooks and fixtures.

The numbered tests in test_acceptance.py double as a release checklist.
After the run, print one PASS/FAIL line per criterion so the outcome can
be scanned without digging through the full pytest report.

Tests that assert a call ends within a time bound run the call under
time_limit, so a call that would run for hours fails instead of hanging.
"""

import re
import signal
from contextlib import contextmanager

import pytest

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter):
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, ()):
            match = _CRITERION.search(report.nodeid)
            if match is None:
                continue
            n = int(match.group(1))
            ok = outcome == "passed"
            verdicts[n] = verdicts.get(n, True) and ok
    if not verdicts:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance checklist:")
    for n in sorted(verdicts):
        word = "PASS" if verdicts[n] else "FAIL"
        terminalreporter.write_line(f"  criterion {n}: {word}")


@contextmanager
def _time_limit(seconds: float = 5.0):
    """Fail the test if the block is still running after `seconds`. The
    default is past the 1 s bound that the guarded tests assert, so the
    guard fails only a call whose own assertion would fail as well.

    A SIGALRM timer (POSIX, main thread only) calls pytest.fail, whose
    exception derives from BaseException, so an `except Exception` in the
    code under test, such as verify_certificate's, cannot swallow it.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """_time_limit, for tests whose call must end within a time bound."""
    return _time_limit
