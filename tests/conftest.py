"""Shared pytest plumbing: per-criterion result lines.

Acceptance tests carry a ``criterion(num, name)`` marker; after the run
the terminal summary prints one PASS/FAIL line per criterion, with the
duration of its test call, so the verdict of the whole gate and where the
suite's time goes are readable at a glance.
"""

import pytest

_LINES: dict[int, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, name): acceptance criterion covered by this test",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    # a setup error must surface as FAIL, not as a silently missing line
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        num, name = mark.args
        status = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            report.outcome, report.outcome.upper()
        )
        _LINES[num] = f"criterion {num} ({name}): {status} in {report.duration:.1f} s"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_LINES):
        terminalreporter.write_line(_LINES[num])
