import pytest

from paulicrit import OperatorSet, parse_pauli
from paulicrit.pauli import cp_expand

EXAMPLE_EIGHT = ("xxx", "yxx", "xyx", "yyx", "xxy", "yxy", "xyy", "yyy")
EXAMPLE_CYCLIC_PATTERNS = ("1xxxz", "1zxxz", "1zxzz")

_CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    _CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def report_criterion():
    def _report(number, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
        print(line)
        record_criterion(line)
        assert ok, line

    return _report


@pytest.fixture(scope="session")
def sigma3():
    return OperatorSet.from_strings(EXAMPLE_EIGHT)


@pytest.fixture(scope="session")
def sigma15():
    members = []
    for pattern in EXAMPLE_CYCLIC_PATTERNS:
        members.extend(cp_expand(parse_pauli(pattern)).members)
    return OperatorSet(members)
