import os
import subprocess
import sys
from pathlib import Path

import pytest

import paulicrit
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


@pytest.fixture(scope="session")
def fresh_python():
    """Runs a ``python -c`` snippet with arguments in a new interpreter
    that imports this checkout's package, and returns the finished process
    with its text output."""
    src = str(Path(paulicrit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(snippet: str, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", snippet, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    return run


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
