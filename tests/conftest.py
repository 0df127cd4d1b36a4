import time
from typing import NamedTuple

import numpy as np
import pytest

from ergokit import SystemSpec
from ergokit.verify import CheckResult, run_suite

_acceptance_lines = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        _acceptance_lines.append(f"[{outcome}] {name}")


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def qubit_pair():
    return SystemSpec.qubits(2, 1.0)


class VerifyRun(NamedTuple):
    results: list[CheckResult]
    seconds: float

    def result(self, name: str) -> CheckResult:
        return next(r for r in self.results if r.name == name)


@pytest.fixture(scope="session")
def verify_all():
    """The one timed `run_suite("all")` of a test session; tests read its checks."""
    start = time.perf_counter()
    results = run_suite("all")
    return VerifyRun(results, time.perf_counter() - start)
