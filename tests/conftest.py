import tempfile
import time
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ergokit import SystemSpec
from ergokit.verify import CheckResult, run_suite

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; hypothesis still caches the
# constants it reads from the source, so its storage goes to the temp dir
# rather than a .hypothesis/ directory in the checkout
set_hypothesis_home_dir(f"{tempfile.gettempdir()}/ergokit-hypothesis")
settings.register_profile("ergokit", derandomize=True, deadline=None, database=None)
settings.load_profile("ergokit")

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

    def suite(self, name: str) -> list[CheckResult]:
        return [r for r in self.results if r.name.startswith(f"{name}/")]


@pytest.fixture(scope="session")
def verify_all():
    """The one timed `run_suite("all")` of a test session; tests read its checks."""
    start = time.perf_counter()
    results = run_suite("all")
    return VerifyRun(results, time.perf_counter() - start)
