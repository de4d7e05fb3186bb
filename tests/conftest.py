"""Shared fixtures: the reference model and hypothesis settings."""

import hypothesis
import pytest

from crosswatch.model import (
    DegenerateZero,
    Exponential,
    Geometric,
    ObservationLaw,
    ProcessModel,
)

hypothesis.settings.register_profile(
    "package", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("package")

# One line per acceptance criterion, printed after the test summary so a
# plain `pytest -v` run shows the pass/fail ledger without extra flags.
ACCEPTANCE_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES[number] = f"criterion {number}: {status}  [{detail}]"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for number in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(ACCEPTANCE_LINES[number])


def geometric_model(m: int = 3, lam: float = 1.0, a: float = 0.5, mu: float = 1.0) -> ProcessModel:
    """A model of the closed-form family: geometric(a) marks, Exp(mu) gaps, a first look at 0."""
    return ProcessModel(
        rate=lam,
        marks=Geometric(a),
        observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(mu)),
        threshold=m,
    )


@pytest.fixture(scope="session")
def std_model() -> ProcessModel:
    """Geometric(1/2) marks, unit-rate arrivals, Exp(1) gaps, threshold 3."""
    return geometric_model()


@pytest.fixture(scope="session")
def exp_initial_model() -> ProcessModel:
    """Variant with an exponential initial gap, used to exercise nonzero gamma0."""
    return ProcessModel(
        rate=1.0,
        marks=Geometric(0.5),
        observation=ObservationLaw(initial=Exponential(2.0), recurring=Exponential(1.0)),
        threshold=2,
    )
