"""Shared fixtures: the reference model, hypothesis settings and a fresh-interpreter probe."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

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


SRC = Path(__file__).resolve().parents[1] / "src"
# Runs ``statement``, then writes the crosswatch, scipy and mpmath modules it left
# loaded to stderr behind a NUL, apart from anything the statement printed.
_PROBE = """\
import json, sys
try:
    {statement}
finally:
    sys.stderr.write("\\0" + json.dumps([m for m in sys.modules if m.split(".")[0] in ("crosswatch", "scipy", "mpmath")]))
"""


class Spawn(NamedTuple):
    returncode: int
    out: str
    err: str
    modules: frozenset[str]


@functools.cache
def fresh_interpreter(statement: str) -> Spawn:
    """Run the one-line ``statement`` in a fresh interpreter with ``src`` on the path.

    Cached per statement, so the tests that read the ``--help`` run share one spawn."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(statement=statement)], env=env,
                          capture_output=True, text=True, timeout=120)
    err, _, report = proc.stderr.rpartition("\0")
    return Spawn(proc.returncode, proc.stdout, err, frozenset(json.loads(report)))


def fresh_cli(*argv: str) -> Spawn:
    """``crosswatch.cli.main(argv)`` in a fresh interpreter, which exits with its code."""
    return fresh_interpreter(f"import crosswatch.cli; sys.exit(crosswatch.cli.main({list(argv)!r}))")
