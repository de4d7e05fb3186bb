"""Negative controls: a small error in what a command prints must fail the battery.

Each mutant scales one production entry point, the routine a command
prints from, by a relative error, and the battery must fail a check that
reads that entry point:

* ``fluctuation._g_parts``, behind ``functional``, x (1 + 1e-6);
* ``timedomain._survival_laws``, behind ``survival`` and ``predict``,
  x (1 + 1e-5).

A measurement that comes out NaN fails its check as well, reported as
``null``: a bare ``max`` fold drops a NaN, and a survival law above 1 made
the binomial band a NaN that way.
"""

import math

import numpy as np
import pytest

from crosswatch import fluctuation, timedomain, validation
from crosswatch.model import DegenerateZero, Exponential, GeneralDiscrete, Geometric, ObservationLaw, ProcessModel
from crosswatch.validation import run_battery

MARKS = {"geometric": Geometric(0.5), "pmf": GeneralDiscrete([0.0, 0.5, 0.3, 0.2])}


def _model(marks):
    return ProcessModel(1.0, MARKS[marks], ObservationLaw(DegenerateZero(), Exponential(1.0)), 3)


def _scaled(function, factor):
    """``function`` with every array it returns multiplied by ``factor``."""
    def mutant(*args, **kwargs):
        out = function(*args, **kwargs)
        return tuple(part * factor for part in out) if isinstance(out, tuple) else out * factor

    return mutant


def _checks(report):
    return {check["name"]: check for check in report["checks"]}


@pytest.mark.parametrize("marks", MARKS)
@pytest.mark.parametrize("module, name, error, must_fail", [
    (fluctuation, "_g_parts", 1e-6, {"crossing-series-path-agreement"}),
    (timedomain, "_survival_laws", 1e-5, {"time-domain-law-agreement", "survival-vs-mc"}),
], ids=["g-parts", "survival-laws"])
def test_a_scaled_entry_point_fails_its_checks(marks, module, name, error, must_fail, monkeypatch):
    monkeypatch.setattr(module, name, _scaled(getattr(module, name), 1.0 + error))
    report = run_battery(_model(marks), seed=0, n_paths=20_000)
    assert must_fail <= set(report["failed_checks"])
    assert not report["all_passed"]


@pytest.mark.parametrize("marks", MARKS)
def test_a_survival_law_above_one_observes_inf_not_a_band(marks, monkeypatch):
    # S_cross(0) = 1.00001 has no binomial variance; its band observes inf, without a warning
    monkeypatch.setattr(timedomain, "_survival_laws", _scaled(timedomain._survival_laws, 1.0 + 1e-5))
    check = _checks(run_battery(_model(marks), seed=0, n_paths=20_000))["survival-vs-mc"]
    assert check["observed"] is None and check["margin"] is None
    assert not check["passed"]


def test_the_band_refuses_a_value_that_is_no_probability():
    freq = np.array([0.5, 0.5])
    assert validation._mc_band(freq, np.array([0.5, 0.5]), 100) == 0.0
    for bad in (1.0 + 1e-12, -1e-12, math.nan):
        assert validation._mc_band(freq, np.array([0.5, bad]), 100) == math.inf


def test_a_nan_measurement_fails_and_reports_null(monkeypatch):
    # every Poisson tail NaN: a bare max fold would keep the first value, 0, and pass
    monkeypatch.setattr(timedomain, "_poisson_tails", lambda x, kmax: np.full(kmax + 1, math.nan))
    report = run_battery(_model("pmf"), seed=0, n_paths=1_000)
    check = _checks(report)["gamma-cdf-identity"]
    assert check["observed"] is None and not check["passed"]
    assert "gamma-cdf-identity" in report["failed_checks"]


def test_the_fold_keeps_a_nan_wherever_it_comes():
    assert validation._worst(0.0, 2.0, 1.0) == 2.0
    for values in ((math.nan, 1.0), (1.0, math.nan), (0.0, 3.0, math.nan, 2.0)):
        assert math.isnan(validation._worst(*values))
