"""Negative controls: a small error in what a command prints must fail the battery.

Each mutant scales one production entry point, the routine a command
prints from, by a relative error, and the battery must fail a check that
reads that entry point:

* ``fluctuation._g_parts``, behind ``functional``, x (1 + 1e-6);
* ``timedomain._survival_laws``, behind ``survival`` and ``predict``,
  x (1 + 1e-5);
* ``timedomain._visits``, the expected looks behind ``predict``'s
  overshoot law, x (1 + 1e-6) on geometric marks.

Three mutants still pass every check (battery at M = 3, seed 0, 20k
paths), so they are pinned as strict expected failures that flip when an
exact check reads them: ``timedomain.crossing_level_law``, behind
``predict``, x (1 + 1e-4) on both mark families, and ``_visits`` on the
finite pmf.  The one check that reads the level law,
``overshoot-pmf-vs-mc``, holds it to a Monte Carlo band far wider than
1e-4.  ``_visits`` fails on geometric marks only through ``dist_table``,
which the battery checks on the geometric family alone.

Four simulator mutants must each fail a Monte Carlo check of the battery
at its default 100k paths, on both mark laws at M = 3:

* a crossing at >= M instead of > M: the chunk worker of
  ``montecarlo._crossing_sample`` sees the threshold M - 1;
* a gap's arrival count off by one: ``montecarlo._arrivals`` recompiled
  with one more arrival in every Exp gap;
* a level power one level high: ``montecarlo._powers`` gives
  base^(k + 1) for base^k;
* marks drawn from their pmf with the entries of marks 1 and 2 swapped:
  ``montecarlo.mark_sample`` relabels 1 <-> 2, which draws from that pmf.

One simulator mutant survives, pinned as a strict expected failure: the
window integrals alone, ``montecarlo._damped_length`` x (1 + 1e-2).  Only
``functional-vs-mc`` and ``window-transforms-vs-mc`` read them, and their
5-sigma bands at 100k paths are wider than 1e-2 of the windows.

A measurement that comes out NaN fails its check as well, reported as
``null``: a bare ``max`` fold drops a NaN, and a survival law above 1 made
the binomial band a NaN that way.
"""

import __future__
import dataclasses
import inspect
import math

import numpy as np
import pytest

from crosswatch import fluctuation, montecarlo, timedomain, validation
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


def _lower_threshold(worker):
    """The chunk worker run on the model with threshold M - 1: a path crosses at >= M."""
    def mutant(model, *args):
        return worker(dataclasses.replace(model, threshold=model.threshold - 1), *args)

    return mutant


def _recompiled(function, old, new):
    """``function`` compiled from its own source with the one ``old`` replaced by ``new``."""
    source = inspect.getsource(function)
    assert source.count(old) == 1
    module = inspect.getmodule(function)
    code = compile(source.replace(old, new), module.__file__, "exec", __future__.annotations.compiler_flag, True)
    namespace = dict(vars(module))
    exec(code, namespace)
    return namespace[function.__name__]


def _count_plus_one(arrivals):
    """``_arrivals`` with one more arrival in every Exp gap."""
    return _recompiled(arrivals, "counts = draws.astype(np.int64)", "counts = draws.astype(np.int64) + 1")


def _one_level_high(powers):
    """``_powers`` with every level one higher: base^(k + 1) for base^k."""
    return lambda base, levels: powers(base, levels + 1)


def _marks_one_two_swapped(mark_sample):
    """``mark_sample`` with marks 1 and 2 relabelled: a draw from the pmf with those two entries swapped."""
    def mutant(law, rng, size):
        marks = mark_sample(law, rng, size)
        return np.where(marks == 1, 2, np.where(marks == 2, 1, marks))

    return mutant


def _checks(report):
    return {check["name"]: check for check in report["checks"]}


# a survivor: the battery passes, so no check names it yet
SURVIVES = pytest.mark.xfail(strict=True, reason="ROADMAP item 16")


@pytest.mark.parametrize("module, name, error, marks, must_fail", [
    pytest.param(fluctuation, "_g_parts", 1e-6, "geometric", {"crossing-series-path-agreement"},
                 id="g-parts-geometric"),
    pytest.param(fluctuation, "_g_parts", 1e-6, "pmf", {"crossing-series-path-agreement"}, id="g-parts-pmf"),
    pytest.param(timedomain, "_survival_laws", 1e-5, "geometric", {"time-domain-law-agreement", "survival-vs-mc"},
                 id="survival-laws-geometric"),
    pytest.param(timedomain, "_survival_laws", 1e-5, "pmf", {"time-domain-law-agreement", "survival-vs-mc"},
                 id="survival-laws-pmf"),
    pytest.param(timedomain, "_visits", 1e-6, "geometric", {"pgf-extraction-consistency"}, id="visits-geometric"),
    pytest.param(timedomain, "_visits", 1e-6, "pmf", set(), id="visits-pmf", marks=SURVIVES),
    pytest.param(timedomain, "crossing_level_law", 1e-4, "geometric", set(), id="level-law-geometric",
                 marks=SURVIVES),
    pytest.param(timedomain, "crossing_level_law", 1e-4, "pmf", set(), id="level-law-pmf", marks=SURVIVES),
])
def test_a_scaled_entry_point_fails_its_checks(module, name, error, marks, must_fail, monkeypatch):
    monkeypatch.setattr(module, name, _scaled(getattr(module, name), 1.0 + error))
    report = run_battery(_model(marks), seed=0, n_paths=20_000)
    assert must_fail <= set(report["failed_checks"])
    assert not report["all_passed"]


@pytest.mark.parametrize("name, mutate, marks, must_fail", [
    pytest.param("_crossing_wave_chunk", _lower_threshold, "geometric",
                 {"survival-vs-mc", "overshoot-pmf-vs-mc", "functional-vs-mc", "mc-joint-agreement"},
                 id="crossing-at-m-geometric"),
    pytest.param("_crossing_wave_chunk", _lower_threshold, "pmf",
                 {"survival-vs-mc", "overshoot-pmf-vs-mc", "functional-vs-mc"}, id="crossing-at-m-pmf"),
    pytest.param("_arrivals", _count_plus_one, "geometric",
                 {"increment-transform-vs-mc", "window-transforms-vs-mc", "survival-vs-mc", "functional-vs-mc",
                  "mc-joint-agreement"}, id="count-plus-one-geometric"),
    pytest.param("_arrivals", _count_plus_one, "pmf",
                 {"increment-transform-vs-mc", "window-transforms-vs-mc", "survival-vs-mc", "functional-vs-mc"},
                 id="count-plus-one-pmf"),
    pytest.param("_powers", _one_level_high, "geometric",
                 {"increment-transform-vs-mc", "window-transforms-vs-mc", "functional-vs-mc"},
                 id="power-one-level-high-geometric"),
    pytest.param("_powers", _one_level_high, "pmf",
                 {"increment-transform-vs-mc", "window-transforms-vs-mc", "functional-vs-mc"},
                 id="power-one-level-high-pmf"),
    pytest.param("mark_sample", _marks_one_two_swapped, "geometric",
                 {"increment-transform-vs-mc", "window-transforms-vs-mc", "survival-vs-mc", "overshoot-pmf-vs-mc",
                  "functional-vs-mc", "mc-joint-agreement"}, id="marks-swapped-geometric"),
    pytest.param("mark_sample", _marks_one_two_swapped, "pmf",
                 {"increment-transform-vs-mc", "window-transforms-vs-mc", "survival-vs-mc", "overshoot-pmf-vs-mc",
                  "functional-vs-mc"}, id="marks-swapped-pmf"),
])
def test_a_simulator_mutant_fails_a_monte_carlo_check(name, mutate, marks, must_fail, monkeypatch):
    monkeypatch.setattr(montecarlo, name, mutate(getattr(montecarlo, name)))
    report = run_battery(_model(marks), seed=0)  # at the default 100k paths
    assert report["n_paths"] == 100_000
    assert must_fail <= set(report["failed_checks"])


# a survivor of the simulator mutants: no Monte Carlo band resolves 1e-2 of the windows
SURVIVES_MC = pytest.mark.xfail(strict=True, reason="ROADMAP item 11")


@pytest.mark.parametrize("marks", [pytest.param(marks, marks=SURVIVES_MC) for marks in MARKS])
def test_a_window_integral_mutant_fails_a_monte_carlo_check(marks, monkeypatch):
    # functional-vs-mc observes 0.74 (geometric) and 0.78 (pmf), window-transforms-vs-mc 0.86 and 0.91
    monkeypatch.setattr(montecarlo, "_damped_length", _scaled(montecarlo._damped_length, 1.0 + 1e-2))
    report = run_battery(_model(marks), seed=0)
    assert {"functional-vs-mc", "window-transforms-vs-mc"} & set(report["failed_checks"])


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
