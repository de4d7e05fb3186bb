"""Transform inversion: the Euler-summed Bromwich sum, its error-estimate
gate, and survival-curve extraction from LSTs.

Accuracy is pinned against a dictionary of transform/original pairs with
known closed forms.  Measured worst-case errors carry at least 8x
headroom over the asserted bounds.
"""

import math

import numpy as np
import pytest

from crosswatch import fluctuation, timedomain
from crosswatch.errors import DomainError, InversionError
from crosswatch.laplace import invert, survival_curve
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
)

# (transform, original); all originals smooth and nonoscillatory
SMOOTH_PAIRS = [
    (lambda s: 1.0 / s, lambda t: 1.0),
    (lambda s: 1.0 / s**2, lambda t: t),
    (lambda s: 2.0 / s**3, lambda t: t * t),
    (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
    (lambda s: 1.0 / (s + 0.5), lambda t: math.exp(-0.5 * t)),
    (lambda s: 1.0 / (s + 1.0) ** 2, lambda t: t * math.exp(-t)),
    (lambda s: 2.0 / (s + 2.0) ** 3, lambda t: t * t * math.exp(-2 * t)),
    (lambda s: 6.0 / (s + 1.0) ** 4, lambda t: t**3 * math.exp(-t)),
    (lambda s: 1.0 / (s * (s + 1.0)), lambda t: 1.0 - math.exp(-t)),
    (lambda s: 4.0 / (s * (s + 2.0) ** 2), lambda t: 1.0 - math.exp(-2 * t) * (1 + 2 * t)),
    (
        lambda s: 1.0 / (s * (s + 1.0) ** 3),
        lambda t: 1.0 - math.exp(-t) * (1 + t + t * t / 2),
    ),
    (
        lambda s: 0.3 / (s + 1.0) + 0.7 / (s + 3.0),
        lambda t: 0.3 * math.exp(-t) + 0.7 * math.exp(-3 * t),
    ),
    (
        lambda s: (1.0 - (0.5 / (1.0 + s) + 1.0 / (2.0 + s))) / s,
        lambda t: 0.5 * math.exp(-t) + 0.5 * math.exp(-2 * t),
    ),
    (
        lambda s: 1.0 / (s * (s + 1.0) * (s + 2.0)),
        lambda t: 0.5 - math.exp(-t) + 0.5 * math.exp(-2 * t),
    ),
    (
        lambda s: (s + 3.0) / ((s + 1.0) * (s + 2.0)),
        lambda t: 2 * math.exp(-t) - math.exp(-2 * t),
    ),
    (lambda s: 1.0 / (s + 1.0) - 1.0 / (s + 2.0), lambda t: math.exp(-t) - math.exp(-2 * t)),
]

OSCILLATORY_PAIRS = [
    (lambda s: 1.0 / (s * s + 1.0), lambda t: math.sin(t)),
    (lambda s: s / (s * s + 1.0), lambda t: math.cos(t)),
    (lambda s: 1.0 / ((s + 0.5) ** 2 + 1.0), lambda t: math.exp(-0.5 * t) * math.sin(t)),
    (
        lambda s: (s + 0.3) / ((s + 0.3) ** 2 + 4.0),
        lambda t: math.exp(-0.3 * t) * math.cos(2 * t),
    ),
]

GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


class TestInvert:
    def test_unit_step(self):
        assert abs(invert(lambda s: 1.0 / s, 1.0) - 1.0) < 1e-8

    def test_unit_exponential(self):
        assert abs(invert(lambda s: 1.0 / (s + 1.0), 1.0) - math.exp(-1.0)) < 1e-8

    def test_smooth_dictionary(self):
        for transform, original in SMOOTH_PAIRS:
            for t in GRID:
                assert abs(invert(transform, t) - original(t)) < 1e-7

    def test_oscillatory_dictionary(self):
        # sin/cos originals: the Euler average must sum the tail of a
        # series whose terms do not simply alternate in sign
        for transform, original in OSCILLATORY_PAIRS:
            for t in GRID:
                assert abs(invert(transform, t) - original(t)) < 1e-6

    def test_time_rescaling_covariance(self):
        # f(ct) transforms to F(s/c)/c; both inversions use the same abscissae
        transform = lambda s: 1.0 / (s + 1.0) ** 2
        scaled = invert(lambda s: transform(s / 2.0) / 2.0, 1.5)
        direct = invert(transform, 3.0)
        assert abs(scaled - direct) < 1e-12

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            invert(lambda s: 1.0 / s, 0.0)
        with pytest.raises(DomainError):
            invert(lambda s: 1.0 / s, -1.0)
        with pytest.raises(DomainError):
            invert(lambda s: 1.0 / s, math.inf)

    def test_non_finite_transform_is_an_error(self):
        with pytest.raises(InversionError):
            invert(lambda s: float("nan"), 1.0)

    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_jump_original_is_an_error(self, t):
        # e^{-s}/s is the unit step at t = 1: its jump inside (0, 2t) stalls
        # the Euler sum, and the error estimate must say so
        with pytest.raises(InversionError):
            invert(lambda s: np.exp(-s) / s, t)


class TestSurvivalCurve:
    def test_exponential_law(self):
        grid = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 5.0])
        out = survival_curve(lambda s: 1.0 / (1.0 + s), grid)
        assert np.max(np.abs(out - np.exp(-grid))) < 1e-7

    def test_erlang_law(self):
        grid = np.array([0.5, 1.0, 3.0])
        out = survival_curve(lambda s: (1.0 / (1.0 + s)) ** 2, grid)
        want = np.exp(-grid) * (1.0 + grid)
        assert np.max(np.abs(out - want)) < 1e-7

    def test_atom_at_zero(self):
        out = survival_curve(lambda s: 0.3 + 0.7 / (1.0 + s), np.array([0.0]))
        assert abs(out[0] - 0.7) < 1e-9

    def test_no_atom_reports_one_at_zero(self):
        out = survival_curve(lambda s: 1.0 / (1.0 + s), np.array([0.0]))
        assert abs(out[0] - 1.0) < 1e-9

    def test_clamped_to_unit_interval(self):
        out = survival_curve(lambda s: 1.0 / (1.0 + s), np.array([50.0, 80.0, 120.0]))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_nonincreasing(self):
        grid = np.linspace(0.0, 6.0, 61)
        out = survival_curve(lambda s: (1.0 / (1.0 + s)) ** 2, grid)
        assert np.all(np.diff(out) <= 1e-9)

    def test_empty_grid(self):
        out = survival_curve(lambda s: 1.0 / (1.0 + s), np.array([]))
        assert out.size == 0

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            survival_curve(lambda s: 1.0 / (1.0 + s), np.ones((2, 2)))
        with pytest.raises(DomainError):
            survival_curve(lambda s: 1.0 / (1.0 + s), np.array([-1.0, 1.0]))


class _Counting:
    """A transform wrapper that records the abscissae of every call."""

    def __init__(self, transform):
        self.transform, self.calls = transform, []

    def __call__(self, theta):
        self.calls.append(np.array(theta))
        return self.transform(theta)


class TestBatchedEvaluation:
    def test_one_transform_call_per_grid(self):
        counted = _Counting(lambda s: 1.0 / (s + 1.0))
        times = np.array([0.5, 1.0, 2.0])
        values = invert(counted, times)
        assert len(counted.calls) == 1 and counted.calls[0].shape == (3, 38)
        assert np.max(np.abs(values - np.exp(-times))) < 1e-8

    def test_scalar_time_returns_a_float(self):
        assert type(invert(lambda s: 1.0 / (s + 1.0), 1.0)) is float
        assert invert(lambda s: 1.0 / (s + 1.0), np.array([1.0])).shape == (1,)

    def test_survival_curve_calls_once_plus_the_atom(self):
        counted = _Counting(lambda s: 0.3 + 0.7 / (1.0 + s))
        out = survival_curve(counted, np.array([0.0, 0.5, 1.0, 0.0, 2.0]))
        assert len(counted.calls) == 2
        assert abs(out[0] - 0.7) < 1e-9 and abs(out[3] - 0.7) < 1e-9

    def test_times_match_single_inversions(self):
        for transform, original in SMOOTH_PAIRS + OSCILLATORY_PAIRS:
            batch = invert(transform, np.array(GRID))
            assert np.array_equal(batch, [invert(transform, t) for t in GRID])

    def test_rejects_bad_time_arrays(self):
        for bad in (np.array([1.0, 0.0]), np.array([1.0, np.nan]), np.ones((2, 2))):
            with pytest.raises(DomainError):
                invert(lambda s: 1.0 / s, bad)


class TestAdaptiveTermCount:
    def test_doubling_evaluates_only_new_abscissae(self):
        # (t - 1) e^{-(t - 1)} after a delay of 1: the kink needs n = 200 at t = 5
        counted = _Counting(lambda s: np.exp(-s) / (s + 1.0) ** 2)
        t = 5.0
        assert abs(invert(counted, t) - 4.0 * math.exp(-4.0)) < 1e-6
        ks = [np.rint(c.imag * 2.0 * t / (2.0 * math.pi)).astype(int).ravel() for c in counted.calls]
        assert [(k[0], k[-1]) for k in ks] == [(0, 37), (38, 62), (63, 112), (113, 212)]

    def test_passing_times_leave_the_loop(self):
        counted = _Counting(lambda s: np.exp(-s) / (s + 1.0) ** 2 + 1.0 / (s + 1.0))
        invert(counted, np.array([0.5, 5.0]))
        assert [c.shape[0] for c in counted.calls] == [2, 1, 1, 1]

    @pytest.mark.parametrize("marks", [Geometric(0.5), GeneralDiscrete([0.0, 0.5, 0.3, 0.2])])
    def test_survival_at_twice_the_mean_crossing_time(self, marks):
        # n = 25 misses the gate here (1.7e-6 at geometric marks); n = 50 passes
        model = ProcessModel(rate=1.0, marks=marks, threshold=300,
                             observation=ObservationLaw(DegenerateZero(), Exponential(1.0)))
        t = 2.0 * timedomain._mean_cross_time(model)
        exact = timedomain.survival_cross(model, [t])[0]
        counted = _Counting(lambda q: fluctuation.lst_tau_cross(model, q))
        assert abs(survival_curve(counted, [t])[0] - exact) < 1e-6
        assert len(counted.calls) == 2
        inverted = invert(lambda q: fluctuation.g_star(model, TransformArgs(theta=q)), t)
        assert abs(inverted - exact) < 1e-6
