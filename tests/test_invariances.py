"""Exact relations between models, held by every route that computes a law.

* Time unit.  Multiplying the rates lam, mu and eta and the rate arguments
  theta, w and x by c, and dividing every time by c, changes no law: a
  probability stays put and a transform in t scales by 1/c.  At c = 2^+-40
  every operation scales exactly, so each value is the base value times a
  power of two, bit for bit; at the other c the two agree to rounding.
* Zero marks.  A mark of size zero never moves the level, so marks with
  pmf [f0, p1, ...] at rate lam have the laws of [0, p1, ...] / (1 - f0)
  at rate lam (1 - f0).
* Lumping.  Up to the crossing only whether a mark exceeds the levels left
  matters, so geometric(a) marks have the pre-crossing laws of the pmf
  a b^(k-1), k <= M, with the remaining mass b^M at M + 1.
"""

import json

import numpy as np
import pytest

from crosswatch import cli, closedform, fluctuation, laplace, montecarlo, timedomain
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
)

POWERS_OF_TWO = (2.0**-40, 2.0**40)
UNITS = (2.0**-40, 1e-11, 1e-6, 1e6, 2.0**40)
MARKS = {"geometric": Geometric(0.5), "pmf": GeneralDiscrete([0.1, 0.5, 0.3, 0.1])}
RATES = ((1.0, 1.0), (0.7, 1.3), (2.0, 0.05))
TAGS = ({"theta": 0.3, "u": 0.9, "v": 0.95, "w": 0.1, "x": 0.2, "y": 0.8}, {"theta": 0.3})
TIMES = np.array([0.0, 0.5, 3.0, 10.0, 40.0])
CASES = [(marks, lam, mu, eta) for marks in MARKS for lam, mu in RATES for eta in (None, 0.4)]


def _model(marks, lam, mu, eta=None, m=10, c=1.0):
    law = MARKS[marks] if isinstance(marks, str) else marks
    initial = DegenerateZero() if eta is None else Exponential(eta * c)
    return ProcessModel(lam * c, law, ObservationLaw(initial, Exponential(mu * c)), m)


def _args(tags, c=1.0):
    return TransformArgs(**{k: v * c if k in ("theta", "w", "x") else v for k, v in tags.items()})


def _agree(got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * np.abs(want)), float(np.max(np.abs(got - want) / np.abs(want)))


def _same(got, want, c, tol):
    """Bit for bit at a power of two, else within ``tol`` relative."""
    if c in POWERS_OF_TWO:
        assert np.array_equal(got, want), c
    else:
        _agree(got, want, tol)


@pytest.mark.parametrize("marks, lam, mu, eta", CASES)
class TestTimeUnit:
    def test_window_transforms_scale_by_the_unit(self, marks, lam, mu, eta):
        base = _model(marks, lam, mu, eta)
        for tags in TAGS:
            want = [f(base, _args(tags)) for f in (fluctuation.g1_star, fluctuation.g2_star, fluctuation.g_star)]
            want.append(sum(fluctuation._g_parts(base, _args(tags))))
            for c in UNITS:
                scaled = _model(marks, lam, mu, eta, c=c)
                got = [f(scaled, _args(tags, c)) for f in (fluctuation.g1_star, fluctuation.g2_star, fluctuation.g_star)]
                got.append(sum(fluctuation._g_parts(scaled, _args(tags, c))))
                _same(np.array(got) * c, want, c, 1e-14)

    def test_crossing_time_lsts_keep_their_values(self, marks, lam, mu, eta):
        base = _model(marks, lam, mu, eta)
        thetas = np.array([0.05, 0.3, 2.0])
        want = [fluctuation.lst_tau_pre(base, thetas), fluctuation.lst_tau_cross(base, thetas)]
        for c in UNITS:
            scaled = _model(marks, lam, mu, eta, c=c)
            got = [fluctuation.lst_tau_pre(scaled, thetas * c), fluctuation.lst_tau_cross(scaled, thetas * c)]
            if c in POWERS_OF_TWO:
                assert np.array_equal(got, want), c
            else:
                # an LST is formed as 1 - theta G, so a small one keeps only that subtraction's
                # absolute rounding (2e-16 at theta = 2), not its relative accuracy
                assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.abs(want) + 1e-15), c

    def test_time_domain_laws_keep_their_values(self, marks, lam, mu, eta):
        base = _model(marks, lam, mu, eta)
        want_pre, want_cross = timedomain.survival_pre(base, TIMES), timedomain.survival_cross(base, TIMES)
        want_law, want_over = timedomain.crossing_level_law(base, 40)
        for c in UNITS:
            scaled = _model(marks, lam, mu, eta, c=c)
            _same(timedomain.survival_pre(scaled, TIMES / c), want_pre, c, 1e-13)
            _same(timedomain.survival_cross(scaled, TIMES / c), want_cross, c, 1e-13)
            law, over = timedomain.crossing_level_law(scaled, 40)
            _same(law, want_law, c, 1e-13)
            _same(over, want_over, c, 1e-13)

    def test_laws_at_a_large_threshold_keep_their_values(self, marks, lam, mu, eta):
        # at M = 300 the fixed TIMES see both laws near 1, so the times are in the model's unit
        base = _model(marks, lam, mu, eta, m=300)
        times = timedomain._mean_cross_time(base) * np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        want_g = [fluctuation._g_parts(base, _args(tags)) for tags in TAGS]
        want_laws = timedomain._survival_laws(base, times)
        want_law, want_over = timedomain.crossing_level_law(base, 340)
        for c in UNITS:
            scaled = _model(marks, lam, mu, eta, m=300, c=c)
            _same(np.array([fluctuation._g_parts(scaled, _args(tags, c)) for tags in TAGS]) * c, want_g, c, 1e-13)
            _same(timedomain._survival_laws(scaled, times / c), want_laws, c, 1e-13)
            law, over = timedomain.crossing_level_law(scaled, 340)
            _same(law, want_law, c, 1e-13)
            _same(over, want_over, c, 1e-13)

    def test_survival_curve_reads_the_atom_at_zero_in_any_unit(self, marks, lam, mu, eta):
        # the atom is lst's limit at infinite theta; a fixed abscissa would be a time unit
        def at_zero(model):
            return [laplace.survival_curve(lambda q: f(model, q), [0.0])[0]
                    for f in (fluctuation.lst_tau_pre, fluctuation.lst_tau_cross)]

        base = _model(marks, lam, mu, eta)
        want = at_zero(base)
        exact = [law[0] for law in timedomain._survival_laws(base, [0.0])]
        assert np.all(np.abs(np.subtract(want, exact)) <= 1e-14)
        for c in UNITS:
            got = at_zero(_model(marks, lam, mu, eta, c=c))
            if c in POWERS_OF_TWO:
                assert got == want, c
            else:
                assert np.all(np.abs(np.subtract(got, want)) <= 2e-15), c

    def test_closed_form_window_transform_scales_by_the_unit(self, marks, lam, mu, eta):
        if marks != "geometric" or eta is not None:
            pytest.skip("the closed forms need geometric marks and a first look at 0")
        base = _model(marks, lam, mu, eta)
        # both sides of the small-theta floor, in the unit of the fastest rate
        thetas = np.array([0.3, 0.05, 2e-7, 5e-8, 1e-8]) * max(lam, mu)
        want = closedform.g1_star_special(base, thetas, 0.6)
        for c in UNITS:
            scaled = _model(marks, lam, mu, eta, c=c)
            got = closedform.g1_star_special(scaled, thetas * c, 0.6) * c
            if c in POWERS_OF_TWO:
                assert np.array_equal(got, want), c
            # the closed form cancels terms of order one near theta = 0, so it holds the
            # engine's value only to its cancellation floor (an absolute floor was 93% off)
            engine = np.array([fluctuation.g1_star(scaled, _args({"theta": q, "v": 0.6})) for q in thetas * c]) * c
            _agree(got, engine, 1e-4)


@pytest.mark.parametrize("marks", MARKS)
@pytest.mark.parametrize("eta", [None, 0.4])
@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
class TestTimeUnitSimulator:
    """The simulator draws the same paths in any unit: at c = 2^+-40 the counts are bit-identical and
    every time and window integral is the base value over c, exactly."""

    def test_crossing_sample(self, marks, eta, tagged):
        def sample(c):
            windows = (0.3 * c, 0.8) if tagged else ()  # theta scales with the rates; y = 0.8 tags the level
            return montecarlo._crossing_sample(_model(marks, 0.7, 1.3, eta, c=c), 2_000, 5, *windows)

        want = sample(1.0)
        for c in POWERS_OF_TWO:
            got = sample(c)
            assert got.keys() == want.keys()
            for key, column in got.items():
                scale = 1.0 if key in ("a_pre", "a_cross", "nu") else c
                assert np.array_equal(column * scale, want[key]), (key, c)


def _run(tmp_path, capsys, command, model, **keys):
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps({"schema_version": 1, "model": model, **keys}))
    assert cli.main([command, "--config", str(config)]) == 0
    return capsys.readouterr().out


def _config(marks, lam, mu, initial, m, c=1.0):
    law = {"geometric": {"a": 0.5}} if marks == "geometric" else {"pmf": [0.1, 0.5, 0.3, 0.1]}
    return {"schema_version": 1, "lambda": lam * c, "marks": law, "obs": {"mu": mu * c, "initial": initial},
            "threshold": m}


def _rows(text):
    return [line.split(",") for line in text.splitlines()[1:]]


class TestTimeUnitCommands:
    """Each command prints, in the scaled unit, the base run's numbers: times over c, transforms over c."""

    @staticmethod
    def _compare_csv(got, want, c, time_column):
        got, want = _rows(got), _rows(want)
        assert len(got) == len(want)
        for row, base in zip(got, want):
            for k, (a, b) in enumerate(zip(row, base)):
                if k == time_column(base):
                    _agree(float(a) * c, float(b), 1e-11)  # both are rounded to 12 digits
                elif a != b:
                    assert c not in POWERS_OF_TWO, (row, base)
                    _agree(float(a), float(b), 1e-11)

    @pytest.mark.parametrize("command, marks, initial", [
        ("survival", "geometric", "zero"), ("survival", "pmf", "exp"), ("predict", "geometric", "zero"),
        ("predict", "pmf", "exp"), ("dist", "geometric", "zero"),
        ("dist", "geometric", "exp"),  # the table needs geometric marks
    ])
    def test_curves_and_tables(self, command, marks, initial, tmp_path, capsys):
        keys = {"survival": lambda c: {"t_grid": (TIMES / c).tolist()},
                "predict": lambda c: {"horizon": 20.0 / c, "t_steps": 5},
                "dist": lambda c: {"t_grid": (TIMES / c).tolist(), "r_max": 20}}[command]
        time_column = {"survival": lambda row: 0, "dist": lambda row: 0,
                       "predict": lambda row: 1 if row[0] in ("crash_prob", "precrash_survival") else None}[command]
        want = _run(tmp_path, capsys, command, _config(marks, 0.7, 1.3, initial, 10), **keys(1.0))
        for c in UNITS:
            got = _run(tmp_path, capsys, command, _config(marks, 0.7, 1.3, initial, 10, c), **keys(c))
            self._compare_csv(got, want, c, time_column)

    @pytest.mark.parametrize("marks, initial", [("geometric", "zero"), ("pmf", "exp")])
    def test_functional(self, marks, initial, tmp_path, capsys):
        def values(c):
            args = {k: v * c if k in ("theta", "w", "x") else v for k, v in TAGS[0].items()}
            out = _run(tmp_path, capsys, "functional", _config(marks, 0.7, 1.3, initial, 10, c), args=args)
            return [complex(z["re"], z["im"]) * c for z in json.loads(out)["values"].values()]

        want = values(1.0)
        for c in UNITS:
            _same(values(c), want, c, 1e-14)

    @pytest.mark.parametrize("tags", [{"theta": 0.3}, TAGS[0]], ids=["untagged", "tagged"])
    def test_simulate(self, tags, tmp_path, capsys):
        def rows(c):
            args = {k: v * c if k in ("theta", "w", "x") else v for k, v in tags.items()}
            return _rows(_run(tmp_path, capsys, "simulate", _config("pmf", 0.7, 1.3, "exp", 10, c), args=args,
                              n_paths=3_000))

        want = rows(1.0)
        for c in POWERS_OF_TWO:
            got = rows(c)
            assert [row[::3] for row in got] == [row[::3] for row in want]  # the quantities and the counts
            for row, base in zip(got, want):
                scale = c if row[0] in ("tau_pre", "tau_cross", "G1", "G2", "G") else 1.0
                # both are rounded to 12 digits
                _agree([float(row[1]) * scale, float(row[2]) * scale], [float(base[1]), float(base[2])], 1e-11)

    def test_slow_models_are_not_refused(self, tmp_path, capsys):
        # rates of 1e-11 and 1e-13 are a change of unit, not a pole of the transforms or of the gap LST
        model = _config("geometric", 1.0, 1.0, "zero", 5)
        base = json.loads(_run(tmp_path, capsys, "functional", model, args={"theta": 0.3}))["values"]
        slow = _config("geometric", 1.0, 1.0, "zero", 5, 1e-11)
        got = json.loads(_run(tmp_path, capsys, "functional", slow, args={"theta": 0.3e-11}))["values"]
        for key, z in got.items():
            _agree(complex(z["re"], z["im"]) * 1e-11, complex(base[key]["re"], base[key]["im"]), 1e-14)
        config = tmp_path / "validate.json"
        config.write_text(json.dumps({"schema_version": 1, "model": _config("geometric", 1.0, 1.0, "zero", 3, 1e-13),
                                      "n_paths": 20_000}))
        assert cli.main(["validate", "--config", str(config), "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["all_passed"]

    @pytest.mark.parametrize("m", [10, 300])
    def test_a_rate_argument_in_the_slack_below_zero_counts_as_zero(self, m, tmp_path, capsys):
        # TransformArgs lets Re theta, w and x reach -1e-12; at rates of 1e-12 that is not rounding
        # but a point past the pole of R, so the value must be the one at 0
        model = _config("geometric", 1e-12, 1e-12, "zero", m)
        tags = {"theta": 0.0, "u": 0.9, "v": 0.95, "w": 0.0, "x": 0.0}
        want = json.loads(_run(tmp_path, capsys, "functional", model, args=tags))["values"]
        for key, value in (("theta", -1e-12), ("w", -0.9e-12), ("w", -1e-12), ("x", -1e-12)):
            got = json.loads(_run(tmp_path, capsys, "functional", model, args={**tags, key: value}))["values"]
            assert got == want, (key, value)


def _times_of(model):
    """TIMES and 0.5, 1 and 2 x E[tau_cross]: at M = 300 the fixed TIMES see both laws near 1."""
    return np.concatenate([TIMES, timedomain._mean_cross_time(model) * np.array([0.5, 1.0, 2.0])])


@pytest.mark.parametrize("m", [3, 10, 60, 300])
@pytest.mark.parametrize("eta", [None, 0.4])
class TestExactRelations:
    def test_zero_marks_thin_the_arrivals(self, m, eta):
        with_zeros = _model(GeneralDiscrete([0.1, 0.5, 0.3, 0.1]), 1.0, 1.3, eta, m)
        thinned = _model(GeneralDiscrete([0.0, 5 / 9, 3 / 9, 1 / 9]), 0.9, 1.3, eta, m)
        times = _times_of(with_zeros)
        for f in (timedomain.survival_pre, timedomain.survival_cross):
            _agree(f(with_zeros, times), f(thinned, times), 1e-13)
        (law, over), (want_law, want_over) = (timedomain.crossing_level_law(x, m + 30) for x in (with_zeros, thinned))
        _agree(law, want_law, 1e-13)
        # the mean overshoot is E[A_nu] - M, so it keeps E[A_nu]'s absolute error, not its relative one
        _agree(over + m, want_over + m, 1e-13)
        for tags in TAGS:
            for f in (fluctuation.g1_star, fluctuation.g2_star, fluctuation.g_star):
                _agree(f(with_zeros, _args(tags)), f(thinned, _args(tags)), 1e-13)

    @pytest.mark.parametrize("a", [0.5, 0.2])
    def test_marks_past_the_threshold_lump_into_one(self, m, eta, a):
        geometric = _model(Geometric(a), 0.7, 1.3, eta, m)
        pmf = np.zeros(m + 2)
        pmf[1 : m + 1] = a * (1.0 - a) ** np.arange(m)
        pmf[m + 1] = (1.0 - a) ** m
        lumped = _model(GeneralDiscrete(pmf), 0.7, 1.3, eta, m)
        times = _times_of(geometric)
        for f in (timedomain.survival_pre, timedomain.survival_cross):
            _agree(f(geometric, times), f(lumped, times), 1e-13)
        _agree(timedomain._mean_cross_time(geometric), timedomain._mean_cross_time(lumped), 1e-13)
        # v = 1: the crossing level itself is what lumping changes
        args = _args({**TAGS[0], "v": 1.0})
        _agree(fluctuation.g1_star(geometric, args), fluctuation.g1_star(lumped, args), 1e-13)
