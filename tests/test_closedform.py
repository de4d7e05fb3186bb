"""Explicit formulas for geometric marks with exponential inspections:
the private pole factor and gamma-tail coefficients, the pre-crossing
window transform and its exact time-domain inverse, and the tabulated
joint law.

The time-domain results are cross-checked four independent ways: hand
renewal values, quadrature/inversion round trips, path simulation, and
high-precision (mpmath) or scipy evaluations of the same laws.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc
from scipy.stats import binom
from conftest import geometric_model

from crosswatch import cli, closedform
from crosswatch.closedform import (
    _ev_v_anu_before,
    _family,
    _gh_arrays,
    _pole,
    dist_table,
    ev_v_anu_before,
    g1_star_special,
)
from crosswatch.errors import DivergenceError, DomainError, TableInvariantError
from crosswatch.fluctuation import g_star, lst_tau_pre
from crosswatch.laplace import invert
from crosswatch.model import (
    MAX_THRESHOLD,
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
)
from crosswatch.montecarlo import _crossing_sample, estimate_joint
from crosswatch.series import d_inverse_double_geometric
from crosswatch.timedomain import _poisson_tails, crossing_level_law
from crosswatch.validation import _check_pgf_extraction, _Context, run_battery


def _mean_crossing_time(model: ProcessModel) -> float:
    return g_star(model, TransformArgs(theta=0.0)).real


def _mp_survival(model: ProcessModel, t: float):
    """P{tau_pre > t} in 50-digit arithmetic, by the first-order filter form.

    sum_{n<=M} P{Bin(M, a) >= n} y_n, where y_n = P{N(t + E) = n} obeys
    y_n = (1 - q) P{N(t) = n} + q y_{n-1} with q = lam / (lam + mu).
    """
    m, lam, mu = model.threshold, mpmath.mpf(model.rate), mpmath.mpf(model.observation.recurring.rate)
    with mpmath.workdps(50):
        a, x = mpmath.mpf(model.marks.a), lam * mpmath.mpf(t)
        q = lam / (lam + mu)
        pmf = [mpmath.binomial(m, k) * a**k * (1 - a) ** (m - k) for k in range(m + 1)]
        total, y, pois = mpmath.mpf(0), mpmath.mpf(0), mpmath.exp(-x)
        for n in range(m + 1):
            y = (1 - q) * pois + q * y
            total += mpmath.fsum(pmf[n:]) * y
            pois *= x / (n + 1)
        return total


class TestSpecialModel:
    """The closed-form family: geometric marks, Exp gaps, a first look at 0, M >= 1."""

    def test_composite_ratio(self, std_model):
        assert std_model.marks.b == 0.5
        assert _family(std_model) == 0.75

    def test_ratio_strictly_between_b_and_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam, a, mu = rng.uniform(0.1, 5.0), rng.uniform(0.05, 0.95), rng.uniform(0.1, 5.0)
            model = geometric_model(int(rng.integers(1, 10)), lam, a, mu)
            c = _family(model)
            assert 1.0 - a < c < 1.0
            assert abs((c - (1.0 - a)) - a * lam / (mu + lam)) < 1e-15

    def test_override_replaces_ratio(self, std_model):
        # the G_j/H_j formula reads c as given; the public function gives it the derived c
        for v, t in ((0.6, 0.5), (0.9, 2.0)):
            assert _ev_v_anu_before(std_model, v, t, 0.75) == ev_v_anu_before(std_model, v, t)
            assert abs(_ev_v_anu_before(std_model, v, t, 0.6) - ev_v_anu_before(std_model, v, t)) > 1e-3

    def test_override_must_stay_in_range(self, std_model):
        # the battery's shifted c must stay in (b, 1) = (0.5, 1)
        for shift in (-0.25, 0.25, -0.5):
            with pytest.raises(DomainError, match="c_shift"):
                run_battery(std_model, seed=0, c_shift=shift, n_paths=1_000)

    def test_field_validation(self):
        # the model's own fields are checked where it is built, the threshold by the closed forms
        for build in (lambda: geometric_model(lam=0.0), lambda: geometric_model(a=0.0),
                      lambda: geometric_model(a=1.5), lambda: geometric_model(mu=-1.0),
                      lambda: geometric_model(mu=math.inf), lambda: geometric_model(m=2.5)):
            with pytest.raises(DomainError):
                build()
        with pytest.raises(DomainError, match="threshold"):
            _family(geometric_model(m=0))

    def test_closed_forms_refuse_models_outside_the_family(self, std_model, exp_initial_model):
        pmf_marks = ProcessModel(rate=1.0, marks=GeneralDiscrete([0.0, 0.5, 0.5]),
                                 observation=std_model.observation, threshold=3)
        transforms = (
            lambda m: g1_star_special(m, 1.0, 0.5),
            lambda m: ev_v_anu_before(m, 0.5, 1.0),
        )
        table = lambda m: dist_table(m, [0.0, 1.0], 6)
        # the table needs no threshold of 1 (see TestJointDist), and an Exp(2) first gap is not an Exp(mu) one
        for model, reason, calls in ((pmf_marks, "geometric marks", (*transforms, table)),
                                     (exp_initial_model, "time zero", (*transforms, table)),
                                     (geometric_model(m=0), "threshold", transforms)):
            for call in calls:
                with pytest.raises(DomainError, match=reason) as exc:
                    call(model)
                assert "functional" in str(exc.value)


class TestPoleFactor:
    def test_at_observation_rate_gives_c(self, std_model):
        assert abs(_pole(1.0, 1.0, std_model) - _family(std_model)) < 1e-15

    def test_at_zero_is_identity(self, std_model):
        for v in (0.3, 0.9, 0.4 + 0.2j):
            assert abs(_pole(0.0, v, std_model) - v) < 1e-15

    def test_degenerate_marks_limit(self):
        # a -> 0 makes the factor v for every x
        m = geometric_model(a=1e-12)
        for x in (0.0, 0.7, 3.0):
            assert abs(_pole(x, 0.6, m) - 0.6) < 1e-11


class TestRegGamma:
    """The Erlang-k CDF P(k, x) = P{Poisson(x) >= k}, as the tails the G_j/H_j coefficients read."""

    def test_erlang_one(self):
        assert abs(_poisson_tails(1.0, 1)[1] - (1.0 - math.exp(-1.0))) < 1e-15

    def test_no_mass_at_origin(self):
        assert _poisson_tails(0.0, 3)[3] == 0.0

    def test_large_order_vanishes(self):
        assert _poisson_tails(1.0, 200)[200] < 1e-100

    def test_against_closed_form_sum(self):
        for x in (0.1, 0.5, 1.0, 2.5, 7.0):
            tails = _poisson_tails(x, 10)
            for k in range(1, 11):
                hand = 1.0 - math.exp(-x) * sum(x**m / math.factorial(m) for m in range(k))
                assert abs(tails[k] - hand) < 1e-12

    def test_matches_scipy_and_high_precision(self):
        # absolute agreement with scipy everywhere; relative agreement is
        # checked against 40-digit mpmath, because scipy's own gammainc is
        # 1.5e-12 off in relative terms at k = 851, x = 500
        ks = np.arange(1, 1001)
        for x in (0.0, 1e-3, 0.5, 5.0, 50.0, 500.0, 2000.0):
            got = _poisson_tails(x, ks[-1])[1:]
            assert np.max(np.abs(got - gammainc(ks, x))) <= 1e-15, x
            with mpmath.workdps(40):
                for k in ks[::7]:
                    exact = mpmath.gammainc(int(k), 0, x, regularized=True)
                    if exact >= 1e-290:
                        assert abs(got[k - 1] - exact) <= 1e-12 * exact, (k, x)


class TestDampingCoeffs:
    def test_origin_values(self, std_model):
        # right-continuous time law: the order-0 gamma term is 1 at t=0
        g, h = _gh_arrays(std_model, 0.0, 4)
        for j in range(5):
            assert abs(g[j] - std_model.marks.b**j) < 1e-14
            assert abs(h[j] - std_model.marks.b ** (j + 1)) < 1e-14

    def test_long_time_limits(self, std_model):
        m = std_model
        lam, mu, b = m.rate, m.observation.recurring.rate, m.marks.b
        g, h = _gh_arrays(m, 1e4, 5)
        for j in (0, 2, 5):
            assert abs(g[j] - (1.0 + mu / lam)) < 1e-10
            assert abs(h[j] - (lam + b * mu) / lam) < 1e-10

    def test_nondecreasing_in_time(self, std_model):
        ts = np.linspace(0.0, 8.0, 40)
        g, h = np.array([_gh_arrays(std_model, float(t), 3) for t in ts]).transpose(1, 0, 2)
        for j in (0, 1, 3):
            assert np.all(np.diff(g[:, j]) >= -1e-12)
            assert np.all(np.diff(h[:, j]) >= -1e-12)

    def test_inversion_round_trip(self, std_model):
        # term-by-term transform of the gamma-tail mixture, inverted back
        m = std_model
        lam, mu, a, b = m.rate, m.observation.recurring.rate, m.marks.a, m.marks.b

        def h_transform(theta, j=2):
            total = 0.0j
            for k in range(j + 1):
                w = math.comb(j, k) * a**k * b ** (j - k)
                pk = lam**k / (theta * (theta + lam) ** k)
                pk1 = lam ** (k + 1) / (theta * (theta + lam) ** (k + 1))
                total += w * (b * pk + (b * mu / lam + a) * pk1)
            return total

        got = _gh_arrays(m, 1.0, 2)[1][2]
        inv = invert(h_transform, 1.0)
        assert abs(got - inv) / abs(got) < 1e-8

    def test_arrays_match_scipy_binomial_mixtures(self):
        for m in (3, 50, 300):
            sp = geometric_model(m)
            for t in np.linspace(0.0, 3.0 * _mean_crossing_time(sp), 9):
                p = np.concatenate([[1.0], gammainc(np.arange(1, m + 2), sp.rate * t)])
                base = p[:-1] + (sp.observation.recurring.rate / sp.rate) * p[1:]
                other = sp.marks.b * base + sp.marks.a * p[1:]
                weights = [binom.pmf(np.arange(j + 1), j, sp.marks.a) for j in range(m + 1)]
                g, h = _gh_arrays(sp, float(t), m)
                assert np.max(np.abs(g - [w @ base[: w.size] for w in weights])) <= 1e-14
                assert np.max(np.abs(h - [w @ other[: w.size] for w in weights])) <= 1e-14

    def test_time_validation(self, std_model):
        with pytest.raises(DomainError):
            _gh_arrays(std_model, -1.0, 2)


class TestWindowTransform:
    def test_marginal_lst_specialization(self, std_model):
        # theta * value at v=1 is the complement of the pre-crossing LST
        for theta in (0.5, 2.0):
            lhs = theta * g1_star_special(std_model, theta, 1.0)
            rhs = 1.0 - lst_tau_pre(std_model, theta)
            assert abs(lhs - rhs) < 1e-10

    def test_small_threshold_empty_sums(self):
        for m_val in (1, 2):
            m = geometric_model(m_val)
            value = g1_star_special(m, 0.8, 0.6)
            assert np.isfinite(value.real) and abs(value.imag) < 1e-12

    def test_zero_frequency_limit_is_time_integral(self, std_model):
        v = 0.5
        quad, _ = integrate.quad(
            lambda t: ev_v_anu_before(std_model, v, t).real, 0.0, 200.0, limit=400
        )
        small = g1_star_special(std_model, 1e-8, v)
        assert abs(small - quad) / abs(quad) < 1e-6

    def test_continuous_across_extrapolation_floor(self, std_model):
        below = g1_star_special(std_model, 5e-8, 0.6)
        above = g1_star_special(std_model, 2e-7, 0.6)
        assert abs(below - above) / abs(above) < 1e-5

    def test_left_half_plane_allowed_inside_disk(self, std_model):
        # rational in theta; contour points left of the axis are valid
        value = g1_star_special(std_model, -0.3 + 2.0j, 0.5)
        assert np.isfinite(value.real) and np.isfinite(value.imag)

    def test_array_theta_matches_scalar_calls_across_the_floor(self, std_model):
        theta = np.array([1e-9, 5e-8, 2e-7, 0.5, 2.0 + 3.0j])
        batch = g1_star_special(std_model, theta, 0.6)
        assert np.array_equal(batch, [g1_star_special(std_model, q, 0.6) for q in theta])

    def test_divergent_region_rejected(self, std_model):
        with pytest.raises(DivergenceError):
            g1_star_special(std_model, -0.5, 1.0)
        with pytest.raises(DivergenceError):
            g1_star_special(std_model, 0.0, 1.0)


class TestTimeDomainExpectation:
    def test_initial_value_is_second_look_probability(self, std_model):
        # tau_pre > 0 iff the crossing needs at least two inspections;
        # P = 1/2 + (1/8)(1 + 3/4 + 9/16) = 101/128 at the standard model
        got = ev_v_anu_before(std_model, 1.0, 0.0)
        assert abs(got - 0.7890625) < 1e-12

    def test_decays_to_zero(self, std_model):
        assert abs(ev_v_anu_before(std_model, 0.8, 1000.0)) < 1e-12

    def test_transform_round_trip(self, std_model):
        for v in (0.3, 0.9):
            for t in (0.5, 2.0):
                direct = ev_v_anu_before(std_model, v, t).real
                inverted = invert(lambda s, v=v: g1_star_special(std_model, s, v), t)
                assert abs(inverted - direct) / max(abs(direct), 1e-12) < 1e-6

    def test_matches_level_sum(self, std_model):
        # PGF must equal the r-sum of the tabulated joint law
        for v in (0.3, 0.6, 0.9):
            for t in (0.0, 1.0):
                row = dist_table(std_model, [t], 79)[0]
                total = sum(v**r * row[r] for r in range(80))
                pgf = ev_v_anu_before(std_model, v, t).real
                assert abs(total - pgf) < 1e-8

    def test_rejects_pgf_argument_outside_disk(self, std_model):
        with pytest.raises(DomainError):
            ev_v_anu_before(std_model, 1.2, 1.0)

    @staticmethod
    def _term_by_term(model, v, t):
        """The G_j/H_j formula with one Horner-evaluated geometric partial sum per term."""
        lam, mu, b, m = model.rate, model.observation.recurring.rate, model.marks.b, model.threshold
        c = _family(model)
        g, h = _gh_arrays(model, t, m)
        geo = lambda q, k: complex(np.polyval(np.ones(k + 1, dtype=complex), q)) if k >= 0 else 0j
        dd = d_inverse_double_geometric
        gv0 = (mu / (mu + lam)) * (1.0 - b * v) / (1.0 - c * v)
        cv = c * v
        t1 = gv0 * ((mu + lam) / lam) * (v**m + (1.0 - cv) * geo(v, m - 1))
        t2 = -gv0 * (v**m * g[m] + sum(v**j * g[j] - v ** (j + 1) * h[j] for j in range(m)))
        t3 = -(mu / lam) * (dd(v, cv, m) - (b + c) * v * dd(v, cv, m - 1) + b * c * v**2 * dd(v, cv, m - 2))
        sums = [geo(cv, k) for k in range(m + 1)]
        t4 = (mu / (mu + lam)) * (
            sum(v**j * g[j] * sums[m - j] for j in range(m + 1))
            - sum(v ** (j + 1) * (b * g[j] + h[j]) * sums[m - 1 - j] for j in range(m))
            + b * sum(v ** (j + 2) * h[j] * sums[m - 2 - j] for j in range(m - 1))
        )
        return t1 + t2 + t3 + t4

    @pytest.mark.parametrize("m", [1, 2, 3, 50, 300])
    def test_cumulative_sums_match_term_by_term_sums(self, m):
        model = geometric_model(m)
        mean = _mean_crossing_time(model)
        for v in (0.3, 0.9, 1.0, 0.5 + 0.5j):
            for t in (0.0, 1.0, 4.0, mean):
                got, want = ev_v_anu_before(model, v, t), self._term_by_term(model, v, t)
                assert abs(got - want) < 1e-12, (v, t)


class TestJointDist:
    def test_no_mass_at_or_below_threshold(self, std_model):
        table = dist_table(std_model, [0.0, 0.7, 3.0], std_model.threshold)
        assert np.all(np.abs(table) < 1e-9)

    def test_values_are_probabilities(self, std_model):
        table = dist_table(std_model, [0.0, 0.5, 1.0, 2.0, 10.0], 14)
        assert np.all((0.0 <= table[:, 4:]) & (table[:, 4:] <= 1.0))

    def test_nonincreasing_in_time(self, std_model):
        table = dist_table(std_model, np.linspace(0.0, 6.0, 25), 8)
        for r in (4, 5, 8):
            assert np.all(np.diff(table[:, r]) <= 1e-12)

    def test_against_path_simulation(self, std_model):
        rec = _crossing_sample(std_model, 200_000, 11)
        n = rec["a_cross"].size
        for r, t in ((4, 1.0), (5, 0.5), (6, 2.0)):
            hits = np.mean((rec["a_cross"] == r) & (rec["tau_pre"] > t))
            se = math.sqrt(max(hits * (1.0 - hits), 1e-12) / n)
            assert abs(dist_table(std_model, [t], r)[0, r] - hits) < 4 * se

    @pytest.mark.parametrize("m, initial", [(0, DegenerateZero()), (0, Exponential(1.3)), (3, Exponential(1.3))])
    def test_exp_mu_start_and_zero_threshold_against_simulation(self, m, initial):
        # the crossing gap is an Exp(mu) gap whatever came before, so the table still factorises
        model = ProcessModel(0.7, Geometric(0.5), ObservationLaw(initial, Exponential(1.3)), m)
        grid, r_max, n = [0.0, 0.5, 1.0, 2.0, 4.0], m + 8, 200_000
        freq, _ = estimate_joint(model, r_max, grid, n, seed=2)
        table = dist_table(model, grid, r_max)
        assert np.all(np.abs(freq - table) <= 5.0 * np.sqrt(table * (1.0 - table) / n) + 1.0 / n)

    def test_level_validation(self, std_model):
        with pytest.raises(DomainError):
            dist_table(std_model, [1.0], -1)
        with pytest.raises(DomainError):
            dist_table(std_model, [1.0], True)


class TestCrossingLevelPmf:
    """The crossing-level factor of the joint table, ``timedomain.crossing_level_law`` on the family."""

    def test_support_above_threshold(self, std_model):
        law, _ = crossing_level_law(std_model, 10)
        assert not np.any(law[: std_model.threshold + 1])
        assert np.all(law[std_model.threshold + 1 :] > 0.0)

    def test_geometric_overshoot(self, std_model):
        c = _family(std_model)
        law, mean = crossing_level_law(std_model, 400)
        assert abs(law.sum() - 1.0) < 1e-12
        mean_overshoot = float((np.arange(401) - std_model.threshold) @ law)
        assert abs(mean_overshoot - 1.0 / (1.0 - c)) < 1e-9
        assert abs(mean - 1.0 / (1.0 - c)) < 1e-12

    def test_against_path_simulation(self, std_model):
        rec = _crossing_sample(std_model, 200_000, 13)
        n = rec["a_cross"].size
        law, _ = crossing_level_law(std_model, 7)
        for r in (4, 5, 7):
            hits = np.mean(rec["a_cross"] == r)
            se = math.sqrt(hits * (1.0 - hits) / n)
            assert abs(law[r] - hits) < 4 * se


class TestDistTable:
    def test_shape_and_invariants(self, std_model):
        table = dist_table(std_model, [0.0, 0.5, 1.0, 2.0], 12)
        assert table.shape == (4, 13)
        assert np.all(np.abs(table[:, : std_model.threshold + 1]) < 1e-9)
        assert np.all(np.diff(table, axis=0) <= 1e-9)
        assert np.all(table.sum(axis=1) <= 1.0 + 1e-9)

    def test_csv_format(self, tmp_path, capsys):
        # `dist` prints the table row at a time; one format call per cell is the reference
        config = tmp_path / "dist.json"
        model = {"lambda": 1.0, "marks": {"geometric": {"a": 0.5}},
                 "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 3}
        config.write_text(json.dumps({"schema_version": 1, "model": model, "t_grid": [0.0, 0.7, 3.5], "r_max": 100}))
        assert cli.main(["dist", "--config", str(config)]) == 0
        text = capsys.readouterr().out
        lines = text.strip().split("\n")
        assert lines[0] == "t,r,probability"
        assert len(lines) == 1 + 3 * 101
        t, r, p = lines[1].split(",")
        assert float(t) == 0.0 and int(r) == 0 and float(p) == 0.0
        grid = [0.0, 0.7, 3.5]
        wide = dist_table(geometric_model(), grid, 100)
        reference = ["t,r,probability"] + [
            f"{t:.11e},{r},{p:.11e}" for i, t in enumerate(grid) for r in range(101) for p in [wide[i, r]]
        ]
        assert text == "\n".join(reference) + "\n"
        path = tmp_path / "table.csv"
        assert cli.main(["dist", "--config", str(config), "--out", str(path)]) == 0
        assert path.read_text() == text

    def test_grid_validation(self, std_model):
        with pytest.raises(DomainError):
            dist_table(std_model, [], 5)
        with pytest.raises(DomainError):
            dist_table(std_model, [1.0, 0.5], 5)
        with pytest.raises(DomainError):
            dist_table(std_model, [-1.0, 0.5], 5)
        with pytest.raises(DomainError):
            dist_table(std_model, [0.0, 1.0], -1)

    def test_inconsistent_ratio_is_caught(self):
        # the factorised table is a valid law for any ratio c, so a strongly
        # perturbed c is caught by comparing it with the independent G_j/H_j
        # route of ev_v_anu_before, as the battery does
        result = _check_pgf_extraction(_Context(model=geometric_model(), c=0.95, seed=0, n_paths=1000))
        assert not result.passed and result.observed > 1e3 * result.tolerance

    def test_invariant_scan_names_offending_cells(self, std_model, monkeypatch):
        # a survival row that rises in time must be refused cell by cell
        monkeypatch.setattr(closedform, "survival_pre", lambda model, grid: np.array([0.5, 0.7, 0.2]))
        with pytest.raises(TableInvariantError) as exc:
            dist_table(std_model, [0.0, 1.0, 2.0], 6)
        assert [cell[:2] for cell in exc.value.cells] == [(1.0, r) for r in range(4, 7)]

    def test_matches_high_precision_product_law(self):
        # every nonzero cell against 50-digit pmf * S(t), out to 3x the mean
        # crossing time; the M = 50, t = 136 cell (S near 1.2e-26) is off by
        # a factor of about 5e10 in the four-term coefficient formula
        for m, extra in ((50, [136.0]), (300, [])):
            sp = geometric_model(m)
            grid = sorted(list(np.linspace(0.0, 3.0 * _mean_crossing_time(sp), 8)) + extra)
            table = dist_table(sp, grid, m + 100)
            with mpmath.workdps(50):
                c = mpmath.mpf(3) / 4  # (b mu + lam) / (mu + lam) at b = 1/2, lam = mu = 1
                for i, t in enumerate(grid):
                    surv = _mp_survival(sp, t)
                    for r in range(m + 1, m + 101):
                        exact = (1 - c) * c ** (r - m - 1) * surv
                        got = table[i, r]
                        assert got > 0.0 and abs(got - exact) <= 1e-12 * exact, (m, t, r)
            assert not np.any(table[:, : m + 1])

    def test_rows_match_the_gamma_tail_route(self):
        # cross-derivation: pmf(r) * P{tau_pre > t}, with P{tau_pre > t} from the
        # paper's G_j/H_j formula (ev_v_anu_before at v = 1)
        for m in (50, 300):
            sp = geometric_model(m)
            grid = np.linspace(0.0, 3.0 * _mean_crossing_time(sp), 12)
            table = dist_table(sp, grid, m + 60)
            c = _family(sp)
            pmf = np.array([(1.0 - c) * c ** (r - m - 1) if r > m else 0.0 for r in range(m + 61)])
            for i, t in enumerate(grid):
                surv = ev_v_anu_before(sp, 1.0, float(t)).real
                if surv >= 1e-3:
                    assert np.max(np.abs(table[i] - pmf * surv)) <= 1e-12, (m, t)

    def test_max_threshold_table(self):
        sp = geometric_model(MAX_THRESHOLD)
        grid = np.linspace(0.0, 3.0 * MAX_THRESHOLD * sp.marks.a / sp.rate, 20)
        table = dist_table(sp, grid, MAX_THRESHOLD + 200)
        assert table.shape == (20, MAX_THRESHOLD + 201)
        assert np.all(table.sum(axis=1) <= 1.0)
