"""Explicit formulas for geometric marks with exponential inspections:
pole factor, gamma-tail coefficients, the pre-crossing window transform
and its exact time-domain inverse, and the tabulated joint law.

The time-domain results are cross-checked four independent ways: hand
renewal values, quadrature/inversion round trips, path simulation, and
high-precision (mpmath) or scipy evaluations of the same laws.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc
from scipy.stats import binom

from crosswatch import closedform
from crosswatch.closedform import (
    JointDistTable,
    SpecialModel,
    _gh_arrays,
    coeff_g,
    coeff_h,
    crossing_level_pmf,
    dist_table,
    ev_v_anu_before,
    f_of,
    g1_star_special,
    joint_dist,
    reg_gamma_p,
)
from crosswatch.errors import DivergenceError, DomainError, TableInvariantError
from crosswatch.fluctuation import g_star, lst_tau_pre
from crosswatch.laplace import invert
from crosswatch.model import (
    MAX_THRESHOLD,
    GeneralDiscrete,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
)
from crosswatch.montecarlo import _crossing_sample
from crosswatch.validation import _check_pgf_extraction, _Context


def _mean_crossing_time(model: SpecialModel) -> float:
    return g_star(model.to_process_model(), TransformArgs(theta=0.0)).real


def _mp_survival(model: SpecialModel, t: float):
    """P{tau_pre > t} in 50-digit arithmetic, by the first-order filter form.

    sum_{n<=M} P{Bin(M, a) >= n} y_n, where y_n = P{N(t + E) = n} obeys
    y_n = (1 - q) P{N(t) = n} + q y_{n-1} with q = lam / (lam + mu).
    """
    with mpmath.workdps(50):
        a, x = mpmath.mpf(model.a), mpmath.mpf(model.lam) * mpmath.mpf(t)
        q = mpmath.mpf(model.lam) / (mpmath.mpf(model.lam) + mpmath.mpf(model.mu))
        pmf = [mpmath.binomial(model.m, k) * a**k * (1 - a) ** (model.m - k) for k in range(model.m + 1)]
        total, y, pois = mpmath.mpf(0), mpmath.mpf(0), mpmath.exp(-x)
        for n in range(model.m + 1):
            y = (1 - q) * pois + q * y
            total += mpmath.fsum(pmf[n:]) * y
            pois *= x / (n + 1)
        return total


class TestSpecialModel:
    def test_composite_ratio(self, std_special):
        assert std_special.b == 0.5
        assert std_special.c == 0.75

    def test_ratio_strictly_between_b_and_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = SpecialModel(
                lam=rng.uniform(0.1, 5.0),
                a=rng.uniform(0.05, 0.95),
                mu=rng.uniform(0.1, 5.0),
                m=int(rng.integers(1, 10)),
            )
            assert m.b < m.c < 1.0
            assert abs((m.c - m.b) - m.a * m.lam / (m.mu + m.lam)) < 1e-15

    def test_override_replaces_ratio(self):
        m = SpecialModel(1.0, 0.5, 1.0, 3, c_override=0.6)
        assert m.c == 0.6

    def test_override_must_stay_in_range(self):
        with pytest.raises(DomainError):
            SpecialModel(1.0, 0.5, 1.0, 3, c_override=0.5)
        with pytest.raises(DomainError):
            SpecialModel(1.0, 0.5, 1.0, 3, c_override=1.0)

    def test_field_validation(self):
        with pytest.raises(DomainError):
            SpecialModel(0.0, 0.5, 1.0, 3)
        with pytest.raises(DomainError):
            SpecialModel(1.0, 0.0, 1.0, 3)
        with pytest.raises(DomainError):
            SpecialModel(1.0, 1.5, 1.0, 3)
        with pytest.raises(DomainError):
            SpecialModel(1.0, 0.5, -1.0, 3)
        with pytest.raises(DomainError):
            SpecialModel(1.0, 0.5, 1.0, 0)
        with pytest.raises(DomainError):
            SpecialModel(1.0, 0.5, 1.0, 2.5)

    def test_process_model_round_trip(self, std_model, std_special):
        assert SpecialModel.from_process_model(std_model) == std_special
        back = std_special.to_process_model()
        assert SpecialModel.from_process_model(back) == std_special

    def test_from_process_model_rejects_other_laws(self, exp_initial_model):
        with pytest.raises(DomainError):
            SpecialModel.from_process_model(exp_initial_model)
        pmf_marks = ProcessModel(
            rate=1.0,
            marks=GeneralDiscrete([0.5, 0.5]),
            observation=exp_initial_model.observation,
            threshold=2,
        )
        with pytest.raises(DomainError):
            SpecialModel.from_process_model(pmf_marks)


class TestPoleFactor:
    def test_at_observation_rate_gives_c(self, std_special):
        assert abs(f_of(std_special.mu, 1.0, std_special) - std_special.c) < 1e-15

    def test_at_zero_is_identity(self, std_special):
        for v in (0.3, 0.9, 0.4 + 0.2j):
            assert abs(f_of(0.0, v, std_special) - v) < 1e-15

    def test_degenerate_marks_limit(self):
        # a -> 0 makes the factor v for every x
        m = SpecialModel(1.0, 1e-12, 1.0, 3)
        for x in (0.0, 0.7, 3.0):
            assert abs(f_of(x, 0.6, m) - 0.6) < 1e-11


class TestRegGamma:
    def test_erlang_one(self):
        assert abs(reg_gamma_p(1, 1.0) - (1.0 - math.exp(-1.0))) < 1e-15

    def test_no_mass_at_origin(self):
        assert reg_gamma_p(3, 0.0) == 0.0

    def test_step_at_order_zero(self):
        assert reg_gamma_p(0, 0.0) == 0.0
        assert reg_gamma_p(0, 1e-12) == 1.0

    def test_large_order_vanishes(self):
        assert reg_gamma_p(200, 1.0) < 1e-100

    def test_against_closed_form_sum(self):
        for k in range(1, 11):
            for x in (0.1, 0.5, 1.0, 2.5, 7.0):
                hand = 1.0 - math.exp(-x) * sum(x**m / math.factorial(m) for m in range(k))
                assert abs(reg_gamma_p(k, x) - hand) < 1e-12

    def test_matches_scipy_and_high_precision(self):
        # absolute agreement with scipy everywhere; relative agreement is
        # checked against 40-digit mpmath, because scipy's own gammainc is
        # 1.5e-12 off in relative terms at k = 851, x = 500
        ks = np.arange(1, 1001)
        for x in (0.0, 1e-3, 0.5, 5.0, 50.0, 500.0, 2000.0):
            got = np.array([reg_gamma_p(int(k), x) for k in ks])
            assert np.max(np.abs(got - gammainc(ks, x))) <= 1e-15, x
            with mpmath.workdps(40):
                for k in ks[::7]:
                    exact = mpmath.gammainc(int(k), 0, x, regularized=True)
                    if exact >= 1e-290:
                        assert abs(got[k - 1] - exact) <= 1e-12 * exact, (k, x)

    def test_validation(self):
        with pytest.raises(DomainError):
            reg_gamma_p(-1, 1.0)
        with pytest.raises(DomainError):
            reg_gamma_p(1.5, 1.0)
        with pytest.raises(DomainError):
            reg_gamma_p(2, -0.1)


class TestDampingCoeffs:
    def test_origin_values(self, std_special):
        # right-continuous time law: the order-0 gamma term is 1 at t=0
        for j in range(5):
            assert abs(coeff_g(j, 0.0, std_special) - std_special.b**j) < 1e-14
            assert abs(coeff_h(j, 0.0, std_special) - std_special.b ** (j + 1)) < 1e-14

    def test_long_time_limits(self, std_special):
        m = std_special
        for j in (0, 2, 5):
            assert abs(coeff_g(j, 1e4, m) - (1.0 + m.mu / m.lam)) < 1e-10
            assert abs(coeff_h(j, 1e4, m) - (m.lam + m.b * m.mu) / m.lam) < 1e-10

    def test_nondecreasing_in_time(self, std_special):
        ts = np.linspace(0.0, 8.0, 40)
        for j in (0, 1, 3):
            g = [coeff_g(j, t, std_special) for t in ts]
            h = [coeff_h(j, t, std_special) for t in ts]
            assert np.all(np.diff(g) >= -1e-12)
            assert np.all(np.diff(h) >= -1e-12)

    def test_inversion_round_trip(self, std_special):
        # term-by-term transform of the gamma-tail mixture, inverted back
        m = std_special
        lam, mu, a, b = m.lam, m.mu, m.a, m.b

        def h_transform(theta, j=2):
            total = 0.0j
            for k in range(j + 1):
                w = math.comb(j, k) * a**k * b ** (j - k)
                pk = lam**k / (theta * (theta + lam) ** k)
                pk1 = lam ** (k + 1) / (theta * (theta + lam) ** (k + 1))
                total += w * (b * pk + (b * mu / lam + a) * pk1)
            return total

        got = coeff_h(2, 1.0, m)
        inv = invert(h_transform, 1.0)
        assert abs(got - inv) / abs(got) < 1e-8

    def test_arrays_match_scipy_binomial_mixtures(self):
        for m in (3, 50, 300):
            sp = SpecialModel(1.0, 0.5, 1.0, m)
            for t in np.linspace(0.0, 3.0 * _mean_crossing_time(sp), 9):
                p = np.concatenate([[1.0], gammainc(np.arange(1, m + 2), sp.lam * t)])
                base = p[:-1] + (sp.mu / sp.lam) * p[1:]
                other = sp.b * base + sp.a * p[1:]
                weights = [binom.pmf(np.arange(j + 1), j, sp.a) for j in range(m + 1)]
                g, h = _gh_arrays(sp, float(t), m)
                assert np.max(np.abs(g - [w @ base[: w.size] for w in weights])) <= 1e-14
                assert np.max(np.abs(h - [w @ other[: w.size] for w in weights])) <= 1e-14

    def test_index_validation(self, std_special):
        with pytest.raises(DomainError):
            coeff_g(-1, 1.0, std_special)
        with pytest.raises(DomainError):
            coeff_h(2.5, 1.0, std_special)
        with pytest.raises(DomainError):
            coeff_g(2, -1.0, std_special)


class TestWindowTransform:
    def test_marginal_lst_specialization(self, std_model, std_special):
        # theta * value at v=1 is the complement of the pre-crossing LST
        for theta in (0.5, 2.0):
            lhs = theta * g1_star_special(std_special, theta, 1.0)
            rhs = 1.0 - lst_tau_pre(std_model, theta)
            assert abs(lhs - rhs) < 1e-10

    def test_small_threshold_empty_sums(self):
        for m_val in (1, 2):
            m = SpecialModel(1.0, 0.5, 1.0, m_val)
            value = g1_star_special(m, 0.8, 0.6)
            assert np.isfinite(value.real) and abs(value.imag) < 1e-12

    def test_zero_frequency_limit_is_time_integral(self, std_special):
        v = 0.5
        quad, _ = integrate.quad(
            lambda t: ev_v_anu_before(std_special, v, t).real, 0.0, 200.0, limit=400
        )
        small = g1_star_special(std_special, 1e-8, v)
        assert abs(small - quad) / abs(quad) < 1e-6

    def test_continuous_across_extrapolation_floor(self, std_special):
        below = g1_star_special(std_special, 5e-8, 0.6)
        above = g1_star_special(std_special, 2e-7, 0.6)
        assert abs(below - above) / abs(above) < 1e-5

    def test_left_half_plane_allowed_inside_disk(self, std_special):
        # rational in theta; contour points left of the axis are valid
        value = g1_star_special(std_special, -0.3 + 2.0j, 0.5)
        assert np.isfinite(value.real) and np.isfinite(value.imag)

    def test_divergent_region_rejected(self, std_special):
        with pytest.raises(DivergenceError):
            g1_star_special(std_special, -0.5, 1.0)
        with pytest.raises(DivergenceError):
            g1_star_special(std_special, 0.0, 1.0)


class TestTimeDomainExpectation:
    def test_initial_value_is_second_look_probability(self, std_special):
        # tau_pre > 0 iff the crossing needs at least two inspections;
        # P = 1/2 + (1/8)(1 + 3/4 + 9/16) = 101/128 at the standard model
        got = ev_v_anu_before(std_special, 1.0, 0.0)
        assert abs(got - 0.7890625) < 1e-12

    def test_decays_to_zero(self, std_special):
        assert abs(ev_v_anu_before(std_special, 0.8, 1000.0)) < 1e-12

    def test_transform_round_trip(self, std_special):
        for v in (0.3, 0.9):
            for t in (0.5, 2.0):
                direct = ev_v_anu_before(std_special, v, t).real
                inverted = invert(lambda s, v=v: g1_star_special(std_special, s, v), t)
                assert abs(inverted - direct) / max(abs(direct), 1e-12) < 1e-6

    def test_matches_level_sum(self, std_special):
        # PGF must equal the r-sum of the tabulated joint law
        for v in (0.3, 0.6, 0.9):
            for t in (0.0, 1.0):
                total = sum(v**r * joint_dist(std_special, r, t) for r in range(80))
                pgf = ev_v_anu_before(std_special, v, t).real
                assert abs(total - pgf) < 1e-8

    def test_rejects_pgf_argument_outside_disk(self, std_special):
        with pytest.raises(DomainError):
            ev_v_anu_before(std_special, 1.2, 1.0)


class TestJointDist:
    def test_no_mass_at_or_below_threshold(self, std_special):
        for r in range(std_special.m + 1):
            for t in (0.0, 0.7, 3.0):
                assert abs(joint_dist(std_special, r, t)) < 1e-9

    def test_values_are_probabilities(self, std_special):
        for r in range(4, 15):
            for t in (0.0, 0.5, 1.0, 2.0, 10.0):
                val = joint_dist(std_special, r, t)
                assert 0.0 <= val <= 1.0

    def test_nonincreasing_in_time(self, std_special):
        ts = np.linspace(0.0, 6.0, 25)
        for r in (4, 5, 8):
            vals = [joint_dist(std_special, r, t) for t in ts]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_against_path_simulation(self, std_special):
        rec = _crossing_sample(std_special.to_process_model(), 200_000, 11)
        n = rec["a_cross"].size
        for r, t in ((4, 1.0), (5, 0.5), (6, 2.0)):
            hits = np.mean((rec["a_cross"] == r) & (rec["tau_pre"] > t))
            se = math.sqrt(max(hits * (1.0 - hits), 1e-12) / n)
            assert abs(joint_dist(std_special, r, t) - hits) < 4 * se

    def test_level_validation(self, std_special):
        with pytest.raises(DomainError):
            joint_dist(std_special, -1, 1.0)
        with pytest.raises(DomainError):
            joint_dist(std_special, True, 1.0)


class TestCrossingLevelPmf:
    def test_support_above_threshold(self, std_special):
        assert crossing_level_pmf(std_special, std_special.m) == 0.0
        assert crossing_level_pmf(std_special, 0) == 0.0

    def test_geometric_overshoot(self, std_special):
        c = std_special.c
        total = sum(crossing_level_pmf(std_special, r) for r in range(4, 400))
        assert abs(total - 1.0) < 1e-12
        mean_overshoot = sum(
            (r - std_special.m) * crossing_level_pmf(std_special, r) for r in range(4, 400)
        )
        assert abs(mean_overshoot - 1.0 / (1.0 - c)) < 1e-9

    def test_against_path_simulation(self, std_special):
        rec = _crossing_sample(std_special.to_process_model(), 200_000, 13)
        n = rec["a_cross"].size
        for r in (4, 5, 7):
            hits = np.mean(rec["a_cross"] == r)
            se = math.sqrt(hits * (1.0 - hits) / n)
            assert abs(crossing_level_pmf(std_special, r) - hits) < 4 * se


class TestDistTable:
    def test_shape_and_invariants(self, std_special):
        table = dist_table(std_special, [0.0, 0.5, 1.0, 2.0], 12)
        assert table.values.shape == (4, 13)
        assert np.array_equal(table.r_range, np.arange(13))
        assert np.all(np.abs(table.values[:, : std_special.m + 1]) < 1e-9)
        assert np.all(np.diff(table.values, axis=0) <= 1e-9)
        assert np.all(table.values.sum(axis=1) <= 1.0 + 1e-9)

    def test_csv_format(self, std_special, tmp_path):
        table = dist_table(std_special, [0.0, 1.0], 5)
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,r,probability"
        assert len(lines) == 1 + 2 * 6
        t, r, p = lines[1].split(",")
        assert float(t) == 0.0 and int(r) == 0 and float(p) == 0.0
        path = tmp_path / "table.csv"
        table.write_csv(path)
        assert path.read_text() == text
        # the row-at-a-time formatter against one format call per cell
        wide = dist_table(std_special, [0.0, 0.7, 3.5], 100)
        reference = ["t,r,probability"] + [
            f"{t:.11e},{r},{p:.11e}"
            for i, t in enumerate(wide.t_grid) for r in range(101) for p in [wide.values[i, r]]
        ]
        assert wide.to_csv() == "\n".join(reference) + "\n"

    def test_grid_validation(self, std_special):
        with pytest.raises(DomainError):
            dist_table(std_special, [], 5)
        with pytest.raises(DomainError):
            dist_table(std_special, [1.0, 0.5], 5)
        with pytest.raises(DomainError):
            dist_table(std_special, [-1.0, 0.5], 5)
        with pytest.raises(DomainError):
            dist_table(std_special, [0.0, 1.0], -1)

    def test_inconsistent_ratio_is_caught(self):
        # the factorised table is a valid law for any ratio c, so a strongly
        # perturbed c is caught by comparing it with the independent G_j/H_j
        # route of ev_v_anu_before, as the battery does
        broken = SpecialModel(1.0, 0.5, 1.0, 3, c_override=0.95)
        result = _check_pgf_extraction(
            _Context(model=broken.to_process_model(), special=broken, seed=0, n_paths=1000)
        )
        assert not result.passed and result.observed > 1e3 * result.tolerance

    def test_pgf_check_holds_joint_dist_to_its_table(self, std_special, monkeypatch):
        monkeypatch.setattr(closedform, "joint_dist", lambda model, r, t: 0.5)
        result = _check_pgf_extraction(
            _Context(model=std_special.to_process_model(), special=std_special, seed=0, n_paths=1000)
        )
        assert not result.passed and result.observed == math.inf
        assert "joint_dist" in result.detail

    def test_invariant_scan_names_offending_cells(self, std_special, monkeypatch):
        # a survival row that rises in time must be refused cell by cell
        monkeypatch.setattr(closedform, "survival_pre", lambda model, grid: np.array([0.5, 0.7, 0.2]))
        with pytest.raises(TableInvariantError) as exc:
            dist_table(std_special, [0.0, 1.0, 2.0], 6)
        assert [cell[:2] for cell in exc.value.cells] == [(1.0, r) for r in range(4, 7)]

    def test_matches_high_precision_product_law(self):
        # every nonzero cell against 50-digit pmf * S(t), out to 3x the mean
        # crossing time; the M = 50, t = 136 cell (S near 1.2e-26) is off by
        # a factor of about 5e10 in the four-term coefficient formula
        for m, extra in ((50, [136.0]), (300, [])):
            sp = SpecialModel(1.0, 0.5, 1.0, m)
            grid = sorted(list(np.linspace(0.0, 3.0 * _mean_crossing_time(sp), 8)) + extra)
            table = dist_table(sp, grid, m + 100)
            with mpmath.workdps(50):
                c = (sp.b * mpmath.mpf(sp.mu) + sp.lam) / (mpmath.mpf(sp.mu) + sp.lam)
                for i, t in enumerate(grid):
                    surv = _mp_survival(sp, t)
                    for r in range(m + 1, m + 101):
                        exact = (1 - c) * c ** (r - m - 1) * surv
                        got = table.values[i, r]
                        assert got > 0.0 and abs(got - exact) <= 1e-12 * exact, (m, t, r)
            assert not np.any(table.values[:, : m + 1])

    def test_rows_match_the_gamma_tail_route(self):
        # cross-derivation: pmf(r) * P{tau_pre > t}, with P{tau_pre > t} from the
        # paper's G_j/H_j formula (ev_v_anu_before at v = 1)
        for m in (50, 300):
            sp = SpecialModel(1.0, 0.5, 1.0, m)
            grid = np.linspace(0.0, 3.0 * _mean_crossing_time(sp), 12)
            table = dist_table(sp, grid, m + 60)
            pmf = np.array([crossing_level_pmf(sp, r) for r in range(m + 61)])
            for i, t in enumerate(grid):
                surv = ev_v_anu_before(sp, 1.0, float(t)).real
                if surv >= 1e-3:
                    assert np.max(np.abs(table.values[i] - pmf * surv)) <= 1e-12, (m, t)

    def test_max_threshold_table(self):
        sp = SpecialModel(1.0, 0.5, 1.0, MAX_THRESHOLD)
        grid = np.linspace(0.0, 3.0 * MAX_THRESHOLD * sp.a / sp.lam, 20)
        table = dist_table(sp, grid, MAX_THRESHOLD + 200)
        assert table.values.shape == (20, MAX_THRESHOLD + 201)
        assert np.all(table.values.sum(axis=1) <= 1.0)
