"""Path simulation and the Monte Carlo estimators.

Statistical assertions use 4-standard-error bands at fixed seeds.  The
window integrals are exact per path, so the estimators carry no bias
beyond sampling noise.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from crosswatch import cli, timedomain, validation
from crosswatch import montecarlo as mc
from crosswatch.errors import DomainError, RunawaySimulationError
from crosswatch.fluctuation import g1_star, g2_star, g_star
from crosswatch.closedform import dist_table
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
    mark_sample,
)
from crosswatch.montecarlo import (
    EstimateWithCI,
    _crossing_sample,
    _estimate,
    estimate_joint,
    estimate_window_pair,
)
from crosswatch.transforms import f1_star, f2_star
from crosswatch.validation import run_battery


def _functionals(model, args, n_paths=100_000, seed=0):
    """G1, G2 and G from the sample ``simulate`` draws at ``args``."""
    return mc._sample_functionals(mc._functional_sample(model, args, n_paths, seed), args)


def _slow_model():
    # mean level gain per inspection ~ 0.01, threshold far away
    return ProcessModel(
        rate=0.1,
        marks=Geometric(1.0),
        observation=ObservationLaw(DegenerateZero(), Exponential(10.0)),
        threshold=5,
    )


class TestEstimateWithCI:
    def test_ci_width(self):
        est = EstimateWithCI(mean=1.0, std_error=0.1, n_samples=100)
        lo, hi = est.ci()
        assert abs(lo - (1.0 - 0.196)) < 1e-12
        assert abs(hi - (1.0 + 0.196)) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            EstimateWithCI(mean=0.0, std_error=-1.0, n_samples=10)
        with pytest.raises(DomainError):
            EstimateWithCI(mean=0.0, std_error=1.0, n_samples=0)


class TestSimulatePath:
    """The vectorised crossing simulator behind every estimator."""

    def test_deterministic_per_seed(self, std_model):
        a = _crossing_sample(std_model, 2_000, 42)
        b = _crossing_sample(std_model, 2_000, 42)
        assert all(np.array_equal(a[key], b[key]) for key in a)
        c = _crossing_sample(std_model, 2_000, 43)
        assert not np.array_equal(a["tau_cross"], c["tau_cross"])

    def test_crossing_invariants(self, std_model):
        rec = _crossing_sample(std_model, 2_000, 0)
        assert np.all(rec["nu"] >= 1)  # initial look happens at time zero here
        assert np.all((0 <= rec["a_pre"]) & (rec["a_pre"] <= std_model.threshold))
        assert np.all(std_model.threshold < rec["a_cross"])
        assert np.all((0.0 <= rec["tau_pre"]) & (rec["tau_pre"] <= rec["tau_cross"]))

    def test_immediate_crossing_possible_with_delayed_start(self, exp_initial_model):
        rec = _crossing_sample(exp_initial_model, 2_000, 0)
        first = rec["nu"] == 0
        assert np.any(first)
        assert np.all(rec["a_pre"][first] == 0) and np.all(rec["tau_pre"][first] == 0.0)

    def test_exp_first_look_follows_the_exact_laws(self):
        # an Exp(eta) first gap runs its merged stream at lam + eta, the others at lam + mu
        model = ProcessModel(rate=1.3, marks=Geometric(0.5),
                             observation=ObservationLaw(Exponential(2.0), Exponential(0.8)), threshold=3)
        n = 200_000
        rec = _crossing_sample(model, n, 9)
        grid = np.array([0.1, 0.25, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0, 9.0])
        for key, exact_fn in (("tau_pre", timedomain.survival_pre), ("tau_cross", timedomain.survival_cross)):
            exact = exact_fn(model, grid)
            freq = np.mean(rec[key][:, None] > grid, axis=0)
            band = 5.0 * np.sqrt(exact * (1.0 - exact) / n) + 1.0 / n
            assert np.all(np.abs(freq - exact) <= band), key
        nu = rec["nu"].astype(float)
        assert abs(nu.mean() - timedomain._visits(model).sum()) < 5.0 * nu.std(ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("pmf, lam, initial, mu, m", [
        ([0.0, 0.5, 0.3, 0.2], 1.0, DegenerateZero(), 1.0, 3),
        ([0.0, 0.5, 0.3, 0.2], 1.0, DegenerateZero(), 1.0, 60),
        ([0.1, 0.5, 0.3, 0.1], 1.3, Exponential(2.0), 0.8, 6),
    ])
    def test_records_pair_the_levels_of_one_path(self, pmf, lam, initial, mu, m):
        # P{A_pre = k, A_nu = r} = v(k) P0(r - k), plus the first gap's own law at k = 0 after an
        # Exp(eta) start.  Under pmf marks this law does not factorise, so a record that took
        # A_pre from one path and A_nu from another would show.
        model = ProcessModel(rate=lam, marks=GeneralDiscrete(pmf),
                             observation=ObservationLaw(initial, Exponential(mu)), threshold=m)
        n, top = 200_000, m + 20  # a gap may hold many arrivals; compare the levels up to top
        rec = _crossing_sample(model, n, 5)
        exact = np.zeros((m + 1, top - m))
        gap = timedomain._gap_law(model, mu, top)
        for k, visits in enumerate(timedomain._visits(model)):
            exact[k] = visits * gap[m + 1 - k : top + 1 - k]
        if isinstance(initial, Exponential):
            exact[0] += timedomain._gap_law(model, initial.rate, top)[m + 1 :]
        seen = rec["a_cross"] <= top
        cells = rec["a_pre"][seen] * (top - m) + rec["a_cross"][seen] - (m + 1)
        freq = np.bincount(cells, minlength=exact.size).reshape(exact.shape) / n
        band = 5.0 * np.sqrt(exact * (1.0 - exact) / n) + 1.0 / n
        assert np.all(np.abs(freq - exact) <= band)

    def test_every_record_of_a_partial_last_chunk_is_filled(self, std_model):
        n = 230_000  # four full chunks and a partial one
        assert n % mc._CHUNK
        rec = _crossing_sample(std_model, n, 3)
        assert all(col.size == n for col in rec.values())
        assert np.all(rec["a_cross"] > std_model.threshold) and np.all(rec["nu"] >= 1)
        first = rec["nu"] == 1  # the look at time zero is the last one before the crossing
        assert np.array_equal(first, rec["tau_pre"] == 0.0)
        assert np.all(rec["a_pre"][first] == 0)
        assert np.all(rec["tau_pre"] <= rec["tau_cross"])

    def test_epoch_cap(self, monkeypatch):
        monkeypatch.setattr(mc, "_EPOCH_CAP", 3)
        with pytest.raises(RunawaySimulationError):
            _crossing_sample(_slow_model(), 1_000, 0)

    def test_epoch_cap_counts_the_skipped_looks(self, monkeypatch):
        # unit marks at lam / mu = 0.01: six arrivals cross, in at most 7 waves but about 600 looks a path,
        # so 1000 paths pass 50,000 looks only by their skipped ones
        model = ProcessModel(rate=0.01, marks=Geometric(1.0),
                             observation=ObservationLaw(DegenerateZero(), Exponential(1.0)), threshold=5)
        assert _crossing_sample(model, 1_000, 0)["nu"].mean() > 300
        monkeypatch.setattr(mc, "_EPOCH_CAP", 50_000)
        with pytest.raises(RunawaySimulationError, match="skipped"):
            _crossing_sample(model, 1_000, 0)


class TestSkippedEmptyGaps:
    """A wave skips the empty gaps before a path's next busy one; every recorded law stays exact.

    The rates span gaps mostly empty (0.7, 1.3), half empty (1, 1) and nearly
    always busy (2, 0.05); the pmf has f0 > 0, so a busy gap can leave the
    level where it was.  Each law is held to 5 standard errors.
    """

    pytestmark = [
        pytest.mark.parametrize("marks", [Geometric(0.5), GeneralDiscrete([0.1, 0.5, 0.3, 0.1])],
                                ids=["geometric", "pmf"]),
        pytest.mark.parametrize("initial", [DegenerateZero(), Exponential(0.4)], ids=["zero-start", "exp-start"]),
        pytest.mark.parametrize("lam, mu", [(0.7, 1.3), (1.0, 1.0), (2.0, 0.05)]),
    ]
    ARGS = TransformArgs(theta=0.5, u=0.9, v=0.8, w=0.1, x=0.2, y=0.7)

    @staticmethod
    def _model(lam, mu, initial, marks):
        return ProcessModel(lam, marks, ObservationLaw(initial, Exponential(mu)), 3)

    def test_crossing_records_follow_the_exact_laws(self, lam, mu, initial, marks):
        model = self._model(lam, mu, initial, marks)
        n, m = 40_000, model.threshold
        rec = _crossing_sample(model, n, 12)
        band = lambda p: 5.0 * np.sqrt(p * (1.0 - p) / n) + 1.0 / n

        visits = timedomain._visits(model)
        nu = rec["nu"].astype(float)
        assert abs(nu.mean() - visits.sum()) <= 5.0 * nu.std(ddof=1) / math.sqrt(n)

        # P{A_pre = k, A_nu = r} = v(k) P0(r - k), plus the first gap's own law at k = 0 after an Exp start
        top = m + 60
        exact = np.array([v * timedomain._gap_law(model, mu, top)[m + 1 - k : top + 1 - k]
                          for k, v in enumerate(visits)])
        if isinstance(initial, Exponential):
            exact[0] += timedomain._gap_law(model, initial.rate, top)[m + 1 :]
        seen = rec["a_cross"] <= top
        cells = rec["a_pre"][seen] * (top - m) + rec["a_cross"][seen] - (m + 1)
        freq = np.bincount(cells, minlength=exact.size).reshape(exact.shape) / n
        assert np.all(np.abs(freq - exact) <= band(exact))

        grid = timedomain._mean_cross_time(model) * np.array([0.1, 0.3, 0.6, 1.0, 1.5, 2.5, 4.0])
        for key, exact in zip(("tau_pre", "tau_cross"), timedomain._survival_laws(model, grid)):
            freq = np.mean(rec[key][:, None] > grid, axis=0)
            assert np.all(np.abs(freq - exact) <= band(exact)), key

    def test_tagged_windows_follow_the_exact_transforms(self, lam, mu, initial, marks):
        # y < 1: a skipped run is one stretch at a constant level in the G1 window
        model = self._model(lam, mu, initial, marks)
        est = _functionals(model, self.ARGS, n_paths=10_000, seed=12)
        for name, exact_fn in (("G1", g1_star), ("G2", g2_star)):
            assert abs(est[name].mean - exact_fn(model, self.ARGS).real) <= 5.0 * est[name].std_error, name


class TestEstimateJoint:
    def test_rejects_small_samples(self, std_model):
        with pytest.raises(DomainError):
            estimate_joint(std_model, 8, [0.0, 1.0], 999)

    def test_deterministic_per_seed(self, std_model):
        a = estimate_joint(std_model, 8, [0.0, 0.5, 1.0], 5_000, seed=3)
        b = estimate_joint(std_model, 8, [0.0, 0.5, 1.0], 5_000, seed=3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        c = estimate_joint(std_model, 8, [0.0, 0.5, 1.0], 5_000, seed=4)
        assert not np.array_equal(a[0], c[0])

    def test_table_structure(self, std_model):
        freq, std_errors = estimate_joint(std_model, 10, [0.0, 0.5, 1.0, 2.0], 5_000, seed=1)
        assert freq.shape == (4, 11)
        assert std_errors.shape == (4, 11)
        assert np.allclose(freq * 5_000, np.round(freq * 5_000), rtol=0.0, atol=1e-9)  # counts over 5000 paths
        assert np.all(freq >= 0.0) and np.all(freq <= 1.0)
        assert np.all(freq[:, : std_model.threshold + 1] == 0.0)
        assert np.all(np.diff(freq, axis=0) <= 0.0)

    def test_matches_closed_form(self, std_model):
        freq, std_errors = estimate_joint(std_model, 10, [0.0, 0.5, 1.0, 2.0], 50_000, seed=17)
        table = dist_table(std_model, [0.0, 0.5, 1.0, 2.0], 10)
        for i, t in enumerate((0.0, 0.5, 1.0, 2.0)):
            for r in range(4, 9):
                exact = table[i, r]
                se = max(std_errors[i, r], 1e-4)
                assert abs(freq[i, r] - exact) < 4 * se

    def test_error_bars_shrink_like_root_n(self, std_model):
        small = estimate_joint(std_model, 8, [0.0, 0.5], 2_000, seed=21)
        large = estimate_joint(std_model, 8, [0.0, 0.5], 8_000, seed=21)
        ratio = small[1][1, 4] / large[1][1, 4]
        assert 1.6 < ratio < 2.4

    def test_grid_validation(self, std_model):
        with pytest.raises(DomainError):
            estimate_joint(std_model, 8, [], 2_000)
        with pytest.raises(DomainError):
            estimate_joint(std_model, 8, [1.0, 0.5], 2_000)
        with pytest.raises(DomainError):
            estimate_joint(std_model, -2, [0.0, 1.0], 2_000)

    def test_refuses_the_grids_the_table_refuses(self, std_model):
        # a NaN time once gave a silent all-zero row
        for grid in ([0.0, float("nan")], [0.0, float("inf")], [-1.0, 0.5], [[0.0, 1.0]]):
            with pytest.raises(DomainError):
                dist_table(std_model, grid, 6)
            with pytest.raises(DomainError):
                estimate_joint(std_model, 6, grid, 1_000)

    def test_epoch_cap(self, monkeypatch):
        monkeypatch.setattr(mc, "_EPOCH_CAP", 3)
        with pytest.raises(RunawaySimulationError):
            estimate_joint(_slow_model(), 8, [0.0], 1_000, seed=0)


class TestEstimateFunctional:
    def test_returns_the_three_windows(self, std_model):
        both = _functionals(std_model, TransformArgs(theta=0.9, v=0.7, y=0.8), 20_000, 6)
        assert list(both) == ["G1", "G2", "G"]

    def test_additivity_is_bitwise(self, std_model):
        est = _functionals(std_model, TransformArgs(theta=0.5, v=0.7), n_paths=20_000, seed=11)
        assert est["G"].mean == est["G1"].mean + est["G2"].mean

    def test_deterministic_per_seed(self, std_model):
        args = TransformArgs(theta=0.5, v=0.7)
        a = _functionals(std_model, args, n_paths=20_000, seed=2)
        b = _functionals(std_model, args, n_paths=20_000, seed=2)
        assert a == b

    def test_matches_analytic_unit_tag(self, std_model):
        args = TransformArgs(theta=0.5, v=0.7)
        estimates = _functionals(std_model, args, n_paths=100_000, seed=3)
        for which, exact_fn in (("G1", g1_star), ("G2", g2_star), ("G", g_star)):
            est = estimates[which]
            exact = exact_fn(std_model, args).real
            assert abs(est.mean - exact) < 4 * est.std_error

    def test_matches_analytic_running_tag(self, std_model):
        # y < 1 exercises the arrival-resolution path
        args = TransformArgs(theta=0.5, v=0.7, y=0.8)
        estimates = _functionals(std_model, args, n_paths=30_000, seed=7)
        for which, exact_fn in (("G1", g1_star), ("G2", g2_star)):
            est = estimates[which]
            exact = exact_fn(std_model, args).real
            assert abs(est.mean - exact) < 4 * est.std_error

    def test_undamped_window_matches_analytic(self, std_model):
        # theta = 0 needs no time cut-off: every window ends at a finite crossing
        for args in (TransformArgs(theta=0.0, v=0.7), TransformArgs(theta=0.0, v=0.7, y=0.9)):
            est = _functionals(std_model, args, n_paths=50_000, seed=5)["G1"]
            exact = g1_star(std_model, args).real
            assert abs(est.mean - exact) < 4 * est.std_error

    def test_unit_tags_integrate_the_damped_crossing_time(self, std_model):
        # with u = v = y = 1 and w = x = 0, G integrates e^{-theta t} over [0, tau_cross)
        theta = 0.7
        est = _functionals(std_model, TransformArgs(theta=theta), n_paths=50_000, seed=4)["G"]
        tau_cross = _crossing_sample(std_model, 50_000, 4)["tau_cross"]
        closed = float(np.mean(-np.expm1(-theta * tau_cross) / theta))
        assert abs(est.mean - closed) <= 1e-12 * closed

    def test_argument_validation(self, std_model, monkeypatch):
        calls = _count_samples(monkeypatch)
        with pytest.raises(DomainError):
            _functionals(std_model, TransformArgs(theta=1.0, v=0.5 + 0.1j))
        with pytest.raises(DomainError):
            _functionals(std_model, TransformArgs(theta=1.0, u=1.5))
        with pytest.raises(DomainError):
            _functionals(std_model, TransformArgs(theta=-1.0))
        with pytest.raises(DomainError):
            _functionals(std_model, TransformArgs(theta=1.0), n_paths=0)
        assert calls == []  # rejected before any path is drawn


class TestPairWindowEstimators:
    def test_match_exact_transforms(self, std_model):
        args = TransformArgs(theta=0.9, u=0.8, v=0.7, w=0.2, x=0.1, y=0.6)
        laws = (Exponential(1.0), Exponential(1.5))
        est = estimate_window_pair(std_model, *laws, args, n_samples=100_000, seed=9)
        assert list(est) == ["f1", "f2"]
        for name, exact_fn in (("f1", f1_star), ("f2", f2_star)):
            exact = exact_fn(std_model, *laws, args).real
            assert abs(est[name].mean - exact) < 4 * est[name].std_error

    @pytest.mark.parametrize("y", [1.0, 0.6])
    def test_zero_first_window(self, std_model, y):
        # T = 0: the first window is empty and the second starts at level 0
        args = TransformArgs(theta=0.9, u=0.8, v=0.7, w=0.2, x=0.1, y=y)
        laws = (DegenerateZero(), Exponential(1.5))
        est = estimate_window_pair(std_model, *laws, args, n_samples=50_000, seed=9)
        assert est["f1"].mean == 0.0
        exact = f2_star(std_model, *laws, args).real
        assert abs(est["f2"].mean - exact) < 4 * est["f2"].std_error

    def test_windows_partition_the_damped_mass(self, std_model):
        # with all tags at 1 the two windows tile [0, T + Delta), so the
        # integrals sum to E[1 - e^{-theta(T+Delta)}] / theta
        theta = 0.7
        args = TransformArgs(theta=theta)
        laws = (Exponential(1.0), Exponential(2.0))
        est = estimate_window_pair(std_model, *laws, args, n_samples=50_000, seed=15)
        e1, e2 = est["f1"], est["f2"]
        lt = 1.0 / (1.0 + theta)
        ld = 2.0 / (2.0 + theta)
        closed = (1.0 - lt * ld) / theta
        err = math.hypot(e1.std_error, e2.std_error)
        assert abs((e1.mean + e2.mean) - closed) < 4 * err + 1e-4

    def test_deterministic_per_seed(self, std_model):
        args = TransformArgs(theta=1.0, v=0.5)
        laws = (Exponential(1.0), Exponential(1.0))
        a = estimate_window_pair(std_model, *laws, args, n_samples=5_000, seed=4)
        b = estimate_window_pair(std_model, *laws, args, n_samples=5_000, seed=4)
        assert a == b

    def test_argument_validation(self, std_model, monkeypatch):
        laws = (Exponential(1.0), Exponential(1.0))
        calls = _count_samples(monkeypatch)
        with pytest.raises(DomainError):
            estimate_window_pair(std_model, *laws, TransformArgs(theta=1.0, y=1.5))
        with pytest.raises(DomainError):
            estimate_window_pair(std_model, *laws, TransformArgs(theta=1.0), n_samples=0)
        assert calls == []  # rejected before any sample is drawn


MARK_LAWS = [Geometric(0.5), GeneralDiscrete([0.0, 0.5, 0.3, 0.2])]


def _busy_model(marks):
    # about 20 arrivals per inspection gap
    return ProcessModel(
        rate=20.0,
        marks=marks,
        observation=ObservationLaw(DegenerateZero(), Exponential(1.0)),
        threshold=30,
    )


class TestManyArrivalsPerGap:
    """Where arrivals share a gap, their order and marks set the windows."""

    ARGS = TransformArgs(theta=0.5, u=0.99, v=0.98, w=0.1, x=0.2, y=0.97)

    @pytest.mark.parametrize("marks", MARK_LAWS, ids=["geometric", "pmf"])
    def test_window_pair_matches_exact_transforms(self, marks):
        model = _busy_model(marks)
        laws = (Exponential(1.0), Exponential(1.5))
        est = estimate_window_pair(model, *laws, self.ARGS, n_samples=50_000, seed=1)
        for name, exact_fn in (("f1", f1_star), ("f2", f2_star)):
            exact = complex(exact_fn(model, *laws, self.ARGS)).real
            assert abs(est[name].mean - exact) < 5 * est[name].std_error

    @pytest.mark.parametrize("marks", MARK_LAWS, ids=["geometric", "pmf"])
    def test_tagged_functionals_match_exact_transforms(self, marks):
        model = _busy_model(marks)
        est = _functionals(model, self.ARGS, n_paths=20_000, seed=1)
        for name, exact_fn in (("G1", g1_star), ("G2", g2_star)):
            exact = exact_fn(model, self.ARGS).real
            assert abs(est[name].mean - exact) < 5 * est[name].std_error

    @pytest.mark.parametrize("rate", [1.0, 20.0])
    @pytest.mark.parametrize("marks", MARK_LAWS, ids=["geometric", "pmf"])
    def test_gap_mark_totals_follow_the_exact_law(self, marks, rate):
        model = ProcessModel(rate=rate, marks=marks, observation=ObservationLaw(DegenerateZero(), Exponential(1.0)),
                             threshold=3)
        n, order = 200_000, 200
        rng = np.random.default_rng(8)
        _, totals, _ = mc._gap_step(model, Exponential(1.0), np.zeros(n, dtype=np.int64), np.zeros(n), rng)
        freq = np.bincount(totals, minlength=order + 1)[: order + 1] / n
        exact = timedomain._gap_law(model, 1.0, order)
        band = 5.0 * np.sqrt(exact * (1.0 - exact) / n) + 1.0 / n
        assert np.all(np.abs(freq - exact) <= band)

    def test_positions_keep_per_gap_rounding(self):
        # a full chunk of gaps: the last gaps must be as exact as the first
        rng = np.random.default_rng(3)
        counts = rng.poisson(20.0 * rng.exponential(size=mc._CHUNK))
        counts[:50] = 0
        rate = 2.5
        owner, offset, length, gap = mc._segments(counts, rate, np.random.default_rng(4))
        spacing = np.random.default_rng(4).standard_exponential(owner.size) / rate
        first = np.cumsum(counts + 1) - (counts + 1)
        assert np.array_equal(owner, np.repeat(np.arange(counts.size), counts + 1))
        assert np.array_equal(length, spacing)
        for i in [*range(0, counts.size, 101), *range(counts.size - 500, counts.size)]:
            run = spacing[first[i] : first[i] + counts[i] + 1].tolist()
            ref_offset = np.array([math.fsum(run[:k]) for k in range(counts[i] + 1)])
            got_offset = offset[first[i] : first[i] + counts[i] + 1]
            assert got_offset[0] == 0.0
            assert np.all(np.abs(got_offset - ref_offset) <= 1e-12 * ref_offset)
            assert abs(gap[i] - math.fsum(run)) <= 1e-12 * gap[i]


def _power_op(base, levels):
    """Level powers by ``**``, as they were drawn before the table lookup."""
    return base ** levels.astype(float)


def _choice_marks(law, rng, size):
    """Marks by ``Generator.choice(p=pmf)``, as they were drawn before step counting."""
    if isinstance(law, GeneralDiscrete):
        return rng.choice(law.pmf.size, p=law.pmf, size=size)
    return mark_sample(law, rng, size)


def _estimated(monkeypatch, draw) -> list[bytes]:
    """The bytes of every array ``draw()`` hands to ``_estimate``, in call order."""
    seen = []

    def recording(values):
        seen.append(values.tobytes())
        return _estimate(values)

    monkeypatch.setattr(mc, "_estimate", recording)
    draw()
    return seen


class TestTablePowers:
    """``_powers`` looks level powers up in a table of the same numpy powers: the bits of ``**``."""

    @pytest.mark.parametrize("base", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("levels", [
        [], [0], [7], np.random.default_rng(2).geometric(0.2, 5_000) - 1, [0, 3, 10_000],
    ], ids=["empty", "zero", "one-level", "geometric-levels", "beyond-the-size"])
    def test_the_bits_of_pow(self, base, levels):
        levels = np.asarray(levels, dtype=np.int64)
        powers = mc._powers(base, levels)
        assert powers.dtype == np.float64 and powers.tobytes() == _power_op(base, levels).tobytes()

    def test_a_table_never_outgrows_its_levels(self):
        levels = np.array([10**7, 3])
        powers, peak = _traced_peak(lambda: mc._powers(0.5, levels))
        assert powers.tobytes() == _power_op(0.5, levels).tobytes()
        assert peak < 1e4  # no 80 MB table


class TestSameDraws:
    """Each draw keeps the bits it had with ``choice`` marks and ``**`` powers."""

    @pytest.fixture
    def as_drawn_before(self, monkeypatch):
        def restore():
            monkeypatch.setattr(mc, "mark_sample", _choice_marks)
            monkeypatch.setattr(mc, "_powers", _power_op)

        return restore

    @pytest.mark.parametrize("tag", [(), (0.8, 0.6)], ids=["untagged", "tagged"])
    @pytest.mark.parametrize("initial", [DegenerateZero(), Exponential(0.4)], ids=["zero-start", "exp-start"])
    @pytest.mark.parametrize("marks", MARK_LAWS, ids=["geometric", "pmf"])
    def test_crossing_sample(self, marks, initial, tag, as_drawn_before, monkeypatch):
        # four full chunks and a partial one, as 230k paths make in chunks of 50k, at a tenth of the cost
        monkeypatch.setattr(mc, "_CHUNK", 5_000)
        model = ProcessModel(1.0, marks, ObservationLaw(initial, Exponential(1.0)), 3)
        self._same_sample(model, 23_000, tag, as_drawn_before)

    def test_crossing_sample_in_full_chunks(self, as_drawn_before):
        model = ProcessModel(1.0, MARK_LAWS[1], ObservationLaw(Exponential(0.4), Exponential(1.0)), 3)
        self._same_sample(model, 230_000, (0.8, 0.6), as_drawn_before)

    @staticmethod
    def _same_sample(model, n, tag, as_drawn_before):
        sample = _crossing_sample(model, n, 7, *tag)
        as_drawn_before()
        before = _crossing_sample(model, n, 7, *tag)
        assert {key: col.tobytes() for key, col in sample.items()} == {key: col.tobytes() for key, col in before.items()}

    @pytest.mark.parametrize("y", [1.0, 0.6])
    @pytest.mark.parametrize("marks", MARK_LAWS, ids=["geometric", "pmf"])
    def test_window_pair(self, marks, y, monkeypatch, as_drawn_before):
        model = ProcessModel(1.0, marks, ObservationLaw(DegenerateZero(), Exponential(1.0)), 3)
        args = TransformArgs(theta=0.8, u=0.7, v=0.9, w=0.2, x=0.3, y=y)
        draw = lambda: estimate_window_pair(model, Exponential(1.0), Exponential(0.4), args, 60_000, 5)
        arrays = _estimated(monkeypatch, draw)
        as_drawn_before()
        assert len(arrays) == 2 and arrays == _estimated(monkeypatch, draw)

    @pytest.mark.parametrize("marks", MARK_LAWS, ids=["geometric", "pmf"])
    def test_increment_check(self, marks, monkeypatch, as_drawn_before):
        # a zero first gap: the check draws one sample, of recurring gaps
        model = ProcessModel(1.0, marks, ObservationLaw(DegenerateZero(), Exponential(1.0)), 3)
        draw = lambda: validation._check_increment_transform_mc(validation._Context(model, None, 3, 1_000))
        arrays = _estimated(monkeypatch, draw)
        as_drawn_before()
        assert len(arrays) == 1 and arrays == _estimated(monkeypatch, draw)


def _traced_peak(draw) -> tuple[object, int]:
    """What ``draw()`` returns and the most memory it held at once, in bytes, under tracemalloc."""
    tracemalloc.start()
    try:
        return draw(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """A wave keeps one chunk's arrays live, so a draw's work beyond its output is bounded by the chunk.

    Both bounds sit halfway between 100k-path chunks (a window pair peaked at
    19.2-20.0 MB, a sample's work beyond its records at 10.0-10.2 MB) and
    50k-path chunks (10.4-11.2 MB and 5.0-5.1 MB).
    """

    @pytest.mark.parametrize("marks", MARK_LAWS, ids=["geometric", "pmf"])
    def test_window_pair(self, marks):
        model = ProcessModel(1.0, marks, ObservationLaw(DegenerateZero(), Exponential(1.0)), 3)
        args = TransformArgs(theta=0.8, u=0.7, v=0.9, w=0.2, x=0.3, y=0.6)  # the battery's pair
        _, peak = _traced_peak(
            lambda: estimate_window_pair(model, Exponential(1.0), Exponential(1.0), args, 100_000, 5))
        assert peak < 15e6

    @pytest.mark.parametrize("marks", MARK_LAWS, ids=["geometric", "pmf"])
    def test_crossing_sample_beyond_its_records(self, marks):
        model = ProcessModel(1.0, marks, ObservationLaw(DegenerateZero(), Exponential(1.0)), 3)
        sample, peak = _traced_peak(lambda: _crossing_sample(model, 200_000, 0))
        records = sum(col.nbytes for col in sample.values())  # one 8 MB block, shared by the columns
        assert records == 5 * 200_000 * 8
        assert peak - records < 7.5e6

    def test_window_pair_at_levels_in_the_thousands(self, monkeypatch):
        model = ProcessModel(1.0, Geometric(1e-3), ObservationLaw(DegenerateZero(), Exponential(1.0)), 3)
        args = TransformArgs(theta=0.8, u=0.7, v=0.9, w=0.2, x=0.3, y=0.6)
        draw = lambda: estimate_window_pair(model, Exponential(1.0), Exponential(1.0), args, 100_000, 5)
        tops, powers = [], mc._powers

        def recording(base, levels):
            tops.append(levels.max(initial=0))
            return powers(base, levels)

        monkeypatch.setattr(mc, "_powers", recording)
        est, peak = _traced_peak(draw)
        assert peak < 15e6
        assert 1e3 <= max(tops)
        monkeypatch.setattr(mc, "_powers", _power_op)
        assert draw() == est


def _count_samples(monkeypatch) -> list:
    """Record one entry per sample drawn through the chunked runner."""
    calls = []
    runner = mc._run_chunked

    def counting(n_total, seed, worker):
        calls.append(n_total)
        return runner(n_total, seed, worker)

    monkeypatch.setattr(mc, "_run_chunked", counting)
    return calls


class TestSampleCount:
    """Guards against re-drawing a sample that was already drawn."""

    def test_battery_draws_four_samples(self, std_model, monkeypatch):
        # four samples of paths: the shared crossing sample, which also gives the y = 1
        # functionals and the mean nu, the pair-window sample, the tagged functional sample and
        # the small tagged sample of the window tiling; beside them one sample of single gaps
        # per random gap law, here the recurring one
        calls = _count_samples(monkeypatch)
        assert run_battery(std_model, n_paths=5_000)["all_passed"]
        assert calls == [400_000, 100_000, 5_000, 10_000, 2_000]

    def test_unit_tag_simulate_draws_one_sample(self, std_model, tmp_path, monkeypatch, capsys):
        model = {"lambda": 1.0, "marks": {"geometric": {"a": 0.5}}, "obs": {"mu": 1.0, "initial": "zero"},
                 "threshold": 3}
        config = tmp_path / "sim.json"
        args = {"theta": 1.0, "u": 0.8, "v": 0.9, "w": 0.15, "x": 0.25}
        config.write_text(json.dumps({"schema_version": 1, "model": model, "n_paths": 5_000, "args": args}))
        calls = _count_samples(monkeypatch)
        assert cli.main(["simulate", "--config", str(config), "--seed", "6"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[-3:]]
        assert calls == [5_000]
        # the same G1, G2 and G as a fresh functional sample of that seed
        fresh = _functionals(std_model, TransformArgs(**args), 5_000, 6)
        assert [row[0] for row in rows] == list(fresh)
        assert [float(row[1]) for row in rows] == [float(f"{est.mean:.11e}") for est in fresh.values()]

    def test_tagged_simulate_draws_one_sample(self, std_model, tmp_path, monkeypatch, capsys):
        model = {"lambda": 1.0, "marks": {"geometric": {"a": 0.5}}, "obs": {"mu": 1.0, "initial": "zero"},
                 "threshold": 3}
        config = tmp_path / "sim.json"
        args = {"theta": 1.0, "y": 0.8}
        config.write_text(json.dumps({"schema_version": 1, "model": model, "n_paths": 5_000, "args": args}))
        calls = _count_samples(monkeypatch)
        assert cli.main(["simulate", "--config", str(config)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert calls == [5_000]
        # the summary rows and G1, G2 and G all come from the tagged sample of that seed
        sample = mc._crossing_sample(std_model, 5_000, 0, 1.0, 0.8)
        assert [row[0] for row in rows[6:]] == ["G1", "G2", "G"]
        assert float(rows[0][1]) == float(f"{sample['nu'].mean():.11e}")
        fresh = _functionals(std_model, TransformArgs(**args), 5_000, 0)
        assert [float(row[1]) for row in rows[6:]] == [float(f"{est.mean:.11e}") for est in fresh.values()]

    def test_functional_draws_no_sample(self, tmp_path, monkeypatch, capsys):
        # its Monte Carlo check is `simulate` on the same args
        model = {"lambda": 1.0, "marks": {"pmf": [0.0, 0.5, 0.3, 0.2]}, "obs": {"mu": 1.0, "initial": "zero"},
                 "threshold": 3}
        config = tmp_path / "fun.json"
        config.write_text(json.dumps({"schema_version": 1, "model": model, "args": {"theta": 1.0, "y": 0.8}}))
        calls = _count_samples(monkeypatch)
        assert cli.main(["functional", "--config", str(config), "--seed", "4"]) == 0
        assert sorted(json.loads(capsys.readouterr().out)["values"]) == ["G", "G1", "G2"]
        assert calls == []
