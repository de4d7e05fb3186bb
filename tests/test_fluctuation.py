"""Crossing-time transforms: block evaluation, the two window functionals,
and the marginal LSTs of the straddling inspection epochs.

Oracles: a from-scratch re-implementation of the block formulas, hand
renewal computations for threshold 0, the closed-form special model, and
path simulation.  The exact series route is also played against FFT
sampling of the paper's pointwise integrands, which the validation battery
keeps as its oracle; the two share no coefficient code.
"""

from functools import partial

import numpy as np
import pytest

from crosswatch import fluctuation as fl
from crosswatch import timedomain
from crosswatch.closedform import g1_star_special
from crosswatch.errors import DivergenceError, DomainError
from crosswatch.fluctuation import (
    g1_star,
    g2_star,
    g_star,
    lst_tau_cross,
    lst_tau_pre,
)
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
)
from crosswatch.montecarlo import _crossing_sample, _functional_sample, _sample_functionals
from crosswatch.series import d_inverse
from crosswatch.validation import _blocks_at, _coeffs_by_sampling, _g1_integrand, _g2_integrand


def _std(threshold=3):
    return ProcessModel(
        rate=1.0,
        marks=Geometric(0.5),
        observation=ObservationLaw(DegenerateZero(), Exponential(1.0)),
        threshold=threshold,
    )


def _pmf(pmf=(0.0, 0.5, 0.3, 0.2), threshold=3, initial=None):
    return ProcessModel(
        rate=1.0,
        marks=GeneralDiscrete(pmf),
        observation=ObservationLaw(initial or DegenerateZero(), Exponential(1.0)),
        threshold=threshold,
    )


def _sampled(model, args, integrand):
    """Partial sum at the threshold of the integrand's FFT-sampled coefficients."""
    m = model.threshold
    return d_inverse(_coeffs_by_sampling(partial(integrand, model, args), m), m)


def _blocks_oracle(model, args, s):
    """The five blocks recomputed from their displayed formulas."""
    lam = model.rate
    a = model.marks.a
    b = 1.0 - a
    g = lambda z: a * z / (1.0 - b * z)
    mu = 1.0
    L = lambda z: mu / (mu + z)
    L0 = lambda z: 1.0 + 0.0j
    u, v, w = complex(args.u), complex(args.v), complex(args.w)
    x, y, th = complex(args.x), complex(args.y), complex(args.theta)
    s = complex(s)
    uvs, uvys = u * v * s, u * v * y * s
    eta2 = w + lam * (1.0 - g(uvs))
    eta3 = th + w + lam * (1.0 - g(uvys))
    gam = lambda z, d: L(d + lam * (1.0 - g(z)))
    b1 = (gam(v, x) - gam(v * s, x)) / (th + lam * (g(uvs) - g(uvys)))
    b2 = L0(eta2) / (1.0 - L(eta2))
    b3 = L0(eta3) / (1.0 - L(eta3))
    dd = lambda Lf, zeta, d: (Lf(zeta) - Lf(zeta + d)) / d
    z1 = x + lam * (1.0 - g(v))
    d1 = th + lam * (g(v) - g(v * y))
    z2 = x + lam * (1.0 - g(v * s))
    d2 = th + lam * (g(v * s) - g(v * y * s))
    gamma0 = dd(L0, z1, d1) - dd(L0, z2, d2)
    gamma = dd(L, z1, d1) - dd(L, z2, d2)
    return b1, b2, b3, gamma0, gamma


class TestBlocks:
    def test_matches_displayed_formulas(self):
        model = _std()
        args = TransformArgs(theta=0.3, u=1.0, v=0.5, w=0.0, x=0.0, y=1.0)
        got = _blocks_at(model, args, 0.7)
        b1, b2, b3, gamma0, gamma = _blocks_oracle(model, args, 0.7)
        assert abs(got.b1 - b1) < 1e-13
        assert abs(got.b2 - b2) < 1e-13
        assert abs(got.b3 - b3) < 1e-13
        assert abs(got.gamma0 - gamma0) < 1e-13
        assert abs(got.gamma - gamma) < 1e-13

    def test_matches_oracle_on_generic_points(self):
        model = _std()
        rng = np.random.default_rng(17)
        for _ in range(25):
            args = TransformArgs(
                theta=rng.uniform(0.1, 2.0),
                u=rng.uniform(0.3, 1.0),
                v=rng.uniform(0.3, 1.0),
                w=rng.uniform(0.0, 0.5),
                x=rng.uniform(0.0, 0.5),
                y=rng.uniform(0.3, 1.0),
            )
            s = rng.uniform(0.1, 0.9)
            got = _blocks_at(model, args, s)
            want = _blocks_oracle(model, args, s)
            for lhs, rhs in zip((got.b1, got.b2, got.b3, got.gamma0, got.gamma), want):
                assert abs(lhs - rhs) < 1e-11

    def test_identical_arguments_collapse_b2_b3(self):
        # y=1, theta=0 puts the same point into both resolvents
        model = _std()
        args = TransformArgs(theta=0.0, y=1.0, v=0.5)
        got = _blocks_at(model, args, 1.0)
        assert got.b2 == got.b3

    def test_s_zero_numerator(self):
        model = _std()
        args = TransformArgs(theta=0.4, v=0.6, x=0.2)
        got = _blocks_at(model, args, 0.0)
        b1, *_ = _blocks_oracle(model, args, 1e-14)
        assert abs(got.b1 - b1) < 1e-10

    def test_contraction_violation_raises(self):
        model = _std()
        with pytest.raises(DivergenceError):
            _blocks_at(model, TransformArgs(theta=0.0), 1.05)


class TestG1Star:
    def test_matches_special_model(self):
        model = _std()
        for theta in (0.1, 0.5, 2.0):
            for v in (0.3, 0.9):
                got = g1_star(model, TransformArgs(theta=theta, v=v))
                want = g1_star_special(model, theta, v)
                assert abs(got - want) / abs(want) < 1e-8

    def test_matches_special_model_other_thresholds(self):
        for m in (1, 2, 5):
            model = _std(threshold=m)
            got = g1_star(model, TransformArgs(theta=0.7, v=0.6))
            want = g1_star_special(model, 0.7, 0.6)
            assert abs(got - want) / abs(want) < 1e-8

    def test_vanishes_when_post_level_untagged(self):
        # v=0 kills v^{A_nu} because the post-crossing level is >= 1
        model = _std()
        assert abs(g1_star(model, TransformArgs(theta=0.5, v=0.0))) < 1e-12
        assert abs(g2_star(model, TransformArgs(theta=0.5, v=0.0))) < 1e-12

    def test_exact_and_sampling_paths_agree(self):
        model = _std()
        for args in (
            TransformArgs(theta=0.5, v=0.3),
            TransformArgs(theta=2.0, v=0.9),
            TransformArgs(theta=0.9, u=0.95, v=0.55, w=0.05, x=0.1, y=0.8),
        ):
            e = g1_star(model, args)
            s = _sampled(model, args, _g1_integrand)
            assert abs(e - s) <= 1e-9 * max(abs(e), 1e-6)

    def test_continuous_across_tagging_coincidence(self):
        model = _std()
        at = g1_star(model, TransformArgs(theta=0.7, v=0.6, y=1.0))
        near = g1_star(model, TransformArgs(theta=0.7, v=0.6, y=1.0 - 1e-7))
        assert abs(at - near) < 1e-6


class TestG2Star:
    def test_zero_initial_kills_gamma0(self):
        model = _std()
        for s in (0.0, 0.3, 0.8):
            got = _blocks_at(model, TransformArgs(theta=0.6, v=0.5, y=0.7), s)
            assert got.gamma0 == 0

    def test_exact_and_sampling_paths_agree(self):
        model = _std()
        for args in (
            TransformArgs(theta=0.5, v=0.7, y=0.8, u=0.9, w=0.1, x=0.2),
            TransformArgs(theta=2.0, v=0.4),
        ):
            e = g2_star(model, args)
            s = _sampled(model, args, _g2_integrand)
            assert abs(e - s) <= 1e-9 * max(abs(e), 1e-6)

    def test_continuous_across_tagging_coincidence(self):
        model = _std()
        at = g2_star(model, TransformArgs(theta=0.7, v=0.6, y=1.0))
        near = g2_star(model, TransformArgs(theta=0.7, v=0.6, y=1.0 - 1e-7))
        assert abs(at - near) < 1e-6


class TestGStar:
    def test_is_the_sum_of_parts(self):
        model = _std()
        args = TransformArgs(theta=0.8, v=0.5, y=0.9)
        assert g_star(model, args) == g1_star(model, args) + g2_star(model, args)

    @pytest.mark.parametrize("m", [3, 60])
    @pytest.mark.parametrize("marks", [Geometric(0.5), GeneralDiscrete([0.0, 0.5, 0.3, 0.2])], ids=["geometric", "pmf"])
    @pytest.mark.parametrize("initial", [DegenerateZero(), Exponential(0.6)], ids=["zero", "exp"])
    def test_one_pass_gives_both_parts_bitwise(self, m, marks, initial):
        model = ProcessModel(rate=1.0, marks=marks, observation=ObservationLaw(initial, Exponential(1.0)),
                             threshold=m)
        args = TransformArgs(theta=0.7, u=0.9, v=0.8, w=0.2, x=0.1, y=0.7)
        assert tuple(fl._g_parts(model, args)) == (g1_star(model, args), g2_star(model, args))

    def test_partition_identity(self, exp_initial_model):
        for model in (_std(), exp_initial_model):
            for theta in (0.1, 1.0, 10.0):
                total = theta * g_star(model, TransformArgs(theta=theta))
                assert abs(total + lst_tau_cross(model, theta) - 1.0) < 1e-10


class TestMarginalLsts:
    def test_hand_values_threshold_zero(self):
        # first arrival-free run of gaps: pre = (1-L(lam))/(1-L(th+lam)),
        # cross = (L(th)-L(th+lam))/(1-L(th+lam)); at lam=mu=th=1 these
        # are 3/4 and 1/4.
        model = _std(threshold=0)
        assert abs(lst_tau_cross(model, 1.0) - 0.25) < 1e-12
        assert abs(lst_tau_pre(model, 1.0) - 0.75) < 1e-12

    def test_hand_values_through_sampling_path(self):
        model = _std(threshold=0)
        args = TransformArgs(theta=1.0)
        g1, g2 = _sampled(model, args, _g1_integrand), _sampled(model, args, _g2_integrand)
        assert abs(1.0 - (g1 + g2) - 0.25) < 1e-9
        assert abs(1.0 - g1 - 0.75) < 1e-9

    def test_against_path_simulation(self):
        model = _std()
        rec = _crossing_sample(model, 200_000, 7)
        for theta in (0.5, 1.0):
            for lst, tau in ((lst_tau_pre, rec["tau_pre"]), (lst_tau_cross, rec["tau_cross"])):
                damped = np.exp(-theta * tau)
                se = damped.std() / np.sqrt(damped.size)
                assert abs(lst(model, theta).real - damped.mean()) < 4 * se

    def test_values_in_unit_interval_and_decreasing(self):
        model = _std()
        thetas = np.array([0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0])
        pre = np.array([lst_tau_pre(model, t).real for t in thetas])
        cross = np.array([lst_tau_cross(model, t).real for t in thetas])
        for vals in (pre, cross):
            assert np.all(vals > 0) and np.all(vals <= 1)
            assert np.all(np.diff(vals) < 0)
        assert np.all(cross <= pre + 1e-12)

    def test_normalization_at_small_theta(self):
        model = _std()
        assert abs(lst_tau_cross(model, 1e-6) - 1.0) < 1e-4
        assert abs(lst_tau_pre(model, 1e-6) - 1.0) < 1e-4

    def test_rejects_nonpositive_theta(self):
        model = _std()
        with pytest.raises(DomainError):
            lst_tau_pre(model, 0.0)
        with pytest.raises(DomainError):
            lst_tau_cross(model, -1.0)


class TestSeriesOrder:
    def test_sampling_path_truncation_is_exact(self):
        model = _std()
        args = TransformArgs(theta=0.9, u=0.95, v=0.55, w=0.05, x=0.1, y=0.8)
        m = model.threshold
        lo = _sampled(model, args, _g1_integrand)
        hi = d_inverse(_coeffs_by_sampling(partial(_g1_integrand, model, args), m + 5), m)
        assert abs(lo - hi) < 1e-12
        assert abs(lo - g1_star(model, args)) < 1e-12


class TestExactSeriesEngine:
    """The exact series route at large thresholds, on finite-pmf marks and at theta = 0."""

    def test_matches_special_model_at_large_thresholds(self):
        for m in (100, 300, 1000):
            model = _std(threshold=m)
            for theta in (0.5 / m, 2.0 / m, 0.5):
                for v in (1.0, 1.0 - 1.0 / (m + 1)):
                    got = g1_star(model, TransformArgs(theta=theta, v=v))
                    want = g1_star_special(model, theta, v)
                    assert abs(got - want) / abs(want) < 1e-10, (m, theta, v)

    def test_truncated_geometric_pmf_reproduces_geometric_marks(self):
        # 80 terms of the geometric(1/2) law miss a mass of 2**-80
        pmf = np.zeros(81)
        pmf[1:] = 0.5 ** np.arange(1, 81)
        for m in (60, 300):
            geometric = _std(threshold=m)
            truncated = _pmf(pmf / pmf.sum(), threshold=m)
            for args in (
                TransformArgs(theta=1.0 / m, u=0.99, v=0.995, w=0.001, x=0.2),
                TransformArgs(theta=0.3 / m, v=1.0 - 1.0 / (m + 1), y=0.9),
            ):
                for f in (g1_star, g2_star):
                    want = f(geometric, args)
                    assert abs(f(truncated, args) - want) / abs(want) < 1e-10, (m, f.__name__)

    def test_undamped_tagged_window_matches_simulation(self):
        model = _std(threshold=50)
        args = TransformArgs(theta=0.0, y=0.9)
        estimates = _sample_functionals(_functional_sample(model, args, 20_000, 3), args)
        for which, f in (("G1", g1_star), ("G2", g2_star)):
            est = estimates[which]
            assert abs(f(model, args).real - est.mean) < 5 * est.std_error, which

    def test_exp_initial_pmf_matches_sampling_route(self):
        model = _pmf([0.0, 0.5, 0.3, 0.2], initial=Exponential(2.0))
        for args in (
            TransformArgs(theta=0.9, u=0.95, v=0.55, w=0.05, x=0.1, y=0.8),
            TransformArgs(theta=0.5),
        ):
            for f, integrand in ((g1_star, _g1_integrand), (g2_star, _g2_integrand)):
                e, s = f(model, args), _sampled(model, args, integrand)
                assert abs(e - s) <= 1e-12 * max(abs(e), 1.0), f.__name__

    def test_pmf_crossing_lst_is_real_and_in_unit_interval(self):
        value = lst_tau_cross(_pmf(threshold=60), 1.0)
        assert value.imag == 0.0
        assert 0.0 < value.real <= 1.0

    def test_degenerate_marks_diverge(self):
        # all marks are zero, so the level never moves and the window is unbounded
        with pytest.raises(DivergenceError):
            g1_star(_pmf([1.0]), TransformArgs(theta=1.0))


class TestArrayTheta:
    """An ndarray theta gives, entry by entry, what a scalar theta gives."""

    @staticmethod
    def _model(m, marks, initial):
        law = Geometric(0.5) if marks == "geometric" else GeneralDiscrete([0.0, 0.5, 0.3, 0.2])
        start = DegenerateZero() if initial is None else Exponential(initial)
        return ProcessModel(rate=1.0, marks=law, observation=ObservationLaw(start, Exponential(1.0)), threshold=m)

    @staticmethod
    def _thetas(model):
        # the 38 Euler abscissae at the mean crossing time, four real points, as a 6 x 7 grid
        t = timedomain._mean_cross_time(model)
        k = np.arange(38)
        return np.concatenate([(25.0 + 2j * np.pi * k) / (2.0 * t), [0.3, 1.0, 4.0, 10.0]]).reshape(6, 7)

    @staticmethod
    def _assert_rows_match(batch, scalar_call, theta):
        single = np.array([scalar_call(complex(q)) for q in theta.ravel()]).reshape(theta.shape)
        assert batch.shape == theta.shape
        assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))

    @pytest.mark.parametrize("m", [3, 60, 300])
    @pytest.mark.parametrize("marks", ["geometric", "pmf"])
    @pytest.mark.parametrize("initial", [None, 0.6])
    def test_matches_scalar_calls(self, m, marks, initial):
        model = self._model(m, marks, initial)
        theta = self._thetas(model)
        tags = dict(u=0.9, v=0.8, w=0.2, x=0.1, y=0.7)
        for f in (g1_star, g2_star, g_star):
            batch = f(model, TransformArgs(theta=theta, **tags))
            self._assert_rows_match(batch, lambda q: f(model, TransformArgs(theta=q, **tags)), theta)
        for f in (lst_tau_pre, lst_tau_cross):
            self._assert_rows_match(f(model, theta), lambda q: f(model, q), theta)
        if marks == "geometric" and initial is None:
            batch = g1_star_special(model, theta, 0.8)
            self._assert_rows_match(batch, lambda q: g1_star_special(model, q, 0.8), theta)

    def test_scalar_theta_returns_complex(self):
        model = _std()
        for theta in (0.5, 0.5 + 1j, np.float64(0.5), np.array(0.5)):
            args = TransformArgs(theta=theta, v=0.8)
            for value in (g1_star(model, args), g2_star(model, args), g_star(model, args),
                          lst_tau_pre(model, theta), lst_tau_cross(model, theta), g1_star_special(model, theta, 0.8)):
                assert type(value) is complex

    def test_any_nonpositive_real_part_raises(self):
        model = _std()
        with pytest.raises(DomainError):
            lst_tau_pre(model, np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            lst_tau_cross(model, np.array([[1.0, 2.0], [-1.0 + 2.0j, 3.0]]))
        with pytest.raises(DomainError):
            g1_star(model, TransformArgs(theta=np.array([1.0, -0.5])))
