"""Window transforms: compound PGF, per-epoch transform, its contraction,
and the two-window functionals.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosswatch.errors import DomainError, UnsupportedLawError
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
    delay_lst,
    mark_pgf,
)
from crosswatch.transforms import f1_star, f2_star, gamma, lst_divided_diff, phi


def _model(rate=1.0, a=0.5, mu=1.0, m=3, initial=None):
    return ProcessModel(
        rate=rate,
        marks=Geometric(a),
        observation=ObservationLaw(
            initial=initial or DegenerateZero(), recurring=Exponential(mu)
        ),
        threshold=m,
    )


class TestPhi:
    def test_closed_form(self, std_model):
        z, s = 0.4 + 0.2j, 1.7
        g = mark_pgf(std_model.marks, z)
        assert phi(std_model, z, s) == pytest.approx(cmath.exp(1.0 * s * (g - 1.0)), rel=1e-14)

    def test_window_of_length_zero(self, std_model):
        assert phi(std_model, 0.3, 0.0) == 1.0

    @given(
        s=st.floats(0.0, 5.0),
        t=st.floats(0.0, 5.0),
        zr=st.floats(-0.9, 0.9),
    )
    def test_semigroup(self, s, t, zr):
        model = _model()
        left = phi(model, zr, s + t)
        right = phi(model, zr, s) * phi(model, zr, t)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-14)

    def test_rejects_outside_disk(self, std_model):
        with pytest.raises(DomainError):
            phi(std_model, 1.2, 1.0)
        with pytest.raises(DomainError):
            phi(std_model, 0.5, -0.1)
        for z, s in ((math.nan, 1.0), (complex(0.5, math.nan), 1.0), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(DomainError):
                phi(std_model, z, s)

    def test_mc_increment_transform(self, std_model):
        # E[z^{A(s)}] over 400k simulated windows, 5 sigma band
        rng = np.random.default_rng(19)
        s, z = 1.3, 0.6
        counts = rng.poisson(1.0 * s, 400_000)
        total = np.zeros(400_000)
        pos = counts > 0
        total[pos] = rng.negative_binomial(counts[pos], 0.5) + counts[pos]
        draws = z**total
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - phi(std_model, z, s).real) < 5 * se


class TestGamma:
    def test_exponential_gap_value(self):
        # L(theta + lam(1 - g(z))) with mu=2, lam=1, z=0.5, theta=0:
        # g(0.5) = 1/3, so gamma = 2 / (2 + 2/3) = 3/4
        model = _model(mu=2.0)
        assert gamma(model, "recurring", 0.5, 0.0) == pytest.approx(0.75, rel=1e-14)

    def test_zero_initial_gap(self, std_model):
        assert gamma(std_model, "initial", 0.5, 1.0) == 1.0

    def test_matches_lst_composition(self, std_model):
        z, theta = 0.3 + 0.4j, 0.8
        damp = theta + 1.0 * (1.0 - mark_pgf(std_model.marks, z))
        want = delay_lst(std_model.observation.recurring, damp)
        assert gamma(std_model, "recurring", z, theta) == pytest.approx(want, rel=1e-14)

    def test_bad_which(self, std_model):
        with pytest.raises(DomainError):
            gamma(std_model, "both", 0.5, 1.0)


class TestContraction:
    def test_boundary_fixed_point(self, std_model):
        assert abs(gamma(std_model, "recurring", 1.0, 0.0) - 1.0) < 1e-12

    @given(
        r=st.floats(0.0, 1.0 - 1e-6),
        phase=st.floats(0.0, 2.0 * math.pi),
        theta=st.floats(0.0, 3.0),
    )
    def test_norm_strictly_below_one(self, r, phase, theta):
        model = _model(rate=1.7, a=0.3, mu=0.8)
        z = r * cmath.exp(1j * phase)
        assert abs(gamma(model, "recurring", z, theta)) < 1.0


class TestWindowFunctionals:
    def test_f1_exponential_window_identity(self, std_model):
        # all tags neutral, theta=1, T ~ Exp(1):
        # E[(1 - e^{-T})] / 1 * 1 = 1/2
        args = TransformArgs(theta=1.0)
        val = f1_star(std_model, Exponential(1.0), DegenerateZero(), args)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_f2_product_identity(self, std_model):
        # L_T(1) * (1 - L_D(1)) = 1/2 * 1/2
        args = TransformArgs(theta=1.0)
        val = f2_star(std_model, Exponential(1.0), Exponential(1.0), args)
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_degenerate_second_window(self, std_model):
        # point-mass D contributes factor 1 in f1
        args = TransformArgs(theta=0.8, u=0.9, v=0.7)
        with_d = f1_star(std_model, Exponential(1.0), DegenerateZero(), args)
        lam = std_model.rate
        g = lambda z: mark_pgf(std_model.marks, z)
        damp0 = lam * (1.0 - g(args.u * args.v))
        dampt = args.theta + lam * (1.0 - g(args.u * args.v))
        lt = lambda q: delay_lst(Exponential(1.0), q)
        want = (lt(damp0) - lt(dampt)) / args.theta
        assert with_d == pytest.approx(want, rel=1e-12)

    def test_partition_of_pair_window(self, std_model):
        # f1 + f2 at neutral tags telescopes to E[1 - e^{-theta(T+D)}]/theta
        t_law, d_law = Exponential(1.0), Exponential(2.0)
        for theta in (0.3, 1.0, 2.5):
            args = TransformArgs(theta=theta)
            total = f1_star(std_model, t_law, d_law, args) + f2_star(std_model, t_law, d_law, args)
            want = (1.0 - (1.0 / (1.0 + theta)) * (2.0 / (2.0 + theta))) / theta
            assert total == pytest.approx(want, abs=1e-10)

    def test_removable_point_is_mean_window(self, std_model):
        # theta -> 0 at y=1 gives E[T] * L_D(...) exactly
        args = TransformArgs(theta=0.0)
        val = f1_star(std_model, Exponential(1.0), Exponential(1.0), args)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_continuity_through_removable_point(self, std_model):
        args_at = TransformArgs(theta=0.0, u=0.8, v=0.9)
        args_near = TransformArgs(theta=1e-9, u=0.8, v=0.9)
        at = f1_star(std_model, Exponential(1.0), Exponential(1.0), args_at)
        near = f1_star(std_model, Exponential(1.0), Exponential(1.0), args_near)
        assert at == pytest.approx(near, abs=1e-8)

    def test_two_stage_mc_oracle(self):
        # estimate F1(t) by simulation on a grid, then damp and integrate.
        # On {t < T} the three windows [0,t), [t,T), [T,T+D) carry
        # independent increments, so each may be drawn fresh per node as
        # long as the weight couples them jointly.
        model = _model(a=0.5, mu=1.0)
        args = TransformArgs(theta=0.9, u=0.8, v=0.7, w=0.2, x=0.1, y=0.6)
        exact = f1_star(model, Exponential(1.0), Exponential(1.5), args)

        rng = np.random.default_rng(23)
        n = 100_000
        T = rng.exponential(1.0, n)
        D = rng.exponential(1.0 / 1.5, n)
        t_max = -math.log(1e-6) / 0.9
        grid = np.linspace(0.0, t_max, 161)
        uvy = args.u * args.v * args.y
        uv = args.u * args.v
        tail = (args.v ** _compound(rng, model, D)) * np.exp(-args.w * T - args.x * D)
        vals = np.zeros(grid.size)
        for i, t in enumerate(grid):
            live = t < T
            head = uvy ** _compound(rng, model, np.full(n, t))
            mid = uv ** _compound(rng, model, np.where(live, T - t, 0.0))
            vals[i] = np.mean(head * mid * tail * live) * math.exp(-0.9 * t)
        mc = np.trapezoid(vals, grid)
        assert abs(mc - exact.real) / abs(exact.real) < 0.02


class TestLstDividedDiff:
    def test_exponential_matches_exact_rational_arithmetic(self):
        # at a separation near 1e-6, where a direct difference quotient would cancel
        for rate, zeta in ((1.0, 0.3), (2.5, 1.7), (0.5, 0.0), (1.0, 4.0)):
            d = 1.01e-6 * (1.0 + zeta)
            r, z, dd = Fraction(rate), Fraction(zeta), Fraction(d)
            want = float((r / (r + z) - r / (r + z + dd)) / dd)
            got = lst_divided_diff(Exponential(rate), zeta, d)
            assert abs(got - want) <= 1e-14 * want, (rate, zeta)

    def test_zero_gap_has_no_difference(self):
        assert lst_divided_diff(DegenerateZero(), 0.4, 1e-3) == 0

    def test_unknown_law_fails_loudly(self):
        with pytest.raises(UnsupportedLawError):
            f1_star(_model(), object(), Exponential(1.0), TransformArgs(theta=1.0))


def _compound(rng, model, lengths):
    counts = rng.poisson(model.rate * lengths)
    out = np.zeros(lengths.size)
    pos = counts > 0
    out[pos] = rng.negative_binomial(counts[pos], model.marks.a) + counts[pos]
    return out
