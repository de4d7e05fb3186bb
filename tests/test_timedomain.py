"""Exact time-domain laws: both survival curves and the crossing-level law.

The references are 50-digit mpmath evaluations that share no code with the
package: the level law A(s) by Panjer's recursion (finite pmf) or the
three-term recurrence of the geometric compound Poisson law, the mark total
over one gap by its own recursion, F_n = P{S_n <= M} in exact integer
arithmetic, the crossing-time law by quadrature when lam != mu, and the
crossing level by the renewal recursion of the chain of looks.
"""

import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from crosswatch import cli, timedomain
from crosswatch.errors import DivergenceError
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
)
from crosswatch.montecarlo import _crossing_sample

PMF = (0.0, 0.5, 0.3, 0.2)
# below this an exact value has no double counterpart; the computed one must be as small
UNDERFLOW = 1e-290


def _model(m, marks=PMF, lam=1.0, mu=1.0, first=None):
    marks = Geometric(marks) if isinstance(marks, float) else GeneralDiscrete(list(marks))
    initial = DegenerateZero() if first is None else Exponential(first)
    return ProcessModel(rate=lam, marks=marks, observation=ObservationLaw(initial, Exponential(mu)),
                        threshold=m)


def _marks(model):
    return None if isinstance(model.marks, Geometric) else [mpmath.mpf(float(p)) for p in model.marks.pmf]


def _mp_levels(model, s):
    """P{A(s) = j} for j = 0..M."""
    m, x, f = model.threshold, mpmath.mpf(model.rate) * s, _marks(model)
    if f is None:
        # (1 - b z)^2 G'(z) = x a G(z) for G = exp(-x + x a z / (1 - b z))
        a = mpmath.mpf(model.marks.a)
        b = 1 - a
        p = [mpmath.exp(-x), x * a * mpmath.exp(-x)]
        for j in range(1, m):
            p.append(((2 * b * j + x * a) * p[j] - b * b * (j - 1) * p[j - 1]) / (j + 1))
        return p[: m + 1]
    p = [mpmath.exp(-x * (1 - f[0]))]
    for j in range(1, m + 1):
        p.append(x / j * mpmath.fsum(k * f[k] * p[j - k] for k in range(1, min(j, len(f) - 1) + 1)))
    return p


def _mp_gap(model, rate, size):
    """P{mark total over one Exp(rate) gap = j} for j < size."""
    r, lam, f = mpmath.mpf(rate), mpmath.mpf(model.rate), _marks(model)
    if f is None:
        a = mpmath.mpf(model.marks.a)
        c = ((1 - a) * r + lam) / (r + lam)
        return [r / (r + lam)] + [r * a * lam / (r + lam) ** 2 * c ** (j - 1) for j in range(1, size)]
    p = []
    for j in range(size):
        inflow = lam * mpmath.fsum(f[k] * p[j - k] for k in range(1, min(j, len(f) - 1) + 1))
        p.append(((r if j == 0 else 0) + inflow) / (r + lam * (1 - f[0])))
    return p


def _mp_pre(model, t):
    """P{A(t + E) <= M}, E ~ Exp(mu)."""
    m = model.threshold
    cdf = np.cumsum(_mp_gap(model, model.observation.recurring.rate, m + 1))
    levels = _mp_levels(model, mpmath.mpf(t))
    return mpmath.fsum(levels[i] * cdf[m - i] for i in range(m + 1))


def _exact_sum_cdf(model):
    """F_n = P{S_n <= M} for the nonzero marks, in exact rational arithmetic."""
    m = model.threshold
    if isinstance(model.marks, Geometric):
        # P{Bin(M, a) >= n} with a = p / q: integer counts over q^M, summed from the top
        a = Fraction(model.marks.a)
        p, q = a.numerator, a.denominator
        count, tails = p**m, [p**m]  # C(M, k) p^k (q - p)^(M - k), from k = M down
        for k in range(m, 0, -1):
            count = count * k * (q - p) // ((m - k + 1) * p)
            tails.append(tails[-1] + count)
        return [mpmath.mpf(x) / mpmath.mpf(q) ** m for x in reversed(tails)]
    # PMF in tenths, zero mark dropped: integer counts of the ways to reach each level
    assert tuple(model.marks.pmf) == PMF
    weights = [int(round(10 * p)) for p in PMF[1:]]
    row = np.zeros(m + 1, dtype=object)
    row[0] = 1
    out = []
    for n in range(m + 1):
        out.append(mpmath.mpf(int(row.sum())) / mpmath.mpf(10) ** n)
        new = np.zeros(m + 1, dtype=object)
        for k, w in enumerate(weights, start=1):
            new[k:] += w * row[: m + 1 - k]
        row = new
    return out


def _mp_cross_equal_rates(model, t, sum_cdf):
    """lam = mu: e^{-mu t} + sum_n P{Poisson(lam t) = n + 1} F_n."""
    x = mpmath.mpf(model.rate) * t
    term, total = mpmath.exp(-x), mpmath.exp(-x)
    for n, f in enumerate(sum_cdf):
        term *= x / (n + 1)
        total += term * f
    return total


def _mp_cross_quad(model, t):
    """e^{-mu t} + int_0^t mu e^{-mu s} P{A(t - s) <= M} ds, by quadrature."""
    mu = mpmath.mpf(model.observation.recurring.rate)
    t = mpmath.mpf(t)
    integrand = lambda s: mu * mpmath.exp(-mu * s) * mpmath.fsum(_mp_levels(model, t - s))
    # A(t - s) <= M only for s near t once t is long
    near = max(mpmath.mpf(0), t - 40 * (model.threshold + 10) / mpmath.mpf(model.rate))
    knots = sorted({mpmath.mpf(0), near, t})
    return mpmath.exp(-mu * t) + mpmath.quad(integrand, knots)


def _mp_visits(model, jumps):
    """Expected looks at the levels 0..M from a zero start, by the renewal recursion of the looks
    over ``jumps``, the law of the mark total over one gap through at least M."""
    visits = []
    for k in range(model.threshold + 1):
        inflow = mpmath.fdot(jumps[1 : k + 1], visits[::-1]) if k else 0
        visits.append(((1 if k == 0 else 0) + inflow) / (1 - jumps[0]))
    return visits


def _mp_levels_crossed(model, r_max):
    """P{A_nu = r} for r = 0..r_max by the renewal recursion of the looks."""
    m = model.threshold
    jumps = _mp_gap(model, model.observation.recurring.rate, r_max + 1)
    visits = _mp_visits(model, jumps)
    return [0] * (m + 1) + [mpmath.fdot(visits, jumps[r - m : r + 1][::-1]) for r in range(m + 1, r_max + 1)]


def _assert_close(got, exact, rel, label):
    for g, e in zip(got, exact):
        if e < UNDERFLOW:
            assert g < UNDERFLOW / 1e-12, (label, g, e)
        else:
            assert abs(g - e) <= rel * e, (label, float(g), float(e), float(abs(g - e) / e))


class TestAgainstHighPrecision:
    @pytest.mark.parametrize("m, marks", [(60, PMF), (1000, PMF), (300, 0.5), (10_000, 0.5)])
    def test_equal_rates(self, m, marks):
        model = _model(m, marks)
        mean = timedomain._mean_cross_time(model)
        times = [f * mean for f in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]
        pre, cross = timedomain.survival_pre(model, times), timedomain.survival_cross(model, times)
        law, overshoot = timedomain.crossing_level_law(model, m + 200)
        with mpmath.workdps(50):
            _assert_close(pre, [_mp_pre(model, t) for t in times], 1e-12, "pre")
            sum_cdf = _exact_sum_cdf(model)
            _assert_close(cross, [_mp_cross_equal_rates(model, t, sum_cdf) for t in times], 1e-12, "cross")
            if isinstance(model.marks, Geometric):
                # the overshoot is geometric with ratio c = 3/4 here
                exact = [0] * (m + 1) + [mpmath.mpf(1) / 4 * (mpmath.mpf(3) / 4) ** (r - m - 1)
                                         for r in range(m + 1, m + 201)]
                mean_exact = mpmath.mpf(4)
            else:
                exact = _mp_levels_crossed(model, m + 400)
                mean_exact = mpmath.fsum((r - m) * p for r, p in enumerate(exact))
            _assert_close(law[m + 1 :], exact[m + 1 : m + 201], 1e-12, "level")
            assert abs(overshoot - mean_exact) <= 1e-12 * mean_exact
        assert not law[: m + 1].any()

    @pytest.mark.parametrize("lam, mu, first", [
        (2.0, 0.7, None), (0.5, 3.0, None), (2.0, 0.7, 0.7), (0.5, 3.0, 3.0), (2.0, 0.01, None),
    ])
    def test_unequal_rates_with_zero_marks(self, lam, mu, first):
        model = _model(5, (0.2, 0.4, 0.3, 0.1), lam, mu, first)
        mean = timedomain._mean_cross_time(model)
        times = [0.0, 0.5 * mean, mean, 3.0 * mean]
        if mu < 0.1:
            times.append(3000.0)  # lam t far above M: the closed-form geometric tail
        pre, cross = timedomain.survival_pre(model, times), timedomain.survival_cross(model, times)
        law, overshoot = timedomain.crossing_level_law(model, 25)
        with mpmath.workdps(50):
            _assert_close(pre, [_mp_pre(model, t) for t in times], 1e-12, "pre")
            _assert_close(cross, [_mp_cross_quad(model, t) for t in times], 1e-12, "cross")
            # the truncated mean sum needs the overshoot tail, which is long for rare looks
            exact = _mp_levels_crossed(model, 600 if mu >= 0.1 else 15_000)
            _assert_close(law[6:], exact[6:26], 1e-12, "level")
            mean_exact = mpmath.fsum((r - 5) * p for r, p in enumerate(exact))
            assert abs(overshoot - mean_exact) <= 1e-12 * mean_exact


class TestExactProducts:
    """Every head is taken at the exact product rate t, so an inexact rate costs no digits."""

    @pytest.mark.parametrize("m", [3, 60, 300, 1000])
    @pytest.mark.parametrize("rate", [0.7, 1.3])
    def test_equal_inexact_rates(self, rate, m):
        model = _model(m, 0.5, rate, rate)
        mean = timedomain._mean_cross_time(model)
        times = [100.0, 500.0, 900.0] + [f * mean for f in (0.5, 2.0, 3.0)]
        pre, cross = timedomain._survival_laws(model, times)
        with mpmath.workdps(40):
            sum_cdf = _exact_sum_cdf(model)
            _assert_close(pre, [_mp_pre(model, t) for t in times], 1e-14, "pre")
            _assert_close(cross, [_mp_cross_equal_rates(model, t, sum_cdf) for t in times], 1e-14, "cross")

    @pytest.mark.parametrize("first", [None, 0.4])
    def test_times_past_the_split_range(self, first):
        # 2^27 t overflows past t = 1.3e300: the exact product is nan there, and its row is zero anyway
        model = _model(60, 0.5, 0.7, 0.7, first)
        pre, cross = timedomain._survival_laws(model, [1e305, 1.5e308])
        assert pre.tolist() == [0.0, 0.0] and cross.tolist() == [0.0, 0.0]


class TestVisits:
    @pytest.mark.parametrize("m", [3, 60, 300])
    @pytest.mark.parametrize("lam, mu", [(0.7, 1.3), (1.3, 0.4), (1.0, 1.0)])
    @pytest.mark.parametrize("pmf", [(0.1, 0.5, 0.3, 0.1), PMF, (0.3, 0.2, 0.2, 0.3)])
    def test_match_the_renewal_recursion(self, pmf, lam, mu, m):
        model = _model(m, pmf, lam, mu)
        got = timedomain._visits(model)
        with mpmath.workdps(40):
            exact = _mp_visits(model, _mp_gap(model, mu, m + 1))
            _assert_close(got, exact, 2e-14, (pmf, lam, mu))


class TestFarTail:
    @pytest.mark.parametrize("m", [1, 3, 60, 300, 1000])
    def test_far_factor_matches_the_regularized_gamma(self, m, monkeypatch):
        # lam' = 2, mu = 1: rho = g = 1/2 exactly and y = t.  With no head, F_M = 1 and the other F_n
        # zero, and the factor g^{-(M+1)} e^{-mu t} taken as 1, the last look is rho P{Poisson(y) >= M + 2}
        monkeypatch.setattr(timedomain, "_exp_less", lambda s, rate, grid: np.ones(grid.size))
        ys = np.linspace(m + 2.0, 20.0 * (m + 2) + 100.0, 61)
        tails = np.zeros(m + 1)
        tails[-1] = 1.0
        got = 2.0 * timedomain._last_look(np.zeros((ys.size, m + 2)), tails, 2.0, 1.0, ys)
        with mpmath.workdps(40):
            exact = [mpmath.gammainc(m + 2, 0, y, regularized=True) for y in ys.tolist()]
            _assert_close(got, exact, 1e-15, m)


class TestAgainstSimulation:
    @pytest.mark.parametrize("first", [1.6, 4.0])
    def test_exponential_start_with_unequal_rates(self, first):
        # first = mu is the config's "exp" start; first = 4 checks the general first gap,
        # including the nu = 0 convention tau_pre = 0 of a crossing at the first look
        model = _model(6, (0.2, 0.4, 0.3, 0.1), 2.5, 1.6, first)
        n = 200_000
        sample = _crossing_sample(model, n, seed=11)
        times = np.array([0.5, 1.0, 2.0, 4.0])
        for key, law in (("tau_pre", timedomain.survival_pre), ("tau_cross", timedomain.survival_cross)):
            exact = law(model, times)
            freq = (sample[key][:, None] > times).mean(axis=0)
            assert np.all(np.abs(freq - exact) <= 5.0 * np.sqrt(exact * (1 - exact) / n)), key
        pmf, overshoot = timedomain.crossing_level_law(model, 16)
        freq = np.bincount(sample["a_cross"], minlength=17)[7:17] / n
        assert np.all(np.abs(freq - pmf[7:]) <= 5.0 * np.sqrt(pmf[7:] * (1 - pmf[7:]) / n))
        over = sample["a_cross"] - 6
        assert abs(over.mean() - overshoot) <= 5.0 * over.std() / math.sqrt(n)


class TestClosedFormFamily:
    @pytest.mark.parametrize("m", [3, 300, 1000])
    def test_level_law_is_the_geometric_overshoot(self, m):
        # geometric(1/2) marks, lam = mu = 1: the overshoot is geometric with c = 3/4
        law, mean = timedomain.crossing_level_law(_model(m, 0.5), m + 200)
        c = 0.75
        exact = np.array([(1.0 - c) * c ** (r - m - 1) if r > m else 0.0 for r in range(m + 201)])
        assert np.all(np.abs(law - exact) <= 1e-13 * exact)
        assert abs(mean - 1.0 / (1.0 - c)) <= 1e-13 * mean

    @pytest.mark.parametrize("lam, marks", [(1e-11, 0.5), (0.7, (1.0 - 2.0**-40, 2.0**-40))])
    def test_a_slow_moving_level_keeps_its_law(self, lam, marks):
        # lam' = lam (1 - f0) is below 1e-10: slow arrivals, or a nonzero mark in 2^40; each level
        # is seen about 1 / lam' times, and lam D - lam N would cancel to that size
        model = _model(5, marks, lam)
        law, mean = timedomain.crossing_level_law(model, 60)
        with mpmath.workdps(40):
            exact = _mp_levels_crossed(model, 60)
            _assert_close(law, exact, 1e-13, marks)
            mean_exact = mpmath.fsum((r - 5) * p for r, p in enumerate(exact))
            assert abs(mean - mean_exact) <= 1e-13 * mean_exact
            looks = mpmath.fsum(_mp_visits(model, _mp_gap(model, 1.0, 6)))
            assert abs(timedomain._mean_cross_time(model) - looks) <= 1e-13 * looks

    def test_exponential_start_at_the_gap_rate_keeps_the_laws(self):
        zero, late = _model(40, PMF, 1.3, 0.8), _model(40, PMF, 1.3, 0.8, first=0.8)
        times = np.linspace(0.0, 100.0, 11)
        for law in (timedomain.survival_pre, timedomain.survival_cross):
            assert np.allclose(law(zero, times), law(late, times), rtol=1e-13, atol=0.0)
        assert np.allclose(timedomain.crossing_level_law(zero, 80)[0],
                           timedomain.crossing_level_law(late, 80)[0], rtol=1e-13, atol=0.0)


class TestEdges:
    def test_zero_threshold(self):
        lam, mu, f0 = 1.5, 0.6, 0.2
        model = _model(0, (f0, 0.5, 0.3), lam, mu)
        lam_moving = lam * (1 - f0)
        times = np.array([0.0, 0.7, 3.0])
        pre = np.exp(-lam_moving * times) * mu / (mu + lam_moving)
        # e^{-mu t} + int_0^t mu e^{-mu s} e^{-lam' (t - s)} ds
        gap = np.exp(-mu * times) - np.exp(-lam_moving * times)
        cross = np.exp(-mu * times) + mu * gap / (lam_moving - mu)
        assert np.allclose(timedomain.survival_pre(model, times), pre, rtol=1e-14, atol=0.0)
        assert np.allclose(timedomain.survival_cross(model, times), cross, rtol=1e-14, atol=0.0)
        law, mean = timedomain.crossing_level_law(model, 12)
        jumps = timedomain._gap_law(model, mu, 12)
        assert law[0] == 0.0
        assert np.allclose(law[1:], jumps[1:] / (1.0 - jumps[0]), rtol=1e-14, atol=0.0)
        assert abs(mean - lam * 1.1 / mu / (1.0 - jumps[0])) <= 1e-14 * mean

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.0, 0.7), (0.5, 3.0), (1.0, 1e-6)])
    def test_huge_arrival_count_is_cheap(self, lam, mu):
        model = _model(60, PMF, lam, mu)
        start = time.perf_counter()
        pre = timedomain.survival_pre(model, [1e7 / lam])
        cross = timedomain.survival_cross(model, [1e7 / lam])
        assert time.perf_counter() - start < 0.1
        assert pre[0] == 0.0
        # no look yet (chance e^{-mu t}) is the bulk of what is left
        assert math.exp(-mu * 1e7 / lam) <= cross[0] <= 2.0 * math.exp(-mu * 1e7 / lam)

    def test_all_zero_marks_diverge(self):
        # the model refuses marks that never move the level, so no law is ever asked for
        for marks in ((1.0,), (1.0, 0.0)):
            with pytest.raises(DivergenceError, match="every mark is zero"):
                _model(3, marks)


def _count_sum_cdf(monkeypatch) -> list:
    calls = []
    sum_cdf = timedomain._sum_cdf
    monkeypatch.setattr(timedomain, "_sum_cdf", lambda model: calls.append(model) or sum_cdf(model))
    return calls


class TestOneSumCdfPerCall:
    @pytest.mark.parametrize("model", [_model(40), _model(40, first=2.5), _model(30, 0.5, 2.0, 0.7)])
    def test_both_laws_match_the_public_ones_bitwise(self, model, monkeypatch):
        times = np.array([0.0, 3.0, 30.0])
        pre, cross = timedomain.survival_pre(model, times), timedomain.survival_cross(model, times)
        calls = _count_sum_cdf(monkeypatch)
        both = timedomain._survival_laws(model, times)
        assert len(calls) == 1
        assert np.array_equal(both[0], pre) and np.array_equal(both[1], cross)

    @pytest.mark.parametrize("model", [_model(40), _model(40, first=2.5), _model(30, 0.5, 2.0, 0.7)])
    def test_each_public_law_does_only_its_own_work(self, model, monkeypatch):
        times = np.array([0.0, 3.0, 30.0])
        pre, cross = timedomain._survival_laws(model, times)

        def refuse(*args):
            raise AssertionError("the other law's work")

        monkeypatch.setattr(timedomain, "_smoothing", refuse)
        assert np.array_equal(timedomain.survival_cross(model, times), cross)
        monkeypatch.undo()
        monkeypatch.setattr(timedomain, "_last_look", refuse)
        assert np.array_equal(timedomain.survival_pre(model, times), pre)

    @pytest.mark.parametrize("command, keys", [("survival", {"t_grid": [0.5, 2.0]}),
                                               ("predict", {"horizon": 2.0, "t_steps": 3})])
    def test_commands_compute_the_mark_sums_once(self, command, keys, tmp_path, monkeypatch, capsys):
        model = {"lambda": 1.0, "marks": {"pmf": list(PMF)}, "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 60}
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schema_version": 1, "model": model, **keys}))
        calls = _count_sum_cdf(monkeypatch)
        assert cli.main([command, "--config", str(config)]) == 0
        assert capsys.readouterr().out
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# test-only reference: the kernel as it stood with one Poisson window per law and time


def _window(x, n_max):
    """Poisson(x) pmf over its mode's on 0..hi, hi >= n_max + spread, walked out from the mode;
    None if 0..n_max is negligible."""
    spread = timedomain._spread(x)
    if n_max < x - spread:
        return None
    ratio, mode = x / np.arange(1.0, math.floor(max(n_max, x) + spread) + 1), int(x)
    u = np.ones(ratio.size + 1)
    u[mode + 1 :] = np.cumprod(ratio[mode:])
    u[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return u


def _ref_next_look(tails, lam, rate, grid):
    big_m, q = tails.size - 1, lam / (lam + rate)
    w, acc = np.empty(big_m + 1), 0.0
    for n in range(big_m, -1, -1):
        w[n] = acc = (1.0 - q) * tails[n] + q * acc
    out = np.zeros(grid.size)
    for i, t in enumerate(grid):
        u = _window(lam * float(t), big_m)
        if u is not None:
            out[i] = (u[: big_m + 1] @ w) / u.sum()
    return out


def _ref_last_look(tails, lam, mu, grid):
    big_m = tails.size - 1
    out = np.zeros(grid.size)
    if lam >= mu:
        rho, g = mu / lam, (lam - mu) / lam
        v = np.zeros(big_m + 2)
        for k in range(1, big_m + 2):
            v[k] = tails[k - 1] + g * v[k - 1]
        for i, t in enumerate(grid):
            x = lam * float(t)
            u = _window(x, big_m + 1)
            if u is not None:
                ext = np.concatenate((v[1:], v[-1] * g ** np.arange(1.0, u.size - big_m - 1)))
                out[i] = rho * (u[1:] @ ext) / u.sum()
            elif g > 0.0:
                tail = _window(g * x, big_m + 1)
                upper = 1.0 if tail is None else tail[big_m + 1 :].sum() / tail.sum()
                if upper > 0.0:
                    log_t = -mu * float(t) - (big_m + 1) * math.log(g) + math.log(upper)
                    out[i] = rho * v[-1] * math.exp(min(log_t, 0.0))
        return out
    for i, t in enumerate(grid):
        u = _window(lam * float(t), big_m)
        if u is not None and t > 0.0:
            means = timedomain._reciprocal_means((mu - lam) * float(t), big_m + 1)
            out[i] = mu * float(t) * ((u[: big_m + 1] * means) @ tails) / u.sum()
    return out


def _exp_neg(rate, grid):
    """e^{-rate t} rounded once, with no rounding of rate t."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.exp(-mpmath.mpf(rate) * t)) for t in grid.tolist()])


def _ref_laws(model, grid, tails):
    lam, mu, eta = timedomain._moving_rate(model), model.observation.recurring.rate, model.first_rate
    pre = _ref_next_look(tails, lam, mu, grid)
    cross = _exp_neg(mu if eta is None else eta, grid) + _ref_last_look(tails, lam, mu, grid)
    if eta is not None and eta != mu:
        pre = _exp_neg(eta, grid) * _ref_next_look(tails, lam, eta, grid) + -np.expm1(-eta * grid) * pre
        kappa = lam + eta
        scaled = tails * (lam / kappa) ** np.arange(tails.size)
        cross += (eta - mu) / mu * _ref_last_look(scaled, kappa, mu, grid)
    return np.minimum(pre, 1.0), np.clip(cross, 0.0, 1.0)


def _mp_last_look(tails, lam, mu, times):
    """lam >= mu: sum_n W_n(t) F_n over the times in closed form, rho sum_{k <= M + 1} P{N'(t) = k} V_k
    plus rho V_{M+1} g^{-(M+1)} e^{-mu t} P{Poisson(g lam t) >= M + 2}, rho = mu / lam, g = 1 - rho."""
    lam, mu = mpmath.mpf(lam), mpmath.mpf(mu)
    rho = mu / lam
    g, big_m = 1 - rho, len(tails) - 1
    v = [mpmath.mpf(0)]  # V_0..V_{M+1}
    for f in tails:
        v.append(f + g * v[-1])
    out = []
    for t in map(mpmath.mpf, times):
        x = lam * t
        total, term = mpmath.mpf(0), mpmath.exp(-x)
        for k in range(1, big_m + 2):
            term *= x / k
            total += term * v[k]
        if g > 0:
            upper = mpmath.gammainc(big_m + 2, 0, g * x, regularized=True)
            total += v[-1] * g ** -(big_m + 1) * mpmath.exp(-mu * t) * upper
        out.append(rho * total)
    return out


def _mp_cross(model, times, tails):
    """P{tau_cross > t} over the times for lam' >= mu from the closed form above, on the double F_n."""
    lam, mu, eta = timedomain._moving_rate(model), model.observation.recurring.rate, model.first_rate
    f = [mpmath.mpf(x) for x in tails.tolist()]
    first = mpmath.mpf(mu if eta is None else eta)
    out = [mpmath.exp(-first * t) + w for t, w in zip(times, _mp_last_look(f, lam, mu, times))]
    if eta is not None and eta != mu:
        kappa = mpmath.mpf(lam) + eta
        scaled = [x * (lam / kappa) ** n for n, x in enumerate(f)]
        late = _mp_last_look(scaled, kappa, mu, times)
        out = [o + (mpmath.mpf(eta) - mu) / mu * w for o, w in zip(out, late)]
    return out


class TestOneWindowPerTime:
    # moving rate lam' against the look rate mu: faster, equal, slower
    RATES = {"fast": (2.0, 0.05), "equal": (1.0, 1.0), "slow": (0.5, 3.0)}
    F0_PMF = (0.5, 0.3, 0.2)  # lam' = lam / 2 exactly

    @pytest.mark.parametrize("marks", [0.5, F0_PMF], ids=["geometric", "pmf"])
    @pytest.mark.parametrize("m", [0, 1, 3, 60, 300, 1000])
    def test_matches_the_two_window_kernel(self, m, marks):
        scale = 1.0 if isinstance(marks, float) else 1.0 / (1.0 - marks[0])
        for regime, (moving, mu) in self.RATES.items():
            lam = moving * scale
            for first in (None, mu, 0.4):
                model = _model(m, marks, lam, mu, first)
                assert timedomain._moving_rate(model) == moving
                mean = timedomain._mean_cross_time(model)
                times = sorted([f * mean for f in (0.0, 0.1, 0.5, 1.0, 2.0)]
                               + [400.0, 600.0, 800.0 / lam,  # lam t > 745: e^{-lam t} underflows
                                  (10.0 * (m + 1) + 3000.0) / moving])  # lam' t far above M
                grid = np.array(times)
                tails = timedomain._sum_cdf(model)
                got = timedomain._survival_laws(model, grid)
                ref = _ref_laws(model, grid, tails)
                assert np.allclose(got[0], ref[0], rtol=1e-14, atol=1e-300), (regime, first, got[0], ref[0])
                if regime == "fast":
                    far = moving * times[-1]
                    assert m + 1 < far - timedomain._spread(far) and got[1][-1] > 0.0
                if moving > mu or (first == 0.4 and moving + first > mu):
                    # the reference sums g^{k-M-1} with the rounded g, whose error grows with t, for a
                    # last look at a rate above mu: lam', or kappa = lam' + 0.4 for an Exp(0.4) start
                    with mpmath.workdps(40):
                        _assert_close(got[1], _mp_cross(model, times, tails), 1e-14, (regime, first))
                else:
                    assert np.allclose(got[1], ref[1], rtol=1e-14, atol=1e-300), (regime, first, got[1], ref[1])
                if regime == "slow" and m > 0:  # E[1 / (c + I)] both from the downward and upward runs
                    assert (mu - moving) * times[1] < m + 1 < (mu - moving) * times[-1]

    @pytest.mark.parametrize("m, marks", [(400, (0.0, 0.99, 0.01)), (1000, 0.999)], ids=["pmf", "geometric"])
    def test_tail_past_the_head_near_the_look_rate(self, m, marks):
        # g = 1 - mu / lam' = 0.05: P{Poisson(g lam' t) >= M + 2} underflows where the terms past
        # M + 1 still hold a share of P{tau_cross > t}, as marks of 1 keep F_M near 1
        for first in (None, 0.4):
            model = _model(m, marks, 2.0, 1.9, first)
            times = [f * timedomain._mean_cross_time(model) for f in (0.1, 0.5, 0.8, 1.0, 1.5, 2.0)]
            tails = timedomain._sum_cdf(model)
            got = timedomain.survival_cross(model, times)
            with mpmath.workdps(40):
                _assert_close(got, _mp_cross(model, times, tails), 1e-14, first)

    @pytest.mark.parametrize("first, looks", [(None, 1), (1.0, 1), (2.5, 2)])
    def test_one_head_per_rate(self, first, looks, monkeypatch):
        model = _model(60, 0.5, first=first)
        grid = np.linspace(0.0, 2.0 * timedomain._mean_cross_time(model), 7)
        heads, calls, uppers, means = [], [], [], []
        build, look = timedomain._poisson_heads, timedomain._last_look
        tails, recip = timedomain._poisson_tails, timedomain._reciprocal_means
        monkeypatch.setattr(timedomain, "_poisson_heads", lambda xs, n_max: heads.append(xs) or build(xs, n_max))
        monkeypatch.setattr(timedomain, "_last_look", lambda h, *a: calls.append(h) or look(h, *a))
        monkeypatch.setattr(timedomain, "_poisson_tails", lambda *a: uppers.append(a) or tails(*a))
        monkeypatch.setattr(timedomain, "_reciprocal_means", lambda *a: means.append(a) or recip(*a))
        timedomain._survival_laws(model, grid)
        # one head of every time per rate, lam' = mu = 1 and for the Exp(2.5) start kappa = lam' + eta,
        # and one last-look sum per head
        assert len(calls) == looks and means == []
        for xs, rate in zip(heads, [1.0, 1.0 + (first or 0.0)][:looks]):
            assert np.allclose(xs, rate * grid, rtol=1e-15, atol=0.0), (rate, xs)
        if looks == 1:  # lam' = mu: the head is the whole Poisson work
            assert uppers == [] and len(heads) == 1
        else:  # kappa > mu: the upper tail is one more head, at (kappa - mu) t for the times where it is >= M + 2 = 62
            y = 2.5 * grid
            assert uppers == [] and len(heads) == 3 and np.allclose(heads[2], y[y >= 62.0])
        heads.clear(), calls.clear()
        timedomain.survival_pre(model, grid)
        assert len(heads) == 1 and calls == []


def _mp_poisson_row(x, n_max):
    """P{Poisson(x) = n} for n = 0..n_max, from e^-x by the ratios x / n."""
    x = mpmath.mpf(x)
    row = [mpmath.exp(-x)]
    for n in range(1, n_max + 1):
        row.append(row[-1] * x / n)
    return row


class TestPoissonHeads:
    XS = [0.0, 0.3, 2.8, 43.2, 243.2, 400.0, 800.0, 1500.0]

    @pytest.mark.parametrize("n_max", [4, 51, 301, 1001])
    def test_rows_match_high_precision(self, n_max):
        heads = timedomain._poisson_heads(self.XS, n_max)
        assert heads.shape == (len(self.XS), n_max + 1)
        with mpmath.workdps(50):
            for x, row in zip(self.XS, heads.tolist()):
                for n, (got, exact) in enumerate(zip(row, _mp_poisson_row(x, n_max))):
                    if exact > 1e-300:
                        assert abs(got - exact) <= 4e-15 * exact, (x, n, float(abs(got - exact) / exact))
                    else:
                        assert got < UNDERFLOW, (x, n, got)

    def test_every_stirling_table_entry(self):
        # modes 1..15 read _STIRLERR, 16..42 the series; every row is anchored at its mode
        xs = [k + 0.5 for k in range(1, 43)]
        heads = timedomain._poisson_heads(xs, 44)
        with mpmath.workdps(50):
            for x, row in zip(xs, heads.tolist()):
                for n, (got, exact) in enumerate(zip(row, _mp_poisson_row(x, 44))):
                    assert abs(got - exact) <= 4e-15 * exact, (x, n, float(abs(got - exact) / exact))

    def test_zero_time_and_negligible_rows(self):
        xs = [0.0, 5000.0, 1e7]
        heads = timedomain._poisson_heads(xs, 60)
        assert heads[0].tolist() == [1.0] + [0.0] * 60
        for x, row in zip(xs[1:], heads[1:]):
            assert 60 < x - timedomain._spread(x) and not row.any()

    @pytest.mark.parametrize("model", [_model(40), _model(40, 0.5, 2.0, 0.05), _model(40, PMF, 0.5, 3.0, 0.4)],
                             ids=["equal", "fast", "slow"])
    def test_grid_rows_match_single_time_calls(self, model):
        mean = timedomain._mean_cross_time(model)
        for grid in ([0.7 * mean], [mean, mean, 0.0, 3.0 * mean, 0.2 * mean, mean, 400.0 / model.rate]):
            xs = [model.rate * t for t in grid]
            heads = timedomain._poisson_heads(xs, 41)
            laws = timedomain._survival_laws(model, grid)
            for i, t in enumerate(grid):
                assert np.array_equal(heads[i], timedomain._poisson_heads([xs[i]], 41)[0])
                # the laws are matrix-vector products, whose rounding may change with the shape
                one = timedomain._survival_laws(model, [t])
                assert np.allclose([laws[0][i], laws[1][i]], [one[0][0], one[1][0]], rtol=1e-15, atol=0.0), (i, t)


class TestReciprocalMeans:
    @pytest.mark.parametrize("size", [2, 4, 61, 301, 1001])
    def test_match_the_poisson_sums(self, size):
        # y < size - 1 runs downward above y, from far above size; larger y runs upward only
        for y in (0.01, 0.7, size / 3.0, size - 1.5, size - 1.01, size + 0.5):
            got = timedomain._reciprocal_means(y, size)
            split = math.floor(y) + 1
            cs = set(range(1, size + 1, max(1, size // 8))) | {split - 1, split, split + 1, split + 2, size}
            with mpmath.workdps(40):
                x = mpmath.mpf(y)
                weights = [mpmath.exp(-x)]
                for i in range(1, int(y + 40.0 * math.sqrt(y) + 100.0)):
                    weights.append(weights[-1] * x / i)
                for c in sorted(c for c in cs if 1 <= c <= size):
                    exact = mpmath.fsum(w / (c + i) for i, w in enumerate(weights))
                    assert abs(got[c - 1] - exact) <= 1.1e-15 * exact, (y, c, float(abs(got[c - 1] - exact) / exact))


class TestSumCdf:
    @pytest.mark.parametrize("pmf", [(0.1, 0.5, 0.3, 0.1), (0.0, 0.0, 0.5, 0.0, 0.5)])
    def test_trimmed_rows_keep_the_sums(self, pmf):
        # the rows' ends fall below 1e-300 of their peaks from n of a few hundred on
        model = _model(2000, pmf)
        step = np.concatenate(([0.0], model.marks.pmf[1:] / (1.0 - model.marks.pmf[0])))
        full, row = [], np.ones(1)
        for n in range(2001):
            full.append(row.sum())
            row = np.convolve(row, step)[1 : 2000 - n + 1]
        full = np.array(full)
        got = timedomain._sum_cdf(model)
        normal = full > 1e-280
        assert np.allclose(got[normal], full[normal], rtol=1e-15, atol=0.0)
        assert np.all(got[~normal] < 1e-270)


class TestCommandLine:
    def test_large_threshold_survival_exits_zero(self, tmp_path, capsys):
        # Euler inversion exits 3 here: its error estimate at t = 620 is 5.4e-6
        config = tmp_path / "run.json"
        config.write_text('{"schema_version": 1, "t_grid": [620.0], "model": {"schema_version": 1,'
                          ' "lambda": 1.0, "marks": {"pmf": [0, 0.5, 0.3, 0.2]},'
                          ' "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 1000}}')
        assert cli.main(["survival", "--config", str(config)]) == 0
        _, pre, cross = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert abs(float(pre) - 0.118) < 5e-4
        assert float(pre) < float(cross) < 1.0
