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


def _mp_levels_crossed(model, r_max):
    """P{A_nu = r} for r = 0..r_max by the renewal recursion of the looks."""
    m = model.threshold
    jumps = _mp_gap(model, model.observation.recurring.rate, r_max + 1)
    visits = []
    for k in range(m + 1):
        inflow = mpmath.fdot(jumps[1 : k + 1], visits[::-1]) if k else 0
        visits.append(((1 if k == 0 else 0) + inflow) / (1 - jumps[0]))
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
        for model in (_model(3, (1.0,)), _model(3, (1.0, 0.0))):
            for call in (lambda: timedomain.survival_pre(model, [1.0]),
                         lambda: timedomain.survival_cross(model, [1.0]),
                         lambda: timedomain._survival_laws(model, [1.0]),
                         lambda: timedomain.crossing_level_law(model, 10)):
                with pytest.raises(DivergenceError):
                    call()


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


def _ref_next_look(tails, lam, rate, grid):
    big_m, q = tails.size - 1, lam / (lam + rate)
    w, acc = np.empty(big_m + 1), 0.0
    for n in range(big_m, -1, -1):
        w[n] = acc = (1.0 - q) * tails[n] + q * acc
    out = np.zeros(grid.size)
    for i, t in enumerate(grid):
        u = timedomain._poisson_pmf(lam * float(t), big_m)
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
            u = timedomain._poisson_pmf(x, big_m + 1)
            if u is not None:
                ext = np.concatenate((v[1:], v[-1] * g ** np.arange(1.0, u.size - big_m - 1)))
                out[i] = rho * (u[1:] @ ext) / u.sum()
            elif g > 0.0:
                upper = timedomain._poisson_tails(g * x, big_m + 1)[big_m + 1]
                if upper > 0.0:
                    log_t = -mu * float(t) - (big_m + 1) * math.log(g) + math.log(upper)
                    out[i] = rho * v[-1] * math.exp(min(log_t, 0.0))
        return out
    for i, t in enumerate(grid):
        u = timedomain._poisson_pmf(lam * float(t), big_m)
        if u is not None and t > 0.0:
            means = timedomain._reciprocal_means((mu - lam) * float(t), big_m + 1)
            out[i] = mu * float(t) * ((u[: big_m + 1] * means) @ tails) / u.sum()
    return out


def _ref_laws(model, grid, tails):
    lam, mu, eta = timedomain._moving_rate(model), model.observation.recurring.rate, model.first_rate
    pre = _ref_next_look(tails, lam, mu, grid)
    cross = np.exp(-(mu if eta is None else eta) * grid) + _ref_last_look(tails, lam, mu, grid)
    if eta is not None and eta != mu:
        pre = np.exp(-eta * grid) * _ref_next_look(tails, lam, eta, grid) + -np.expm1(-eta * grid) * pre
        kappa = lam + eta
        scaled = tails * (lam / kappa) ** np.arange(tails.size)
        cross += (eta - mu) / mu * _ref_last_look(scaled, kappa, mu, grid)
    return np.minimum(pre, 1.0), np.clip(cross, 0.0, 1.0)


class TestOneWindowPerTime:
    # moving rate lam' against the look rate mu: faster (with the far-tail closed form), equal, slower
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
                               + [800.0 / lam,  # lam t > 745: e^{-lam t} underflows
                                  (10.0 * (m + 1) + 3000.0) / moving])  # lam' t far above M
                grid = np.array(times)
                got = timedomain._survival_laws(model, grid)
                ref = _ref_laws(model, grid, timedomain._sum_cdf(model))
                for name, a, b in zip(("pre", "cross"), got, ref):
                    assert np.allclose(a, b, rtol=1e-14, atol=1e-300), (regime, first, name, a, b)
                if regime == "fast":  # the far-tail time is summed in closed form, and is not 0
                    assert timedomain._poisson_pmf(moving * times[-1], m + 1) is None and got[1][-1] > 0.0
                if regime == "slow" and m > 0:  # E[1 / (c + I)] both from a direct sum and upward only
                    assert (mu - moving) * times[1] < m + 1 < (mu - moving) * times[-1]

    @pytest.mark.parametrize("first, per_time", [(None, 1), (1.0, 1), (2.5, 2)])
    def test_one_window_per_time_and_law_pair(self, first, per_time, monkeypatch):
        model = _model(60, 0.5, first=first)
        grid = np.linspace(0.0, 2.0 * timedomain._mean_cross_time(model), 7)
        calls = []
        pmf = timedomain._poisson_pmf
        monkeypatch.setattr(timedomain, "_poisson_pmf", lambda x, n_max: calls.append(x) or pmf(x, n_max))
        timedomain._survival_laws(model, grid)
        assert len(calls) == per_time * grid.size
        calls.clear()
        timedomain.survival_pre(model, grid)
        assert len(calls) == grid.size


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
