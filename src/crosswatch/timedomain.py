"""Exact time-domain laws of the crossing: both survival curves and the crossing level.

Every model has Exp(mu) recurring gaps and a first look at time 0 or after
an Exp(eta) delay, and the looks never depend on the arrivals.  Hence, for
t >= 0, the first look after t comes at t + E and the last look at or
before t sits min(E', .) back from t, with E, E' exponential:

    P{tau_pre > t}   = P{A(first look after t) <= M},
    P{tau_cross > t} = P{no look in [0, t]} + P{A(last look <= t) <= M}.

Zero marks never move the level, so A is compound Poisson with rate
lam' = lam (1 - f0) and marks >= 1, and n such marks sum to at most M with
probability F_n = P{S_n <= M}, which is zero for n > M.  Both laws are then
positive sums sum_{n <= M} P{N'(.) = n} F_n of Poisson-mixture counts:

* tau_pre: N'(t + E) is Poisson(lam' t) plus the geometric count over one
  Exp gap, so the sum is sum_j P{N'(t) = j} w_j with w the geometric
  smoothing of F (one backward recursion per model);
* tau_cross: the arrivals before the last look are uniformised (Jensen
  1953) at the faster of the rates lam' and mu, which keeps every weight
  positive: with rho = mu / lam' <= 1 the count is the index k - 1 of the
  look among Poisson(lam' t) epochs thinned geometrically by rho, and with
  sigma = lam' / mu < 1 it is Binomial(k - 1, sigma) over Poisson(mu t)
  epochs, which thins into Poisson(lam' t) times a reciprocal moment of
  Poisson((mu - lam') t).

Each time builds one Poisson(lam' t) window of width O(sqrt(lam t)), cut to
O(M), and both laws are dot products of weight vectors with it: w (and, for
an Exp(eta) first gap, its smoothing over Exp(eta)) for tau_pre and the
uniformised weights for tau_cross, which are built once per grid.  Only an
Exp(eta) first gap unlike the recurring ones needs a second window, at rate
lam' + eta.  A window that starts above the support of F is summed in closed
form or dropped, so no array grows with lam t.  No transform is inverted and
every term is positive, so tiny probabilities keep their relative accuracy.

The crossing level follows the embedded chain of looks: the level seen at
look 0 has law iota (a point mass at 0 for a zero start), and each gap adds
a mark total with law P0 = mu R(mu + lam, 1).  The expected visits of the
levels 0..M are v = iota * pi with pi = 1 / (1 - P0), the coefficients of
((mu + lam) D - lam N) / (lam (D - N)) for marks g = N / D, and
P{A_nu = r} = iota(r) + sum_{k <= M} v(k) P0(r - k) for r > M.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergenceError
from .fluctuation import _r_series
from .model import Geometric, ProcessModel, _level_bound, _mark_pgf_rational, _times, mark_mean
from .series import series_from_rational

__all__ = ["survival_pre", "survival_cross", "crossing_level_law"]


# ---------------------------------------------------------------------------
# Poisson and binomial weights, from ratios of neighbouring terms


def _from_mode(ratio: np.ndarray, mode: int) -> np.ndarray:
    """Unnormalised pmf p_n / p_mode from the ratios p_{n+1} / p_n, walked out from the mode."""
    u = np.ones(ratio.size + 1)
    u[mode + 1 :] = np.cumprod(ratio[mode:])
    u[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return u


def _tails(u: np.ndarray) -> np.ndarray:
    """P{X >= k} from an unnormalised pmf, summed from the top (never 1 - P{X < k})."""
    top = np.cumsum(u[::-1])[::-1]
    return top / top[0]


def _poisson_pmf(x: float, n_max: int) -> np.ndarray | None:
    """Unnormalised Poisson(x) pmf on 0..hi, hi >= n_max + spread.

    Past hi the terms fall below e^-800 of the largest one on 0..hi
    (Chernoff bounds); None when that holds for every n <= n_max.
    """
    spread = 40.0 * math.sqrt(x) + 50.0
    if n_max < x - spread:
        return None
    return _from_mode(x / np.arange(1.0, math.floor(max(n_max, x) + spread) + 1), int(x))


def _poisson_tails(x: float, kmax: int) -> np.ndarray:
    """P{Poisson(x) >= k} for k = 0..kmax."""
    u = _poisson_pmf(x, kmax)
    return np.ones(kmax + 1) if u is None else _tails(u)[: kmax + 1]


def _binom_tails(m: int, a: float) -> np.ndarray:
    """P{Bin(m, a) >= n} for n = 0..m."""
    if a == 1.0:
        return np.ones(m + 1)
    n = np.arange(m, dtype=float)
    return _tails(_from_mode((m - n) / (n + 1.0) * (a / (1.0 - a)), min(m, int((m + 1) * a))))


# ---------------------------------------------------------------------------
# model pieces


def _moving_rate(model: ProcessModel) -> float:
    """lam' = lam (1 - f0), the rate of the marks that raise the level."""
    num, den = _mark_pgf_rational(model.marks)
    f0 = num[0] / den[0]
    rate = model.rate * (1.0 - f0)
    if not rate > 0.0:
        raise DivergenceError("every mark is zero, so the level never crosses the threshold")
    return rate


def _sum_cdf(model: ProcessModel) -> np.ndarray:
    """F_n = P{S_n <= M} for n = 0..M, S_n the total of n marks conditioned to be >= 1."""
    _moving_rate(model)  # raises when every mark is zero, before 1 - f0 divides below
    m = model.threshold
    if isinstance(model.marks, Geometric):
        # n geometric marks sum to at most M exactly when M trials hold >= n successes
        return _binom_tails(m, model.marks.a)
    pmf = model.marks.pmf
    step = np.concatenate(([0.0], pmf[1:] / (1.0 - pmf[0])))
    out = np.zeros(m + 1)
    row = np.ones(1)  # P{S_n = j} for j = n..M
    for n in range(m + 1):
        out[n] = row.sum()
        row = np.convolve(row, step)[1 : m - n + 1]
        if not row.any():
            break
    return out


def _smoothing(tails: list, q: float) -> np.ndarray:
    """w_j = E[F_{j + G}], G geometric(q), by one backward recursion."""
    w, acc = [], 0.0
    for f in reversed(tails):
        acc = (1.0 - q) * f + q * acc
        w.append(acc)
    return np.array(w[::-1])


def _look_sums(tails: np.ndarray, lam: float, mu: float, grid: np.ndarray, rates: Sequence[float] = (),
               last: bool = True) -> tuple[list[np.ndarray], np.ndarray]:
    """Over the grid, sum_n P{N'(t + E) = n} F_n for E ~ Exp(r), r in rates, and with last
    sum_n W_n(t) F_n, W_n(t) = int_0^t mu e^{-mu (t - u)} P{N'(u) = n} du; N' Poisson(lam).

    W_n(t) = P{N'(L) = n, L > 0} for L the last epoch at or before t of a
    Poisson(mu) stream.  Every sum at t weights the same Poisson(lam t) window.
    """
    big_m, f = tails.size - 1, tails.tolist()
    weights = [_smoothing(f, lam / (lam + r)) for r in rates]
    times = grid.tolist()
    windows = [_poisson_pmf(lam * t, big_m + 1) for t in times]
    fast = last and lam >= mu
    if fast:
        # W_n = rho sum_{k > n} P{N'(t) = k} g^{k-1-n}, g = 1 - rho, so the
        # sum is rho sum_k P{N'(t) = k} V_k with V_k = F_{k-1} + g V_{k-1}
        rho, g = mu / lam, (lam - mu) / lam
        v = [0.0]
        for f_k in f:
            v.append(f_k + g * v[-1])
        # V_k = g^{k-M-1} V_{M+1} past the support of F, out to the widest window
        width = max((u.size for u in windows if u is not None), default=big_m + 2)
        ext = np.concatenate((v[1:], v[-1] * g ** np.arange(1.0, width - big_m - 1)))
    nexts, out = [np.zeros(grid.size) for _ in rates], np.zeros(grid.size)
    for i, (t, u) in enumerate(zip(times, windows)):
        if u is None:
            if fast and g > 0.0:
                # every P{N'(t) = k <= M+1} is negligible: only the geometric tail
                # T = sum_{k > M} P{N'(t) = k} g^{k-M-1}
                #   = g^{-(M+1)} e^{-mu t} P{Poisson(g lam t) > M}
                # is left, and it is summed in closed form
                upper = _poisson_tails(g * (lam * t), big_m + 1)[big_m + 1]
                if upper > 0.0:
                    log_t = -mu * t - (big_m + 1) * math.log(g) + math.log(upper)
                    out[i] = rho * v[-1] * math.exp(min(log_t, 0.0))
            continue
        total, head = u.sum(), u[: big_m + 1]
        for w, row in zip(weights, nexts):
            row[i] = (head @ w) / total
        if fast:
            out[i] = rho * (u[1:] @ ext[: u.size - 1]) / total
        elif last and t > 0.0:
            # Thinning the Poisson(mu t) look epochs of W_n = sum_{k >= 1} P{Poisson(mu t) = k}
            # P{Bin(k - 1, sigma) = n}, sigma = lam / mu, into Poisson(lam t) and
            # Poisson((mu - lam) t) parts gives W_n = P{N'(t) = n} mu t E[1 / (n + 1 + I)]
            # with I ~ Poisson((mu - lam) t)
            out[i] = mu * t * ((head * _reciprocal_means((mu - lam) * t, big_m + 1)) @ tails) / total
    return nexts, out


def _reciprocal_means(y: float, size: int) -> np.ndarray:
    """E[1 / (c + I)] for c = 1..size, I ~ Poisson(y), y > 0.

    Integration by parts gives J_{c+1} = (1 - c J_c) / y, a recursion that
    loses nothing upward while c <= y and downward, as J_c = (1 - y J_{c+1}) / c,
    while c > y; the top value is summed directly when c > y is reached.
    """
    out = np.empty(size)
    split = min(size, math.floor(y) + 1)
    out[0] = -math.expm1(-y) / y
    for c in range(1, split):
        out[c] = (1.0 - c * out[c - 1]) / y
    if split < size:
        u = _poisson_pmf(y, size)
        out[-1] = (u / (size + np.arange(u.size))).sum() / u.sum()
        for c in range(size - 1, split, -1):
            out[c - 1] = (1.0 - y * out[c]) / c
    return out


def _gap_law(model: ProcessModel, rate: float, order: int) -> np.ndarray:
    """P{mark total over one Exp(rate) gap = j}, j = 0..order: rate R(rate + lam, 1)."""
    return rate * _r_series(model, rate + model.rate, 1.0, order).real


def _visits(model: ProcessModel) -> np.ndarray:
    """Expected number of looks that see level k, k = 0..M."""
    lam, mu, m = model.rate, model.observation.recurring.rate, model.threshold
    num, den = _mark_pgf_rational(model.marks)
    # pi = 1 / (1 - P0) = ((mu + lam) D - lam N) / (lam (D - N)) = 1 + mu D / (lam (D - N))
    diff = [lam * (q - p) for p, q in zip_longest(num, den, fillvalue=0.0)]
    pi = series_from_rational([mu * q for q in den], diff, m).real
    pi[0] += 1.0
    eta = model.first_rate
    if eta is None:
        return pi
    return np.convolve(_gap_law(model, eta, m), pi)[: m + 1]


# ---------------------------------------------------------------------------
# public laws


def survival_pre(model: ProcessModel, t_grid: Sequence[float] | np.ndarray) -> np.ndarray:
    """P{tau_pre > t} = P{A(first look after t) <= M} on a grid of times.

    With a first look at 0 or after Exp(mu) the first look after t is at
    t + E, E ~ Exp(mu); an Exp(eta) first gap still pending at t (chance
    e^{-eta t}) puts it at t + Exp(eta) instead.
    """
    return _survival_laws(model, t_grid, cross=False)[0]


def survival_cross(model: ProcessModel, t_grid: Sequence[float] | np.ndarray) -> np.ndarray:
    """P{tau_cross > t}: no look in [0, t], or the last look at or before t sees A <= M.

    The last look L sits at density e^{-mu (t - u)} (mu (1 - e^{-eta u}) +
    eta e^{-eta u}) in u, which is mu e^{-mu (t - u)} when the first gap is
    zero or Exp(mu); an Exp(eta) first gap adds (eta - mu) e^{-mu (t - u)}
    e^{-eta u}, the same kernel for arrivals at rate lam' + eta with the
    n-th term scaled by (lam' / (lam' + eta))^n.
    """
    return _survival_laws(model, t_grid)[1]


def _survival_laws(model: ProcessModel, t_grid: Sequence[float] | np.ndarray,
                   cross: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """(P{tau_pre > t}, P{tau_cross > t}), or without cross only the first, from one
    computation of F_n and one Poisson(lam' t) window per time."""
    grid, tails = _times(t_grid), _sum_cdf(model)
    lam, mu, eta = _moving_rate(model), model.observation.recurring.rate, model.first_rate
    late = eta is not None and eta != mu  # an Exp(eta) first gap unlike the recurring ones
    nexts, last = _look_sums(tails, lam, mu, grid, (mu, eta) if late else (mu,), cross)
    pre = nexts[0]
    if late:
        pre = np.exp(-eta * grid) * nexts[1] + -np.expm1(-eta * grid) * pre
    pre = np.minimum(pre, 1.0)  # rounding can exceed 1 when all of N'(t)'s mass is <= M
    if not cross:
        return pre, None
    out = np.exp(-(mu if eta is None else eta) * grid) + last
    if late:
        kappa = lam + eta
        scaled = tails * (lam / kappa) ** np.arange(tails.size)
        out += (eta - mu) / mu * _look_sums(scaled, kappa, mu, grid)[1]
    return pre, np.clip(out, 0.0, 1.0)


def crossing_level_law(model: ProcessModel, r_max: int) -> tuple[np.ndarray, float]:
    """P{A_nu = r} for r = 0..r_max, and the exact mean overshoot E[A_nu] - M.

    The pmf is iota(r) + sum_{k <= M} v(k) P0(r - k) above M (see the module
    notes).  The mean is not truncated at r_max: by Wald's identity
    E[A_nu] = E[A(first look)] + E[J] sum_k v(k), J the mark total over one
    Exp(mu) gap, a finite sum.
    """
    r_max = _level_bound(r_max)
    _moving_rate(model)
    lam, mu, m, eta = model.rate, model.observation.recurring.rate, model.threshold, model.first_rate
    visits = _visits(model)
    law = np.zeros(r_max + 1)
    if r_max > m:
        jumps = _gap_law(model, mu, r_max)
        law[m + 1 :] = sliding_window_view(jumps, m + 1)[1:] @ visits[::-1]
        if eta is not None:
            law[m + 1 :] += _gap_law(model, eta, r_max)[m + 1 :]
    gap_mean = lam * mark_mean(model.marks)  # per unit of gap length
    first = 0.0 if eta is None else gap_mean / eta
    return law, first + gap_mean / mu * float(visits.sum()) - m


def _mean_cross_time(model: ProcessModel) -> float:
    """E[tau_cross]: the first gap plus one Exp(mu) gap per look at a level <= M."""
    eta = model.first_rate
    looks = float(_visits(model).sum())
    return (0.0 if eta is None else 1.0 / eta) + looks / model.observation.recurring.rate
