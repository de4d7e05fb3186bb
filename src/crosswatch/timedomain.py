"""Exact time-domain laws of the crossing: both survival curves and the crossing level.

Every model has Exp(mu) recurring gaps and a first look at time 0 or after
an Exp(eta) delay, and the looks never depend on the arrivals.  Hence, for
t >= 0, the first look after t comes at t + E and the last look at or
before t sits min(E', .) back from t, with E, E' exponential:

    P{tau_pre > t}   = P{A(first look after t) <= M},
    P{tau_cross > t} = P{no look in [0, t]} + P{A(last look <= t) <= M}.

Zero marks never move the level, so A is compound Poisson with rate
lam' = lam (1 - f0) > 0 and marks >= 1, and n such marks sum to at most M with
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

Every Poisson weight comes from one builder of heads.  The grid shares one head
P{N'(t) = n}, n <= M + 1, each row anchored at its mode by Loader's saddle-point
pmf and walked out by ratios, so no row is normalised.  Both laws are
matrix-vector products of the head with weights built once per grid: w (and its
smoothing over an Exp(eta) first gap) for tau_pre and the uniformised weights for
tau_cross, whose geometric part past M + 1 for lam' > mu continues the head by
ratios, or once y = (lam' - mu) t >= M + 2 is g^{-(M+1)} e^{-mu t} P{Poisson(y) >=
M + 2}, g = 1 - mu / lam', with that tail 1 minus a head of Poisson(y) through M + 1.
Every head and every e^{-rate t} is taken at the exact product rate t = p + e: a head
is built at p, column n scaled by 1 + e (n / p - 1).  No transform is inverted and
every term is positive, so tiny probabilities keep their relative accuracy.

The crossing level follows the embedded chain of looks: the level seen at
look 0 has law iota (a point mass at 0 for a zero start), and each gap adds
a mark total with law P0 = mu R(mu + lam, 1), R(s, 1) = 1 / (s - lam g) for
the mark pgf g = N / D.  The expected visits of the levels 0..M are
v = iota * pi with pi = 1 / (1 - P0) = 1 + mu R(lam, 1) = 1 + (mu / lam) D / (D - N),
and P{A_nu = r} = iota(r) + sum_{k <= M} v(k) P0(r - k) for r > M.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fluctuation import _r_series, _tag
from .model import Geometric, ProcessModel, _level_bound, _mark_pgf_rational, _times, mark_mean

__all__ = ["survival_pre", "survival_cross", "crossing_level_law"]


# ---------------------------------------------------------------------------
# Poisson and binomial weights, from ratios of neighbouring terms


def _two_product(a, b):
    """(p, e) with p = a b rounded and p + e = a b exactly: Dekker's product of Veltkamp's halves."""
    c, k = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1 splits off the top 26 bits
    a1, b1 = c - (c - a), k - (k - b)
    a2, b2, p = a - a1, b - b1, a * b
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _exp_less(s: float, rate: float, grid: np.ndarray) -> np.ndarray:
    """e^{s - rate t} over the grid for s <= rate t, with rate t and the difference carried
    exactly, so neither rounding (up to rate t 2^-53 relative) reaches the exponential."""
    p, e = _two_product(rate, np.minimum(grid, (s + 746.0) / rate))  # e^{-746} rounds to 0
    d = s - p
    return np.exp(d) * (1.0 + ((s - (d + p)) - e))  # s - (d + p) is the rounding of d (|p| >= |s|)


def _spread(x: float) -> float:
    """Past x +- spread a Poisson(x) pmf is below e^-800 of its mode (Chernoff bounds)."""
    return 40.0 * math.sqrt(x) + 50.0


# Stirling's error log(n! e^n / (n^n sqrt(2 pi n))) for n = 0..15 (n = 0 unused)
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
             0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
             0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _mode_mass(x: float) -> float:
    """P{Poisson(x) = k} at the mode k = floor(x): e^{-stirlerr(k) - bd0(k, x)} / sqrt(2 pi k).

    This is R's dpois_raw (C. Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000); at the mode bd0 = k (r - log1p r), r = (x - k) / k,
    is off by a few ulps at most.
    """
    k = int(x)
    if k == 0:
        return math.exp(-x)
    q = 1.0 / (float(k) * k)
    stirlerr = _STIRLERR[k] if k <= 15 else (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - q / 1188) * q) * q) * q) / k
    r = (x - k) / k
    return math.exp(-stirlerr - k * (r - math.log1p(r))) / math.sqrt(2.0 * math.pi * k)


def _poisson_heads(xs: Sequence[float], n_max: int) -> np.ndarray:
    """P{Poisson(x) = n} for n = 0..n_max, one row per x of xs, anchored at the mode by
    :func:`_mode_mass` and walked by ratios: no column past max(n_max, mode) and no
    normalising sum.  A row whose 0..n_max lies below x - spread is negligible, and zero."""
    rows = [0.0 if n_max < x - _spread(x) else x for x in xs]  # a negligible row: x = 0, anchor 0
    anchors = [_mode_mass(x) if x == y else 0.0 for x, y in zip(rows, xs)]
    x = np.array(rows)[:, None]
    # column n holds min(n + 1, x) / x: P_n / P_{n+1} below the mode, 1 at or above it (and
    # everywhere for x < 1), and the top column the anchor; the walk down reverses the row
    width = max(n_max, int(max(rows, default=0.0))) + 1
    scale = np.maximum(x, 1.0)
    down = np.minimum(np.arange(1.0, width + 1), scale)
    np.divide(down, scale, out=down)
    down[:, -1] = anchors
    walk = down[:, ::-1]
    np.multiply.accumulate(walk, axis=1, out=walk)
    head = down[:, : n_max + 1]
    if int(min(rows, default=n_max)) < n_max:
        # x / max(n, x) is the ratio P_n / P_{n-1} = x / n above the mode and 1 at or below it
        up = np.maximum(np.arange(n_max + 1.0), x)
        np.divide(x, up[:, 1:], out=up[:, 1:])
        up[:, 0] = 1.0
        np.multiply.accumulate(up, axis=1, out=up)
        head *= up
    return head


def _grid_heads(rate: float, grid: np.ndarray, n_max: int) -> np.ndarray:
    """:func:`_poisson_heads` of the grid's exact products rate t = p + e: the head at p, column n scaled
    by 1 + e (n / p - 1), the pmf's first-order change in its mean."""
    with np.errstate(over="ignore", invalid="ignore"):
        p, e = _two_product(rate, grid)
        shift = e / p
    shift[~np.isfinite(shift)] = 0.0  # 0 / 0 at t = 0; past t = 2^996 the split overflows to nan
    return _poisson_heads(p.tolist(), n_max) * (1.0 + shift[:, None] * (np.arange(n_max + 1.0) - p[:, None]))


def _poisson_tails(x: float, kmax: int) -> np.ndarray:
    """P{Poisson(x) >= k} for k = 0..kmax: one head out past x + spread, summed from the top
    over its total (never 1 - P{X < k}); all ones where 0..kmax is negligible."""
    if kmax < x - _spread(x):
        return np.ones(kmax + 1)
    top = np.cumsum(_poisson_heads([x], math.floor(max(kmax, x) + _spread(x)))[0, ::-1])[::-1]
    return top[: kmax + 1] / top[0]


def _binom_tails(m: int, a: float) -> np.ndarray:
    """P{Bin(m, a) >= n} for n = 0..m: the pmf over its mode's, walked out from the mode by
    ratios of neighbouring terms, then summed from the top (never 1 - P{X < n})."""
    if a == 1.0:
        return np.ones(m + 1)
    n = np.arange(m, dtype=float)
    ratio = (m - n) / (n + 1.0) * (a / (1.0 - a))
    mode = min(m, int((m + 1) * a))
    u = np.ones(m + 1)
    u[mode + 1 :] = np.cumprod(ratio[mode:])
    u[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    top = np.cumsum(u[::-1])[::-1]
    return top / top[0]


# ---------------------------------------------------------------------------
# model pieces


def _moving_rate(model: ProcessModel) -> float:
    """lam' = lam (1 - f0), the rate of the marks that raise the level."""
    num, den = _mark_pgf_rational(model.marks)
    return model.rate * (1.0 - num[0] / den[0])


def _sum_cdf(model: ProcessModel) -> np.ndarray:
    """F_n = P{S_n <= M} for n = 0..M, S_n the total of n marks conditioned to be >= 1."""
    m = model.threshold
    if isinstance(model.marks, Geometric):
        # n geometric marks sum to at most M exactly when M trials hold >= n successes
        return _binom_tails(m, model.marks.a)
    pmf = model.marks.pmf
    step = np.concatenate(([0.0], pmf[1:] / (1.0 - pmf[0])))
    out = np.zeros(m + 1)
    row, lo = np.ones(1), 0  # P{S_n = j} for j = n + lo .. n + lo + row.size - 1 <= M
    for n in range(m + 1):
        out[n] = row.sum()
        row = np.convolve(row, step)[1 : m - n - lo + 1]
        if row.size and (row[0] < 1e-280 or row[-1] < 1e-280):
            # drop the ends below 1e-300 of the row's peak: no convolution runs over subnormals
            keep = np.flatnonzero(row > 1e-300 * row.max())
            if not keep.size:
                break
            lo, row = lo + keep[0], row[keep[0] : keep[-1] + 1]
        if not row.size:
            break
    return out


def _smoothing(tails: np.ndarray, q: float) -> np.ndarray:
    """w_j = E[F_{j + G}], G geometric(q), by one backward recursion."""
    w, acc = [], 0.0
    for f in reversed(tails.tolist()):
        acc = (1.0 - q) * f + q * acc
        w.append(acc)
    return np.array(w[::-1])


def _last_look(heads: np.ndarray, tails: np.ndarray, lam: float, mu: float, grid: np.ndarray) -> np.ndarray:
    """Over the grid, sum_n W_n(t) F_n from the head P{N'(t) = n}, n <= M + 1, N' Poisson(lam):
    W_n(t) = int_0^t mu e^{-mu (t - u)} P{N'(u) = n} du = P{N'(L) = n, L > 0}, L the last
    epoch at or before t of a Poisson(mu) stream."""
    big_m = tails.size - 1
    if lam < mu:
        out = np.zeros(grid.size)
        # Thinning the Poisson(mu t) look epochs of W_n = sum_{k >= 1} P{Poisson(mu t) = k} P{Bin(k - 1,
        # sigma) = n}, sigma = lam / mu, into Poisson(lam t) and Poisson((mu - lam) t) parts gives
        # W_n = P{N'(t) = n} mu t E[1 / (n + 1 + I)] with I ~ Poisson((mu - lam) t)
        for i, (t, live) in enumerate(zip(grid.tolist(), heads.any(axis=1).tolist())):
            if t > 0.0 and live:
                out[i] = mu * t * ((heads[i, :-1] * _reciprocal_means((mu - lam) * t, big_m + 1)) @ tails)
        return out
    if lam == mu:
        return heads[:, 1:] @ tails  # W_n(t) = P{N'(t) = n + 1}
    # W_n = rho sum_{k > n} P{N'(t) = k} g^{k-1-n}, g = 1 - rho, so the sum is rho sum_k
    # P{N'(t) = k} V_k, V_k = F_{k-1} + g V_{k-1}.  Powers of g up to M + 1 would scale its
    # rounding dg by M + 1, so V_k = u_k + w_k with w_k the part that dg adds
    rho = mu / lam
    q, dq = _two_product(rho, lam)  # mu / lam = rho + (mu - q - dq) / lam; 1 - rho = g + (1 - g - rho)
    g = 1.0 - rho
    dg = ((1.0 - g) - rho) - ((mu - q) - dq) / lam
    u, w, v = 0.0, 0.0, []
    for f_k in tails.tolist():
        u, w = f_k + g * u, dg * u + g * w
        v.append(u + w)
    # past M + 1, V_k = g^{k-M-1} V_{M+1}, and P{N'(t) = k} g^{k-M-1} continues the head's last
    # column by the ratios y / k, y = (lam - mu) t, which fall below e^-800 within the spread
    # while y < M + 2.  From there on they sum to g^{-(M+1)} e^{-mu t} (1 - P{Poisson(y) <= M + 1}),
    # the head sum at most 1/2 (the median is above M + 1); below M + 2 that tail can underflow where the sum does not
    ys = (lam - mu) * grid
    near = np.flatnonzero((ys < big_m + 2) & (heads[:, -1] > 0.0))
    far = np.flatnonzero(ys >= big_m + 2)
    tail = np.zeros(grid.size)
    ratios = ys[near, None] / np.arange(big_m + 2.0, big_m + 2.0 + _spread(big_m + 2))
    tail[near] = heads[near, -1] * np.cumprod(ratios, axis=1).sum(axis=1)
    if far.size:
        log_g = math.log(g) + math.log1p(dg / g)
        upper = 1.0 - _poisson_heads(ys[far].tolist(), big_m + 1).sum(axis=1)
        tail[far] = _exp_less(-(big_m + 1) * log_g, mu, grid[far]) * upper
    return rho * (heads[:, 1:] @ v + v[-1] * tail)


def _reciprocal_means(y: float, size: int) -> np.ndarray:
    """E[1 / (c + I)] for c = 1..size, I ~ Poisson(y), y > 0.

    Integration by parts gives J_{c+1} = (1 - c J_c) / y, a recursion that
    loses nothing upward while c <= y and downward, as J_c = (1 - y J_{c+1}) / c,
    while c > y.  Each downward step shrinks an error in J_{c+1} by y / c, so the
    run starts from J = 1 / (c + y) some 8 sqrt(size) + 20 steps above size (W.
    Gautschi, SIAM Review 9, 1967), and above size it carries h_c = (c + y) J_c - 1,
    whose recursion adds no rounding near 1 where y / c is near 1.
    """
    split = min(size, math.floor(y) + 1)
    out = [-math.expm1(-y) / y]
    for c in range(1, split):
        out.append((1.0 - c * out[-1]) / y)
    if split < size:
        h = 0.0
        for c in range(size + math.ceil(8.0 * math.sqrt(size)) + 19, size, -1):
            h = y * (1.0 - (c + y) * h) / (c * (c + 1.0 + y))
        down = [(1.0 - y * (1.0 + h) / (size + 1.0 + y)) / size]
        for c in range(size - 1, split, -1):
            down.append((1.0 - y * down[-1]) / c)
        out += down[::-1]
    return np.array(out)


def _gap_law(model: ProcessModel, rate: float, order: int) -> np.ndarray:
    """P{mark total over one Exp(rate) gap = j}, j = 0..order: rate R(lam + rate, 1)."""
    return rate * _r_series(model, rate, _tag(model, 1.0), order).real


def _visits(model: ProcessModel) -> np.ndarray:
    """Expected number of looks that see level k, k = 0..M."""
    m = model.threshold
    pi = model.observation.recurring.rate * _r_series(model, 0.0, _tag(model, 1.0), m).real  # pi = 1 + mu R(lam, 1)
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
    return _pre_law(model, *_law_inputs(model, t_grid))


def survival_cross(model: ProcessModel, t_grid: Sequence[float] | np.ndarray) -> np.ndarray:
    """P{tau_cross > t}: no look in [0, t], or the last look at or before t sees A <= M.

    The last look L sits at density e^{-mu (t - u)} (mu (1 - e^{-eta u}) +
    eta e^{-eta u}) in u, which is mu e^{-mu (t - u)} when the first gap is
    zero or Exp(mu); an Exp(eta) first gap adds (eta - mu) e^{-mu (t - u)}
    e^{-eta u}, the same kernel for arrivals at rate lam' + eta with the
    n-th term scaled by (lam' / (lam' + eta))^n.
    """
    return _cross_law(model, *_law_inputs(model, t_grid))


def _survival_laws(model: ProcessModel, t_grid: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P{tau_pre > t}, P{tau_cross > t}), sharing F_n and the grid's one Poisson(lam' t) head."""
    inputs = _law_inputs(model, t_grid)
    return _pre_law(model, *inputs), _cross_law(model, *inputs)


def _law_inputs(model: ProcessModel, t_grid: Sequence[float] | np.ndarray) -> tuple:
    """What both laws read: the grid, F_n, lam' and the head P{N'(t) = n}, n <= M + 1."""
    grid, tails, lam = _times(t_grid), _sum_cdf(model), _moving_rate(model)
    return grid, tails, lam, _grid_heads(lam, grid, tails.size)


def _pre_law(model: ProcessModel, grid: np.ndarray, tails: np.ndarray, lam: float, heads: np.ndarray) -> np.ndarray:
    mu, eta = model.observation.recurring.rate, model.first_rate
    pre = heads[:, :-1] @ _smoothing(tails, lam / (lam + mu))
    if eta is not None and eta != mu:  # an Exp(eta) first gap unlike the recurring ones
        pre = (_exp_less(0.0, eta, grid) * (heads[:, :-1] @ _smoothing(tails, lam / (lam + eta)))
               - np.expm1(-eta * grid) * pre)
    return np.minimum(pre, 1.0)  # rounding can exceed 1 when all of N'(t)'s mass is <= M


def _cross_law(model: ProcessModel, grid: np.ndarray, tails: np.ndarray, lam: float, heads: np.ndarray) -> np.ndarray:
    mu, eta = model.observation.recurring.rate, model.first_rate
    out = _exp_less(0.0, mu if eta is None else eta, grid) + _last_look(heads, tails, lam, mu, grid)
    if eta is not None and eta != mu:
        kappa = lam + eta
        scaled = tails * (lam / kappa) ** np.arange(tails.size)
        out += (eta - mu) / mu * _last_look(_grid_heads(kappa, grid, tails.size), scaled, kappa, mu, grid)
    return np.clip(out, 0.0, 1.0)


def crossing_level_law(model: ProcessModel, r_max: int) -> tuple[np.ndarray, float]:
    """P{A_nu = r} for r = 0..r_max, and the exact mean overshoot E[A_nu] - M.

    The pmf is iota(r) + sum_{k <= M} v(k) P0(r - k) above M (see the module
    notes).  The mean is not truncated at r_max: by Wald's identity
    E[A_nu] = E[A(first look)] + E[J] sum_k v(k), J the mark total over one
    Exp(mu) gap, a finite sum.
    """
    r_max = _level_bound(r_max)
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
