"""Explicit crossing-distribution formulas for the geometric/exponential family.

The family is the :class:`~crosswatch.model.ProcessModel` with geometric
marks (success parameter a, b = 1 - a), exponential inspection gaps of
rate mu, the first inspection at time 0 and a threshold M >= 1 (the table
also takes an Exp(mu) first gap and M = 0).  Every public function here
refuses any other model with :class:`DomainError`.  For this family
everything reduces to rational functions and Poisson/binomial tails:

* :func:`g1_star_special` -- the pre-crossing window transform in closed
  form (no series extraction, no numerical inversion), at a theta or at
  every entry of an ndarray of them;
* :func:`ev_v_anu_before` -- its exact inverse transform, a PGF of the
  crossing level restricted to {t < tau_pre}, with every transform pole
  turned into a gamma-tail coefficient G_j or H_j and every crossing-level
  factor a power of the composite ratio c = (b mu + lam) / (mu + lam);
* :func:`dist_table` -- the joint law P{A_nu = r, tau_pre > t} over a
  grid of times and levels, which factorises.

The pole factor and the G_j/H_j coefficients stay private (``_pole``,
``_gh_arrays``); the battery checks them directly.

Why it factorises: marks are memoryless and gaps exponential, so the
overshoot A_nu - M is geometric with ratio c whatever came before, and
P{A_nu = r, tau_pre > t} = P{A_nu = r} * S(t), S(t) = P{tau_pre > t}.
Both factors come from :mod:`crosswatch.timedomain`:
``crossing_level_law`` gives P{A_nu = r} = (1 - c) c^(r - M - 1) for
r > M, and S(t) is ``survival_pre``.  tau_pre > t exactly when the first
look after t still sees A <= M, and n marks sum to at most M exactly when
M Bernoulli(a) trials hold >= n successes:

    S(t) = sum_{n <= M} P{N(t) = n} * w_n,   w_n = P{n + N(E) <= Bin(M, a)},

with N(t) ~ Poisson(lam t) and N(E) the geometric(lam/(lam + mu)) count in
an Exp(mu) gap.  Every term is positive, so S(t) stays accurate when tiny.

The layers are derived independently, so they cross-validate: inverting
the first must give the second, and so must the v^r-weighted sum of the
third.  ``dist_table`` refuses to emit a table that breaks its structural
invariants (support, monotonicity, bounds).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DivergenceError, DomainError, TableInvariantError
from .model import Geometric, ProcessModel, _level_bound, _table_times
from .series import d_inverse_double_geometric
from .timedomain import _poisson_tails, crossing_level_law, survival_pre

__all__ = [
    "g1_star_special",
    "ev_v_anu_before",
    "dist_table",
]

_CLAMP_TOL = 1e-9


def _family(model: ProcessModel) -> float:
    """The composite ratio c of a model in the family; DomainError for any other model."""
    if not isinstance(model.marks, Geometric):
        reason = "closed forms need geometric marks"
    elif model.first_rate is not None:
        reason = "closed forms need the initial inspection at time zero"
    elif model.threshold < 1:
        reason = f"closed forms need a threshold of at least 1, got {model.threshold}"
    else:
        lam, mu = model.rate, model.observation.recurring.rate
        return (model.marks.b * mu + lam) / (mu + lam)
    raise DomainError(f"{reason}; use `functional` for general models")


def _pole(x, v: complex, model: ProcessModel) -> complex | np.ndarray:
    """The pole factor (b*x + lam) * v / (x + lam); equals c*v at x = mu."""
    if np.any(np.abs(x + model.rate) < 1e-300):
        raise DomainError("pole factor undefined at x = -lam")
    return (model.marks.b * x + model.rate) * complex(v) / (x + model.rate)


def _gh_arrays(model: ProcessModel, t: float, jmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Time-damping coefficient arrays (G_j, H_j) for j = 0..jmax.

    G_j(t) is the gamma-tail mixture damping the j-th level coefficient
    in time; H_j(t) is its companion carrying the extra mark factor.
    The k = 0 gamma term enters through an inverse transform that
    recovers the right-continuous version of the time law, so its value
    at t = 0 is the t -> 0+ limit, 1 (not the bare step at the origin).
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be nonnegative and finite, got {t}")
    lam, mu, a, b = model.rate, model.observation.recurring.rate, model.marks.a, model.marks.b
    p = _poisson_tails(lam * t, jmax + 1)
    base = p[: jmax + 1] + (mu / lam) * p[1:]
    # G_j and H_j are Bin(j, a) mixtures of these rows: j steps of
    # s_k <- b s_k + a s_{k+1} leave the mixture in s_0.
    s = np.vstack([base, b * base + a * p[1:]])
    g = np.empty(jmax + 1)
    h = np.empty(jmax + 1)
    for j in range(jmax + 1):
        g[j], h[j] = s[0, 0], s[1, 0]
        s = b * s[:, :-1] + a * s[:, 1:]
    return g, h


def _geom_sum(q, m: int):
    """sum_{j=0}^{m} q^j, at each entry of an array q; the empty sum for m < 0."""
    return np.polyval(np.ones(m + 1, dtype=complex), q) if m >= 0 else 0.0 * q


def g1_star_special(model: ProcessModel, theta, v: complex) -> complex | np.ndarray:
    """Closed-form pre-crossing window transform at tagging point (1, v, 0, 0, 1).

    Four groups of partial geometric sums over the threshold order; the
    whole bracket carries the 1/theta of the time integral.  Analytic in
    theta, so values for |theta| below the cancellation floor are taken
    by a symmetric two-point evaluation.  An ndarray theta gives an array
    of its shape, each entry as a scalar theta would.
    """
    _family(model)
    values = _g1_star(model, np.asarray(theta, dtype=complex).ravel(), complex(v))
    return complex(values[0]) if np.ndim(theta) == 0 else values.reshape(np.shape(theta))


def _g1_star(model: ProcessModel, theta: np.ndarray, v: complex) -> np.ndarray:
    # Rational in theta with poles on the negative real axis, so the only
    # genuine requirement is the contraction region: Re theta > 0 or |v| < 1.
    # Complex theta left of the axis is fine.  A 1-D theta rounds alike at every size.
    if np.any(theta.real <= 0.0) and abs(v) >= 1.0 - 1e-12:
        raise DivergenceError("need Re theta > 0 or |v| < 1 for the window integral")
    lam, mu, b, big_m = model.rate, model.observation.recurring.rate, model.marks.b, model.threshold
    scale = max(lam, mu)  # the floor and the step are rates, in the unit of the fastest rate
    small = np.abs(theta) < 1e-7 * scale
    if small.any():  # linear extrapolation toward theta from theta + h and theta + 2h, h = 1e-5 * scale
        h = 1e-5 * scale
        out = _g1_star(model, np.where(small, theta + h, theta), v)
        out[small] = 2.0 * out[small] - _g1_star(model, theta[small] + h + h, v)
        return out

    gv0 = mu / (mu + lam - lam * (model.marks.a * v) / (1.0 - b * v))
    f_mu = _pole(mu, v, model)
    f_th = _pole(theta, v, model)
    f_mth = _pole(mu + theta, v, model)

    group1 = gv0 * ((mu + lam) / lam) * (v**big_m + (1.0 - f_mu) * _geom_sum(v, big_m - 1))
    group2 = (
        gv0
        * ((mu + theta + lam) / (theta + lam))
        * (f_th**big_m + (1.0 - f_mth) * _geom_sum(f_th, big_m - 1))
    )
    group3 = (mu / lam) * (
        d_inverse_double_geometric(v, f_mu, big_m)
        - (f_mu + b * v) * d_inverse_double_geometric(v, f_mu, big_m - 1)
        + b * v * f_mu * d_inverse_double_geometric(v, f_mu, big_m - 2)
    )
    group4 = (mu / (mu + lam)) * ((mu + theta + lam) / (theta + lam)) * (
        d_inverse_double_geometric(f_th, f_mu, big_m)
        - (f_mth + b * v) * d_inverse_double_geometric(f_th, f_mu, big_m - 1)
        + b * v * f_mth * d_inverse_double_geometric(f_th, f_mu, big_m - 2)
    )
    return (group1 - group2 - group3 + group4) / theta


def ev_v_anu_before(model: ProcessModel, v: complex, t: float) -> complex:
    """E[v^{A_nu}; tau_pre > t]: the PGF of the crossing level on {t < tau_pre}.

    Exact inverse transform of :func:`g1_star_special`; every transform
    pole became a gamma-tail coefficient G_j or H_j.
    """
    return _ev_v_anu_before(model, v, t, _family(model))


def _ev_v_anu_before(model: ProcessModel, v: complex, t: float, c: float) -> complex:
    """The G_j/H_j formula of :func:`ev_v_anu_before` at a given composite ratio c.

    Only here is c a free input: a consistency battery passes a perturbed
    c as a negative control and must notice it.
    """
    v = complex(v)
    if abs(v) > 1.0 + 1e-12:
        raise DomainError(f"PGF argument must satisfy |v| <= 1, got |v| = {abs(v)}")
    lam, mu, b, big_m = model.rate, model.observation.recurring.rate, model.marks.b, model.threshold
    g, h = _gh_arrays(model, t, big_m)
    gv0 = (mu / (mu + lam)) * (1.0 - b * v) / (1.0 - c * v)
    cv = c * v
    dd = d_inverse_double_geometric

    # S[k] = sum_{i <= k} (cv)^i for k = 0..M, from one cumulative pass
    geo = np.cumsum(np.cumprod(np.concatenate([[1.0], np.full(big_m, cv)])))
    vj = v ** np.arange(big_m + 1)

    t1 = gv0 * ((mu + lam) / lam) * (v**big_m + (1.0 - cv) * _geom_sum(v, big_m - 1))
    t2 = -gv0 * (vj[big_m] * g[big_m] + vj[:big_m] @ g[:big_m] - vj[1:] @ h[:big_m])
    t3 = -(mu / lam) * (
        dd(v, cv, big_m) - (b + c) * v * dd(v, cv, big_m - 1) + b * c * v**2 * dd(v, cv, big_m - 2)
    )
    # the three sums over j of v^j-weighted G_j/H_j mixtures against S[M - j], S[M - 1 - j], S[M - 2 - j]
    t4 = (mu / (mu + lam)) * (
        (vj * g) @ geo[::-1]
        - (vj[1:] * (b * g[:big_m] + h[:big_m])) @ geo[big_m - 1 :: -1]
        + b * (vj[2:] * h[: big_m - 1]) @ geo[: big_m - 1][::-1]
    )
    return t1 + t2 + t3 + t4


def dist_table(model: ProcessModel, t_grid: Sequence[float] | np.ndarray, r_max: int) -> np.ndarray:
    """P{A_nu = r, tau_pre > t} over the times (rows) and the levels 0..r_max (columns).

    One O(M) pass per time: the outer product of S(t) and the crossing-level pmf.
    The table's structural invariants are enforced: a violation means the
    formula is wrong for this model (a bug), so the offending cells are
    collected and raised, not returned.
    """
    # at any threshold, a first look at 0 or after an Exp(mu) gap makes every crossing gap an Exp(mu) one
    if not isinstance(model.marks, Geometric) or model.first_rate not in (None, model.observation.recurring.rate):
        raise DomainError("the joint table needs geometric marks and the first look at time zero or after an "
                          "Exp(mu) gap; use `functional` for general models")
    grid, r_max = _table_times(t_grid), _level_bound(r_max)

    r_range = np.arange(r_max + 1)
    values = np.outer(survival_pre(model, grid), crossing_level_law(model, r_max)[0])

    out_of_range = ~((values >= -_CLAMP_TOL) & (values <= 1.0 + _CLAMP_TOL))
    off_support = (r_range <= model.threshold) & (np.abs(values) > _CLAMP_TOL)
    rising = values[1:] > values[:-1] + _CLAMP_TOL
    row_sums = values.sum(axis=1)
    bad = [(float(grid[i]), int(r_range[k]), float(values[i, k]))
           for i, k in np.argwhere(out_of_range | off_support)]
    bad += [(float(grid[i + 1]), int(r_range[k]), float(values[i + 1, k]))
            for k, i in np.argwhere(rising.T)]
    bad += [(float(grid[i]), -1, float(row_sums[i]))
            for i in np.flatnonzero(row_sums > 1.0 + _CLAMP_TOL)]
    if bad:
        raise TableInvariantError(
            "joint distribution table violates structural invariants "
            "(support/range/monotonicity); this signals a formula inconsistency, "
            f"not bad input. offending cells (t, r, value): {bad[:10]}",
            cells=bad,
        )
    return values
