"""Explicit crossing-distribution formulas for the geometric/exponential family.

Marks are geometric on {1, 2, ...} with success parameter a, inspections
happen on an exponential clock of rate mu, and the initial inspection is
at time 0 with a zero start level.  For this family everything reduces
to rational functions and Poisson/binomial tails:

* :func:`g1_star_special` -- the pre-crossing window transform in closed
  form (no series extraction, no numerical inversion);
* :func:`ev_v_anu_before` -- its exact inverse transform, a PGF of the
  crossing level restricted to {t < tau_pre}, with every transform pole
  turned into a gamma-tail coefficient G_j or H_j;
* :func:`joint_dist` / :func:`dist_table` -- the joint law
  P{A_nu = r, tau_pre > t}, which factorises.

Why it factorises: marks are memoryless and gaps exponential, so the
overshoot A_nu - M is geometric with ratio c whatever came before, and
P{A_nu = r, tau_pre > t} = P{A_nu = r} * S(t), S(t) = P{tau_pre > t}.
S(t) is :func:`crosswatch.timedomain.survival_pre`: tau_pre > t exactly
when the first look after t still sees A <= M, and n marks sum to at most
M exactly when M Bernoulli(a) trials hold >= n successes:

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivergenceError, DomainError, TableInvariantError
from .model import (
    DegenerateZero,
    Exponential,
    Geometric,
    MAX_THRESHOLD,
    ObservationLaw,
    ProcessModel,
)
from .series import d_inverse_double_geometric
from .timedomain import _poisson_tails, survival_pre

__all__ = [
    "SpecialModel",
    "JointDistTable",
    "f_of",
    "g1_star_special",
    "reg_gamma_p",
    "coeff_g",
    "coeff_h",
    "ev_v_anu_before",
    "joint_dist",
    "dist_table",
    "crossing_level_pmf",
]

_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class SpecialModel:
    """Geometric marks, exponential inspections, zero start.

    ``c_override`` replaces the derived composite ratio c in the G_j/H_j
    time-domain formula and the crossing-level pmf (the transform-domain
    formulas and S(t) build their factors from lam, a, mu directly).  It
    exists purely as a negative control: a consistency battery must
    notice a perturbed c.
    """

    lam: float
    a: float
    mu: float
    m: int
    c_override: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"arrival rate must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise DomainError(f"inspection rate must be positive and finite, got {self.mu}")
        if not (0.0 < self.a <= 1.0):
            raise DomainError(f"geometric parameter must lie in (0, 1], got {self.a}")
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)):
            raise DomainError(f"threshold must be an integer, got {self.m!r}")
        if not (1 <= self.m <= MAX_THRESHOLD):
            raise DomainError(f"threshold must lie in [1, {MAX_THRESHOLD}], got {self.m}")
        if self.c_override is not None and not (self.b < self.c_override < 1.0):
            raise DomainError(
                f"c override must stay in ({self.b}, 1), got {self.c_override}"
            )

    @property
    def b(self) -> float:
        return 1.0 - self.a

    @property
    def c(self) -> float:
        """Per-inspection geometric decay of the accumulated level."""
        if self.c_override is not None:
            return self.c_override
        return (self.b * self.mu + self.lam) / (self.mu + self.lam)

    @classmethod
    def from_process_model(cls, model: ProcessModel) -> "SpecialModel":
        if not isinstance(model.marks, Geometric):
            raise DomainError("closed forms need geometric marks")
        if not isinstance(model.observation.initial, DegenerateZero):
            raise DomainError("closed forms need the initial inspection at time zero")
        return cls(
            lam=model.rate,
            a=model.marks.a,
            mu=model.observation.recurring.rate,
            m=model.threshold,
        )

    def to_process_model(self) -> ProcessModel:
        return ProcessModel(
            rate=self.lam,
            marks=Geometric(self.a),
            observation=ObservationLaw(DegenerateZero(), Exponential(self.mu)),
            threshold=self.m,
        )


def f_of(x: complex, v: complex, model: SpecialModel) -> complex:
    """The pole factor (b*x + lam) * v / (x + lam); equals c*v at x = mu."""
    x = complex(x)
    if abs(x + model.lam) < 1e-300:
        raise DomainError("pole factor undefined at x = -lam")
    return (model.b * x + model.lam) * complex(v) / (x + model.lam)


def reg_gamma_p(k: int, x: float) -> float:
    """Regularized lower gamma P(k, x) at integer order.

    For k >= 1 this is the Erlang-k CDF, P{Poisson(x) >= k}.
    k = 0 is the unit step: 1 for x > 0, 0 at x = 0.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise DomainError(f"order must be a nonnegative integer, got {k!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"argument must be nonnegative and finite, got {x}")
    if k == 0:
        return 1.0 if x > 0.0 else 0.0
    return float(_poisson_tails(float(x), int(k))[int(k)])


def _gh_arrays(model: SpecialModel, t: float, jmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Time-damping coefficient arrays (G_j, H_j) for j = 0..jmax.

    The k = 0 gamma term enters through an inverse transform that
    recovers the right-continuous version of the time law, so its value
    at t = 0 is the t -> 0+ limit, 1 (not the bare step at the origin).
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be nonnegative and finite, got {t}")
    lam, mu, a, b = model.lam, model.mu, model.a, model.b
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


def coeff_g(j: int, t: float, model: SpecialModel) -> float:
    """G_j(t): gamma-tail mixture damping the j-th level coefficient in time."""
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or j < 0:
        raise DomainError(f"index must be a nonnegative integer, got {j!r}")
    return float(_gh_arrays(model, t, int(j))[0][int(j)])


def coeff_h(j: int, t: float, model: SpecialModel) -> float:
    """H_j(t): companion mixture carrying the extra mark factor."""
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or j < 0:
        raise DomainError(f"index must be a nonnegative integer, got {j!r}")
    return float(_gh_arrays(model, t, int(j))[1][int(j)])


def _geom_sum(q: complex, m: int) -> complex:
    """sum_{j=0}^{m} q^j with the empty-sum convention for m < 0."""
    if m < 0:
        return 0.0 + 0.0j
    return complex(np.polyval(np.ones(m + 1, dtype=complex), complex(q)))


def g1_star_special(model: SpecialModel, theta: complex, v: complex) -> complex:
    """Closed-form pre-crossing window transform at tagging point (1, v, 0, 0, 1).

    Four groups of partial geometric sums over the threshold order; the
    whole bracket carries the 1/theta of the time integral.  Analytic in
    theta, so values for |theta| below the cancellation floor are taken
    by a symmetric two-point evaluation.
    """
    theta = complex(theta)
    v = complex(v)
    # Rational in theta with poles on the negative real axis, so the only
    # genuine requirement is the contraction region: Re theta > 0 or |v| < 1.
    # Complex theta left of the axis is fine.
    if theta.real <= 0.0 and abs(v) >= 1.0 - 1e-12:
        raise DivergenceError("need Re theta > 0 or |v| < 1 for the window integral")
    if abs(theta) < 1e-7:
        h = 1e-5
        lo = g1_star_special(model, theta + h, v)
        hi = g1_star_special(model, theta + h + h, v)
        return 2.0 * lo - hi  # linear extrapolation toward theta
    lam, mu, b, big_m = model.lam, model.mu, model.b, model.m

    gv0 = mu / (mu + lam - lam * (model.a * v) / (1.0 - b * v))
    f_mu = f_of(mu, v, model)
    f_th = f_of(theta, v, model)
    f_mth = f_of(mu + theta, v, model)

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


def ev_v_anu_before(model: SpecialModel, v: complex, t: float) -> complex:
    """E[v^{A_nu}; tau_pre > t]: the PGF of the crossing level on {t < tau_pre}.

    Exact inverse transform of :func:`g1_star_special`; every transform
    pole became a gamma-tail coefficient G_j or H_j.
    """
    v = complex(v)
    if abs(v) > 1.0 + 1e-12:
        raise DomainError(f"PGF argument must satisfy |v| <= 1, got |v| = {abs(v)}")
    lam, mu, b, c, big_m = model.lam, model.mu, model.b, model.c, model.m
    g, h = _gh_arrays(model, t, big_m)
    gv0 = (mu / (mu + lam)) * (1.0 - b * v) / (1.0 - c * v)
    cv = c * v
    dd = d_inverse_double_geometric

    t1 = gv0 * ((mu + lam) / lam) * (v**big_m + (1.0 - cv) * _geom_sum(v, big_m - 1))
    t2 = -gv0 * (
        v**big_m * g[big_m]
        + sum(v**j * g[j] - v ** (j + 1) * h[j] for j in range(big_m))
    )
    t3 = -(mu / lam) * (
        dd(v, cv, big_m) - (b + c) * v * dd(v, cv, big_m - 1) + b * c * v**2 * dd(v, cv, big_m - 2)
    )
    t4 = (mu / (mu + lam)) * (
        sum(v**j * g[j] * _geom_sum(cv, big_m - j) for j in range(big_m + 1))
        - sum(v ** (j + 1) * (b * g[j] + h[j]) * _geom_sum(cv, big_m - 1 - j) for j in range(big_m))
        + b * sum(v ** (j + 2) * h[j] * _geom_sum(cv, big_m - 2 - j) for j in range(big_m - 1))
    )
    return t1 + t2 + t3 + t4


def joint_dist(model: SpecialModel, r: int, t: float) -> float:
    """P{A_nu = r, tau_pre > t}: exact joint law of crossing level and last calm look.

    P{A_nu = r} * P{tau_pre > t}, one cell of :func:`dist_table`; support r > threshold.
    """
    return float(dist_table(model, [t], r).values[0, -1])


def crossing_level_pmf(model: SpecialModel, r: int) -> float:
    """P{A_nu = r}: the unconditional crossing-level law, geometric above the threshold.

    Each inspection increment, conditioned on being positive, is
    geometric with decay c regardless of how much was needed to cross,
    so the overshoot forgets the approach: P{A_nu = M + k} = (1-c) c^(k-1).
    """
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"level must be a nonnegative integer, got {r!r}")
    c = model.c
    if r <= model.m:
        return 0.0
    return (1.0 - c) * c ** (int(r) - model.m - 1)


@dataclass(frozen=True, eq=False)
class JointDistTable:
    """Tabulated joint law over a time grid (rows) and level range 0..r_max (columns)."""

    t_grid: np.ndarray
    r_range: np.ndarray
    values: np.ndarray

    def to_csv(self) -> str:
        levels = [f",{r}," for r in self.r_range.tolist()]
        lines = ["t,r,probability"]
        for t, row in zip(self.t_grid.tolist(), self.values.tolist()):
            stamp = f"{t:.11e}"
            lines.extend(f"{stamp}{level}{p:.11e}" for level, p in zip(levels, row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as handle:
            handle.write(self.to_csv())


def dist_table(
    model: SpecialModel, t_grid: Sequence[float] | np.ndarray, r_max: int
) -> JointDistTable:
    """Tabulate :func:`joint_dist` and enforce its structural invariants.

    One O(M) pass per time: the outer product of S(t) and the crossing-level pmf.
    An invariant violation means the formula is wrong for this model (a
    bug), so the offending cells are collected and raised, not returned.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("time grid must be a nonempty one-dimensional array")
    if np.any(~np.isfinite(grid)) or np.any(grid < 0.0):
        raise DomainError("time grid entries must be nonnegative and finite")
    if np.any(np.diff(grid) < 0.0):
        raise DomainError("time grid must be sorted ascending")
    if isinstance(r_max, bool) or not isinstance(r_max, (int, np.integer)) or r_max < 0:
        raise DomainError(f"level bound must be a nonnegative integer, got {r_max!r}")

    r_range = np.arange(int(r_max) + 1)
    survival = survival_pre(model.to_process_model(), grid)
    values = np.outer(survival, [crossing_level_pmf(model, int(r)) for r in r_range])

    out_of_range = ~((values >= -_CLAMP_TOL) & (values <= 1.0 + _CLAMP_TOL))
    off_support = (r_range <= model.m) & (np.abs(values) > _CLAMP_TOL)
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
    return JointDistTable(t_grid=grid, r_range=r_range, values=values)
