"""Transforms of the first observed threshold crossing.

Write ``A_n`` for the accumulated mark at the n-th inspection, ``nu`` for
the first n with ``A_n > M``, ``tau_pre = tau_{nu-1}`` and
``tau_cross = tau_nu`` for the straddling inspection epochs.  The joint
functionals computed here are Laplace transforms in the running time t of

    G1(t) = E[u^{A_{nu-1}} v^{A_nu} e^{-w tau_pre - x gap} y^{A(t)}; t < tau_pre]
    G2(t) = E[  same weight                                   ; tau_pre <= t < tau_cross]

and their sum G (window t < tau_cross).  Each transform is a partial
coefficient sum, at order M, of an explicit function of the level-tagging
variable s built from three resolvent blocks (B1, B2, B3) and two
difference blocks (Gamma0, Gamma).  One engine pass gives both windows at
every theta; G1, G2, G and the two marginal LSTs each read their value
from it.

The s-coefficients come from one route, exact series: every model has
zero or exponential gaps, so every block is rational in s (see the engine
notes below), and truncated expansion and products give the coefficients
exactly.  The pointwise blocks themselves are evaluated only by the
validation battery, as the independent oracle for this route.

theta may be an ndarray: one call evaluates each entry as a scalar theta would.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from .errors import DomainError
from .model import ProcessModel, TransformArgs, _mark_pgf_rational
from .series import series_from_rational

__all__ = [
    "g1_star",
    "g2_star",
    "g_star",
    "lst_tau_pre",
    "lst_tau_cross",
]

# ---------------------------------------------------------------------------
# coefficient extraction: exact series for exponential and zero gaps
#
# For an Exp(r) gap, L(kappa + lam(1 - g(c s))) = r R(r + kappa + lam, c)
# with R(alpha, c) = 1 / (alpha - lam g(c s)), and the divided difference
# of L between two such arguments is r R(.) R(.): the two R denominators
# differ by exactly the vanishing denominator.  R is expanded from its excess
# alpha - lam = r + kappa over B = (alpha D - lam N) / lam, free of the time
# unit, where Re B(0) >= 1 - f0 > 0 for Re kappa >= 0, as the model refuses
# f0 = 1 (see _r_series).  With |c| <= 1 every R has bounded coefficients.
# gamma(v, x) - gamma(v s, x) in G1 and Gamma0, Gamma in G2 have the form
# F(1) - F(s) = (1 - s) T(s) with T the tail sums of F; the partial sum at
# order M of (1 - s) X is X_M, one coefficient of a product, so no value
# is formed by cancelling F(1) against a partial sum of F.


def _r_series(model: ProcessModel, excess: complex, c: complex, order: int, parts: str = "r"):
    """Coefficients through ``order`` of R(alpha, c) ("r"), (R(1), T) ("tail") or (R, R(1), T).

    ``excess`` is alpha - lam.  With g = N/D at c s, alpha D - lam N = lam B for B = (excess / lam) D
    + (D - N), which no change of time unit moves, and R = (1 + N / B) / alpha with 1 / alpha applied
    after the expansion: a large alpha keeps the small pole-zero gap that D / (alpha D - lam N) loses
    to rounding, and excess 0 expands D - N unscaled.  For Re excess >= 0, B(0) cannot vanish:
    Re B(0) = Re excess / lam + 1 - f0 >= 1 - f0 > 0, as the model refuses f0 = 1.
    T = (R(1) - R(s)) / (1 - s) uses R(1) - R(s) = lam (g(c) - g(c s)) R(1) R(s), where the
    mark difference over 1 - s has tail-sum coefficients over D(c) D(c s).
    """
    lam, c, (num, den) = model.rate, complex(c), _mark_pgf_rational(model.marks)
    n_s = [p * c**k for k, p in enumerate(num)]
    d_s = [q * c**k for k, q in enumerate(den)]
    scale = excess / lam
    bottom = [scale * q + (q - p) for p, q in zip_longest(n_s, d_s, fillvalue=0.0)]
    if parts == "r":
        r = series_from_rational(n_s, bottom, order)
    else:
        inv = series_from_rational([1.0], bottom, order)
        n_1, d_1 = sum(n_s), sum(d_s)
        # n_1 D(c s) - d_1 N(c s) is zero at s = 1; its quotient by 1 - s has minus its tail sums
        tails = [0j]
        for p, q in list(zip_longest(n_s, d_s, fillvalue=0.0))[:0:-1]:
            tails.append(tails[-1] + (n_1 * q - d_1 * p))
        total = lam * sum(bottom)
        tail = (d_1 / total, (1.0 / total) * _mul(-np.array(tails[::-1]), inv, order))
        if parts == "tail":
            return tail
        r = _mul(n_s, inv, order)
    r[0] += 1.0
    r *= 1.0 / (lam + excess)
    return r if parts == "r" else (r, *tail)


def _mul(a, b, order: int) -> np.ndarray:
    return np.convolve(a, b)[: order + 1]


def _exp_gap_factors(model: ProcessModel, args: TransformArgs, thetas: list, order: int):
    """Arrays (left, right, head) of the G1 part and of the G2 part, per theta.

    A part's integrand is (1 - s)(head + left * right); head is None when it vanishes.  The
    factors that do not depend on theta are expanded once, and one pair of parts is yielded
    per entry of ``thetas``.
    """
    mu = model.observation.recurring.rate
    u, v, w, x, y = (complex(z) for z in (args.u, args.v, args.w, args.x, args.y))
    uv, uvy = u * v, u * v * y
    rho = model.first_rate
    # gamma(v s, x) = mu R(lam + mu + x, v), also the first factor of Gamma
    recurring_a = _r_series(model, mu + x, v, order, "tail")
    left_h, r2 = mu * recurring_a[1], _r_series(model, w, uv, order)
    p2 = None if rho is None else rho * _r_series(model, rho + w, uv, order)
    initial_a = None if rho is None else _r_series(model, rho + x, v, order, "tail")

    def gamma_tail(rate: float, a_terms: tuple, theta: complex) -> np.ndarray:
        # Gamma of an Exp(rate) gap is F(1) - F(s) with F = rate R_a R_b
        ra_1, ta = a_terms
        rb, _, tb = _r_series(model, rate + theta + x, v * y, order, "r+tail")
        return rate * (ra_1 * tb + _mul(ta, rb, order))

    for theta in thetas:
        # K = 1 / (1 - L) = 1 + mu / eta at eta3 = theta + w + lam(1 - g(uvys))
        r3 = _r_series(model, theta + w, uvy, order)
        k3 = mu * r3
        k3[0] += 1.0
        # H = L0 K divided between eta2 and eta3 by the product rule
        h_dd = mu * _mul(r2, r3, order)
        gamma = gamma_tail(mu, recurring_a, theta)
        if rho is None:
            yield (left_h, h_dd, None), (gamma, k3, None)
        else:
            # the initial gap's R at eta3, in H and in B3
            p3 = _r_series(model, rho + theta + w, uvy, order)
            yield ((left_h, _mul(p2, h_dd + _mul(p3, k3, order), order), None),
                   (gamma, _mul(rho * p3, k3, order), gamma_tail(rho, initial_a, theta)))


# ---------------------------------------------------------------------------
# public transforms: each reads its value from the one pass of _g_parts


def _g_parts(model: ProcessModel, args: TransformArgs) -> np.ndarray:
    """G1 and G2 at each theta from one pass, shaped theta.shape + (2,)."""
    order = model.threshold
    theta = np.asarray(args.theta, dtype=complex)
    # the partial sum of (1 - s) X at the order is X_order
    sums = [[complex(left @ right[::-1] + (0.0 if head is None else head[order])) for left, right, head in parts]
            for parts in _exp_gap_factors(model, args, theta.reshape(-1).tolist(), order)]
    return np.array(sums).reshape(theta.shape + (2,))


def _shaped(values: np.ndarray) -> complex | np.ndarray:
    """A complex for a scalar theta, else the array of theta's shape."""
    return complex(values) if values.ndim == 0 else values


def g1_star(model: ProcessModel, args: TransformArgs) -> complex | np.ndarray:
    """Transform (in t) of the crossing functional on the window t < tau_pre.

    Partial coefficient sum, at the threshold order, of
    ``b1 * (b2 - b3)`` in the level-tagging variable.
    """
    return _shaped(_g_parts(model, args)[..., 0])


def g2_star(model: ProcessModel, args: TransformArgs) -> complex | np.ndarray:
    """Transform of the crossing functional on the window tau_pre <= t < tau_cross.

    Partial coefficient sum of ``gamma0 + gamma * b3``.
    """
    return _shaped(_g_parts(model, args)[..., 1])


def g_star(model: ProcessModel, args: TransformArgs) -> complex | np.ndarray:
    """Transform on the full pre-crossing window t < tau_cross (sum of the two parts)."""
    parts = _g_parts(model, args)
    return _shaped(parts[..., 0] + parts[..., 1])


def _lst(model: ProcessModel, theta, name: str) -> np.ndarray:
    """(1 - theta G1, 1 - theta G) at each theta and the all-ones tagging point, shaped theta.shape + (2,)."""
    if min(np.ravel(theta).real.tolist()) <= 0.0:
        raise DomainError(f"{name} requires Re theta > 0")
    args = TransformArgs(theta=theta)
    theta = np.asarray(args.theta, dtype=complex)
    # entry by entry in Python complex arithmetic, as a scalar theta is
    values = [(1.0 - q * g1, 1.0 - q * (g1 + g2))
              for q, (g1, g2) in zip(theta.reshape(-1).tolist(), _g_parts(model, args).reshape(-1, 2).tolist())]
    return np.array(values).reshape(theta.shape + (2,))


def lst_tau_pre(model: ProcessModel, theta) -> complex | np.ndarray:
    """LST E[exp(-theta * tau_pre)] of the last inspection at or below the threshold.

    Uses the identity ``theta * G1(theta; 1,1,0,0,1) = 1 - LST`` that the
    window t < tau_pre yields at the all-ones tagging point.  Re theta > 0.
    """
    return _shaped(_lst(model, theta, "lst_tau_pre")[..., 0])


def lst_tau_cross(model: ProcessModel, theta) -> complex | np.ndarray:
    """LST E[exp(-theta * tau_cross)] of the first inspection above the threshold."""
    return _shaped(_lst(model, theta, "lst_tau_cross")[..., 1])
