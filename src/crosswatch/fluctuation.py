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
difference blocks (Gamma0, Gamma).

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

from .errors import DivergenceError, DomainError
from .model import ProcessModel, TransformArgs, _mark_pgf_rational
from .series import series_from_rational
from .transforms import SINGULARITY_TOL

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
# differ by exactly the vanishing denominator.  For admissible arguments
# Re alpha >= lam and |c| <= 1, so every R has bounded coefficients.
# gamma(v, x) - gamma(v s, x) in G1 and Gamma0, Gamma in G2 have the form
# F(1) - F(s) = (1 - s) T(s) with T the tail sums of F; the partial sum at
# order M of (1 - s) X is X_M, one coefficient of a product, so no value
# is formed by cancelling F(1) against a partial sum of F.


def _r_series(model: ProcessModel, alpha: complex, c: complex, order: int, parts: str = "r"):
    """Coefficients through ``order`` of R(alpha, c) ("r"), (R(1), T) ("tail") or (R, R(1), T).

    With g = N/D, R = 1/alpha + (lam/alpha) N / (alpha D - lam N) at c s,
    which keeps the small pole-zero gap of a large alpha that D / (alpha D
    - lam N) loses to rounding.  T = (R(1) - R(s)) / (1 - s) uses
    R(1) - R(s) = lam (g(c) - g(c s)) R(1) R(s), where the mark difference
    over 1 - s has tail-sum coefficients over D(c) D(c s).
    """
    lam, c = model.rate, complex(c)
    num, den = _mark_pgf_rational(model.marks)
    n_s = [p * c**k for k, p in enumerate(num)]
    d_s = [q * c**k for k, q in enumerate(den)]
    bottom = [alpha * q - lam * p for p, q in zip_longest(n_s, d_s, fillvalue=0.0)]
    if abs(bottom[0]) < SINGULARITY_TOL:
        raise DivergenceError("resolvent 1/(alpha - lam*g(c s)) has a pole at s = 0")
    if parts == "r":
        r = series_from_rational([lam / alpha * p for p in n_s], bottom, order)
        r[0] += 1.0 / alpha
        return r
    inv = series_from_rational([1.0], bottom, order)
    n_1, d_1 = sum(n_s), sum(d_s)
    # n_1 D(c s) - d_1 N(c s) is zero at s = 1; its quotient by 1 - s has minus its tail sums
    tails = [0j]
    for p, q in list(zip_longest(n_s, d_s, fillvalue=0.0))[:0:-1]:
        tails.append(tails[-1] + (n_1 * q - d_1 * p))
    total = sum(bottom)
    tail = (d_1 / total, (lam / total) * _mul(-np.array(tails[::-1]), inv, order))
    if parts == "tail":
        return tail
    r = (lam / alpha) * _mul(n_s, inv, order)
    r[0] += 1.0 / alpha
    return (r, *tail)


def _mul(a, b, order: int) -> np.ndarray:
    return np.convolve(a, b)[: order + 1]


def _exp_gap_factors(model: ProcessModel, args: TransformArgs, thetas: list, which: str, order: int):
    """Arrays (left, right, head) per window part of ``which`` ("g1", "g2" or "g"), per theta.

    A part's integrand is (1 - s)(head + left * right); head is None when it vanishes.  The
    factors that do not depend on theta are expanded once, and one list of parts is yielded
    per entry of ``thetas``.
    """
    lam, obs = model.rate, model.observation
    mu = obs.recurring.rate
    u, v, y = complex(args.u), complex(args.v), complex(args.y)
    w, x = complex(args.w), complex(args.x)
    uv, uvy = u * v, u * v * y
    rho = model.first_rate
    # gamma(v s, x) = mu R(mu + lam + x, v), also the first factor of Gamma
    recurring_a = _r_series(model, mu + lam + x, v, order, "tail")
    if which != "g2":
        left_h, r2 = mu * recurring_a[1], _r_series(model, lam + w, uv, order)
        p2 = None if rho is None else rho * _r_series(model, rho + lam + w, uv, order)
    initial_a = None if rho is None or which == "g1" else _r_series(model, rho + lam + x, v, order, "tail")

    def gamma_tail(rate: float, a_terms: tuple, theta: complex) -> np.ndarray:
        # Gamma of an Exp(rate) gap is F(1) - F(s) with F = rate R_a R_b
        ra_1, ta = a_terms
        rb, _, tb = _r_series(model, rate + lam + theta + x, v * y, order, "r+tail")
        return rate * (ra_1 * tb + _mul(ta, rb, order))

    for theta in thetas:
        # K = 1 / (1 - L) = 1 + mu / eta at eta3 = theta + w + lam(1 - g(uvys))
        r3 = _r_series(model, lam + theta + w, uvy, order)
        if which != "g1" or rho is not None:
            k3 = mu * r3
            k3[0] += 1.0
        # the initial gap's R at eta3, in H and in B3
        p3 = None if rho is None else _r_series(model, rho + lam + theta + w, uvy, order)
        parts = []
        if which != "g2":
            # H = L0 K divided between eta2 and eta3 by the product rule
            h_dd = mu * _mul(r2, r3, order)
            if rho is not None:
                h_dd = _mul(p2, h_dd + _mul(p3, k3, order), order)
            parts.append((left_h, h_dd, None))
        if which != "g1":
            gamma = gamma_tail(mu, recurring_a, theta)
            if rho is None:
                parts.append((gamma, k3, None))
            else:
                parts.append((gamma, _mul(rho * p3, k3, order), gamma_tail(rho, initial_a, theta)))
        yield parts


# ---------------------------------------------------------------------------
# public transforms


def _crossing_series(model: ProcessModel, args: TransformArgs, which: str, order: int) -> np.ndarray:
    """Coefficients 0..order of the G1 (``"g1"``) or G2 (``"g2"``) integrand in s, per theta."""
    theta = np.asarray(args.theta, dtype=complex)
    out = np.array([
        _mul(left, right, order) + (0.0 if head is None else head)
        for [(left, right, head)] in _exp_gap_factors(model, args, theta.reshape(-1).tolist(), which, order)
    ])
    out[:, 1:] = np.diff(out)
    return out.reshape(theta.shape + (order + 1,))


def _part_sums(model: ProcessModel, args: TransformArgs, which: str) -> tuple[np.ndarray, list[list[complex]]]:
    """theta as an array, and per entry the values of the window parts of ``which``."""
    order = model.threshold
    theta = np.asarray(args.theta, dtype=complex)
    # the partial sum of (1 - s) X at the order is X_order
    sums = [[complex(left @ right[::-1] + (0.0 if head is None else head[order])) for left, right, head in parts]
            for parts in _exp_gap_factors(model, args, theta.reshape(-1).tolist(), which, order)]
    return theta, sums


def _window(model: ProcessModel, args: TransformArgs, which: str, lst: bool = False) -> complex | np.ndarray:
    """The window transform ``which``, or with ``lst`` 1 - theta times it, at each theta.

    A scalar theta is a batch of one and gives a complex; an ndarray gives an array of its shape.
    """
    theta, per_theta = _part_sums(model, args, which)
    values = []
    for q, sums in zip(theta.reshape(-1).tolist(), per_theta):
        g = sum(sums[1:], sums[0])
        values.append(1.0 - q * g if lst else g)
    return values[0] if theta.ndim == 0 else np.array(values).reshape(theta.shape)


def _g_parts(model: ProcessModel, args: TransformArgs) -> tuple[complex, complex]:
    """(G1, G2) at a scalar theta from one pass of ``g``: the values of ``g1_star`` and ``g2_star``."""
    [(g1, g2)] = _part_sums(model, args, "g")[1]
    return g1, g2


def g1_star(model: ProcessModel, args: TransformArgs) -> complex | np.ndarray:
    """Transform (in t) of the crossing functional on the window t < tau_pre.

    Partial coefficient sum, at the threshold order, of
    ``b1 * (b2 - b3)`` in the level-tagging variable.
    """
    return _window(model, args, "g1")


def g2_star(model: ProcessModel, args: TransformArgs) -> complex | np.ndarray:
    """Transform of the crossing functional on the window tau_pre <= t < tau_cross.

    Partial coefficient sum of ``gamma0 + gamma * b3``.
    """
    return _window(model, args, "g2")


def g_star(model: ProcessModel, args: TransformArgs) -> complex | np.ndarray:
    """Transform on the full pre-crossing window t < tau_cross (sum of the two parts)."""
    return _window(model, args, "g")


def _lst(model: ProcessModel, theta, which: str, name: str) -> complex | np.ndarray:
    if min(np.ravel(theta).real.tolist()) <= 0.0:
        raise DomainError(f"{name} requires Re theta > 0")
    return _window(model, TransformArgs(theta=theta), which, lst=True)


def lst_tau_pre(model: ProcessModel, theta) -> complex | np.ndarray:
    """LST E[exp(-theta * tau_pre)] of the last inspection at or below the threshold.

    Uses the identity ``theta * G1(theta; 1,1,0,0,1) = 1 - LST`` that the
    window t < tau_pre yields at the all-ones tagging point.  Re theta > 0.
    """
    return _lst(model, theta, "g1", "lst_tau_pre")


def lst_tau_cross(model: ProcessModel, theta) -> complex | np.ndarray:
    """LST E[exp(-theta * tau_cross)] of the first inspection above the threshold."""
    return _lst(model, theta, "g", "lst_tau_cross")
