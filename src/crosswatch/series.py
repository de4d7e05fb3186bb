"""Rational series expansion and the damping operator's inverse.

Distributions over an integer level p are manipulated through the
transform ``(1-s) * sum_p s^p f(p)``; recovering ``f(k)`` from a transform
``F(s)`` amounts to summing the first ``k+1`` Taylor coefficients of
``F``.  Coefficients are plain complex arrays (``coeffs[j]`` multiplies
``s**j``).  This module provides the expansion and the inverse the
analytic layers rely on:

* :func:`series_from_rational`, the coefficients of ``P(s) / Q(s)`` with
  ``Q(0) != 0`` (the only shape the exponential-gap models produce);
* :func:`d_inverse`, the partial-coefficient-sum inverse, plus a closed
  double-geometric variant used heavily by the explicit formulas.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, SeriesOrderError

__all__ = [
    "series_from_rational",
    "d_inverse",
    "d_inverse_double_geometric",
]


def series_from_rational(
    numer: Sequence[complex], denom: Sequence[complex], order: int
) -> np.ndarray:
    """Coefficients 0..order of ``P(s) / Q(s)``, as a complex array.

    ``numer`` and ``denom`` list the coefficients of P and Q in ascending
    powers; Q(0) must be nonzero.  A first-order Q expands as one geometric
    progression; a longer one uses the exact recurrence
    ``c_k = (p_k - sum_j q_j c_{k-j}) / q_0`` over its nonzero ``q_j``.
    """
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    q = np.asarray(denom, dtype=complex).reshape(-1)
    if q.size == 0 or q[0] == 0:
        raise DomainError("the denominator needs a nonzero constant term")
    p = np.asarray(numer, dtype=complex).reshape(-1)[: order + 1] / q[0]
    if q.size <= 2 or not q[2:].any():
        powers = np.empty(order + 1, dtype=complex)
        powers[0] = 1.0
        powers[1:] = -q[1] / q[0] if q.size > 1 else 0.0
        return np.convolve(p, powers.cumprod())[: order + 1]
    lags = q[1:].nonzero()[0] + 1
    terms = list(zip(lags.tolist(), (q[lags] / q[0]).tolist()))
    pad = terms[-1][0]
    c = [0j] * pad + p.tolist() + [0j] * (order + 1 - p.size)
    for k in range(pad + 1, pad + order + 1):
        for lag, weight in terms:
            c[k] -= weight * c[k - lag]
    return np.array(c[pad:], dtype=complex)


def d_inverse(coeffs: Sequence[complex], k: int) -> complex:
    """Inverse of the level transform at threshold k: sum of coefficients 0..k.

    ``coeffs[j]`` is the coefficient of ``s**j``.  Negative k returns 0 (no
    admissible levels).  Raises :class:`SeriesOrderError` if the
    coefficients do not reach order k.
    """
    if k < 0:
        return 0.0 + 0.0j
    coeffs = np.asarray(coeffs, dtype=complex)
    if k >= coeffs.size:
        raise SeriesOrderError(f"need coefficients through order {k}, have {coeffs.size - 1}")
    return complex(np.sum(coeffs[: k + 1]))


def d_inverse_double_geometric(F, G: complex, k: int) -> complex | np.ndarray:
    """Partial-sum inverse of ``1 / ((1 - F s)(1 - G s))`` at threshold k.

    Equals ``sum_{j=0..k} F^j * sum_{i=0..k-j} G^i``; k < 0 gives 0.  An
    ndarray F gives an array of its shape, each entry as a scalar F would.
    """
    F, G = np.asarray(F, dtype=complex), complex(G)
    powers = np.arange(max(k + 1, 0))
    # one dot per entry of F (vecdot conjugates its first factor, so it is given conj(F^j))
    out = np.vecdot(np.conj(F[..., None] ** powers), np.cumsum(G**powers)[::-1])
    return complex(out) if F.ndim == 0 else out
