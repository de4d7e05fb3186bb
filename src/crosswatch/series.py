"""Truncated power series in the level-tagging variable.

Distributions over an integer level p are manipulated through the
transform ``(1-s) * sum_p s^p f(p)``; recovering ``f(k)`` from a transform
``F(s)`` amounts to summing the first ``k+1`` Taylor coefficients of
``F``.  This module provides the coefficient containers and the two
extraction helpers the analytic layers rely on:

* :class:`TruncatedSeries` with exact truncated Cauchy arithmetic, and
  expansion of rational functions ``P(s) / Q(s)`` with ``Q(0) != 0`` (the
  only shape the exponential-gap models produce);
* :func:`d_inverse`, the partial-coefficient-sum inverse, plus a closed
  double-geometric variant used heavily by the explicit formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SeriesOrderError

__all__ = [
    "TruncatedSeries",
    "series_from_rational",
    "d_op_indicator",
    "d_inverse",
    "d_inverse_double_geometric",
]


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Power series known exactly through a fixed order.

    ``coeffs[j]`` is the coefficient of ``s**j``; the order is
    ``len(coeffs) - 1``.  Arithmetic never extends the known order: sums
    and products of series of orders K1, K2 carry order ``min(K1, K2)``,
    because higher coefficients of the result would need unknown inputs.
    """

    coeffs: np.ndarray

    def __init__(self, coeffs: Sequence[complex]):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a nonempty vector")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def constant(cls, value: complex, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c)

    def truncated(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise SeriesOrderError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            k = min(self.order, other.order)
            return TruncatedSeries(self.coeffs[: k + 1] + other.coeffs[: k + 1])
        c = self.coeffs.copy()
        c[0] += complex(other)
        return TruncatedSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            k = min(self.order, other.order)
            prod = np.convolve(self.coeffs[: k + 1], other.coeffs[: k + 1])[: k + 1]
            return TruncatedSeries(prod)
        return TruncatedSeries(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __call__(self, s: complex) -> complex:
        """Evaluate the truncated polynomial at s (Horner)."""
        acc = 0.0 + 0.0j
        for c in self.coeffs[::-1]:
            acc = acc * complex(s) + c
        return acc


def series_from_rational(
    numer: Sequence[complex], denom: Sequence[complex], order: int
) -> TruncatedSeries:
    """Expand ``P(s) / Q(s)`` to the requested order.

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
        return TruncatedSeries(np.convolve(p, powers.cumprod())[: order + 1])
    lags = q[1:].nonzero()[0] + 1
    terms = list(zip(lags.tolist(), (q[lags] / q[0]).tolist()))
    pad = terms[-1][0]
    c = [0j] * pad + p.tolist() + [0j] * (order + 1 - p.size)
    for k in range(pad + 1, pad + order + 1):
        for lag, weight in terms:
            c[k] -= weight * c[k - lag]
    return TruncatedSeries(c[pad:])


def d_op_indicator(a_prev: int, a_next: int, s: complex) -> complex:
    """Level transform of the exit-at-this-epoch indicator: s^a_prev - s^a_next.

    ``a_prev <= a_next`` are the accumulated levels before and after one
    observation gap; the transform of ``1{exit index = this epoch}`` over
    the threshold telescopes to this two-term difference.
    """
    for name, val in (("a_prev", a_prev), ("a_next", a_next)):
        if not (isinstance(val, (int, np.integer)) and val >= 0):
            raise DomainError(f"{name} must be a nonnegative integer, got {val!r}")
    if a_prev > a_next:
        raise DomainError(f"levels must be nondecreasing, got {a_prev} > {a_next}")
    s = complex(s)
    return s**int(a_prev) - s**int(a_next)


def d_inverse(series: TruncatedSeries, k: int) -> complex:
    """Inverse of the level transform at threshold k: sum of coefficients 0..k.

    Negative k returns 0 (no admissible levels).  Raises
    :class:`SeriesOrderError` if the series is not known through order k.
    """
    if k < 0:
        return 0.0 + 0.0j
    if k > series.order:
        raise SeriesOrderError(f"need coefficients through order {k}, have {series.order}")
    return complex(np.sum(series.coeffs[: k + 1]))


def d_inverse_double_geometric(F: complex, G: complex, k: int) -> complex:
    """Partial-sum inverse of ``1 / ((1 - F s)(1 - G s))`` at threshold k.

    Equals ``sum_{j=0..k} F^j * sum_{i=0..k-j} G^i``; k < 0 gives 0.
    """
    if k < 0:
        return 0.0 + 0.0j
    F, G = complex(F), complex(G)
    pow_f = F ** np.arange(k + 1)
    inner = np.cumsum(G ** np.arange(k + 1))
    return complex(pow_f @ inner[::-1])
