"""Numerical inversion of Laplace transforms of time laws.

One algorithm, the Euler-summed Bromwich trapezoid sum of Abate & Whitt,
"Numerical inversion of Laplace transforms of probability distributions"
(ORSA J. Comput. 1995).  The trapezoid rule on the Bromwich line
Re theta = A/2t gives the alternating series

    f(t) ~ e^{A/2}/t * [F(A/2t)/2 + sum_{k>=1} (-1)^k Re F((A + 2 pi i k)/2t)]

with discretisation error near e^{-A} for originals bounded by 1.  Every
abscissa has a positive real part, so the LSTs of this package accept
every call.  The binomial (Euler) average of the partial sums n..n+m sums
the tail; the same average one term later is the error estimate.

One transform call on an ndarray takes the abscissae of every time.  A
time whose estimate misses the tolerance doubles n, from 25 up to 400,
each doubling one more call on its new abscissae only.  A value still
missing at n = 400, or not finite, raises ``InversionError`` rather than
being returned: a jump of the original inside (0, 2t) stalls the sum.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InversionError
from .model import _times

__all__ = ["invert", "survival_curve"]

# The discretisation error is about e^{-A} f(3t): A = 18.4 (the 1995
# value) leaves 9e-6 on the original t^2 at t = 10, A = 25 leaves 1e-8 at
# an e^{A/2} ~ 3e5 roundoff gain.  A time takes n + m + 2 = 38 to 413 evaluations.
_A, _N, _M, _N_MAX = 25.0, 25, 11, 400
_EULER = np.array([math.comb(_M, j) for j in range(_M + 1)]) / 2.0**_M
# Error-estimate gate, absolute below 1 and relative above.
_TOL = 1e-6
# The atom at 0 is read at theta = 2^k, k = -208, -200, ..., 208: rates from
# about 2^-150 to 2^150, and a change of unit by 2^(8j) keeps these abscissae.
_ATOM_EXPONENTS, _ATOM_STEP = np.arange(-208.0, 209.0, 8.0), 1e-15


def invert(transform: Callable, t: float | Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Value at each time t > 0 of the original of ``transform``: a float, or an array for a 1-D t.

    ``transform`` receives a 2-D ndarray of complex abscissae, one row per
    time still being summed, and returns their values in its shape.
    Raises ``InversionError`` when a value is not finite or its Euler error
    estimate still exceeds 1e-6 * max(1, |value|) at n = 400.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.all(np.isfinite(times) & (times > 0.0)):
        raise DomainError(f"inversion time must be positive and finite, got {t}")
    flat, values = times.reshape(-1), np.empty(times.size)
    todo, real, n = np.arange(times.size), np.empty((times.size, 0)), _N
    while todo.size:
        # Re F at (A + 2 pi i k) / 2t for the k not yet evaluated, k <= n + m + 1
        k, half = np.arange(real.shape[1], n + _M + 2), 2.0 * flat[todo, None]
        theta = np.empty((todo.size, k.size), dtype=complex)
        theta.real, theta.imag = _A / half, 2.0 * math.pi * k / half
        real = np.concatenate([real, np.broadcast_to(transform(theta), theta.shape).real], axis=1)
        terms = (-1.0) ** np.arange(n + _M + 2) * real
        terms[:, 0] *= 0.5
        partial = (math.exp(0.5 * _A) / flat[todo])[:, None] * np.cumsum(terms, axis=1)
        # stacked row-vector products sum each time's Euler average as a 1-D dot does
        value = np.matmul(partial[:, None, n + 1 :], _EULER)[:, 0]
        error = np.abs(value - np.matmul(partial[:, None, n : n + _M + 1], _EULER)[:, 0])
        done = np.isfinite(value) & (error <= _TOL * np.maximum(1.0, np.abs(value)))
        values[todo[done]] = value[done]
        stuck = ~np.isfinite(value) | (~done & (n == _N_MAX))
        if stuck.any():
            i = np.flatnonzero(stuck)[0]
            raise InversionError(f"Euler inversion at t={flat[todo[i]]}: value {value[i]}, "
                                 f"error estimate {error[i]:.2e}")
        todo, real, n = todo[~done], real[~done], 2 * n
    return float(values[0]) if times.ndim == 0 else values


def _atom(lst: Callable) -> float:
    """P{X = 0} = lim lst(theta) as theta -> infinity, from one call at the abscissae 2^k.

    Going up in k the values leave 1 and settle on the atom wherever the time unit puts the move:
    past the first step of more than 1e-15, the first step of at most 1e-15 reaches the atom.
    """
    values = np.real(lst(2.0**_ATOM_EXPONENTS))
    steps = np.abs(np.diff(values))
    moved = np.flatnonzero(steps > _ATOM_STEP)
    first = moved[0] if moved.size else 0  # values that never move are the atom already
    settled = first + np.flatnonzero(steps[first:] <= _ATOM_STEP)
    if not settled.size:
        raise InversionError(f"the LST still moves at theta = 2^{_ATOM_EXPONENTS[-1]:.0f}; no atom at 0 is read")
    return float(values[settled[0] + 1])


def survival_curve(lst: Callable, t_grid: Sequence[float] | np.ndarray) -> np.ndarray:
    """P{X > t} over a grid, from the LST of a nonnegative variable X.

    Inverts theta -> (1 - lst(theta)) / theta, which is the transform of
    the survival function itself (the CDF transforms to lst/theta), in one
    :func:`invert` call over the grid's positive times, so ``lst`` receives
    ndarrays.  t = 0 is reported as 1 minus the atom at zero, the LST's limit
    read by :func:`_atom` in one more call, never inverted numerically.
    """
    grid = _times(t_grid)
    out = np.empty(grid.size)
    at_zero = grid == 0.0
    out[at_zero] = 1.0 - _atom(lst) if at_zero.any() else 0.0
    out[~at_zero] = invert(lambda theta: (1.0 - lst(theta)) / theta, grid[~at_zero])
    return np.clip(out, 0.0, 1.0)
