"""Joint transforms of the accumulated-mark process over one or two windows.

The accumulated mark ``A(s)`` of a marked Poisson stream has the compound
PGF ``phi(z, s) = exp(lam * s * (g(z) - 1))`` where ``g`` is the mark PGF.
Everything else in this module is built from two observations:

* A damped convolution of two such PGFs over a split window has a closed
  form whose denominator ``theta + lam*g(c) - lam*g(b)`` may vanish; the
  singularity is removable and equals the length-weighted limit.

* Every two-window functional of the form
  ``E[u^{A(T)} v^{A(T+D)} e^{-wT - xD} y^{A(t)}; window]`` reduces, after
  integrating t, to divided differences of a delay LST evaluated at
  arguments that differ by exactly the vanishing denominator.  For the
  zero and exponential delay laws those divided differences have closed
  forms with no difference quotient, so every formula stays finite and
  accurate through the removable points.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, UnsupportedLawError
from .model import (
    DegenerateZero,
    DelayLaw,
    Exponential,
    ProcessModel,
    TransformArgs,
    delay_lst,
    mark_pgf,
)

__all__ = [
    "ConvolutionSpec",
    "phi",
    "psi",
    "gamma",
    "gamma_is_contractive",
    "f1_star",
    "f2_star",
]

# Below this (scaled) magnitude a vanishing denominator is treated as
# removable and replaced by an analytic limit.
SINGULARITY_TOL = 1e-10


def phi(model: ProcessModel, z: complex, s: float | np.ndarray) -> complex | np.ndarray:
    """PGF of the mark total on a window of length ``s``: E[z**A(s)].

    Requires |z| <= 1 and s >= 0; an array of window lengths gives an array.
    """
    if np.any(np.less(s, 0.0)):
        raise DomainError(f"window length must be >= 0, got {np.min(s)}")
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise DomainError(f"|z| must be <= 1, got {abs(z)}")
    if np.ndim(s):
        return np.exp(model.rate * np.asarray(s, dtype=float) * (mark_pgf(model.marks, z) - 1.0))
    return cmath.exp(model.rate * s * (mark_pgf(model.marks, z) - 1.0))


@dataclass(frozen=True)
class ConvolutionSpec:
    """Damped split-window convolution parameters.

    ``integral of exp(-theta*t) * phi(b_arg, t) * phi(c_arg, horizon - t)``
    over t in [0, horizon].
    """

    b_arg: complex
    c_arg: complex
    theta: complex = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        if self.horizon < 0.0:
            raise DomainError(f"horizon must be >= 0, got {self.horizon}")
        for name in ("b_arg", "c_arg"):
            if abs(complex(getattr(self, name))) > 1.0 + 1e-12:
                raise DomainError(f"|{name}| must be <= 1")
        if complex(self.theta).real < -1e-12:
            raise DomainError("Re theta must be >= 0")


def _one_minus_exp_over(q: complex) -> complex:
    """(1 - exp(-q)) / q, analytic through q = 0."""
    if abs(q) < 1e-8:
        return 1.0 - q / 2.0 + q * q / 6.0
    return (1.0 - cmath.exp(-q)) / q


def psi(model: ProcessModel, spec: ConvolutionSpec) -> complex:
    """Closed form of the damped split-window convolution.

    Equals ``(exp(-lam(1-g(c))d) - exp(-(theta+lam-lam g(b))d)) / (theta +
    lam g(c) - lam g(b))`` with horizon ``d``; the vanishing-denominator
    case returns the analytic limit ``d * exp(-lam(1-g(c))d)``.
    """
    lam = model.rate
    gb = mark_pgf(model.marks, spec.b_arg)
    gc = mark_pgf(model.marks, spec.c_arg)
    d = spec.horizon
    denom = complex(spec.theta) + lam * gc - lam * gb
    return cmath.exp(-lam * (1.0 - gc) * d) * d * _one_minus_exp_over(denom * d)


# ---------------------------------------------------------------------------
# per-epoch joint transform of (mark increment, gap length)


def gamma(model: ProcessModel, which: str, z: complex, theta: complex) -> complex:
    """Joint transform E[z**(marks in gap) * exp(-theta * gap)] of one grid gap.

    ``which`` selects the "initial" or "recurring" gap law.  Equals the gap
    LST evaluated at ``theta + lam*(1 - g(z))``.
    """
    if which == "initial":
        law = model.observation.initial
    elif which == "recurring":
        law = model.observation.recurring
    else:
        raise DomainError(f'which must be "initial" or "recurring", got {which!r}')
    arg = complex(theta) + model.rate * (1.0 - mark_pgf(model.marks, z))
    return delay_lst(law, arg)


def gamma_is_contractive(model: ProcessModel, z: complex, theta: complex) -> bool:
    """Whether the per-epoch transform has norm strictly below one.

    Holds exactly when |z| < 1 or Re theta > 0; enforced with a 1e-12
    margin so geometric resolvent sums stay safely inside their region.
    """
    del model  # the criterion does not depend on the particular laws
    return abs(complex(z)) < 1.0 - 1e-12 or complex(theta).real > 1e-12


# ---------------------------------------------------------------------------
# divided differences of LSTs (removable-singularity engine)


def lst_divided_diff(law: DelayLaw, zeta: complex, d: complex) -> complex:
    """(L(zeta) - L(zeta + d)) / d for a delay LST L, finite at d = 0.

    In closed form, with no difference quotient: ``r / ((r + zeta)(r +
    zeta + d))`` for an Exp(r) gap and 0 for a zero gap.  Any other law
    raises :class:`UnsupportedLawError`.
    """
    zeta, d = complex(zeta), complex(d)
    if isinstance(law, Exponential):
        return law.rate / ((law.rate + zeta) * (law.rate + zeta + d))
    if isinstance(law, DegenerateZero):
        return 0.0 + 0.0j
    raise UnsupportedLawError(f"unknown delay law {type(law).__name__}")


def resolvent_divided_diff(model: ProcessModel, eta: complex, d: complex) -> complex:
    """Divided difference of H(e) = L0(e) / (1 - L(e)) between eta and eta + d.

    L0 is the initial-gap LST and L the recurring-gap LST.  This is the
    quantity through which the resolvent difference of two geometric sums
    stays finite when their arguments coincide.  It is taken by the product
    rule from divided differences of L0 and L, since the difference of
    1 / (1 - L) is the product of its two values times that of L.  Raises
    :class:`DivergenceError` if either resolvent denominator vanishes.
    """
    eta, d = complex(eta), complex(d)
    obs = model.observation

    def resolvent(e: complex) -> complex:
        denom = 1.0 - delay_lst(obs.recurring, e)
        if abs(denom) < SINGULARITY_TOL:
            raise DivergenceError("resolvent 1/(1 - L) evaluated at L = 1")
        return 1.0 / denom

    lo, hi = resolvent(eta), resolvent(eta + d)
    return (
        delay_lst(obs.initial, eta) * lo * hi * lst_divided_diff(obs.recurring, eta, d)
        + lst_divided_diff(obs.initial, eta, d) * hi
    )


# ---------------------------------------------------------------------------
# two-window functionals with independent window lengths


def f1_star(model: ProcessModel, T_law: DelayLaw, Delta_law: DelayLaw, args: TransformArgs) -> complex:
    """Transform of the first-window part of the two-window functional.

    With independent window lengths T ~ T_law and D ~ Delta_law, returns

        integral over t >= 0 of e^{-theta t}
            E[u^{A(T)} v^{A(T+D)} e^{-wT - xD} y^{A(t)} ; t < T] dt

    which closes to a divided difference of the T-law LST between
    ``w + lam(1 - g(uv))`` and the same point shifted by
    ``theta + lam g(uv) - lam g(uvy)``, times the D-law LST at
    ``x + lam(1 - g(v))``.
    """
    args.validate()
    lam = model.rate
    g = lambda z: mark_pgf(model.marks, z)
    uv = complex(args.u) * complex(args.v)
    uvy = uv * complex(args.y)
    zeta = complex(args.w) + lam * (1.0 - g(uv))
    d = complex(args.theta) + lam * g(uv) - lam * g(uvy)
    return lst_divided_diff(T_law, zeta, d) * delay_lst(
        Delta_law, complex(args.x) + lam * (1.0 - g(complex(args.v)))
    )


def f2_star(model: ProcessModel, T_law: DelayLaw, Delta_law: DelayLaw, args: TransformArgs) -> complex:
    """Transform of the second-window part (t falls in [T, T+D)).

    Returns the T-law LST at ``theta + w + lam(1 - g(uvy))`` times the
    divided difference of the D-law LST between ``x + lam(1 - g(v))`` and
    the same point shifted by ``theta + lam g(v) - lam g(vy)``.
    """
    args.validate()
    lam = model.rate
    g = lambda z: mark_pgf(model.marks, z)
    uvy = complex(args.u) * complex(args.v) * complex(args.y)
    vy = complex(args.v) * complex(args.y)
    head = delay_lst(T_law, complex(args.theta) + complex(args.w) + lam * (1.0 - g(uvy)))
    zeta = complex(args.x) + lam * (1.0 - g(complex(args.v)))
    d = complex(args.theta) + lam * g(complex(args.v)) - lam * g(vy)
    return head * lst_divided_diff(Delta_law, zeta, d)
