"""Joint transforms of the accumulated-mark process over one or two windows.

The module holds the PGF ``phi``, the one-gap kernel ``gamma``, the
two-window transforms ``f1*``/``f2*``, and the divided differences of
delay LSTs that ``f1*``/``f2*`` and the battery's pointwise blocks read.

The accumulated mark ``A(s)`` of a marked Poisson stream has the compound
PGF ``phi(z, s) = exp(lam * s * (g(z) - 1))`` where ``g`` is the mark PGF.
Every two-window functional of the form
``E[u^{A(T)} v^{A(T+D)} e^{-wT - xD} y^{A(t)}; window]`` reduces, after
integrating t, to divided differences of a delay LST evaluated at
arguments that differ by a denominator that may vanish.  For the zero and
exponential delay laws those divided differences have closed forms with no
difference quotient, so every formula stays finite and accurate through
the removable points.
"""

from __future__ import annotations

import cmath
import math

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

__all__ = ["phi", "gamma", "f1_star", "f2_star"]


def phi(model: ProcessModel, z: complex, s: float) -> complex:
    """PGF of the mark total on a window of length ``s``: E[z**A(s)].

    Requires |z| <= 1 and a finite s >= 0.
    """
    if not 0.0 <= s < math.inf:
        raise DomainError(f"window length must be finite and >= 0, got {s}")
    z = complex(z)
    if not abs(z) <= 1.0 + 1e-12:
        raise DomainError(f"|z| must be <= 1, got {abs(z)}")
    return cmath.exp(model.rate * s * (mark_pgf(model.marks, z) - 1.0))


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
        if denom == 0.0:
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
    lam = model.rate
    g = lambda z: mark_pgf(model.marks, z)
    uvy = complex(args.u) * complex(args.v) * complex(args.y)
    vy = complex(args.v) * complex(args.y)
    head = delay_lst(T_law, complex(args.theta) + complex(args.w) + lam * (1.0 - g(uvy)))
    zeta = complex(args.x) + lam * (1.0 - g(complex(args.v)))
    d = complex(args.theta) + lam * g(complex(args.v)) - lam * g(vy)
    return head * lst_divided_diff(Delta_law, zeta, d)
