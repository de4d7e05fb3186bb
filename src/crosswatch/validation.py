"""Oracle-equivalence battery behind the ``validate`` command.

Every analytic operation in the package is pitted against at least one
independent route to the same number: quadrature, direct series sums,
exact combinatorial identities, numerical transform inversion, or plain
Monte Carlo.  Each check reports the worst observed discrepancy, its
tolerance, and the remaining margin; the report is machine-readable and
byte-stable for a fixed (model, seed).

A check is one measurement ``ctx -> (observed, detail)`` registered by
``@_check(name, tolerance, *covers)``, which is the only place its name,
tolerance and covered operations are written.  Every check passes by the
same rule, ``observed <= tolerance``, so a NaN observation fails.  A
``family=True`` check reads the closed forms and is reported as skipped
for a model outside their family.  An exact check reads the entry point
its command prints from, so a small error in a printed number fails it.

The operations to cover are not listed here: they are the functions in the
``__all__`` of the analytic layers (``model`` to ``timedomain``), so a new
public function fails the coverage meta-check until a check names it.

The battery doubles as a tripwire: it must detect a deliberately
corrupted composite ratio c (``c_shift``), which silently changes the
time-domain closed forms while leaving the transform side intact.
"""

from __future__ import annotations

import importlib
import inspect
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import closedform, fluctuation, laplace, montecarlo, series, timedomain, transforms
from .errors import DivergenceError, DomainError, InversionError, TableInvariantError
from .model import (
    DegenerateZero,
    Exponential,
    Geometric,
    ProcessModel,
    TransformArgs,
    delay_lst,
    mark_pgf,
)

__all__ = ["run_battery"]

# The coverage meta-check requires an oracle check for every function these
# layers export; ``load_model`` only parses configs.
_ANALYTIC_LAYERS = ("model", "transforms", "series", "fluctuation", "closedform", "laplace", "timedomain")
_NOT_ANALYTIC = {"model.load_model"}


def _analytic_ops() -> set[str]:
    """``layer.name`` of every function in an analytic layer's ``__all__``."""
    ops = set()
    for layer in _ANALYTIC_LAYERS:
        module = importlib.import_module(f".{layer}", __package__)
        ops.update(f"{layer}.{name}" for name in module.__all__ if inspect.isfunction(getattr(module, name)))
    return ops - _NOT_ANALYTIC


@dataclass
class _CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    covers: tuple[str, ...]
    detail: str = ""
    skipped: bool = False

    @property
    def margin(self) -> float:
        return self.tolerance - self.observed

    def as_dict(self) -> dict:
        """The report entry; a non-finite observation or margin is written as null (strict JSON)."""
        finite_or_none = lambda value: float(value) if math.isfinite(value) else None
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "skipped": bool(self.skipped),
            "observed": finite_or_none(self.observed),
            "tolerance": float(self.tolerance),
            "margin": finite_or_none(self.margin),
            "covers": list(self.covers),
            "detail": self.detail,
        }


@dataclass
class _Context:
    model: ProcessModel
    c: float | None  # the composite ratio the closed-form checks use; None outside the family
    seed: int
    n_paths: int
    _crossing: dict | None = field(default=None, repr=False)

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])

    @property
    def crossing_sample(self) -> dict:
        if self._crossing is None:
            self._crossing = montecarlo._crossing_sample(self.model, self.n_paths, self.seed)
        return self._crossing


_CHECKS: list[Callable[[_Context], _CheckResult]] = []


def _worst(*values: float) -> float:
    """The largest of ``values``, or NaN if one is: a bare ``max`` drops a NaN that does not come first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _check(name: str, tolerance: float, *covers: str, family: bool = False):
    """Register a measurement ``ctx -> (observed, detail)`` as the check ``name``.

    The check passes exactly when ``observed <= tolerance``.  With ``family``
    it needs the closed forms, and it is skipped when ``ctx.c`` is None.
    """
    def register(measure: Callable[[_Context], tuple[float, str]]) -> Callable[[_Context], _CheckResult]:
        def check(ctx: _Context) -> _CheckResult:
            if family and ctx.c is None:
                return _CheckResult(name, True, 0.0, 0.0, covers, "needs the closed-form family", skipped=True)
            observed, detail = measure(ctx)
            return _CheckResult(name, observed <= tolerance, observed, tolerance, covers, detail)

        _CHECKS.append(check)
        return check

    return register


# ---------------------------------------------------------------------------
# transform primitives


@_check("increment-pgf-quadrature", 1e-10, "transforms.phi", "model.mark_pgf")
def _check_increment_pgf(ctx: _Context) -> tuple[float, str]:
    """phi against the Poisson mixture sum; mark_pgf against direct summation."""
    model = ctx.model
    lam = model.rate
    worst = 0.0
    for z in (0.3, 0.95, -0.4 + 0.2j, 0.6 + 0.6j):
        gz = mark_pgf(model.marks, z)
        if isinstance(model.marks, Geometric):
            a, b = model.marks.a, model.marks.b
            direct = sum(a * b ** (k - 1) * z**k for k in range(1, 4000))
        else:
            direct = sum(p * z**k for k, p in enumerate(model.marks.pmf))
        worst = _worst(worst, abs(gz - direct))
        for s in (0.5, 2.0):
            mix, term, n = 0.0 + 0.0j, math.exp(-lam * s), 0
            while n < 500:
                mix += term * gz**n
                n += 1
                term *= lam * s / n
                if term < 1e-18 and n > lam * s:
                    break
            worst = _worst(worst, abs(transforms.phi(model, z, s) - mix))
    return worst, "closed forms vs direct Poisson-mixture and power sums"


@_check("increment-transform-vs-mc", 1.0, "transforms.gamma", "model.mark_pgf", "model.delay_lst")
def _check_increment_transform_mc(ctx: _Context) -> tuple[float, str]:
    """gamma against a direct Monte Carlo average over one inspection gap, one seed per gap law."""
    model = ctx.model
    z, theta = 0.6, 0.7
    worst = 0.0
    for salt, which in ((3, "initial"), (4, "recurring")):
        law = model.observation.initial if which == "initial" else model.observation.recurring
        exact = transforms.gamma(model, which, z, theta)
        if isinstance(law, DegenerateZero):
            worst = _worst(worst, abs(exact - 1.0) / 1e-9)  # a zero gap transforms to one
            continue

        def draws(rows: slice, rng: np.random.Generator, law=law) -> np.ndarray:
            size = rows.stop - rows.start
            gaps, sums, _ = montecarlo._gap_step(model, law, np.zeros(size, dtype=np.int64), np.zeros(size), rng)
            return montecarlo._powers(z, sums) * np.exp(-theta * gaps)
        est = montecarlo._estimate(np.concatenate(montecarlo._run_chunked(400_000, ctx.seed + salt, draws)))
        worst = _worst(worst, abs(est.mean - exact) / (5.0 * est.std_error + 1e-6))
    return worst, "per-gap joint transform vs sample average (normalized to 5 sigma)"


@_check("contraction-bound", 1.0, "transforms.gamma")
def _check_contraction(ctx: _Context) -> tuple[float, str]:
    """|gamma| < 1 inside the disk, and gamma(1, 0) = 1 to 1e-12 (the defect is read in units of 1e-12)."""
    model = ctx.model
    rng = ctx.rng(4)
    worst_norm = 0.0
    for _ in range(200):
        radius = rng.uniform(0.0, 1.0 - 1e-6)
        z = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        theta = rng.uniform(1e-6, 5.0) if rng.random() < 0.5 else 0.0
        worst_norm = _worst(worst_norm, abs(transforms.gamma(model, "recurring", z, theta)))
    boundary = abs(transforms.gamma(model, "recurring", 1.0, 0.0) - 1.0)
    # the interior bound is strict: a norm of one fails whatever the tolerance
    observed = _worst(worst_norm if worst_norm < 1.0 else math.inf, boundary / 1e-12)
    return observed, f"max interior norm {worst_norm:.6f}; boundary defect {boundary:.2e}"


@_check("window-transforms-vs-mc", 1.0, "transforms.f1_star", "transforms.f2_star")
def _check_window_transforms_mc(ctx: _Context) -> tuple[float, str]:
    """Split-window transforms vs one two-stage simulation that estimates both."""
    model = ctx.model
    t_law, d_law = Exponential(1.0), Exponential(1.0)
    args = TransformArgs(theta=0.8, u=0.7, v=0.9, w=0.2, x=0.3, y=0.6)
    estimates = montecarlo.estimate_window_pair(model, t_law, d_law, args, 100_000, ctx.seed + 5)
    worst = 0.0
    details = []
    for name, analytic_fn in (("f1", transforms.f1_star), ("f2", transforms.f2_star)):
        exact = complex(analytic_fn(model, t_law, d_law, args)).real
        est = estimates[name]
        tol = 5.0 * est.std_error + 1e-5
        worst = _worst(worst, abs(est.mean - exact) / tol)
        details.append(f"{name}: exact {exact:.6f}, mc {est.mean:.6f} +/- {est.std_error:.2e}")
    return worst, "; ".join(details)


# ---------------------------------------------------------------------------
# series machinery


@_check("series-extraction-roundtrip", 1e-12,
        "series.series_from_rational", "series.d_inverse", "series.d_inverse_double_geometric")
def _check_series_roundtrip(ctx: _Context) -> tuple[float, str]:
    rng = ctx.rng(6)
    worst = 0.0
    # generating-transform round trip on integer sequences, exact
    for _ in range(50):
        k_max = int(rng.integers(1, 31))
        f_seq = rng.integers(-50, 51, size=k_max + 1).astype(float)
        coeffs = np.concatenate(([f_seq[0]], np.diff(f_seq)))
        for k in range(k_max + 1):
            worst = _worst(worst, abs(series.d_inverse(coeffs, k) - f_seq[k]))
    # double-geometric inverse vs rational-series extraction
    for _ in range(100):
        f_root = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.4, 0.4)
        g_root = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.4, 0.4)
        k = int(rng.integers(0, 13))
        direct = series.d_inverse_double_geometric(f_root, g_root, k)
        via_series = series.d_inverse(series.series_from_rational([1.0], np.poly([f_root, g_root]), k), k)
        worst = _worst(worst, abs(direct - via_series))
    return worst, "integer round trips and dual-route coefficient extraction"


# ---------------------------------------------------------------------------
# the paper's pointwise blocks, the oracle of the exact series engine
#
# G1 and G2 are partial coefficient sums, in the level-tagging variable s,
# of b1 * (b2 - b3) and gamma0 + gamma * b3.  Here the five blocks are
# evaluated at one explicit point from their displayed formulas, and the
# coefficients are read off a contour by FFT; none of this shares
# coefficient code with the series engine in ``fluctuation``.


@dataclass(frozen=True)
class _BlockValues:
    """The five building blocks of the crossing transforms at one point s.

    ``b1`` alone has a genuine pole where its denominator
    ``theta + lam(g(uvs) - g(uvys))`` vanishes (reported as inf); the
    crossing functionals stay finite only through the product
    ``b1 * (b2 - b3)``, which :func:`_g1_integrand` evaluates jointly.
    """

    b1: complex
    b2: complex
    b3: complex
    gamma0: complex
    gamma: complex


def _blocks_at(model: ProcessModel, args: TransformArgs, s: complex) -> _BlockValues:
    """Evaluate all five blocks at an explicit point s.

    Requires per-epoch contraction at the tagged arguments ``(uvs, w)``
    and ``(uvys, theta + w)``: |z| < 1 or Re damping > 0, each with a
    1e-12 margin.  Otherwise the geometric resolvents inside b2/b3
    diverge and :class:`DivergenceError` is raised.
    """
    lam = model.rate
    g = lambda z: mark_pgf(model.marks, z)
    s = complex(s)
    u, v, w, x, y, theta = (complex(args.u), complex(args.v), complex(args.w),
                            complex(args.x), complex(args.y), complex(args.theta))
    uvs, uvys = u * v * s, u * v * y * s
    for z, damp, where in ((uvs, w, "(u*v*s, w)"), (uvys, theta + w, "(u*v*y*s, theta + w)")):
        if not (abs(z) < 1.0 - 1e-12 or damp.real > 1e-12):
            raise DivergenceError(f"per-epoch transform at {where} is not contractive")

    obs = model.observation
    eta2 = w + lam * (1.0 - g(uvs))
    eta3 = theta + w + lam * (1.0 - g(uvys))
    b2 = delay_lst(obs.initial, eta2) / (1.0 - delay_lst(obs.recurring, eta2))
    b3 = delay_lst(obs.initial, eta3) / (1.0 - delay_lst(obs.recurring, eta3))

    denom = theta + lam * (g(uvs) - g(uvys))
    numer = transforms.gamma(model, "recurring", v, x) - transforms.gamma(model, "recurring", v * s, x)
    if denom != 0.0:
        b1 = numer / denom
    else:
        b1 = complex(math.inf) if numer != 0.0 else complex(0.0)

    zeta1 = x + lam * (1.0 - g(v))
    d1 = theta + lam * (g(v) - g(v * y))
    zeta2 = x + lam * (1.0 - g(v * s))
    d2 = theta + lam * (g(v * s) - g(v * y * s))
    dd = transforms.lst_divided_diff
    gamma0 = dd(obs.initial, zeta1, d1) - dd(obs.initial, zeta2, d2)
    gamma_ = dd(obs.recurring, zeta1, d1) - dd(obs.recurring, zeta2, d2)
    return _BlockValues(b1=b1, b2=b2, b3=b3, gamma0=gamma0, gamma=gamma_)


def _g1_integrand(model: ProcessModel, args: TransformArgs, s: complex) -> complex:
    """b1 * (b2 - b3) with the removable pole crossed as a divided difference."""
    lam = model.rate
    g = lambda z: mark_pgf(model.marks, z)
    u, v, y = complex(args.u), complex(args.v), complex(args.y)
    w, x, theta = complex(args.w), complex(args.x), complex(args.theta)
    uvs = u * v * complex(s)
    eta2 = w + lam * (1.0 - g(uvs))
    d = theta + lam * (g(uvs) - g(uvs * y))
    numer = transforms.gamma(model, "recurring", v, x) - transforms.gamma(model, "recurring", v * complex(s), x)
    return numer * transforms.resolvent_divided_diff(model, eta2, d)


def _g2_integrand(model: ProcessModel, args: TransformArgs, s: complex) -> complex:
    """gamma0 + gamma * b3; every block is finite where the resolvents converge."""
    blocks = _blocks_at(model, args, s)
    return blocks.gamma0 + blocks.gamma * blocks.b3


def _coeffs_by_sampling(f: Callable[[complex], complex], order: int) -> np.ndarray:
    """Taylor coefficients 0..order <= 16 of f via FFT on the circle |s| = 0.5.

    128 nodes keep aliasing from truncation negligible at these orders.
    """
    rho, n = 0.5, 128
    nodes = rho * np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.array([f(s) for s in nodes], dtype=complex)
    # forward transform: sum_j f(rho w^j) w^{-jk} = n * c_k * rho^k
    return np.fft.fft(vals)[: order + 1] / (n * rho ** np.arange(order + 1))


@_check("crossing-series-path-agreement", 1e-9, "fluctuation.g1_star", "fluctuation.g2_star")
def _check_series_paths(ctx: _Context) -> tuple[float, str]:
    """Pointwise blocks vs the pole-crossed G1 integrand; the engine vs contour sampling."""
    model = ctx.model
    args = TransformArgs(theta=0.9, u=0.95, v=0.85, w=0.1, x=0.2, y=0.9)
    worst = 0.0
    # small |s| keeps theta + lam*(g(uvs) - g(uvys)), b1's denominator, far from zero
    for s in (0.2, -0.3 + 0.15j, 0.35j):
        blocks = _blocks_at(model, args, s)
        direct = _g1_integrand(model, args, s)
        worst = _worst(worst, abs(blocks.b1 * (blocks.b2 - blocks.b3) - direct) / max(1.0, abs(direct)))
    # G1 and G2 at threshold k are the partial sums through order k of their integrands'
    # coefficients; FFT sampling on a fixed circle loses accuracy at high order.
    lead = min(model.threshold, 16)
    engine = np.array([fluctuation._g_parts(replace(model, threshold=k), args) for k in range(lead + 1)])
    for sums, integrand in zip(engine.T, (_g1_integrand, _g2_integrand)):
        sampled = np.cumsum(_coeffs_by_sampling(partial(integrand, model, args), lead))
        worst = _worst(worst, float(np.max(np.abs(sampled - sums))) / max(1.0, float(np.max(np.abs(sums)))))
    return worst, ("pointwise blocks vs the pole-crossed G1 integrand; the engine's G1 and G2 at thresholds "
                   f"0..{lead} vs partial sums of FFT contour sampling")


# ---------------------------------------------------------------------------
# closed-form suite (the closed-form family only)


@_check("transform-chain-agreement", 1e-8,
        "fluctuation.g1_star", "closedform.g1_star_special", "closedform._pole", family=True)
def _check_transform_chain(ctx: _Context) -> tuple[float, str]:
    model = ctx.model
    lam, mu, b = model.rate, model.observation.recurring.rate, model.marks.b
    worst, zero_at = 0.0, ""
    for v in (0.3, 0.7):
        # the one-gap transform is mu (1 - b v) / ((mu + lam) (1 - f(mu, v)))
        by_pole = mu * (1.0 - b * v) / ((mu + lam) * (1.0 - closedform._pole(mu, v, model)))
        worst = _worst(worst, abs(transforms.gamma(model, "recurring", v, 0.0) - by_pole))
        for theta in (0.5, 2.0):
            args = TransformArgs(theta=theta, u=1.0, v=v, w=0.0, x=0.0, y=1.0)
            series_route = fluctuation.g1_star(model, args)
            closed_route = closedform.g1_star_special(model, theta, v)
            # the exact series holds 1e-12 relative where the closed form,
            # cancelling terms of order one, can round a tiny value to 0
            if series_route == 0.0:  # no relative error exists: only an exact match agrees
                zero_at += f"; the series route is 0 at v = {v}, theta = {theta}"
                worst = _worst(worst, 0.0 if closed_route == 0.0 else math.inf)
            else:
                worst = _worst(worst, abs(series_route - closed_route) / abs(series_route))
    return worst, ("series-extraction route vs rational closed form; pole factor vs the one-gap transform"
                   + zero_at)


@_check("partition-identity", 1e-10, "fluctuation.g_star")
def _check_partition(ctx: _Context) -> tuple[float, str]:
    model = ctx.model
    worst = 0.0
    for theta in (0.1, 1.0, 10.0):
        args = TransformArgs(theta=theta, u=1.0, v=1.0, w=0.0, x=0.0, y=1.0)
        g1 = fluctuation.g1_star(model, args)
        g2 = fluctuation.g2_star(model, args)
        g = fluctuation.g_star(model, args)
        worst = _worst(worst, abs(g - (g1 + g2)))
        total = theta * (g1 + g2) + fluctuation.lst_tau_cross(model, theta)
        worst = _worst(worst, abs(total - 1.0))
        pre = fluctuation.lst_tau_pre(model, theta)
        cross = fluctuation.lst_tau_cross(model, theta)
        worst = _worst(worst, abs(pre.imag), cross.real - pre.real - 1e-12)
    return worst, "windows partition [0, tau_nu); transform ordering sanity"


@_check("inversion-roundtrip-known-pairs", 1e-7, "laplace.invert")
def _check_inversion_pairs(ctx: _Context) -> tuple[float, str]:
    del ctx
    pairs = [
        (lambda q: 1.0 / (q + 1.0), lambda t: math.exp(-t)),
        (lambda q: 1.0 / q**2, lambda t: t),
        (lambda q: 1.0 / (q + 0.5) ** 2, lambda t: t * math.exp(-0.5 * t)),
        # Erlang(3, 2) CDF
        (lambda q: (2.0 / (q + 2.0)) ** 3 / q, lambda t: 1.0 - math.exp(-2.0 * t) * (1.0 + 2.0 * t + 2.0 * t * t)),
        (lambda q: q / (q + 1.0) ** 2, lambda t: (1.0 - t) * math.exp(-t)),
    ]
    times = (0.25, 1.0, 4.0)
    worst = 0.0
    for transform, original in pairs:
        errors = laplace.invert(transform, times) - [original(t) for t in times]
        worst = _worst(worst, float(np.max(np.abs(errors))))
    return worst, "five analytic transform/original pairs on t in {0.25, 1, 4}"


@_check("time-domain-inversion-agreement", 1e-6,
        "closedform.g1_star_special", "closedform.ev_v_anu_before", "laplace.invert", family=True)
def _check_time_domain_inversion(ctx: _Context) -> tuple[float, str]:
    """The c-sensitive tripwire: invert the transform, compare to the closed form."""
    model = ctx.model
    times = (0.25, 1.0, 4.0)
    worst = 0.0
    for v in (0.3, 0.6, 0.9):
        inverted = laplace.invert(lambda q: closedform.g1_star_special(model, q, v), times)
        direct = np.array([closedform._ev_v_anu_before(model, v, t, ctx.c).real for t in times])
        worst = _worst(worst, float(np.max(np.abs(inverted - direct) / np.maximum(1e-12, np.abs(direct)))))
    return worst, "numeric inversion of the window transform vs its exact original"


@_check("time-domain-law-agreement", 1e-6,
        "timedomain.survival_pre", "timedomain.survival_cross", "fluctuation.g1_star", "fluctuation.g_star",
        "fluctuation.lst_tau_pre", "fluctuation.lst_tau_cross", "laplace.invert", "laplace.survival_curve")
def _check_time_domain_laws(ctx: _Context) -> tuple[float, str]:
    """Both exact survival laws against Euler inversion of their transforms, two ways.

    The laws come from the one call the commands print from, and the public
    ``survival_pre`` and ``survival_cross`` must return their bits.  G1 and G
    at the all-ones tagging point transform t -> P{tau_pre > t} and
    t -> P{tau_cross > t} themselves, so they are inverted directly;
    ``survival_curve`` inverts the same laws from ``lst_tau_*`` through
    (1 - lst) / theta.  A failed inversion or a public law off those bits observes inf.
    """
    model = ctx.model
    times = timedomain._mean_cross_time(model) * np.array([0.5, 1.0, 2.0])
    worst = 0.0
    for exact, law, g, lst in zip(
        timedomain._survival_laws(model, times),
        (timedomain.survival_pre, timedomain.survival_cross),
        (fluctuation.g1_star, fluctuation.g_star),
        (fluctuation.lst_tau_pre, fluctuation.lst_tau_cross),
    ):
        if law(model, times).tobytes() != exact.tobytes():
            return math.inf, f"{law.__name__} differs from the law the commands print"
        try:
            inverted = laplace.invert(lambda q: g(model, TransformArgs(theta=q)), times)
            curve = laplace.survival_curve(lambda q: lst(model, q), times)
        except InversionError as exc:
            return math.inf, str(exc)
        worst = _worst(worst, float(np.max(np.abs(inverted - exact))), float(np.max(np.abs(curve - exact))))
    return worst, ("positive-sum survival laws vs inverted G1 and G, and vs survival_curve "
                   "of lst_tau_*, at 0.5, 1, 2 x E[tau_cross]")


@_check("pgf-extraction-consistency", 1e-8, "closedform.dist_table", "closedform.ev_v_anu_before", family=True)
def _check_pgf_extraction(ctx: _Context) -> tuple[float, str]:
    model, m = ctx.model, ctx.model.threshold
    times = (0.25, 1.0, 4.0)
    table = closedform.dist_table(model, times, max(500, m + 2))
    worst = 0.0
    for t, row in zip(times, table):
        for v in (0.3, 0.6, 0.9):
            total = row @ v ** np.arange(row.size)
            direct = closedform._ev_v_anu_before(model, v, t, ctx.c).real
            worst = _worst(worst, abs(total - direct))
    return worst, "v**r-weighted coefficient sums vs the generating function"


@_check("gamma-cdf-identity", 1e-12, "timedomain._poisson_tails")
def _check_gamma_cdf(ctx: _Context) -> tuple[float, str]:
    del ctx
    worst = 0.0
    for x in (0.3, 1.0, 5.0, 20.0):
        tails = timedomain._poisson_tails(x, 25)
        tail = 1.0
        term = math.exp(-x)
        for k in range(0, 26):
            # tail = P{Poisson(x) >= k}, updated before use at each k
            worst = _worst(worst, abs(tails[k] - tail))
            tail -= term
            term *= x / (k + 1)
    return worst, "regularized lower gamma vs exact Poisson tail recursion"


@_check("gh-coefficient-limits", 1e-10, "closedform._gh_arrays", family=True)
def _check_gh_limits(ctx: _Context) -> tuple[float, str]:
    model = ctx.model
    b, ratio = model.marks.b, model.observation.recurring.rate / model.rate
    t_inf = 200.0 / min(1.0, model.rate)
    g0, h0 = closedform._gh_arrays(model, 0.0, 6)
    g_inf, h_inf = closedform._gh_arrays(model, t_inf, 6)
    worst = 0.0
    for j in range(7):
        worst = _worst(worst, abs(g0[j] - b**j))
        worst = _worst(worst, abs(h0[j] - b ** (j + 1)))
        worst = _worst(worst, abs(g_inf[j] - (1.0 + ratio)))
        worst = _worst(worst, abs(h_inf[j] - (1.0 + b * ratio)))  # b (1 + mu/lam) + a: H mixes b base + a P
    return worst, "t -> 0 and t -> infinity limits of the inversion coefficients"


@_check("dist-table-invariants", 1e-9, "closedform.dist_table", family=True)
def _check_dist_table(ctx: _Context) -> tuple[float, str]:
    """1.0 if ``dist_table`` raises :class:`TableInvariantError`, else 0.0."""
    try:
        closedform.dist_table(ctx.model, [0.0, 0.5, 1.0, 2.0], 12)
    except TableInvariantError as exc:
        cells = ", ".join(str(cell) for cell in exc.cells[:5])
        return 1.0, f"invariant violation at cells {cells}"
    return 0.0, "support, range, monotonicity, and row-sum invariants hold"


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks


def _mc_band(freq: np.ndarray, exact: np.ndarray, n: int) -> float:
    """The worst |freq - p| in units of 5 binomial standard errors at the exact p, plus 1/n.

    The 1/n keeps a band of one path where p is near 0 or 1.  An exact value outside [0, 1], or NaN,
    is no probability and observes inf.
    """
    if not np.all((exact >= 0.0) & (exact <= 1.0)):
        return math.inf
    return float(np.max(np.abs(freq - exact) / (5.0 * np.sqrt(exact * (1.0 - exact) / n) + 1.0 / n)))


@_check("mc-joint-agreement", 1.0, "closedform.dist_table", family=True)
def _check_mc_joint(ctx: _Context) -> tuple[float, str]:
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    r_max = 10
    table = closedform.dist_table(ctx.model, grid, r_max)
    freq = montecarlo._joint_frequencies(ctx.crossing_sample, r_max, grid)
    return (_mc_band(freq, table, ctx.n_paths),
            f"joint table vs {ctx.n_paths} simulated crossings (normalized to 5 SE + 1/n)")


@_check("survival-vs-mc", 1.0, "timedomain.survival_pre", "timedomain.survival_cross")
def _check_survival_mc(ctx: _Context) -> tuple[float, str]:
    """Both exact survival laws vs the sample's exceedance frequencies, to 5 SE + 1/n."""
    sample = ctx.crossing_sample
    grid = np.linspace(0.0, 4.0, 9)
    worst = 0.0
    for key, exact in zip(("tau_pre", "tau_cross"), timedomain._survival_laws(ctx.model, grid)):
        empirical = np.array([np.mean(sample[key] > t) for t in grid])
        worst = _worst(worst, _mc_band(empirical, exact, ctx.n_paths))
    return worst, "exact survival laws vs empirical exceedance frequencies (normalized to 5 SE + 1/n)"


@_check("overshoot-pmf-vs-mc", 1.0, "timedomain.crossing_level_law", "model.mark_mean")
def _check_overshoot_pmf(ctx: _Context) -> tuple[float, str]:
    """The crossing-level law, to 5 SE + 1/n, and its exact mean, to 5 SE, against simulated crossings."""
    n = ctx.n_paths
    m = ctx.model.threshold
    law, mean = timedomain.crossing_level_law(ctx.model, m + 10)
    counts = np.bincount(ctx.crossing_sample["a_cross"], minlength=m + 11)
    worst = _mc_band(counts[m + 1 : m + 11] / n, law[m + 1 :], n)
    overshoot = np.arange(counts.size) - m
    sample_mean = float(counts @ overshoot) / n
    sample_var = float(counts @ (overshoot - sample_mean) ** 2) / (n - 1)
    worst = _worst(worst, abs(sample_mean - mean) / (5.0 * math.sqrt(sample_var / n)))
    return worst, ("crossing-level law and mean overshoot vs empirical crossing levels "
                   "(normalized to 5 SE + 1/n and 5 SE)")


@_check("functional-vs-mc", 1.0, "fluctuation.g1_star", "fluctuation.g2_star", "fluctuation.g_star",
        "model.mark_sample")
def _check_functional_mc(ctx: _Context) -> tuple[float, str]:
    """G1 and G2 (and exact additivity) from the shared crossing sample at args_fast; G1 on a smaller tagged sample."""
    model = ctx.model
    worst = 0.0
    details = []
    args_fast = TransformArgs(theta=1.0, u=0.8, v=0.9, w=0.15, x=0.25, y=1.0)
    args_slow = TransformArgs(theta=1.0, u=0.9, v=0.95, w=0.1, x=0.1, y=0.8)
    fast = montecarlo._sample_functionals(ctx.crossing_sample, args_fast)
    # y < 1 needs its own tagged sample, drawn as ``simulate`` draws it
    slow_sample = montecarlo._functional_sample(model, args_slow, max(10_000, ctx.n_paths // 5), ctx.seed + 19)
    slow = montecarlo._sample_functionals(slow_sample, args_slow)
    for tag, args, est, exact_fn in (
        ("G1|y=1", args_fast, fast["G1"], fluctuation.g1_star),
        ("G2|y=1", args_fast, fast["G2"], fluctuation.g2_star),
        ("G1|y<1", args_slow, slow["G1"], fluctuation.g1_star),
    ):
        exact = exact_fn(model, args).real
        tol = 5.0 * est.std_error + 1e-5
        worst = _worst(worst, abs(est.mean - exact) / tol)
        details.append(f"{tag}: exact {exact:.6f}, mc {est.mean:.6f}")
    if fast["G"].mean != fast["G1"].mean + fast["G2"].mean:
        worst = _worst(worst, 2.0)
        details.append("additivity violated")
    return worst, "; ".join(details)


@_check("crossing-index-vs-mc", 1.0, "timedomain._visits")
def _check_crossing_index_mc(ctx: _Context) -> tuple[float, str]:
    """E[nu] = sum_k v(k), since the looks tau_0 .. tau_{nu-1} each see a level k <= M, against the
    shared sample's mean nu, to 5 SE + 1/n."""
    exact = float(timedomain._visits(ctx.model).sum())
    est = montecarlo._estimate(ctx.crossing_sample["nu"])
    return (abs(est.mean - exact) / (5.0 * est.std_error + 1.0 / ctx.n_paths),
            f"E[nu]: exact {exact:.6f}, mc {est.mean:.6f} +/- {est.std_error:.2e} (normalized to 5 SE + 1/n)")


@_check("window-tiling-identity", 1e-12)
def _check_window_tiling(ctx: _Context) -> tuple[float, str]:
    """The y = 1 windows of a small tagged sample against closed forms of its own crossing times.

    Per path, window_pre = (1 - e^{-theta tau_pre}) / theta and window_pre +
    window_cross = (1 - e^{-theta tau_cross}) / theta, to 1e-12 relative.  The
    simulator sums the windows stretch by stretch, over runs of skipped empty
    gaps and the arrivals of busy ones, so a stretch left out, counted twice
    or misplaced in time breaks the tiling.
    """
    theta = 0.8
    sample = montecarlo._crossing_sample(ctx.model, 2_000, ctx.seed + 23, theta, 1.0)
    worst = 0.0
    for got, tau in ((sample["window_pre"], sample["tau_pre"]),
                     (sample["window_pre"] + sample["window_cross"], sample["tau_cross"])):
        exact = -np.expm1(-theta * tau) / theta
        worst = _worst(worst, float(np.max(np.abs(got - exact) / np.maximum(exact, np.finfo(float).tiny))))
    return worst, f"2000 tagged paths at y = 1, theta = {theta}: windows vs closed forms of their crossing times"


def _model_echo(model: ProcessModel) -> dict:
    if isinstance(model.marks, Geometric):
        marks = {"geometric": {"a": model.marks.a}}
    else:  # a GeneralDiscrete: any other law fails in mark_pgf before the report is built
        marks = {"pmf": [float(p) for p in model.marks.pmf]}
    recurring = model.observation.recurring
    obs = {"recurring": type(recurring).__name__, "initial": type(model.observation.initial).__name__,
           "mu": recurring.rate}
    return {"rate": model.rate, "marks": marks, "obs": obs, "threshold": model.threshold}


def run_battery(
    model: ProcessModel,
    seed: int = 0,
    c_shift: float = 0.0,
    n_paths: int = 100_000,
) -> dict:
    """Run every oracle check and return the machine-readable report.

    ``c_shift`` perturbs the composite ratio c that the G_j/H_j formula
    of ``ev_v_anu_before`` reads (negative control); the battery is
    expected to fail loudly for any nonzero shift beyond roundoff.  A
    model outside the closed-form family has no ratio to shift, and a
    shift that moves c out of (b, 1) leaves the formula's domain; either
    raises :class:`DomainError` rather than testing nothing.
    """
    if n_paths < 1_000:
        raise DomainError(f"battery needs at least 1000 paths, got {n_paths}")
    try:
        c = closedform._family(model)
    except DomainError as exc:
        if c_shift != 0.0:
            raise DomainError(f"c_shift perturbs the closed forms, which do not apply to this model: {exc}") from exc
        c = None
    else:
        c += c_shift
        if not model.marks.b < c < 1.0:
            raise DomainError(f"c_shift must keep c in ({model.marks.b}, 1), got c = {c}")
    ctx = _Context(model=model, c=c, seed=int(seed), n_paths=int(n_paths))

    results = [check(ctx) for check in _CHECKS]

    required = _analytic_ops()
    if c is None:
        # the closed forms hold only for their family
        required = {op for op in required if not op.startswith("closedform.")}
    covered: set[str] = set()
    for res in results:
        if not res.skipped:
            covered.update(res.covers)
    missing = sorted(required - covered)
    detail = (f"uncovered: {', '.join(missing)}" if missing
              else "every applicable analytic operation has an oracle check")
    results.append(_CheckResult("coverage-complete", not missing, float(len(missing)), 0.0, (), detail))

    results.sort(key=lambda res: res.name)
    return {
        "schema_version": 1,
        "seed": int(seed),
        "c_shift": float(c_shift),
        "n_paths": int(n_paths),
        "model": _model_echo(model),
        "checks": [res.as_dict() for res in results],
        "coverage": {
            "required": sorted(required),
            "covered": sorted(covered & required),
            "missing": missing,
        },
        "failed_checks": [res.name for res in results if not res.skipped and not res.passed],
        "all_passed": all(res.passed for res in results if not res.skipped),
    }
