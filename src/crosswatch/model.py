"""Process model: mark laws, observation-delay laws, and argument bundles.

The modelled system is a Poisson stream of events at rate ``lam``; event
``k`` carries an integer mark (its damage size), and ``A(t)`` is the total
mark accumulated on ``[0, t]``.  The process is only inspected on a delayed
renewal grid ``tau_0 = D_0``, ``tau_n = tau_{n-1} + D_n`` where ``D_0``
follows the initial delay law and ``D_1, D_2, ...`` the recurring one.  The
exit index ``nu`` is the first inspection ``n`` with ``A(tau_n) > M``.

This module holds the value types and the elementary transforms attached to
them: probability generating function of the mark law and Laplace-Stieltjes
transform of each delay law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import AbstractSet, Mapping, Sequence, Union

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError, UnsupportedLawError

__all__ = [
    "Geometric",
    "GeneralDiscrete",
    "MarkLaw",
    "DegenerateZero",
    "Exponential",
    "DelayLaw",
    "ObservationLaw",
    "ProcessModel",
    "TransformArgs",
    "mark_pgf",
    "mark_mean",
    "mark_sample",
    "delay_lst",
    "load_model",
]

MAX_THRESHOLD = 10_000
_UNIT_TOL = 1e-12


# ---------------------------------------------------------------------------
# mark laws


@dataclass(frozen=True)
class Geometric:
    """Geometric mark law on {1, 2, ...}: P{mark = k} = a * b**(k-1), b = 1 - a.

    ``a`` is the success parameter; the mean mark size is ``1/a``.
    """

    a: float
    b: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise DomainError(f"geometric parameter a must lie in (0, 1], got {self.a}")
        object.__setattr__(self, "b", 1.0 - self.a)


@dataclass(frozen=True, eq=False)
class GeneralDiscrete:
    """Finite-support mark law: ``pmf[k]`` is the probability of mark ``k``."""

    pmf: np.ndarray

    def __init__(self, pmf):
        vec = np.asarray(pmf, dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise DomainError("pmf must be a nonempty vector")
        if not (np.all(vec >= 0.0) and abs(vec.sum() - 1.0) <= 1e-9):  # a NaN fails too
            raise DomainError("pmf entries must be nonnegative and sum to 1")
        vec = vec / vec.sum()
        vec.setflags(write=False)
        object.__setattr__(self, "pmf", vec)


MarkLaw = Union[Geometric, GeneralDiscrete]


def _mark_pgf_rational(law: MarkLaw) -> tuple[list[float], list[float]]:
    """The mark PGF as (numerator, denominator) coefficients, ascending in z."""
    if isinstance(law, Geometric):
        return [0.0, law.a], [1.0, -law.b]
    if isinstance(law, GeneralDiscrete):
        return law.pmf.tolist(), [1.0]
    raise UnsupportedLawError(f"unknown mark law {type(law).__name__}")


def _horner(coeffs: list[float], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def mark_pgf(law: MarkLaw, z: complex) -> complex:
    """Probability generating function E[z**mark] of a mark law, as N(z) / D(z)."""
    z = complex(z)
    num, den = _mark_pgf_rational(law)
    denom = _horner(den, z)
    if abs(denom) < _UNIT_TOL:
        raise DomainError(f"mark pgf evaluated at its pole z = {z}")
    return _horner(num, z) / denom


def mark_mean(law: MarkLaw) -> float:
    """Mean mark size."""
    if isinstance(law, Geometric):
        return 1.0 / law.a
    if isinstance(law, GeneralDiscrete):
        return float(np.arange(law.pmf.size) @ law.pmf)
    raise UnsupportedLawError(f"unknown mark law {type(law).__name__}")


def mark_sample(law: MarkLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` iid marks; a geometric mark is floor(E / -ln b) + 1, E unit exponential."""
    if isinstance(law, Geometric):
        if law.b == 0.0:
            return np.ones(size, dtype=np.int64)
        draws = rng.standard_exponential(size)
        draws /= -math.log1p(-law.a)
        marks = draws.astype(np.int64)
        marks += 1
        return marks
    if isinstance(law, GeneralDiscrete):
        return rng.choice(law.pmf.size, p=law.pmf, size=size)
    raise UnsupportedLawError(f"unknown mark law {type(law).__name__}")


# ---------------------------------------------------------------------------
# delay laws


@dataclass(frozen=True)
class DegenerateZero:
    """Point mass at zero; the undelayed (immediate first inspection) case."""


@dataclass(frozen=True)
class Exponential:
    """Exponential delay with the given rate (mean ``1/rate``)."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise DomainError(f"exponential rate must be positive and finite, got {self.rate}")


DelayLaw = Union[DegenerateZero, Exponential]


def delay_lst(law: DelayLaw, z: complex) -> complex:
    """Laplace-Stieltjes transform E[exp(-z * delay)]."""
    z = complex(z)
    if isinstance(law, DegenerateZero):
        return 1.0 + 0.0j
    if isinstance(law, Exponential):
        denom = law.rate + z
        if abs(denom) < _UNIT_TOL * law.rate:
            raise DomainError("exponential LST evaluated at its pole z = -rate")
        return law.rate / denom
    raise UnsupportedLawError(f"unknown delay law {type(law).__name__}")


# ---------------------------------------------------------------------------
# observation grid and full model


@dataclass(frozen=True)
class ObservationLaw:
    """Delay laws of the inspection grid: one initial gap, then iid recurring gaps.

    The initial gap is zero or exponential.  The recurring gap must be a.s.
    positive (DegenerateZero would freeze the grid), so it is exponential.
    """

    initial: DelayLaw
    recurring: Exponential

    def __post_init__(self):
        if not isinstance(self.initial, (DegenerateZero, Exponential)):
            raise UnsupportedLawError(f"unsupported initial delay {type(self.initial).__name__}")
        if not isinstance(self.recurring, Exponential):
            raise UnsupportedLawError(f"recurring delay must be Exponential, got {type(self.recurring).__name__}")


@dataclass(frozen=True)
class ProcessModel:
    """Marked Poisson process watched through a delayed renewal grid.

    Attributes
    ----------
    rate : float
        Arrival intensity of the marked Poisson stream (lambda > 0).
    marks : MarkLaw
        Law of the integer mark attached to each arrival; any other type
        raises :class:`UnsupportedLawError` on construction, and marks that
        are all zero, which never move the level, :class:`DivergenceError`.
    observation : ObservationLaw
        Laws of the initial and recurring inspection gaps.
    threshold : int
        Crossing level M; the exit index is the first inspection with
        accumulated marks strictly above M.  Bounded by 10_000.
    """

    rate: float
    marks: MarkLaw
    observation: ObservationLaw
    threshold: int

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DomainError(f"arrival rate lambda must be positive, got {self.rate}")
        if not math.isfinite(self.rate):
            raise DomainError("arrival rate lambda must be finite")
        if not isinstance(self.marks, (Geometric, GeneralDiscrete)):
            raise UnsupportedLawError(f"unsupported mark law {type(self.marks).__name__}")
        m = self.threshold
        if isinstance(m, bool) or not (isinstance(m, (int, np.integer)) and 0 <= m <= MAX_THRESHOLD):
            raise DomainError(f"threshold must be an integer in [0, {MAX_THRESHOLD}], got {m!r}")
        num, den = _mark_pgf_rational(self.marks)
        if num[0] / den[0] == 1.0:  # f0 = N(0) / D(0) is the chance of a zero mark
            raise DivergenceError("every mark is zero, so the level never crosses the threshold")

    @property
    def first_rate(self) -> float | None:
        """Rate of an exponential first gap; None for a first look at time 0."""
        initial = self.observation.initial
        return None if isinstance(initial, DegenerateZero) else initial.rate


def _times(t_grid: Sequence[float] | np.ndarray) -> np.ndarray:
    """A time grid as a float array: one-dimensional, finite and nonnegative."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError("time grid must be one-dimensional")
    if not ((grid >= 0.0) & (grid < math.inf)).all():  # a NaN fails too
        raise DomainError("time grid entries must be nonnegative and finite")
    return grid


def _table_times(t_grid: Sequence[float] | np.ndarray) -> np.ndarray:
    """The time grid of a joint table: also nonempty and sorted ascending."""
    grid = _times(t_grid)
    if grid.size == 0:
        raise DomainError("time grid must be nonempty")
    if (grid[1:] < grid[:-1]).any():
        raise DomainError("time grid must be sorted ascending")
    return grid


def _level_bound(r_max) -> int:
    """The top level r_max of a crossing-level law or table: a nonnegative integer, never a boolean."""
    if isinstance(r_max, bool) or not isinstance(r_max, (int, np.integer)) or r_max < 0:
        raise DomainError(f"r_max must be a nonnegative integer, got {r_max!r}")
    return int(r_max)


# ---------------------------------------------------------------------------
# transform argument bundle


@dataclass(frozen=True)
class TransformArgs:
    """Arguments (theta, u, v, w, x, y) of the joint crossing functionals.

    theta damps the running time t, u tags the pre-crossing level, v the
    crossing level, w the pre-crossing epoch, x the final gap, and y the
    level A(t) at the running time.  theta may also be an ndarray: the
    transforms then evaluate at each of its entries.

    Validity is checked on construction, with :class:`DomainError` for a
    breach: |u|, |v|, |y| <= 1, theta, w and x finite with nonnegative real
    parts (a slack of 1e-12 on each bound, where a real part below 0 is
    stored as 0), and no NaN anywhere.
    """

    theta: complex = 0.0
    u: complex = 1.0
    v: complex = 1.0
    w: complex = 0.0
    x: complex = 0.0
    y: complex = 1.0

    def __post_init__(self):
        # each test is written so that a NaN fails it
        for name in ("u", "v", "y"):
            size = abs(complex(getattr(self, name)))
            if not size <= 1.0 + _UNIT_TOL:
                raise DomainError(f"|{name}| must be <= 1, got {size}")
        thetas = np.ravel(self.theta).tolist()
        if not thetas:
            raise DomainError("theta must hold at least one value, got an empty array")
        if not all(map(cmath.isfinite, thetas)):
            raise DomainError(f"theta must be finite, got {self.theta!r}")
        real = min(theta.real for theta in thetas)
        if not real >= -_UNIT_TOL:
            raise DomainError(f"Re theta must be >= 0, got {real}")
        for name in ("w", "x"):
            val = complex(getattr(self, name))
            if not cmath.isfinite(val):
                raise DomainError(f"{name} must be finite, got {val}")
            if not val.real >= -_UNIT_TOL:
                raise DomainError(f"Re {name} must be >= 0, got {val.real}")
        for name, values in (("theta", thetas), ("w", [self.w]), ("x", [self.x])):
            if any(z.real < 0.0 for z in values):  # read as 0, so no layer evaluates in the slack; the type is kept
                value = getattr(self, name)
                object.__setattr__(self, name, value - np.minimum(np.real(value), 0.0))


# ---------------------------------------------------------------------------
# configuration loading

_MODEL_KEYS = frozenset({"schema_version", "lambda", "marks", "obs", "threshold"})
_OBS_INITIAL = ("exp", "zero")  # a tuple: an unhashable value is refused, not a TypeError


def _config_number(value, where: str) -> float:
    """A config value as a float: a finite JSON number, never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{where} must be finite, got an integer beyond the float range") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _section(value, where: str, keys: AbstractSet[str], required: AbstractSet[str]) -> Mapping:
    """The config object ``where``: a JSON object with no key outside ``keys`` and every key of ``required``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a JSON object")
    if not keys.issuperset(value):
        raise ConfigError(f"unknown config key(s) {sorted(set(value) - keys)} in {where}")
    missing = required.difference(value)
    if missing:
        raise ConfigError(f"missing config key(s) {sorted(missing)} in {where}")
    return value


def _schema_version(section: Mapping, where: str) -> None:
    """Refuse a ``schema_version`` of ``where`` other than the JSON integer 1: not ``true``, not ``1.0``."""
    version = section["schema_version"]
    if type(version) is not int or version != 1:
        raise ConfigError(f"unsupported schema_version {version!r} in {where}")


def _built(where: str, law, *args):
    """``law(*args)``; the :class:`DomainError` of a bound it states is refused as bad ``where``."""
    try:
        return law(*args)
    except DomainError as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def load_model(raw: Mapping) -> ProcessModel:
    """Build a :class:`ProcessModel` from a parsed config mapping.

    Schema (version 1)::

        {
          "schema_version": 1,
          "lambda": 1.0,
          "marks": {"geometric": {"a": 0.5}}      # or {"pmf": [0, 0.3, 0.7]}
          "obs": {"mu": 1.0, "initial": "zero"},   # initial in {"zero", "exp"}
          "threshold": 3
        }

    Every key shown is required and no other is accepted (fail fast on
    typos): an object that is not a JSON object, an unknown key or a missing
    one raises :class:`ConfigError` naming the object and the key.  The
    bounds on the numbers are stated by the law types and
    :class:`ProcessModel`; a breach raises :class:`ConfigError` naming the key.
    Marks that are all zero raise :class:`DivergenceError`, as the model does.
    """
    raw = _section(raw, "model", _MODEL_KEYS, _MODEL_KEYS)
    _schema_version(raw, "model")
    lam = _config_number(raw["lambda"], "lambda")

    marks_cfg = _section(raw["marks"], "marks", {"geometric", "pmf"}, set())
    if ("geometric" in marks_cfg) == ("pmf" in marks_cfg):
        raise ConfigError('marks needs exactly one of "geometric" or "pmf"')
    if "geometric" in marks_cfg:
        geo = _section(marks_cfg["geometric"], "marks.geometric", {"a"}, {"a"})
        marks: MarkLaw = _built("marks.geometric.a", Geometric, _config_number(geo["a"], "marks.geometric.a"))
    else:
        pmf = marks_cfg["pmf"]
        if not isinstance(pmf, (list, tuple)):
            raise ConfigError(f"marks.pmf must be an array of numbers, got {pmf!r}")
        pmf = [_config_number(p, f"marks.pmf[{k}]") for k, p in enumerate(pmf)]
        marks = _built("marks.pmf", GeneralDiscrete, pmf)

    obs_cfg = _section(raw["obs"], "obs", {"mu", "initial"}, {"mu", "initial"})
    recurring = _built("obs.mu", Exponential, _config_number(obs_cfg["mu"], "obs.mu"))
    if obs_cfg["initial"] not in _OBS_INITIAL:
        raise ConfigError(f'obs.initial must be one of {list(_OBS_INITIAL)}, got {obs_cfg["initial"]!r}')
    initial: DelayLaw = DegenerateZero() if obs_cfg["initial"] == "zero" else recurring
    observation = ObservationLaw(initial=initial, recurring=recurring)
    return _built("model", ProcessModel, lam, marks, observation, raw["threshold"])
