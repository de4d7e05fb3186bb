"""Simulation oracle for the observed threshold-crossing model.

Everything the analytic modules compute has an estimator here built from
exact-event path simulation: the crossing records (exit index, straddling
levels and epochs), the joint level/time law, the windowed transform
functionals, and the two-window transforms of a single (T, T + Delta)
pair.  A single per-gap step advances a batch of paths across one
inspection gap.  The window integrals of ``e^{-theta t} y^{A(t)}`` are
exact: A is constant between arrival epochs and ``e^{-theta t}``
integrates in closed form, so no time grid or truncation enters.
Estimates carry standard errors so agreement tests can use honest
confidence bands.  One windowed crossing sample gives G1, G2 and G, and
one two-stage sample gives f1 and f2; the public estimators return them
keyed by name, and the caller selects one.

Reproducibility contract: every estimator splits its workload into
fixed-size chunks, each driven by a child of ``SeedSequence(seed)``, and
merges per-chunk results in chunk order.  Results are therefore
bit-identical for a given (model, arguments, seed) regardless of the
thread count; ``CROSSING_THREADS`` only bounds how many chunks run
concurrently.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closedform import JointDistTable
from .errors import DomainError, RunawaySimulationError
from .model import (
    DelayLaw,
    GeneralDiscrete,
    Geometric,
    MarkLaw,
    ProcessModel,
    TransformArgs,
    delay_sample,
    mark_sample,
)

__all__ = [
    "EstimateWithCI",
    "JointEstimate",
    "estimate_joint",
    "estimate_functionals",
    "estimate_window_pair",
]

_CHUNK = 100_000
_EPOCH_CAP = 100_000_000


def _thread_budget() -> int:
    raw = os.environ.get("CROSSING_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class EstimateWithCI:
    """Sample mean with its standard error; 95% CI is mean +/- 1.96 * std_error."""

    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise DomainError("standard error cannot be negative")
        if self.n_samples < 1:
            raise DomainError("need at least one sample")

    def ci(self, z: float = 1.96) -> tuple[float, float]:
        return (self.mean - z * self.std_error, self.mean + z * self.std_error)


@dataclass(frozen=True, eq=False)
class JointEstimate:
    """Empirical joint table plus per-cell binomial standard errors."""

    table: JointDistTable
    std_errors: np.ndarray
    n_paths: int


def _estimate(values: np.ndarray) -> EstimateWithCI:
    se = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return EstimateWithCI(mean=float(np.mean(values)), std_error=se, n_samples=values.size)


# ---------------------------------------------------------------------------
# the exact-event simulator


def _compound_sums(marks: MarkLaw, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sum of ``counts[i]`` iid marks, per entry, as int64."""
    if isinstance(marks, Geometric):
        out = counts.astype(np.int64, copy=True)
        if marks.a < 1.0:
            pos = counts > 0
            if np.any(pos):
                # sum of n geometrics on {1,2,...} = n + NegBinomial(n, a)
                out[pos] += rng.negative_binomial(counts[pos], marks.a)
        return out
    if isinstance(marks, GeneralDiscrete):
        total = int(counts.sum())
        out = np.zeros(counts.size, dtype=np.int64)
        if total:
            draws = rng.choice(marks.pmf.size, p=marks.pmf, size=total)
            ids = np.repeat(np.arange(counts.size), counts)
            out = np.bincount(ids, weights=draws.astype(float), minlength=counts.size)
            out = np.rint(out).astype(np.int64)
        return out
    raise DomainError(f"unknown mark law {type(marks).__name__}")


def _damped_length(theta: float, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Integral of e^{-theta t} over [start, start + length), elementwise."""
    if theta == 0.0:
        return length
    return np.exp(-theta * start) * -np.expm1(-theta * length) / theta


def _gap_step(
    model: ProcessModel,
    law: DelayLaw,
    level: np.ndarray,
    start: np.ndarray,
    rng: np.random.Generator,
    theta: float | None = None,
    y: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Advance paths at ``level`` from time ``start`` across one gap drawn from ``law``.

    Returns the gap lengths, the levels at the end of the gap and, unless
    ``theta`` is None, the integral of e^{-theta t} y^{A(t)} over
    [start, start + gap).  At y = 1 only the per-gap mark totals are
    drawn.  Otherwise the gap's arrival epochs and marks are drawn into
    flat arrays, one run per path in time order, and the integrand,
    constant between epochs, is integrated segment by segment.
    """
    gap = delay_sample(law, rng, level.size)
    counts = rng.poisson(model.rate * gap)
    if theta is None or abs(y - 1.0) <= 1e-15:
        end_level = level + _compound_sums(model.marks, counts, rng)
        return gap, end_level, None if theta is None else _damped_length(theta, start, gap)

    owner = np.repeat(np.arange(level.size), counts)
    frac = rng.random(owner.size)
    frac = frac[np.lexsort((frac, owner))]
    marks = np.asarray(mark_sample(model.marks, rng, owner.size), dtype=np.int64)
    first = np.cumsum(counts) - counts
    running = np.concatenate(([0], np.cumsum(marks)))
    after = level[owner] + running[1:] - running[first][owner]
    end_level = level + running[first + counts] - running[first]

    # arrival k holds its level until the next arrival of its path, or the gap's end
    upto = np.ones(owner.size)
    upto[:-1] = np.where(owner[1:] == owner[:-1], frac[1:], 1.0)
    has = counts > 0
    head = np.ones(level.size)
    head[has] = frac[first[has]]
    seg = _damped_length(theta, start[owner] + gap[owner] * frac, gap[owner] * (upto - frac))
    tail = np.bincount(owner, weights=y ** after.astype(float) * seg, minlength=level.size)
    integral = y ** level.astype(float) * _damped_length(theta, start, gap * head) + tail
    return gap, end_level, integral


def _crossing_wave_chunk(
    model: ProcessModel, n: int, rng: np.random.Generator, theta: float | None, y: float
) -> dict:
    """Simulate n independent crossings, one inspection wave at a time.

    Each wave advances the still-active paths across one gap.  With
    ``theta`` given, a gap's window integral joins the G1 window
    (t < tau_pre) of the paths that stay at or below the threshold and is
    the G2 window (tau_pre <= t < tau_cross) of the paths that cross.
    """
    m = model.threshold
    out = {key: np.zeros(n, dtype=np.int64) for key in ("a_pre", "a_cross", "nu")}
    out.update((key, np.zeros(n)) for key in ("tau_pre", "tau_cross"))
    if theta is not None:
        out.update((key, np.zeros(n)) for key in ("window_pre", "window_cross"))
    level = np.zeros(n, dtype=np.int64)
    tau = np.zeros(n)
    active = np.arange(n)
    law = model.observation.initial

    budget = _EPOCH_CAP
    wave = 0
    while active.size:
        budget -= active.size
        if budget < 0:
            raise RunawaySimulationError(
                f"crossing simulation exceeded {_EPOCH_CAP} inspection epochs; "
                "the threshold may be unreachable for this mark law"
            )
        gap, new_level, integral = _gap_step(model, law, level[active], tau[active], rng, theta, y)
        new_tau = tau[active] + gap
        hit = new_level > m
        hit_idx = active[hit]
        out["a_pre"][hit_idx] = level[hit_idx]
        out["tau_pre"][hit_idx] = tau[hit_idx]
        out["a_cross"][hit_idx] = new_level[hit]
        out["tau_cross"][hit_idx] = new_tau[hit]
        out["nu"][hit_idx] = wave
        if integral is not None:
            out["window_pre"][active[~hit]] += integral[~hit]
            out["window_cross"][hit_idx] = integral[hit]
        level[active] = new_level
        tau[active] = new_tau
        active = active[~hit]
        law = model.observation.recurring
        wave += 1
    return out


def _run_chunked(n_total: int, seed: int, worker: Callable[[int, np.random.Generator], object]) -> list:
    """Split n_total into fixed-size chunks with spawned substreams; ordered merge."""
    sizes = [_CHUNK] * (n_total // _CHUNK)
    if n_total % _CHUNK:
        sizes.append(n_total % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = [(size, np.random.default_rng(child)) for size, child in zip(sizes, children)]
    threads = min(_thread_budget(), len(jobs))
    if threads <= 1:
        return [worker(size, rng) for size, rng in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda job: worker(job[0], job[1]), jobs))


def _crossing_sample(
    model: ProcessModel, n_paths: int, seed: int, theta: float | None = None, y: float = 1.0
) -> dict:
    """Crossing records per path, plus both window integrals when ``theta`` is given."""
    chunks = _run_chunked(n_paths, seed, lambda size, rng: _crossing_wave_chunk(model, size, rng, theta, y))
    return {key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]}


# ---------------------------------------------------------------------------
# joint law estimator


def estimate_joint(
    model: ProcessModel,
    r_max: int,
    t_grid: Sequence[float] | np.ndarray,
    n_paths: int,
    seed: int = 0,
) -> JointEstimate:
    """Empirical frequencies of {A_nu = r, tau_pre > t} with binomial errors."""
    if n_paths < 1_000:
        raise DomainError(f"need at least 1000 paths for a stable table, got {n_paths}")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid < 0.0) or np.any(np.diff(grid) < 0.0):
        raise DomainError("time grid must be nonempty, nonnegative, sorted")
    if isinstance(r_max, bool) or not isinstance(r_max, (int, np.integer)) or r_max < 0:
        raise DomainError(f"level bound must be a nonnegative integer, got {r_max!r}")

    sample = _crossing_sample(model, n_paths, seed)
    a_cross = sample["a_cross"]
    tau_pre = sample["tau_pre"]

    r_range = np.arange(int(r_max) + 1)
    counts = np.zeros((grid.size, r_range.size), dtype=np.int64)
    for r in r_range:
        times = np.sort(tau_pre[a_cross == r])
        if times.size == 0:
            continue
        # paths with tau_pre > t: those strictly right of t in the sorted sample
        counts[:, r] = times.size - np.searchsorted(times, grid, side="right")
    freq = counts / float(n_paths)
    se = np.sqrt(freq * (1.0 - freq) / float(n_paths))
    table = JointDistTable(t_grid=grid, r_range=r_range, values=freq)
    return JointEstimate(table=table, std_errors=se, n_paths=int(n_paths))


# ---------------------------------------------------------------------------
# windowed functional estimator


def _real_args(args: TransformArgs) -> tuple[float, float, float, float, float, float]:
    vals = []
    for name in ("theta", "u", "v", "w", "x", "y"):
        val = complex(getattr(args, name))
        if abs(val.imag) > 0.0:
            raise DomainError(f"Monte Carlo estimation needs real arguments; {name} has an imaginary part")
        vals.append(val.real)
    theta, u, v, w, x, y = vals
    if min(u, v, y) < 0.0 or max(u, v, y) > 1.0 + 1e-12:
        raise DomainError("u, v, y must lie in [0, 1] for estimation")
    if theta < 0.0 or w < 0.0 or x < 0.0:
        raise DomainError("theta, w, x must be nonnegative for estimation")
    return theta, u, v, w, x, y


def estimate_functionals(
    model: ProcessModel, args: TransformArgs, n_paths: int = 100_000, seed: int = 0
) -> dict[str, EstimateWithCI]:
    """Monte Carlo G1, G2 and their sum G, keyed by name, from one simulated sample.

    Per path, the windowed integrand is integrated exactly, gap by gap;
    each estimate averages per-path integrals.  The G value is formed as
    the sum of the G1 and G2 means, so the additivity identity holds exactly.
    """
    theta, u, v, w, x, y = _real_args(args)
    if n_paths < 1:
        raise DomainError("need at least one path")
    sample = _crossing_sample(model, n_paths, seed, theta, y)
    weight = (
        u ** sample["a_pre"].astype(float)
        * v ** sample["a_cross"].astype(float)
        * np.exp(-w * sample["tau_pre"] - x * (sample["tau_cross"] - sample["tau_pre"]))
    )
    i1 = weight * sample["window_pre"]
    i2 = weight * sample["window_cross"]
    g1, g2, total = _estimate(i1), _estimate(i2), _estimate(i1 + i2)
    g = EstimateWithCI(mean=g1.mean + g2.mean, std_error=total.std_error, n_samples=total.n_samples)
    return {"G1": g1, "G2": g2, "G": g}


# ---------------------------------------------------------------------------
# two-stage estimator for the single-interval window transforms


def estimate_window_pair(
    model: ProcessModel,
    t_law: DelayLaw,
    delta_law: DelayLaw,
    args: TransformArgs,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> dict[str, EstimateWithCI]:
    """Two-stage estimates of the window transforms of an independent (T, Delta).

    One sample draws a gap T from level 0 and a gap Delta from A(T); the
    result holds f1 (window t < T) and f2 (window T <= t < T + Delta).
    """
    theta, u, v, w, x, y = _real_args(args)
    if n_samples < 1:
        raise DomainError("need at least one sample")

    def worker(size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        t_val, a_t, in_t = _gap_step(model, t_law, np.zeros(size, dtype=np.int64), np.zeros(size), rng, theta, y)
        d_val, a_td, in_d = _gap_step(model, delta_law, a_t, t_val, rng, theta, y)
        weight = u ** a_t.astype(float) * v ** a_td.astype(float) * np.exp(-w * t_val - x * d_val)
        return weight * in_t, weight * in_d

    f1, f2 = zip(*_run_chunked(n_samples, seed, worker))
    return {"f1": _estimate(np.concatenate(f1)), "f2": _estimate(np.concatenate(f2))}
