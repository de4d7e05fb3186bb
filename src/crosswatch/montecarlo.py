"""Simulation oracle for the observed threshold-crossing model.

Everything the analytic modules compute has an estimator here built from
exact-event path simulation: the crossing records (exit index, straddling
levels and epochs), the joint level/time law, the windowed transform
functionals, and the two-window transforms of a single (T, T + Delta)
pair.  Inside an Exp(r) inspection gap the arrivals and the next look
form one merged Poisson stream of rate lam + r: each event is an arrival
with probability lam / (lam + r), and the spacings are iid Exp(lam + r)
and independent of those labels (superposition and thinning).  So a gap's
arrival count is one inverted unit exponential, its marks are summed in
one int64 running sum, and its length is the sum of its count + 1
spacings.  The crossing records draw counts and marks wave by wave and
each path's two times once at the end, as Gamma sums of its spacings
before and at the crossing.  A look after a gap without arrivals repeats
a level already seen, so after the first gap a wave skips the run of
empty gaps before a path's next busy one (a gap is busy when it holds an
arrival): the run is geometric, P{k >= j} = (mu / (lam + mu))^j, and the
busy gap's count is the merged stream's, conditioned on at least one
arrival.  The skipped looks count towards the crossing index nu and the
runaway cap, and their k spacings towards the crossing times.  The
window integrals of ``e^{-theta t} y^{A(t)}`` are exact: A is constant
between arrival epochs and ``e^{-theta t}`` integrates in closed form, so
no time grid or truncation enters.  With y < 1 a gap's spacings are drawn one by one,
already in time order, so no sort or rescaling enters; at y = 1 the
windows are closed forms of the crossing times.
Estimates carry standard errors so agreement tests can use honest
confidence bands.  One crossing sample gives G1, G2 and G, and one
two-stage sample gives f1 and f2; ``_sample_functionals`` and
``estimate_window_pair`` return them keyed by name, and the caller
selects one.

Reproducibility contract: every estimator splits its workload into
fixed-size chunks of ``_CHUNK`` = 50,000 paths, each driven by a child of
``SeedSequence(seed)``, runs them in order and merges per-chunk results in
chunk order.  The size bounds one wave's working set, the live arrays of
a chunk's active paths, to about 5 MB, whatever the sample size.  Results are
therefore bit-identical for a given (model, arguments, seed), and they keep
the bits of ``Generator.choice`` marks and ``**`` powers: a pmf mark counts the
cdf steps at or below one uniform (``model.mark_sample``), and a level power
u^A, v^A, y^A or z^S is looked up in ``base ** arange(top + 1)`` (``_powers``).
A crossing sample is allocated once and each chunk fills its own slice; within a
chunk the records come in wave order, which is not nu order (a wave ends at
each path's next busy gap, however many looks it skips), except that the
paths that cross in the first gap come first; no estimator depends on the
path order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, RunawaySimulationError
from .model import (
    DegenerateZero,
    DelayLaw,
    Exponential,
    ProcessModel,
    TransformArgs,
    _level_bound,
    _table_times,
    mark_sample,
)

__all__ = [
    "EstimateWithCI",
    "estimate_joint",
    "estimate_window_pair",
]

_CHUNK = 50_000
_EPOCH_CAP = 1_000 * _CHUNK  # a chunk's inspection epochs, skipped ones included: 1000 per path of a full chunk


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


def _estimate(values: np.ndarray) -> EstimateWithCI:
    se = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return EstimateWithCI(mean=float(np.mean(values)), std_error=se, n_samples=values.size)


# ---------------------------------------------------------------------------
# the exact-event simulator


def _damped_length(theta: float, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Integral of e^{-theta t} over [start, start + length), elementwise."""
    if theta == 0.0:
        return length
    return np.exp(-theta * start) * -np.expm1(-theta * length) / theta


def _powers(base: float, levels: np.ndarray) -> np.ndarray:
    """``base ** levels`` at integer levels >= 0, looked up in ``base ** arange(top + 1)``: the bits of ``**``."""
    top = int(levels.max(initial=0))
    if top >= levels.size:  # a table is never longer than the levels it serves
        return base ** levels.astype(float)
    return (base ** np.arange(top + 1.0))[levels]


def _skip_empty_gaps(
    model: ProcessModel,
    law: Exponential,
    level: np.ndarray,
    nu: np.ndarray,
    clock: np.ndarray,
    window: np.ndarray | None,
    rng: np.random.Generator,
    theta: float | None,
    y: float,
) -> int:
    """Advance each path, in place, across its run k of empty Exp gaps from ``law`` before its next busy one.

    Each gap is empty, its look before any arrival, with probability
    mu / (lam + mu), so P{k >= j} = (mu / (lam + mu))^j and k is
    floor(E / log1p(lam / mu)) for one unit exponential E.  The k looks join
    ``nu``.  Untagged, the ``clock`` counts spacings and gains k; tagged, it
    is the time and gains the run's length, Gamma(k) / (lam + mu), and the
    ``window`` gains its integral at the constant level.  Returns the total
    of k, for the epoch cap; a run longer than ``_EPOCH_CAP`` is cut there,
    since it exceeds the cap all the same.
    """
    draws = rng.standard_exponential(level.size)
    draws /= math.log1p(model.rate / law.rate)
    np.minimum(draws, _EPOCH_CAP, out=draws)
    skipped = draws.astype(np.int64)
    nu += skipped
    if theta is None:
        stretch = skipped
    else:
        stretch = rng.standard_gamma(skipped.astype(float)) / (model.rate + law.rate)
        window += _powers(y, level) * _damped_length(theta, clock, stretch)
    clock += stretch
    return int(skipped.sum())


def _arrivals(
    model: ProcessModel, law: Exponential, level: np.ndarray, rng: np.random.Generator, busy: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrivals of one Exp gap drawn from ``law`` for paths at ``level``.

    Up to the look, the arrivals and the look form one Poisson stream of
    rate lam + r in which each event is an arrival with probability
    q = lam / (lam + r), so the count c has P{c >= k} = q^k and is
    floor(E / -ln q) for one unit exponential E.  A ``busy`` gap holds at
    least one arrival: given c >= 1, c - 1 has the law of c, so its count
    is that draw plus one.  Returns the counts, each gap's first index into
    ``running`` (the running sum of its marks, one int64 entry per arrival)
    and the levels at the look.
    """
    draws = rng.standard_exponential(level.size)
    draws /= math.log1p(law.rate / model.rate)
    counts = draws.astype(np.int64)
    if busy:
        counts += 1
    ends = np.zeros(level.size + 1, dtype=np.int64)  # each gap's first index, then the total
    np.cumsum(counts, out=ends[1:])
    running = np.zeros(ends[-1] + 1, dtype=np.int64)
    np.cumsum(mark_sample(model.marks, rng, int(ends[-1])), out=running[1:])
    end_level = np.diff(running[ends])
    end_level += level
    return counts, ends[:-1], running, end_level


def _segments(counts: np.ndarray, rate: float, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Cut each gap at its ``counts[i]`` arrivals, with Exp(``rate``) spacings.

    Returns the owning gap, offset and length of the ``counts[i] + 1``
    segments of each gap, in time order, and each gap's length (its last
    offset plus its last spacing).  The offsets are summed within their
    own gap, so rounding does not grow with the chunk.
    """
    ends = np.cumsum(counts + 1)
    owner = np.zeros(ends[-1], dtype=np.intp)
    owner[ends[:-1]] = 1
    np.cumsum(owner, out=owner)
    spacing = rng.standard_exponential(owner.size) / rate
    prefix = np.zeros(owner.size)
    busy = counts > 0
    idx, last = (ends - counts - 1)[busy], ends[busy] - 1
    while idx.size:
        prefix[idx + 1] = prefix[idx] + spacing[idx]
        idx += 1
        more = np.flatnonzero(idx < last)
        idx, last = idx[more], last[more]
    ends -= 1
    return owner, prefix, spacing, prefix[ends] + spacing[ends]


def _gap_step(
    model: ProcessModel,
    law: DelayLaw,
    level: np.ndarray,
    start: np.ndarray,
    rng: np.random.Generator,
    theta: float | None = None,
    y: float = 1.0,
    busy: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Advance paths at ``level`` from time ``start`` across one gap drawn from ``law``.

    Returns the gap lengths, the levels at the end of the gap and, unless
    ``theta`` is None, the integral of e^{-theta t} y^{A(t)} over
    [start, start + gap).  The c arrivals of an Exp(r) gap come from the
    merged stream (see ``_arrivals``), whose spacings are iid Exp(lam + r)
    and independent of the labels.  Without ``theta`` a gap is the sum of
    its c + 1 spacings, one Gamma(c + 1) draw over lam + r; with it the
    spacings are drawn one by one (see ``_segments``), and the integrand is
    constant on each, at the level after the marks before it.  At y = 1
    callers pass no theta and take the windows as closed forms of the gap
    times.  A ``busy`` gap is drawn given at least one arrival (see
    ``_arrivals``).
    """
    if isinstance(law, DegenerateZero):  # no time passes: no arrivals, an empty window
        return np.zeros(level.size), level, None if theta is None else np.zeros(level.size)
    counts, first, running, end_level = _arrivals(model, law, level, rng, busy)
    rate = model.rate + law.rate
    if theta is None:
        return rng.standard_gamma(counts + 1.0) / rate, end_level, None

    owner, offset, length, gap = _segments(counts, rate, rng)
    # segment q of gap i follows the marks first[i] .. q - i - 1
    after = (level - running[first])[owner] + running[np.arange(owner.size) - owner]
    seg = _damped_length(theta, start[owner] + offset, length)
    integral = np.bincount(owner, weights=_powers(y, after) * seg, minlength=level.size)
    return gap, end_level, integral


def _crossing_wave_chunk(
    model: ProcessModel, out: dict, rng: np.random.Generator, theta: float | None, y: float
) -> None:
    """Fill the records in ``out``, one chunk's slice of the sample, with independent crossings.

    ``rng`` is the chunk's own child of the sample's ``SeedSequence``, so
    the slice is bit-identical for a given (model, arguments, seed).  The
    first wave advances every path across the first gap, and a zero first
    look sees level 0 <= M, so it advances nobody.  Each later wave
    advances the still-active paths, kept compact, to the look after their
    next busy gap: it skips a run of k empty gaps (``_skip_empty_gaps``), whose
    looks see the level already known, then draws the busy gap.  A path's
    ``nu`` counts its looks, the skipped ones included, so it no longer
    equals the wave.  The paths that cross in a wave take the next rows of
    ``out``, so the first gap's crossers come first and later rows come in
    wave order, not nu order.  With ``theta`` given, the skipped gaps add
    one stretch at a constant level, of length Gamma(k) / (lam + mu), to
    the G1 window (t < tau_pre); a busy gap's window integral joins it for
    the paths that stay at or below the threshold and is the G2 window
    (tau_pre <= t < tau_cross) of the paths that cross.  Without it, a wave
    draws arrival counts and marks only, and a path's clock counts its
    Exp(lam + mu) spacings since the first gap, k for a skipped run; its
    two times are drawn once, at the end, as Gamma sums of those before and
    at the crossing.  An Exp first gap runs at its own rate, so its time
    is drawn as it is sampled and carried with the path.
    """
    m = model.threshold
    tagged = theta is not None
    n = out["nu"].size
    level = np.zeros(n, dtype=np.int64)
    nu = np.zeros(n, dtype=np.int64)  # the look that ends the current gap
    clock = np.zeros(n)  # the time, or untagged the spacing count, before the current gap
    window = np.zeros(n) if tagged else None
    first_gap = lead = None  # an untagged Exp first gap's time, per active path and per record
    law = model.observation.initial
    recurring = model.observation.recurring

    budget = _EPOCH_CAP
    done = 0
    busy = False  # the first gap is drawn as it comes, every later one busy
    while level.size:
        budget -= level.size
        if busy:
            budget -= _skip_empty_gaps(model, law, level, nu, clock, window, rng, theta, y)
        if budget < 0:
            raise RunawaySimulationError(
                f"crossing simulation exceeded {_EPOCH_CAP} inspection epochs; the cap counts every "
                "look of a chunk's paths, the looks after skipped empty gaps included"
            )
        if isinstance(law, DegenerateZero):
            law, busy = recurring, True
            nu += 1
            continue
        if tagged:
            step, new_level, integral = _gap_step(model, law, level, clock, rng, theta, y, busy)
        else:
            counts, _, _, new_level = _arrivals(model, law, level, rng, busy)
            step = counts + 1.0
            if not busy:  # an Exp first gap: the clock starts after it
                first_gap, lead = rng.standard_gamma(step) / (model.rate + law.rate), np.empty(n)
                step[:] = 0.0
        crossed = new_level > m
        hit, keep = np.flatnonzero(crossed), np.flatnonzero(~crossed)
        rows = slice(done, done + hit.size)
        done += hit.size
        out["a_pre"][rows] = level[hit]
        out["a_cross"][rows] = new_level[hit]
        out["nu"][rows] = nu[hit]
        out["tau_pre"][rows] = clock[hit]
        out["tau_cross"][rows] = step[hit]
        if tagged:
            out["window_pre"][rows] = window[hit]
            out["window_cross"][rows] = integral[hit]
            window = (window + integral)[keep]
        if first_gap is not None:
            lead[rows] = first_gap[hit]
            first_gap = first_gap[keep]
        clock += step
        level, clock, nu = new_level[keep], clock[keep], nu[keep] + 1
        law, busy = recurring, True
        del new_level, step, crossed, hit, keep  # freed before the next wave draws its marks

    if not tagged:
        rate = model.rate + recurring.rate
        for key in ("tau_pre", "tau_cross"):
            rng.standard_gamma(out[key], out=out[key])
            out[key] /= rate
        if lead is not None:  # the rows of paths that cross in the first gap come first
            first = np.count_nonzero(out["nu"] == 0)
            out["tau_pre"][first:] += lead[first:]
            out["tau_cross"][:first] += lead[:first]
    out["tau_cross"] += out["tau_pre"]


def _run_chunked(n_total: int, seed: int, worker: Callable[[slice, np.random.Generator], object]) -> list:
    """Split range(n_total) into fixed-size chunks with spawned substreams; ordered merge."""
    starts = range(0, n_total, _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    return [worker(slice(start, min(start + _CHUNK, n_total)), np.random.default_rng(child))
            for start, child in zip(starts, children)]


def _crossing_sample(
    model: ProcessModel, n_paths: int, seed: int, theta: float | None = None, y: float = 1.0
) -> dict:
    """Crossing records per path, plus both window integrals when ``theta`` is given."""
    windows = () if theta is None else ("window_pre", "window_cross")
    keys = ("a_pre", "a_cross", "nu", "tau_pre", "tau_cross") + windows
    # one block, the counts as int64 views of their rows: the allocator then reuses pages, not re-faults them
    sample = dict(zip(keys, np.empty((len(keys), n_paths))))
    sample.update((key, sample[key].view(np.int64)) for key in ("a_pre", "a_cross", "nu"))
    _run_chunked(n_paths, seed, lambda rows, rng: _crossing_wave_chunk(
        model, {key: col[rows] for key, col in sample.items()}, rng, theta, y))
    return sample


# ---------------------------------------------------------------------------
# joint law estimator


def _joint_frequencies(sample: dict, r_max: int, grid: np.ndarray) -> np.ndarray:
    """Frequencies of {A_nu = r, tau_pre > t} over the times (rows) and the levels 0..r_max."""
    a_cross, tau_pre = sample["a_cross"], sample["tau_pre"]
    counts = np.zeros((grid.size, r_max + 1), dtype=np.int64)
    for r in range(r_max + 1):
        times = np.sort(tau_pre[a_cross == r])
        # paths with tau_pre > t: those strictly right of t in the sorted sample
        counts[:, r] = times.size - np.searchsorted(times, grid, side="right")
    return counts / float(a_cross.size)


def estimate_joint(
    model: ProcessModel,
    r_max: int,
    t_grid: Sequence[float] | np.ndarray,
    n_paths: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical frequencies of {A_nu = r, tau_pre > t} and their binomial standard errors.

    Both arrays have the times as rows and the levels 0..r_max as columns.
    """
    if n_paths < 1_000:
        raise DomainError(f"need at least 1000 paths for a stable table, got {n_paths}")
    grid, r_max = _table_times(t_grid), _level_bound(r_max)
    freq = _joint_frequencies(_crossing_sample(model, n_paths, seed), r_max, grid)
    return freq, np.sqrt(freq * (1.0 - freq) / float(n_paths))


# ---------------------------------------------------------------------------
# windowed functional estimator


def _real_args(args: TransformArgs) -> tuple[float, float, float, float, float, float]:
    """The arguments as floats; Monte Carlo weights need them real and nonnegative."""
    vals = []
    for name in ("theta", "u", "v", "w", "x", "y"):
        val = complex(getattr(args, name))
        if abs(val.imag) > 0.0:
            raise DomainError(f"Monte Carlo estimation needs real arguments; {name} has an imaginary part")
        if val.real < 0.0:  # a tag u, v or y: TransformArgs stores theta, w and x at >= 0
            raise DomainError(f"Monte Carlo estimation needs nonnegative arguments; {name} is {val.real}")
        vals.append(val.real)
    return tuple(vals)


def _sample_functionals(sample: dict, args: TransformArgs) -> dict[str, EstimateWithCI]:
    """G1, G2 and their sum G, keyed by name, from one crossing sample.

    Per path, the windowed integrand is integrated exactly.  At y = 1 the
    windows are closed forms of tau_pre and tau_cross, so any crossing
    sample serves; otherwise the sample carries the windows drawn at this
    theta and y.  G is the sum of the G1 and G2 means, so additivity is exact.
    """
    theta, u, v, w, x, y = _real_args(args)
    tau_pre, tau_cross = sample["tau_pre"], sample["tau_cross"]
    if y == 1.0:
        window_pre = _damped_length(theta, 0.0, tau_pre)
        window_cross = _damped_length(theta, tau_pre, tau_cross - tau_pre)
    else:
        window_pre, window_cross = sample["window_pre"], sample["window_cross"]
    weight = _powers(u, sample["a_pre"]) * _powers(v, sample["a_cross"])
    weight *= np.exp(-w * tau_pre - x * (tau_cross - tau_pre))
    i1 = weight * window_pre
    i2 = weight * window_cross
    g1, g2, total = _estimate(i1), _estimate(i2), _estimate(i1 + i2)
    g = EstimateWithCI(mean=g1.mean + g2.mean, std_error=total.std_error, n_samples=total.n_samples)
    return {"G1": g1, "G2": g2, "G": g}


def _functional_sample(model: ProcessModel, args: TransformArgs, n_paths: int, seed: int) -> dict:
    """The crossing sample of ``seed`` that :func:`_sample_functionals` reads at ``args``: at y < 1
    it carries the windows drawn at theta and y.  Bad arguments are refused before a path is drawn."""
    theta, u, v, w, x, y = _real_args(args)
    if n_paths < 1:
        raise DomainError("need at least one path")
    return _crossing_sample(model, n_paths, seed, *(() if y == 1.0 else (theta, y)))


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
    tag = () if y == 1.0 else (theta, y)

    def worker(rows: slice, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        size = rows.stop - rows.start
        t_val, a_t, in_t = _gap_step(model, t_law, np.zeros(size, dtype=np.int64), np.zeros(size), rng, *tag)
        d_val, a_td, in_d = _gap_step(model, delta_law, a_t, t_val, rng, *tag)
        if not tag:  # the y = 1 windows are closed forms of T and Delta
            in_t, in_d = _damped_length(theta, 0.0, t_val), _damped_length(theta, t_val, d_val)
        weight = _powers(u, a_t) * _powers(v, a_td) * np.exp(-w * t_val - x * d_val)
        return weight * in_t, weight * in_d

    f1, f2 = zip(*_run_chunked(n_samples, seed, worker))
    return {"f1": _estimate(np.concatenate(f1)), "f2": _estimate(np.concatenate(f2))}
