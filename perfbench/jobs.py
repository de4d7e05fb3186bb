"""The three workloads as lists of CLI jobs, and the oracle check of each job's output.

A workload is drawn from its seed: t-grid endpoints, transform arguments
and ``--seed`` values come from fixed ranges, while the models stay
fixed.  Every job is one ``crosswatch.cli.main(argv)`` call on a JSON
config written into the job directory.

Tolerances are fixed here, before any output is seen:

* ``INVERTED``: a probability obtained by numerical Laplace inversion
  (survival and forecast curves) may be off by 1e-3, three decimals;
* ``CLOSED``: closed-form tables and level pmfs, 1e-9, the package's own
  clamp tolerance for its joint table;
* ``TRANSFORM``: transform values, computed without inversion, 1e-8
  relative, the tolerance the package's battery holds its two transform
  routes to;
* ``Z_MC``: a Monte Carlo estimate must lie within 5 standard errors of
  the exact mean; a level frequency gets 5 counts of slack on top, so a
  level seen a handful of times is judged like the rest.

Every expected value is exact (see ``oracle.py``).  Each deterministic
output value with a nonzero expected value also yields its count of
correct digits; Monte Carlo estimates are judged by the 5-sigma test only,
since their digits are set by the path count, not by the computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from oracle import Model
from stats import digits

INVERTED = 1e-3
CLOSED = 1e-9
TRANSFORM = 1e-8
Z_MC = 5.0

GEOMETRIC = {"lambda": 1.0, "marks": {"geometric": {"a": 0.5}}, "obs": {"mu": 1.0, "initial": "zero"}}
FINITE_PMF = {"lambda": 1.0, "marks": {"pmf": [0.0, 0.5, 0.3, 0.2]}, "obs": {"mu": 1.0, "initial": "zero"}}

WORKLOADS = ("geometric-cli", "general-law-cli", "oracle-battery")
# The calibration mix whose speed tracks each workload's (see run.Calibration):
# the CLI workloads spend their time in interpreter loops, the battery in
# vectorised numpy passes over large arrays.
CALIBRATION = {"geometric-cli": "interpreter", "general-law-cli": "interpreter", "oracle-battery": "mixed"}


def model_config(base: dict, m: int) -> dict:
    return {"schema_version": 1, **base, "threshold": m}


@dataclass
class Job:
    """One CLI call and what its output must match."""

    name: str
    command: str
    model: dict
    keys: dict = field(default_factory=dict)
    seed: int | None = None
    argv: list[str] = field(default_factory=list)

    def write(self, directory: Path) -> None:
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps({"schema_version": 1, "model": self.model, **self.keys}))
        self.argv = [self.command, "--config", str(path)]
        if self.seed is not None:
            self.argv += ["--seed", str(self.seed)]

    @property
    def threshold(self) -> int:
        return int(self.model["threshold"])


@dataclass
class Verdict:
    ok: bool
    digits: list[int]
    notes: list[str]


# ---------------------------------------------------------------------------
# workloads


@lru_cache(maxsize=None)
def _mean_time_of(model_json: str) -> float:
    return Model.from_config(json.loads(model_json)).moments()["tau_cross"]


def _mean_time(model: dict) -> float:
    return _mean_time_of(json.dumps(model, sort_keys=True))


def _grid(rng, model: dict, points: int, lo: float = 1.4, hi: float = 1.8) -> list[float]:
    """A grid from 0 to a drawn multiple of the mean crossing time."""
    end = _mean_time(model) * rng.uniform(lo, hi)
    return [round(float(t), 6) for t in np.linspace(0.0, end, points)]


def _args(rng, model: dict) -> dict:
    """y = 1 transform arguments scaled to the model, so values stay of order one."""
    m = int(model["threshold"])
    theta = rng.uniform(0.5, 2.0) / _mean_time(model)
    near_one = lambda: round(float(rng.uniform(1.0 - 1.0 / (m + 1), 1.0)), 6)
    return {
        "theta": round(float(theta), 6),
        "u": near_one(),
        "v": near_one(),
        "w": round(float(theta * rng.uniform(0.0, 0.5)), 6),
        "x": round(float(rng.uniform(0.0, 0.5)), 6),
    }


def _tagged_args(rng) -> dict:
    return {
        "theta": round(float(rng.uniform(0.5, 1.5)), 6),
        "u": round(float(rng.uniform(0.8, 1.0)), 6),
        "v": round(float(rng.uniform(0.85, 1.0)), 6),
        "w": round(float(rng.uniform(0.0, 0.3)), 6),
        "x": round(float(rng.uniform(0.0, 0.3)), 6),
        "y": round(float(rng.uniform(0.6, 0.9)), 6),
    }


def build(workload: str, seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs: list[Job] = []

    def add(command: str, model: dict, **keys) -> None:
        mc_seed = keys.pop("mc_seed", None)
        jobs.append(Job(f"{len(jobs):02d}-{command}-m{model['threshold']}", command, model, keys, mc_seed))

    # Job counts place the median and the tail (the 11th longest job) inside
    # tiers of similar jobs, so one job's jitter does not move them.
    if workload == "geometric-cli":
        small, mid, big = (model_config(GEOMETRIC, m) for m in (3, 50, 300))
        for _ in range(2):
            add("dist", small, t_grid=_grid(rng, small, 6), r_max=15)
        add("dist", mid, t_grid=_grid(rng, mid, 5), r_max=100)
        for model, count, points in ((small, 4, 9), (mid, 4, 9), (big, 2, 7)):
            for _ in range(count):
                add("survival", model, t_grid=_grid(rng, model, points))
        for model, count in ((small, 4), (mid, 3), (big, 3)):
            for _ in range(count):
                add("functional", model, args=_args(rng, model))
        for model, count, steps in ((small, 4, 9), (mid, 4, 9), (big, 2, 7)):
            for _ in range(count):
                horizon = _grid(rng, model, 2)[-1]
                add("predict", model, horizon=horizon, t_steps=steps)
    elif workload == "general-law-cli":
        # One inverted time per curve: a point costs about 0.4 s at M=3 and 0.8 s at M=60.
        small, big = (model_config(FINITE_PMF, m) for m in (3, 60))
        for model, count in ((small, 7), (big, 3)):
            for _ in range(count):
                add("survival", model, t_grid=_grid(rng, model, 2, 0.55, 1.4)[-1:])
        for model, count in ((small, 3), (big, 4)):
            for _ in range(count):
                add("functional", model, args=_args(rng, model))
        for model, count in ((small, 2), (big, 1)):
            for _ in range(count):
                horizon = _grid(rng, model, 2, 0.55, 1.4)[-1]
                add("predict", model, horizon=horizon, t_steps=2, mc_seed=int(rng.integers(1 << 31)))
    elif workload == "oracle-battery":
        geo, pmf = model_config(GEOMETRIC, 3), model_config(FINITE_PMF, 3)
        for model in (geo, pmf):
            for _ in range(4):
                add("simulate", model, n_paths=200_000, mc_seed=int(rng.integers(1 << 31)))
            add("simulate", model, n_paths=5_000, args=_tagged_args(rng), mc_seed=int(rng.integers(1 << 31)))
            add("validate", model, mc_seed=int(rng.integers(1 << 31)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def warmups(job_list: list[Job], directory: Path) -> list[Job]:
    """One small job per command in ``job_list``, run untimed before the first pass."""
    model = model_config(GEOMETRIC, 3)
    small = {
        "dist": {"t_grid": [0.0, 1.0], "r_max": 6},
        "survival": {"t_grid": [1.0]},
        "functional": {"args": {"theta": 1.0}},
        "predict": {"horizon": 1.0, "t_steps": 2},
        "simulate": {"n_paths": 1_000},
        "validate": {"n_paths": 1_000},
    }
    commands = sorted({job.command for job in job_list})
    out = []
    for command in commands:
        job = Job(f"warmup-{command}", command, model, small[command])
        job.write(directory)
        out.append(job)
    return out


# ---------------------------------------------------------------------------
# checks


class _Tally:
    def __init__(self) -> None:
        self.ok = True
        self.digits: list[int] = []
        self.notes: list[str] = []

    def value(self, label: str, got: complex, exact: complex, allowed: float, sampled: bool = False) -> None:
        err = abs(complex(got) - complex(exact))
        if exact != 0 and not sampled:
            self.digits.append(digits(got, exact))
        if not err <= allowed:
            self.ok = False
            self.notes.append(f"{label}: got {got:.6g}, exact {exact:.6g}, off {err:.2e} > {allowed:.1e}")

    def fail(self, note: str) -> None:
        self.ok = False
        self.notes.append(note)

    def verdict(self) -> Verdict:
        return Verdict(self.ok, self.digits, self.notes)


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


class Checker:
    """Exact expectations for a job's output, computed once per job."""

    def __init__(self, job: Job) -> None:
        self.job = job
        self.model = Model.from_config(job.model)
        self._seen: dict[tuple[int, str, str], Verdict] = {}

    def __call__(self, rc: int, out: str, err: str) -> Verdict:
        """Check one run of the job; a repeated output gets the verdict already given."""
        key = (rc, out, err)
        if key not in self._seen:
            self._seen[key] = self._check(*key)
        return self._seen[key]

    def _check(self, rc: int, out: str, err: str) -> Verdict:
        tally = _Tally()
        if rc != 0:
            tally.fail(f"exit code {rc}: {err.strip().splitlines()[0] if err.strip() else 'no message'}")
            return tally.verdict()
        try:
            getattr(self, f"_{self.job.command}")(out, tally)
        except (ValueError, KeyError, IndexError) as exc:
            tally.fail(f"unreadable output: {exc!r}")
        return tally.verdict()

    def _dist(self, out: str, tally: _Tally) -> None:
        grid = self.job.keys["t_grid"]
        r_max = self.job.keys["r_max"]
        table = self.model.joint_table(grid, r_max)
        rows = _rows(out)
        if len(rows) != len(grid) * (r_max + 1):
            tally.fail(f"{len(rows)} rows, expected {len(grid) * (r_max + 1)}")
        for t_text, r_text, p_text in rows:
            i = grid.index(round(float(t_text), 6))
            r = int(r_text)
            tally.value(f"P(A={r}, pre>{t_text})", float(p_text), table[i, r], CLOSED)

    def _curves(self, pairs, tally: _Tally) -> None:
        for label, t, got in pairs:
            exact = self.model.survival_pre(t) if label == "pre" else self.model.survival_cross(t)
            if label == "crash":
                exact = 1.0 - exact
            tally.value(f"{label}({t:.4g})", got, exact, INVERTED)

    def _survival(self, out: str, tally: _Tally) -> None:
        rows = _rows(out)
        if len(rows) != len(self.job.keys["t_grid"]):
            tally.fail(f"{len(rows)} rows for {len(self.job.keys['t_grid'])} times")
        pairs = []
        for t_text, pre, cross in rows:
            t = float(t_text)
            pairs += [("pre", t, float(pre)), ("cross", t, float(cross))]
        self._curves(pairs, tally)

    def _functional(self, out: str, tally: _Tally) -> None:
        args = self.job.keys["args"]
        g1, g2 = self.model.g_parts(**args)
        values = json.loads(out)["values"]
        for key, exact in (("G1", g1), ("G2", g2), ("G", g1 + g2)):
            got = complex(values[key]["re"], values[key]["im"])
            tally.value(key, got, exact, TRANSFORM * abs(exact))

    def _simulate(self, out: str, tally: _Tally) -> None:
        exact = dict(self.model.moments())
        if "args" in self.job.keys:
            g1, g2 = self.model.g_parts(**self.job.keys["args"])
            exact.update(G1=g1.real, G2=g2.real, G=(g1 + g2).real)
        seen = set()
        for name, mean, se, _n in _rows(out):
            seen.add(name)
            tally.value(name, float(mean), exact[name], Z_MC * float(se) + 1e-12, sampled=True)
        if seen != set(exact):
            tally.fail(f"quantities {sorted(seen)}, expected {sorted(exact)}")

    def _validate(self, out: str, tally: _Tally) -> None:
        report = json.loads(out)
        if not report["all_passed"]:
            tally.fail("battery failed: " + ", ".join(report["failed_checks"]))

    def _predict(self, out: str, tally: _Tally) -> None:
        m = self.job.threshold
        horizon, steps = self.job.keys["horizon"], self.job.keys["t_steps"]
        grid = np.linspace(0.0, horizon, steps) if horizon > 0 else np.array([0.0])
        levels = self.model.crossing_levels(m + 200)[0]
        over = np.arange(levels.size) - m
        mean = float(levels @ over)
        sd = math.sqrt(max(float(levels @ over**2) - mean**2, 0.0))
        special = "geometric" in self.job.model["marks"]
        n = self.job.keys.get("n_paths", 200_000)
        curves = []
        seen = {"crash_prob": 0, "precrash_survival": 0, "expected_overshoot": 0}
        for quantity, arg, value in _rows(out):
            value = float(value)
            if quantity in ("crash_prob", "precrash_survival"):
                seen[quantity] += 1
                curves.append(("crash" if quantity == "crash_prob" else "pre", float(arg), value))
            elif quantity == "overshoot_pmf":
                p = levels[int(arg)]
                allowed = CLOSED if special else (Z_MC * math.sqrt(n * p * (1.0 - p)) + Z_MC) / n
                tally.value(f"P(A_nu={arg})", value, p, allowed, sampled=not special)
            elif quantity == "expected_overshoot":
                seen[quantity] += 1
                allowed = CLOSED * mean if special else Z_MC * sd / math.sqrt(n)
                tally.value("E overshoot", value, mean, allowed, sampled=not special)
            else:
                tally.fail(f"unknown quantity {quantity!r}")
        if seen != {"crash_prob": grid.size, "precrash_survival": grid.size, "expected_overshoot": 1}:
            tally.fail(f"row counts {seen}")
        self._curves(curves, tally)
