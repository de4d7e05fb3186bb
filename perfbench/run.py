"""Run one benchmark workload against the crosswatch CLI and print its metrics.

    python3 perfbench/run.py --workload geometric-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The load is a closed loop with one
client: each job is one ``crosswatch.cli.main(argv)`` call in this warm
process, started when the previous one returns.  The job list is drawn
from ``--seed`` and run pass after pass for ``--seconds``; every output
is checked against the exact oracle.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs untraced and traced passes and prints the
per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3
# A job shorter than this is rerun back to back (up to REPEAT_MAX calls) and timed by
# the median call, so millisecond jobs are not timed from a single noisy call.
REPEAT_UNTIL_S = 0.15
REPEAT_MAX = 20

# A shared host's speed drifts by tens of percent over seconds, so every
# timed interval is scaled by calibration readings on either side: reported
# seconds are seconds at the speed where one run of the workload's
# calibration mix takes its reference time.  No mix touches crosswatch.
# A job is scaled by the median reading over this many calibration points around it.
CALIBRATION_WINDOW = 2


class Calibration:
    """A fixed mix of work that slows down with the machine as the workload's jobs do.

    ``interpreter``: complex arithmetic in Python with small numpy calls,
    like the series and inversion loops of the CLI workloads.  ``mixed``:
    a shorter such loop plus streaming in-place passes over 8 MB, like the
    vectorised simulators.  Buffers are allocated once, so a reading never
    pays for fresh pages.
    """

    REFERENCE_S = {"interpreter": 0.0035, "mixed": 0.0045}

    def __init__(self, kind: str) -> None:
        import numpy as np

        self.np = np
        self.reference = self.REFERENCE_S[kind]
        self.loop, self.passes = (4000, 0) if kind == "interpreter" else (1500, 2)
        self.small = np.arange(64, dtype=complex)
        self.big = np.linspace(0.0, 1.0, 1_000_000 if self.passes else 1)
        self.out = np.empty_like(self.big)

    def _mix(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = 0j
        for k in range(self.loop):
            z = complex(0.5, k * 1e-4)
            acc += (1.0 - 0.5 * z) / (1.0 + z * z)
            if k % 8 == 0:
                acc += complex(np.sum(self.small * z))
        for _ in range(self.passes):
            np.multiply(self.big, 1.000001, out=self.out)
            np.add(self.out, self.big, out=self.out)
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Median of three mixes: one reading of the machine's current speed."""
        return statistics.median(self._mix() for _ in range(3))


def scaled(seconds: list[float], readings: list[float], reference: float) -> list[float]:
    """Each interval at the reference speed; ``readings[k]`` and ``readings[k + 1]`` bracket interval k.

    Interval k is divided by the median reading from k - W + 1 to k + W,
    which smooths the noise of single readings but follows drifts of a
    few seconds.
    """
    out = []
    for k, value in enumerate(seconds):
        window = readings[max(0, k - CALIBRATION_WINDOW + 1): k + CALIBRATION_WINDOW + 1]
        out.append(value * reference / statistics.median(window))
    return out


def _spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _noop_cli(extra: list[str]) -> list[str]:
    return [sys.executable, *extra, "-m", "crosswatch.cli", "--help"]


def measure_setup(calibration: Calibration) -> float:
    """Median scaled wall time of a fresh interpreter running a no-op CLI call (after one discarded spawn)."""
    times, readings = [], [calibration()]
    for _ in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        subprocess.run(_noop_cli([]), cwd=ROOT, env=_spawn_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        readings.append(calibration())
    return statistics.median(scaled(times, readings, calibration.reference)[1:])


def scipy_import_seconds(importtime: str) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime`` output."""
    # Lines come children first; a line's children are the pending lines just above it at greater depth.
    pending: list[tuple[int, str, int, list]] = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(cumulative), children))

    def outer(nodes) -> int:
        total = 0
        for _, name, cumulative, children in nodes:
            total += cumulative if name.split(".")[0] == "scipy" else outer(children)
        return total

    return outer(pending) / 1e6


def measure_scipy_import() -> float:
    values = []
    for i in range(IMPORTTIME_SPAWNS + 1):
        done = subprocess.run(_noop_cli(["-X", "importtime"]), cwd=ROOT, env=_spawn_env(), check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if i:
            values.append(scipy_import_seconds(done.stderr))
    return statistics.median(values)


class Runner:
    """Runs the job list pass after pass and keeps every timing and verdict."""

    def __init__(self, jobs, checkers, known, calibration: Calibration) -> None:
        from crosswatch import cli

        self.main = cli.main
        self.calibration = calibration
        self.jobs = jobs
        self.checkers = checkers
        self.known = known
        self.passes: list[dict] = []

    def call(self, argv) -> tuple[int, str, str]:
        """One CLI call; an uncaught exception or exit counts as a nonzero exit, as in a shell."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                rc = 1
                print(f"{type(exc).__name__}: {exc}", file=err)
        return rc, out.getvalue(), err.getvalue()

    def run(self, budget: float, tracer=None) -> None:
        """Complete passes while the next one is expected to fit in ``budget`` seconds (at least one)."""
        begin = time.perf_counter()
        last = None
        while last is None or time.perf_counter() - begin + last <= budget:
            index = len(self.passes)
            times, results, readings = [], [], [self.calibration()]
            start = time.perf_counter()
            for job in self.jobs:
                if tracer is not None:
                    tracer.job = f"{index}:{job.name}"
                calls, spent, result = [], 0.0, None
                # traced passes call each job once, so per-pass counts are one run of the list
                limit = 1 if tracer is not None else REPEAT_MAX
                gc.collect(1)  # so the job does not pay for its predecessors' young garbage
                while not calls or (spent < REPEAT_UNTIL_S and len(calls) < limit):
                    span = tracer.open("cli.main") if tracer is not None else None
                    t0 = time.perf_counter()
                    again = self.call(job.argv)
                    calls.append(time.perf_counter() - t0)
                    if span is not None:
                        tracer.close(span)
                    spent += calls[-1]
                    if result is None:
                        result = again
                    elif again != result:  # reruns must be byte-identical
                        result = (result[0] or 1, result[1], "output changed between identical calls")
                readings.append(self.calibration())
                times.append(statistics.median(calls))
                results.append(result)
            last = time.perf_counter() - start
            verdicts = [check(*result) for check, result in zip(self.checkers, results)]
            self.passes.append({"times": scaled(times, readings, self.calibration.reference),
                                "raw": times, "readings": readings,
                                "verdicts": verdicts, "traced": tracer is not None})

    def select(self, traced: bool) -> list[dict]:
        return [p for p in self.passes if p["traced"] == traced]


def load_known(workload: str) -> list[dict]:
    ledger = json.loads((HERE / "known_failures.json").read_text())
    return [entry for entry in ledger["failures"] if entry["workload"] == workload]


def is_known(job, known) -> bool:
    kind = "geometric" if "geometric" in job.model["marks"] else "pmf"
    return any(k["command"] == job.command and k["marks"] == kind and k["threshold"] == job.threshold
               for k in known)


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """The seven end-to-end metrics from the untraced passes.

    Each job's time is its median over the passes, which damps the
    machine's second-to-second speed changes; the list's wall time is
    the sum of those, and p50 and tail are taken over the job list.
    """
    from stats import DIGITS_CAP, fail_frac, tail

    passes = runner.select(traced=False)
    per_job = [statistics.median(p["times"][k] for p in passes) for k in range(len(runner.jobs))]
    attempted = len(passes) * len(runner.jobs)
    failed = sum(not v.ok for p in passes for v in p["verdicts"])
    # With no deterministic value to judge (all Monte Carlo), nothing can lose digits: read the cap.
    digits = [d for v in passes[0]["verdicts"] for d in v.digits]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_job), "s"),
        "job_s_p50": (statistics.median(per_job), "s"),
        "job_s_tail": (tail(per_job)[0], "s"),
        "fail_frac": (fail_frac(failed, attempted), "ratio"),
        "accuracy_digits": (statistics.fmean(digits) if digits else float(DIGITS_CAP), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    # One thread for numerical libraries (set before numpy loads) and for crosswatch's Monte Carlo.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("CROSSING_THREADS", None)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (SRC / "crosswatch" / "cli.py").is_file():
        print(f"error: no crosswatch sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs as joblib
    import layers
    from stats import tail

    if ns.workload not in joblib.WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}; choose from {joblib.WORKLOADS}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "perfbench" / f"{ns.workload}-{ns.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        job_list = joblib.build(ns.workload, ns.seed)
        for job in job_list:
            job.write(work)
        checkers = [joblib.Checker(job) for job in job_list]

        calibration = Calibration(joblib.CALIBRATION[ns.workload])
        setup_s = measure_setup(calibration) if not ns.trace else None
        scipy_s = measure_scipy_import() if ns.trace else None

        runner = Runner(job_list, checkers, load_known(ns.workload), calibration)
        for job in joblib.warmups(job_list, work):
            runner.call(job.argv)

        if ns.trace:
            from tracing import Tracer

            runner.run(ns.seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            try:
                runner.run(ns.seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(ROOT / ".bench_build" / "perfbench" / f"trace-{ns.workload}-{ns.seed}.json.gz")
            metrics = layers.per_layer(runner, tracer, scipy_s)
        else:
            runner.run(ns.seconds)
            metrics = end_to_end(runner, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timings = [{k: p[k] for k in ("times", "raw", "readings", "traced")} for p in runner.passes]
    (ROOT / ".bench_build" / "perfbench" / f"passes-{ns.workload}-{ns.seed}-{ns.trace}.json").write_text(
        json.dumps({"jobs": [job.name for job in job_list], "passes": timings}))
    verdicts = [(job, v) for p in runner.passes for job, v in zip(job_list, p["verdicts"])]
    unexpected = sorted({job.name for job, v in verdicts if not v.ok and not is_known(job, runner.known)})
    per_pass = len(job_list)
    print(f"workload {ns.workload}  seed {ns.seed}  {per_pass} jobs/pass  "
          f"{len(runner.passes)} passes  tail = p{tail(range(per_pass))[1]:.1f} of the job list")
    for k, (job, v) in enumerate(verdicts[:per_pass]):
        state = "ok" if v.ok else ("known failure" if is_known(job, runner.known) else "FAIL")
        note = f"  {v.notes[0]}" if v.notes else ""
        seconds = statistics.median(p["times"][k] for p in runner.passes)
        print(f"  {job.name:<22} {seconds:8.4f} s  {state}{note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    if unexpected:
        print(f"unexpected failures: {', '.join(unexpected)}")
    result = {
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": sum(not v.ok for _, v in verdicts),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
