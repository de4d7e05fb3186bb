"""Per-layer metrics from the spans and counters of the traced passes.

Totals and counts are per pass (summed over the traced passes, divided by
their number); rates divide totals.  A layer that does no work on a
workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from stats import self_time

def _paths_in_cli(job) -> int:
    """Paths the job's own CLI frame sends through the vectorised crossing simulator."""
    if job.command == "simulate":
        return job.keys["n_paths"]
    if job.command == "predict" and "pmf" in job.model["marks"]:
        return job.keys.get("n_paths", 200_000)
    return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runner, tracer, scipy_import_s: float) -> dict:
    spans = tracer.spans
    traced = runner.select(traced=True)
    passes = len(traced)
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    own = [self_time(s.start, s.end, children[i]) for i, s in enumerate(spans)]

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(indices) -> float:
        return sum(spans[i].end - spans[i].start for i in indices)

    def layer_self(layer) -> float:
        return sum(own[i] for i, s in enumerate(spans) if s.name.startswith(layer + ".")) / passes

    def count(*names) -> float:
        return sum(n for (_, name), n in tracer.counters.items() if name in names) / passes

    def under(index, name) -> bool:
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    jobs = {job.name: job for job in runner.jobs}
    cli_spans = named("cli.main")
    cli_paths = [(_paths_in_cli(jobs[spans[i].job.split(":", 1)[1]]), own[i]) for i in cli_spans]
    cli_paths = [(n, t) for n, t in cli_paths if n]

    cells = named("closedform.joint_dist")
    g_calls = named("fluctuation.g1_star") + named("fluctuation.g2_star")
    points = named("laplace.invert")
    evals = [i for i in named("fluctuation.lst_tau_pre") + named("fluctuation.lst_tau_cross")
             if under(i, "laplace.invert")]
    functional = {"unit_y": [0, 0.0], "tagged_y": [0, 0.0]}
    for i in named("montecarlo.estimate_functional"):
        info = spans[i].info
        key = "unit_y" if info["y"] == 1.0 else "tagged_y"
        functional[key][0] += info["n_paths"]
        functional[key][1] += spans[i].end - spans[i].start
    windows = named("montecarlo.estimate_f1_star") + named("montecarlo.estimate_f2_star")
    batteries = named("validation.run_battery")

    traced_wall = statistics.median(sum(p["times"]) for p in traced)
    plain_wall = statistics.median(sum(p["times"]) for p in runner.select(traced=False))
    return {
        "setup.scipy_import_s": (scipy_import_s, "s"),
        "cli.self_s": (statistics.median(own[i] for i in cli_spans), "s"),
        "model.load_model_s": (statistics.median([spans[i].end - spans[i].start
                                                  for i in named("model.load_model")] or [0.0]), "s"),
        "closedform.cells": (len(cells) / passes, "count"),
        "closedform.s_per_cell": (_ratio(total(cells), len(cells)), "s"),
        "closedform.joint_dist_s": (total(cells) / passes, "s"),
        "series.self_s": (layer_self("series"), "s"),
        "fluctuation.g_calls": (len(g_calls) / passes, "count"),
        "fluctuation.s_per_g": (_ratio(total(g_calls), len(g_calls)), "s"),
        "fluctuation.self_s": (layer_self("fluctuation"), "s"),
        "model.mark_pgf_calls": (count("model.mark_pgf"), "count"),
        "transforms.divided_diff_calls": (count("transforms.lst_divided_diff",
                                                "transforms.resolvent_divided_diff"), "count"),
        "laplace.points": (len(points) / passes, "count"),
        "laplace.evals_per_point": (_ratio(len(evals), len(points)), "count"),
        "laplace.s_per_point": (_ratio(total(points), len(points)), "s"),
        "montecarlo.crossing_paths_per_s": (_ratio(sum(n for n, _ in cli_paths),
                                                   sum(t for _, t in cli_paths)), "1/s"),
        "montecarlo.functional_paths_per_s.unit_y": (_ratio(*functional["unit_y"]), "1/s"),
        "montecarlo.functional_paths_per_s.tagged_y": (_ratio(*functional["tagged_y"]), "1/s"),
        "montecarlo.window_samples_per_s": (_ratio(sum(spans[i].info["n_samples"] for i in windows),
                                                   total(windows)), "1/s"),
        "validation.s_per_check": (_ratio(total(batteries),
                                          sum(spans[i].info["checks"] for i in batteries)), "s"),
        "validation.checks_failed": (sum(spans[i].info["failed"] for i in batteries) / passes, "count"),
        "trace.overhead": (traced_wall / plain_wall - 1.0, "ratio"),
    }
