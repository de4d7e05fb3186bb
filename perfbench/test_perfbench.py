"""Self-tests of the benchmark's arithmetic and of its exact oracle.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import jobs
import run
from oracle import Model
from stats import DIGITS_CAP, digits, fail_frac, self_time, tail

HERE = Path(__file__).resolve().parent


def test_tail_is_highest_percentile_with_ten_values_beyond():
    times = [float(k) for k in range(20)]
    value, percentile = tail(times)
    assert (value, percentile) == (9.0, 50.0)
    assert sum(t > value for t in times) == 10
    assert tail([float(k) for k in range(100)]) == (89.0, 90.0)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_self_time_subtracts_covered_child_time_once():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 3.0)]) == 7.0  # nested children count once
    assert self_time(0.0, 10.0, [(-1.0, 2.0), (9.0, 12.0)]) == 7.0  # clipped to the span


def test_digits_floor_and_cap():
    assert digits(1.0, 1.0) == DIGITS_CAP
    assert digits(1.0 + 1e-15, 1.0) == DIGITS_CAP
    assert digits(1.0005, 1.0) == 3
    assert digits(1.5, 1.0) == 0
    assert digits(3.0, 1.0) == 0  # relative error 2 would be -1 digits
    assert digits(math.nan, 1.0) == 0
    assert digits(0.5 + 0.5j, 0.5 + 0.5000001j) == 6
    with pytest.raises(ValueError):
        digits(1.0, 0.0)


def test_fail_frac():
    assert fail_frac(3, 12) == 0.25
    assert fail_frac(0, 5) == 0.0
    with pytest.raises(ValueError):
        fail_frac(0, 0)
    with pytest.raises(ValueError):
        fail_frac(6, 5)


def test_scipy_import_sums_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:       200 |        200 |       scipy._lib",
        "import time:       300 |        500 |     scipy.special",
        "import time:        50 |        650 |   crosswatch.closedform",
        "import time:       400 |        400 |   scipy.stats",
        "import time:        10 |       1060 | crosswatch",
    ])
    assert run.scipy_import_seconds(text) == pytest.approx(900e-6)


def _references():
    return json.loads((HERE / "references.json").read_text())["cases"]


@pytest.mark.parametrize("case", _references(), ids=lambda c: f"{next(iter(c['model']['marks']))}-M{c['model']['threshold']}")
def test_oracle_within_five_standard_errors_of_simulation(case):
    """The exact oracle against the committed exact-event simulation."""
    model = Model.from_config(case["model"])
    moments = model.moments()
    n = case["paths"]
    worst = 0.0
    for ref in case["values"]:
        quantity, allowed = ref["quantity"], jobs.Z_MC * ref["se"] + 1e-12
        if quantity in moments:
            exact = moments[quantity]
        elif quantity.startswith("survival_"):
            exact = model.survival_pre(ref["t"]) if quantity == "survival_pre" else model.survival_cross(ref["t"])
            # a frequency: binomial error at the exact value, plus the 5 counts of slack jobs.py allows
            allowed = (jobs.Z_MC * math.sqrt(n * exact * (1.0 - exact)) + jobs.Z_MC) / n
        else:
            g1, g2 = model.g_parts(**ref["args"])
            exact = {"G1": g1, "G2": g2, "G": g1 + g2}[quantity].real
        worst = max(worst, abs(exact - ref["mean"]) / allowed)
    assert worst < 1.0


def test_oracle_window_split_matches_its_closed_difference():
    """With y = 1, G1 = (h_w(0) - h_{w+theta}(0)) / theta, a second route through the chain."""
    model = Model(1.0, 1.0, 7, pmf=(0.0, 0.5, 0.3, 0.2))
    theta, u, v, w, x = 0.4, 0.9, 0.95, 0.1, 0.2
    g1, _ = model.g_parts(theta, u, v, w, x)
    direct = (model.future(w, u, v, x)[0] - model.future(w + theta, u, v, x)[0]) / theta
    assert g1 == pytest.approx(direct, rel=1e-12)


def test_workloads_and_ledger_agree_with_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == jobs.WORKLOADS
    kinds = {(w, j.command, "geometric" if "geometric" in j.model["marks"] else "pmf", j.threshold)
             for w in jobs.WORKLOADS for j in jobs.build(w, 0)}
    ledger = json.loads((HERE / "known_failures.json").read_text())["failures"]
    for entry in ledger:
        assert (entry["workload"], entry["command"], entry["marks"], entry["threshold"]) in kinds
    for workload in jobs.WORKLOADS:
        assert len(jobs.build(workload, 0)) > 10  # a tail needs ten jobs of a pass beyond it
        assert [j.keys for j in jobs.build(workload, 7)] == [j.keys for j in jobs.build(workload, 7)]
