"""End-to-end acceptance gate.

One test per written criterion, each at its stated tolerance; every test
records a single pass/fail line that the conftest hook prints after the
run summary.  These are deliberately redundant with the per-module unit
tests: they exercise the shipped code paths end to end, at full sample
sizes, with no mocking.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import geometric_model, record_criterion

from crosswatch import closedform, fluctuation, laplace, montecarlo, transforms
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
)
from crosswatch.series import (
    d_inverse,
    d_inverse_double_geometric,
    series_from_rational,
)

pytestmark = pytest.mark.acceptance

REFERENCE = geometric_model(3)


def _random_models(seed: int, count: int) -> list[ProcessModel]:
    """Seeded draw of geometric-mark models, alternating initial-delay kinds."""
    rng = np.random.default_rng(seed)
    models = []
    for i in range(count):
        lam = float(rng.uniform(0.3, 3.0))
        a = float(rng.uniform(0.15, 0.85))
        mu = float(rng.uniform(0.3, 3.0))
        initial = DegenerateZero() if i % 2 == 0 else Exponential(float(rng.uniform(0.3, 3.0)))
        models.append(
            ProcessModel(
                rate=lam,
                marks=Geometric(a),
                observation=ObservationLaw(initial=initial, recurring=Exponential(mu)),
                threshold=int(rng.integers(0, 7)),
            )
        )
    return models


def test_criterion_1_joint_table_matches_million_path_simulation():
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    start = time.monotonic()
    analytic = closedform.dist_table(REFERENCE, grid, 12)
    freq, std_errors = montecarlo.estimate_joint(REFERENCE, 12, grid, n_paths=1_000_000, seed=0)
    elapsed = time.monotonic() - start
    diff = np.abs(freq - analytic)
    tol = np.maximum(3.0 * std_errors, 0.005)
    worst = float(np.max(diff / tol))
    passed = bool(np.all(diff <= tol)) and elapsed <= 120.0
    record_criterion(
        1, passed,
        f"52 cells, worst |analytic-mc| = {float(diff.max()):.2e} "
        f"<= max(3SE, 0.005) (ratio {worst:.2f}), {elapsed:.1f}s",
    )
    assert passed, f"worst cell ratio {worst}, elapsed {elapsed:.1f}s"


def test_criterion_2_series_route_matches_closed_form():
    worst = 0.0
    for m in (1, 2, 3, 5):
        model = geometric_model(m)
        for theta in (0.1, 0.5, 1.0, 2.0, 5.0):
            for v in (0.1, 0.3, 0.5, 0.7, 0.9):
                args = TransformArgs(theta=theta, u=1.0, v=v, w=0.0, x=0.0, y=1.0)
                series_route = fluctuation.g1_star(model, args)
                closed = closedform.g1_star_special(model, theta, v)
                worst = max(worst, abs(series_route - closed) / abs(closed))
    passed = worst <= 1e-8
    record_criterion(
        2, passed, f"100 grid points, M in {{1,2,3,5}}, worst rel err = {worst:.2e} <= 1e-8"
    )
    assert passed, worst


def test_criterion_3_inversion_reproduces_time_domain_formula():
    worst = 0.0
    for v in (0.3, 0.6, 0.9):
        transform = lambda q, v=v: closedform.g1_star_special(REFERENCE, q, v)
        for t in (0.25, 1.0, 4.0):
            target = closedform.ev_v_anu_before(REFERENCE, v, t).real
            inverted = laplace.invert(transform, t)
            worst = max(worst, abs(inverted - target) / abs(target))
    passed = worst <= 1e-6
    record_criterion(3, passed, f"9 (v,t) points, worst rel err = {worst:.2e} <= 1e-6")
    assert passed, worst


def test_criterion_4_level_sums_match_generating_function():
    worst = 0.0
    for v in (0.3, 0.6, 0.9):
        for t in (0.25, 1.0, 4.0):
            row = closedform.dist_table(REFERENCE, [t], 119)[0]
            total = sum((v ** r) * row[r] for r in range(120))
            target = closedform.ev_v_anu_before(REFERENCE, v, t).real
            worst = max(worst, abs(total - target))
    passed = worst <= 1e-8
    record_criterion(4, passed, f"9 (v,t) points, worst |sum - pgf| = {worst:.2e} <= 1e-8")
    assert passed, worst


def test_criterion_5_step_transform_is_contractive():
    models = _random_models(seed=0, count=10)
    rng = np.random.default_rng(0)
    worst_interior = 0.0
    for k in range(1000):
        model = models[k % 10]
        if k % 2 == 0:
            # interior of the unit disk, transform argument on the imaginary axis
            z = (1.0 - 1e-6) * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            theta = 1j * rng.normal(0.0, 2.0)
        else:
            # unit circle, strictly positive real part
            z = np.exp(2j * np.pi * rng.uniform())
            theta = 1e-6 + rng.exponential(1.0) + 1j * rng.normal(0.0, 2.0)
        value = transforms.gamma(model, "recurring", complex(z), complex(theta))
        worst_interior = max(worst_interior, abs(value))
    worst_boundary = max(
        abs(abs(transforms.gamma(model, "recurring", 1.0, 0.0)) - 1.0) for model in models
    )
    passed = worst_interior < 1.0 and worst_boundary <= 1e-12
    record_criterion(
        5, passed,
        f"1000 samples over 10 models, max interior norm = {worst_interior:.6f} < 1, "
        f"boundary dev = {worst_boundary:.1e} <= 1e-12",
    )
    assert passed, (worst_interior, worst_boundary)


def test_criterion_6_window_transforms_match_two_stage_simulation():
    model = REFERENCE
    t_law, delta_law = Exponential(1.0), Exponential(1.0)
    args = TransformArgs(theta=0.6, u=0.9, v=0.8, w=0.2, x=0.1, y=0.7)
    details = []
    passed = True
    estimates = montecarlo.estimate_window_pair(model, t_law, delta_law, args, n_samples=1_000_000, seed=0)
    for label, exact_fn in (("f1", transforms.f1_star), ("f2", transforms.f2_star)):
        exact = exact_fn(model, t_law, delta_law, args).real
        estimate = estimates[label]
        lo, hi = estimate.ci()
        rel = abs(estimate.mean - exact) / abs(exact)
        covers = lo <= exact <= hi
        passed &= rel <= 0.02 and covers
        details.append(f"{label}: rel {rel:.1e}, CI covers {covers}")
    record_criterion(6, passed, "1e6 samples, " + "; ".join(details))
    assert passed, details


def test_criterion_7_partition_identity_and_survival_agreement():
    worst_partition = 0.0
    for model in _random_models(seed=1, count=5):
        for theta in (0.1, 1.0, 10.0):
            args = TransformArgs(theta=theta, u=1.0, v=1.0, w=0.0, x=0.0, y=1.0)
            lhs = theta * fluctuation.g_star(model, args) + fluctuation.lst_tau_cross(model, theta)
            worst_partition = max(worst_partition, abs(lhs - 1.0))

    model = REFERENCE
    sample = montecarlo._crossing_sample(model, 400_000, seed=0)
    grid = np.linspace(0.0, 10.0, 41)
    empirical = np.array([(sample["tau_cross"] > t).mean() for t in grid])
    analytic = laplace.survival_curve(lambda q: fluctuation.lst_tau_cross(model, q), grid)
    sup = float(np.max(np.abs(empirical - analytic)))

    passed = worst_partition <= 1e-10 and sup <= 0.005
    record_criterion(
        7, passed,
        f"partition dev = {worst_partition:.1e} <= 1e-10 on 5 models x 3 theta; "
        f"survival sup-diff = {sup:.2e} <= 0.005",
    )
    assert passed, (worst_partition, sup)


def test_criterion_8_damping_operator_round_trips_exactly():
    rng = np.random.default_rng(2)
    exact = True
    for _ in range(100):
        length = int(rng.integers(1, 31))
        values = rng.integers(-100, 101, size=length)
        coeffs = np.concatenate([[values[0]], np.diff(values)]).astype(float)
        exact &= all(d_inverse(coeffs, k) == float(values[k]) for k in range(length))

    worst = 0.0
    for _ in range(200):
        F = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
        G = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
        k = int(rng.integers(0, 25))
        direct = d_inverse_double_geometric(complex(F), complex(G), k)
        extracted = d_inverse(series_from_rational([1.0], np.poly([complex(F), complex(G)]), k + 1), k)
        worst = max(worst, abs(direct - extracted) / max(abs(extracted), 1e-30))

    passed = exact and worst <= 1e-13
    record_criterion(
        8, passed,
        f"100 integer round trips exact = {exact}; "
        f"double-geometric vs extraction worst rel = {worst:.1e} <= 1e-13",
    )
    assert passed, (exact, worst)


def test_criterion_9_perturbed_battery_fails_with_named_check(tmp_path):
    config = {
        "schema_version": 1,
        "model": {
            "lambda": 1.0,
            "marks": {"geometric": {"a": 0.5}},
            "obs": {"mu": 1.0, "initial": "zero"},
            "threshold": 3,
        },
        "n_paths": 10_000,
    }
    path = tmp_path / "validate.json"
    path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "crosswatch.cli", "validate",
         "--config", str(path), "--perturb-c", "1e-3"],
        capture_output=True, text=True, timeout=300,
    )
    named = "time-domain-inversion-agreement" in proc.stderr
    passed = proc.returncode == 1 and "validation failed" in proc.stderr and named
    record_criterion(
        9, passed,
        f"exit code {proc.returncode} == 1, failing check named on stderr = {named}",
    )
    assert passed, (proc.returncode, proc.stderr)


def test_criterion_10_inverted_survival_matches_exact_law_at_large_thresholds():
    worst = 0.0
    for m in (50, 300):
        model = geometric_model(m)
        mean = fluctuation.g_star(model, TransformArgs(theta=0.0)).real  # E[tau_cross]
        grid = np.linspace(0.05, 1.8 * mean, 15)
        inverted = laplace.survival_curve(lambda q: fluctuation.lst_tau_pre(model, q), grid)
        exact = np.array([closedform.ev_v_anu_before(model, 1.0, t).real for t in grid])
        worst = max(worst, float(np.max(np.abs(inverted - exact))))
    passed = worst <= 1e-6
    record_criterion(
        10, passed,
        f"P{{tau_pre > t}} at M in {{50, 300}}, 15 points each, worst |inverted - exact| = "
        f"{worst:.2e} <= 1e-6",
    )
    assert passed, worst
