"""
The oracle-agreement battery
============================

Every analytic routine is cross-checked against an independent route:
quadrature, series extraction, inversion round trips, or simulation.
The battery runs them all and reports coverage.
"""

import numpy as np

from crosswatch.model import (
    DegenerateZero,
    Exponential,
    Geometric,
    ObservationLaw,
    ProcessModel,
)
from crosswatch.validation import run_battery

model = ProcessModel(
    rate=1.0,
    marks=Geometric(0.5),
    observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0)),
    threshold=3,
)

# ---------------------------------------------------------------
# A passing run: every check within tolerance, every public analytic
# routine covered by at least one check.

report = run_battery(model, seed=0, n_paths=50_000)
print(f"{'check':<38} {'observed':>10}   {'tolerance':>9}")
for check in report["checks"]:
    print(f"{check['name']:<38} {check['observed']:>10.2e}   {check['tolerance']:>9.0e}")
print("\nall passed:", report["all_passed"])
print("coverage missing:", report["coverage"]["missing"])

# ---------------------------------------------------------------
# A negative control: nudge the composite ratio c by 1e-3 and the
# checks that hold the time-domain formula against an independent route
# (the inverted transform, the factorised joint table) trip immediately.
# A battery that cannot fail validates nothing.

perturbed = run_battery(model, seed=0, c_shift=1e-3, n_paths=50_000)
print("\nwith c shifted by 1e-3:")
print("all passed:", perturbed["all_passed"])
print("failed checks:", perturbed["failed_checks"])

# ---------------------------------------------------------------
# Checks needing the closed forms sit out for general models; the
# rest still run, and required coverage shrinks accordingly.

general = ProcessModel(
    rate=1.0,
    marks=Geometric(0.5),
    observation=ObservationLaw(initial=Exponential(2.0), recurring=Exponential(1.0)),
    threshold=2,
)
general_report = run_battery(general, seed=0, n_paths=50_000)
skipped = [c["name"] for c in general_report["checks"] if c["skipped"]]
print("\ngeneral model: all passed:", general_report["all_passed"])
print("skipped (closed-form only):", np.array(skipped))
