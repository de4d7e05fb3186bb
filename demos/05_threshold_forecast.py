"""
Forecasting a threshold breach
==============================

Put the pieces together: given a monitored cumulative load, report the
probability of breaching within a horizon, the distribution of the
breach size, and a simulation sanity check.
"""

import numpy as np

from crosswatch import closedform, montecarlo, timedomain
from crosswatch.model import DegenerateZero, Exponential, Geometric, ObservationLaw, ProcessModel

# ---------------------------------------------------------------
# Scenario: bursts arrive at rate 1.2/day, each adding a geometric
# number of units (mean 2); the store is audited roughly daily and
# the alarm level is 8 units.

process = ProcessModel(
    rate=1.2,
    marks=Geometric(0.5),
    observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0)),
    threshold=8,
)
lam, b, mu = process.rate, process.marks.b, process.observation.recurring.rate
c = (b * mu + lam) / (mu + lam)
print("per-audit growth ratio c =", round(c, 4))

# ---------------------------------------------------------------
# Breach probability within a horizon: the exact survival law of the
# crossing time, as the CLI's `predict` prints it.

horizon = np.linspace(0.0, 14.0, 8)
crash = 1.0 - timedomain.survival_cross(process, horizon)
print("\n  days   P{breach observed by then}")
for t, p in zip(horizon, crash):
    bar = "#" * int(round(40 * p))
    print(f"  {t:4.0f}   {p:7.4f}  {bar}")

# ---------------------------------------------------------------
# How bad is the breach when it is seen?  The observed level pmf and
# its exact mean excess, from the crossing-level law.

levels, mean_excess = timedomain.crossing_level_law(process, 15)
print("\nobserved breach level pmf (first entries):")
for r in range(9, 16):
    print(f"  level {r:2d}: {levels[r]:.4f}")
print("mean excess over the alarm level:", round(mean_excess, 4))

# ---------------------------------------------------------------
# Simulation agrees: 200k simulated paths, same model.  A row of the
# empirical joint law P{A_nu = r, tau_pre > t} summed over r is the
# chance that the last audit below the alarm comes after day 7, which
# the exact survival law of tau_pre gives as well.

week = np.array([7.0])
freq, _ = montecarlo.estimate_joint(process, 400, week, n_paths=200_000, seed=0)
emp_week = float(freq[0].sum())
ana_week = float(timedomain.survival_pre(process, week)[0])
print("\nanalytic  P{last quiet audit after day 7}:", round(ana_week, 4))
print("simulated P{last quiet audit after day 7}:", round(emp_week, 4))
closed = closedform.dist_table(process, week, 12)[0]
print("\n  level   closed form   simulated")
for r in range(9, 13):
    print(f"  {r:5d}   {closed[r]:11.5f}   {freq[0, r]:9.5f}")
