"""
Where and when the threshold is crossed
=======================================

Tabulate the closed-form joint law of the crossing level and the
pre-crossing time, then check a few cells against simulation.
"""

import numpy as np

from crosswatch import closedform, montecarlo, timedomain
from crosswatch.model import DegenerateZero, Exponential, Geometric, ObservationLaw, ProcessModel

# ---------------------------------------------------------------
# The closed forms cover geometric marks with exponential
# inspection gaps and no initial delay.

model = ProcessModel(
    rate=1.0,
    marks=Geometric(0.5),
    observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0)),
    threshold=3,
)
lam, b, mu = model.rate, model.marks.b, model.observation.recurring.rate
c = (b * mu + lam) / (mu + lam)
print("composite ratio c =", c, " (per-inspection growth factor)")

# ---------------------------------------------------------------
# P{A_nu = r, tau_pre > t}: the process is first seen above m=3 at
# level r, with the last benign inspection later than t.

grid = np.array([0.0, 0.5, 1.0, 2.0])
table = closedform.dist_table(model, grid, r_max=10)
print("\n t \\ r ", "  ".join(f"{r:>7d}" for r in range(4, 9)))
for t, row in zip(grid, table):
    print(f" {t:4.1f}  " + "  ".join(f"{p:.5f}" for p in row[4:9]))

# Levels r <= 3 are impossible: the crossing level always overshoots.
print("\nmass at r <= m:", f"{float(table[:, :4].max()):.1e}", "(zero up to roundoff)")

# ---------------------------------------------------------------
# The marginal crossing-level law is geometric beyond the threshold;
# its mean overshoot is 1/(1-c), and the law gives it exactly.

pmf, mean_overshoot = timedomain.crossing_level_law(model, 14)
print("P{A_nu = r}, r=4..8:", np.round(pmf[4:9], 5))
print("mean overshoot:", round(mean_overshoot, 6), " (1/(1-c) =", 1.0 / (1.0 - c), ")")

# ---------------------------------------------------------------
# Cross-check a column against 100k simulated paths.

freq, std_errors = montecarlo.estimate_joint(model, 8, grid, n_paths=100_000, seed=0)
print("\nanalytic  column r=5:", np.round(table[:, 5], 5))
print("simulated column r=5:", np.round(freq[:, 5], 5))
print("std errors          :", np.round(std_errors[:, 5], 5))
