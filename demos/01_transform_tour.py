"""
A tour of the crossing transforms
=================================

Build the reference model, evaluate the increment and window
transforms, and confirm the identities that tie them together.
"""

import numpy as np

from crosswatch import fluctuation, transforms
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
)

# ---------------------------------------------------------------
# A unit-rate stream of geometric marks, inspected at Exp(1) gaps,
# with the alarm drawn at accumulated level 3.

model = ProcessModel(
    rate=1.0,
    marks=Geometric(0.5),
    observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0)),
    threshold=3,
)
print("model:", model)

# ---------------------------------------------------------------
# phi(z, s) is the joint transform of the increment accumulated over a
# deterministic window of length s; gamma(z, theta) integrates it
# against a random inspection gap.

for z in (0.5, 0.9, 1.0):
    print(f"phi({z}, s=1)    = {transforms.phi(model, z, 1.0):.10f}")
for theta in (0.5, 1.0):
    g = transforms.gamma(model, "recurring", 0.7, theta)
    print(f"gamma(0.7, {theta}) = {g:.10f}")

# gamma is a strict contraction inside the unit disk, and exactly 1 at
# the boundary point (z=1, theta=0): that is what makes the geometric
# resolvent series converge.
print("abs(gamma(0.7, 0.5)) < 1:", abs(transforms.gamma(model, "recurring", 0.7, 0.5)) < 1)
print("|gamma(1, 0)| =", abs(transforms.gamma(model, "recurring", 1.0, 0.0)))

# ---------------------------------------------------------------
# The windowed crossing transforms G1*/G2* split the history at the
# last inspection below the threshold.  Their unit-argument partition
# recovers the crossing-time LST:  theta*(G1*+G2*) + E e^{-theta tau} = 1.

theta = 0.8
args = TransformArgs(theta=theta, u=1.0, v=1.0, w=0.0, x=0.0, y=1.0)
g1 = fluctuation.g1_star(model, args)
g2 = fluctuation.g2_star(model, args)
lst = fluctuation.lst_tau_cross(model, theta)
print(f"G1*(theta={theta}) = {g1:.10f}")
print(f"G2*(theta={theta}) = {g2:.10f}")
print(f"theta*(G1*+G2*) + LST = {theta * (g1 + g2) + lst:.12f}  (should be 1)")

# ---------------------------------------------------------------
# Damping the pre-crossing level (v < 1) and the crossing gap (x > 0)
# weights paths by how they cross, not just when.

rich = TransformArgs(theta=0.8, u=0.9, v=0.6, w=0.1, x=0.2, y=0.95)
print("general args :", np.round(complex(fluctuation.g_star(model, rich)), 10))
