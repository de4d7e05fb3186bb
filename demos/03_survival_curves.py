"""
Survival curves from transforms
===============================

Invert the crossing-time transforms into time-domain survival
probabilities, for models with and without closed forms.
"""

import numpy as np

from crosswatch import fluctuation, laplace
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    Geometric,
    ObservationLaw,
    ProcessModel,
)

# ---------------------------------------------------------------
# Two variants of the same stream: one inspected immediately, one
# whose first inspection is itself exponentially delayed.

base = dict(rate=1.0, marks=Geometric(0.5), threshold=3)
prompt = ProcessModel(
    observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0)), **base
)
delayed = ProcessModel(
    observation=ObservationLaw(initial=Exponential(0.5), recurring=Exponential(1.0)), **base
)

# ---------------------------------------------------------------
# survival_curve() inverts an LST into P{time > t} over the whole grid,
# calling the LST once on an array of abscissae.  Every node has an
# error estimate: a node that misses 1e-6 doubles its Euler terms, up to
# 400, and only then raises InversionError.  Any atom at zero is exact.

grid = np.linspace(0.0, 8.0, 9)
for name, model in (("prompt", prompt), ("delayed", delayed)):
    pre = laplace.survival_curve(lambda q: fluctuation.lst_tau_pre(model, q), grid)
    cross = laplace.survival_curve(lambda q: fluctuation.lst_tau_cross(model, q), grid)
    print(f"\n{name} first inspection")
    print("   t      P{tau_pre > t}   P{tau_nu > t}")
    for t, p, c in zip(grid, pre, cross):
        print(f"  {t:4.1f}      {p:8.5f}        {c:8.5f}")

# The pre-crossing time is dominated by the crossing time pathwise, so
# its survival curve sits below at every t.

# ---------------------------------------------------------------
# The prompt model's t=0 values are exact renewal quantities:
# P{tau_pre > 0} = P{nu >= 2} = 101/128 here, while the crossing time
# itself has no atom at zero.

pre0 = laplace.survival_curve(lambda q: fluctuation.lst_tau_pre(prompt, q), np.array([0.0]))
print("\nP{tau_pre > 0} =", pre0[0], " (101/128 =", 101 / 128, ")")
