"""Crossing-time analysis of marked Poisson processes under renewal inspection.

A compound Poisson stream accumulates integer marks; an independent
(possibly delayed) renewal clock inspects the level; the process exits
when an inspection first finds it above a threshold.  The package
computes the joint transforms of the crossing state, their closed forms
in the geometric/exponential family, the explicit joint law of (crossing
level, pre-crossing time), exact time-domain survival laws, numerical
Laplace inversion, and a full Monte Carlo oracle with a validation
battery tying all routes together.

The package root re-exports nothing: import the layer modules
(``from crosswatch import fluctuation``), whose ``__all__`` lists are the
public API.
"""

__version__ = "0.1.0"
