"""Crossing-time analysis of marked Poisson processes under renewal inspection.

A compound Poisson stream accumulates integer marks; an independent
(possibly delayed) renewal clock inspects the level; the process exits
when an inspection first finds it above a threshold.  The package
computes the joint transforms of the crossing state, their closed forms
in the geometric/exponential family, the explicit joint law of (crossing
level, pre-crossing time), numerical Laplace inversion to survival
curves, and a full Monte Carlo oracle with a validation battery tying
all routes together.
"""

from .closedform import (
    JointDistTable,
    SpecialModel,
    coeff_g,
    coeff_h,
    crossing_level_pmf,
    dist_table,
    ev_v_anu_before,
    f_of,
    g1_star_special,
    joint_dist,
    reg_gamma_p,
)
from .errors import (
    ConfigError,
    CrosswatchError,
    DivergenceError,
    DomainError,
    InversionError,
    RunawaySimulationError,
    SeriesOrderError,
    TableInvariantError,
    UnsupportedLawError,
)
from .fluctuation import (
    g1_star,
    g2_star,
    g_star,
    lst_tau_cross,
    lst_tau_pre,
)
from .laplace import invert, survival_curve
from .model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    MAX_THRESHOLD,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
    delay_lst,
    delay_sample,
    load_model,
    mark_mean,
    mark_pgf,
    mark_sample,
    obs_lst,
)
from .montecarlo import (
    EstimateWithCI,
    JointEstimate,
    estimate_f1_star,
    estimate_f2_star,
    estimate_functional,
    estimate_joint,
)
from .series import (
    TruncatedSeries,
    d_inverse,
    d_inverse_double_geometric,
    d_op_indicator,
    series_from_rational,
)
from .transforms import (
    ConvolutionSpec,
    f1_star,
    f2_star,
    gamma,
    gamma_is_contractive,
    lst_divided_diff,
    phi,
    psi,
)
from .validation import ANALYTIC_OPS, run_battery

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_OPS",
    "ConfigError",
    "ConvolutionSpec",
    "CrosswatchError",
    "DegenerateZero",
    "DivergenceError",
    "DomainError",
    "EstimateWithCI",
    "Exponential",
    "GeneralDiscrete",
    "Geometric",
    "InversionError",
    "JointDistTable",
    "JointEstimate",
    "MAX_THRESHOLD",
    "ObservationLaw",
    "ProcessModel",
    "RunawaySimulationError",
    "SeriesOrderError",
    "SpecialModel",
    "TableInvariantError",
    "TransformArgs",
    "TruncatedSeries",
    "UnsupportedLawError",
    "coeff_g",
    "coeff_h",
    "crossing_level_pmf",
    "d_inverse",
    "d_inverse_double_geometric",
    "d_op_indicator",
    "delay_lst",
    "delay_sample",
    "dist_table",
    "estimate_f1_star",
    "estimate_f2_star",
    "estimate_functional",
    "estimate_joint",
    "ev_v_anu_before",
    "f1_star",
    "f2_star",
    "f_of",
    "g1_star",
    "g1_star_special",
    "g2_star",
    "g_star",
    "gamma",
    "gamma_is_contractive",
    "invert",
    "joint_dist",
    "load_model",
    "lst_divided_diff",
    "lst_tau_cross",
    "lst_tau_pre",
    "mark_mean",
    "mark_pgf",
    "mark_sample",
    "obs_lst",
    "phi",
    "psi",
    "reg_gamma_p",
    "run_battery",
    "series_from_rational",
    "survival_curve",
]
