"""Minimal positive solutions of -Delta_{p,w} u = sigma u^q on (-1, 1).

Numerical toolkit for the sub-natural growth problem with Radon measure data:
an exact 1D Dirichlet solver (flux inversion), extended potentials of infinite
measures in the same single solve, truncated Wolff potentials, generalized
energies with their sharp-constant identities, the sublinear fixed-point
construction of the minimal solution, and two-sided trace-constant brackets.
"""

from .errors import (
    ConvergenceError,
    InternalInvariantError,
    QuadratureError,
    SublapError,
    ValidationError,
)
from .measures import (
    CumulativeMass,
    RadonMeasure,
    add,
    ball_mass,
    cdf,
    dirac,
    lebesgue,
    manufactured_measure,
    power_measure,
    scale,
    truncate,
    weighted_pushforward,
)
from .params import (
    ProblemParams,
    SharpConstants,
    constants,
    energy_constant,
    envelope_constant,
    hardy_threshold,
    lorentz_exponents,
)
from .solver import (
    GridFunction,
    PotentialResult,
    SolverOptions,
    check_comparison,
    potential,
    solve_dirichlet,
)
from .weights import Weight, constant_weight, power_weight
from .wolff import WolffSample, ratio_report, wolff_truncated
from .energy import (
    EnergyReport,
    energy,
    mee_bound,
    quasi_additivity_check,
    sup_norm_energy,
    triple_norm,
)
from .sublinear import (
    CriterionReport,
    IterationTrace,
    bounded_solution_check,
    finite_energy_check,
    hardy_sweep,
    iterate,
    iterated_inequality_check,
    lower_envelope,
    verify_equivalence,
)
from .trace import TraceBracket, rayleigh_lower, trace_bracket

__version__ = "0.1.0"
