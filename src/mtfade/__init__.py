"""Time-space FE solver for 1D multi-term time-fractional
advection-diffusion equations, with Toeplitz/FFT kernels and an adaptive
algebraic multigrid.
"""

from .problem import (FractionalOrders, Mesh, ProblemSpec, TimePolicy,
                      make_example_1, make_example_2, make_mesh)
from .toeplitz import SymToeplitz
from .assembly import (TimeHistory, history_weight, mass_symbol, rhs_vector,
                       source_moment, step_matrix, stiffness_symbol)
from .solvers import cf_jacobi_sweep, cg_solve, dense_solve
from .amg import (AdaptiveSolver, amg_solve, cg_switch, galerkin_symbol,
                  interp_apply, restrict_apply, setup, two_level_solve,
                  vcycle)
from .camg_dense import DenseAmg
from .analysis import (beta0, class_conditions, classify, kappa_ratio_table,
                       spectrum, two_level_contraction)
from .timestepper import SolverFailure, convergence_table, l2_error, march

__all__ = [
    # problem
    "FractionalOrders", "Mesh", "ProblemSpec", "TimePolicy",
    "make_example_1", "make_example_2", "make_mesh",
    # kernels and assembly
    "SymToeplitz", "TimeHistory", "history_weight", "mass_symbol",
    "rhs_vector", "source_moment", "step_matrix", "stiffness_symbol",
    # solvers
    "AdaptiveSolver", "DenseAmg", "amg_solve", "cf_jacobi_sweep",
    "cg_solve", "cg_switch", "dense_solve", "galerkin_symbol",
    "interp_apply", "restrict_apply", "setup", "two_level_solve", "vcycle",
    # analysis
    "beta0", "class_conditions", "classify", "kappa_ratio_table",
    "spectrum", "two_level_contraction",
    # time marching
    "SolverFailure", "convergence_table", "l2_error", "march",
]
__version__ = "0.1.0"
