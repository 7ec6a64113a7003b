"""Time-space FE solver for 1D multi-term time-fractional
advection-diffusion equations, with Toeplitz/FFT kernels and an adaptive
algebraic multigrid.
"""

from .problem import (FractionalOrders, Mesh, ProblemSpec, TimePolicy,
                      make_example_1, make_example_2, make_mesh)
from .toeplitz import SymToeplitz
from .assembly import (StepMatrix, TimeHistory, history_weight, mass_symbol,
                       rhs_vector, source_moment, step_matrix,
                       stiffness_symbol)
from .solvers import SolveReport, cf_jacobi_sweep, cg_solve, dense_solve
from .amg import (AdaptiveSolver, AmgHierarchy, AmgParams, amg_solve,
                  cg_switch, galerkin_symbol, interp_apply, restrict_apply,
                  setup, split_cf, two_level_solve, vcycle)
from .camg_dense import DenseAmg
from .analysis import (MatrixReport, SpectrumReport, beta0, class_conditions,
                       classify, kappa_ratio_table, spectrum,
                       two_level_contraction)
from .timestepper import (RunResult, SolverFailure, convergence_table,
                          l2_error, march)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
