"""Mixed integer linear programming substrate.

The paper solves the EXP-3D optimization with IBM CPLEX.  CPLEX is proprietary
and unavailable offline, so this subpackage provides the solving substrate:

* :mod:`repro.solver.model` -- variables, linear expressions, constraints and
  the :class:`~repro.solver.model.MILPModel` container, which exports one
  sparse form (a CSR matrix with row bounds, variable bounds and integrality)
  that both backends read.
* :mod:`repro.solver.linearize` -- the big-M linearization of the paper's
  Equation (7) indicator.
* :mod:`repro.solver.lp` -- LP relaxation solving through
  ``scipy.optimize.milp`` (HiGHS) with no integrality.
* :mod:`repro.solver.branch_and_bound` -- a pure-Python branch-and-bound MILP
  solver built on the LP relaxation.
* :mod:`repro.solver.backends` -- a common interface with two interchangeable
  backends: the built-in branch and bound, and HiGHS' own MIP solver exposed
  through ``scipy.optimize.milp``.
"""

from repro.solver.model import (
    Constraint,
    ConstraintSense,
    LinearExpression,
    MILPModel,
    ObjectiveSense,
    Variable,
    VariableType,
)
from repro.solver.lp import LPResult, LPStatus, solve_lp_relaxation
from repro.solver.branch_and_bound import BranchAndBoundSolver
from repro.solver.backends import HighsSolver, MILPSolution, MILPSolver, SolverError, default_solver
from repro.solver.linearize import add_equality_indicator

__all__ = [
    "Variable",
    "VariableType",
    "LinearExpression",
    "Constraint",
    "ConstraintSense",
    "ObjectiveSense",
    "MILPModel",
    "LPResult",
    "LPStatus",
    "solve_lp_relaxation",
    "BranchAndBoundSolver",
    "HighsSolver",
    "MILPSolver",
    "MILPSolution",
    "SolverError",
    "default_solver",
    "add_equality_indicator",
]
