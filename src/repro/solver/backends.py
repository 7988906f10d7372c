"""Common solver interface with interchangeable backends.

Two backends are provided:

* :class:`HighsSolver` -- HiGHS' branch-and-cut MIP solver exposed through
  ``scipy.optimize.milp``.  This plays the role of CPLEX in the paper and is
  the default.
* :class:`BranchAndBoundSolver` (adapted through :class:`BnBSolverBackend`) --
  the pure-Python branch and bound of :mod:`repro.solver.branch_and_bound`,
  useful as an independent cross-check in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.optimize import Bounds as ScipyBounds

from repro.solver.branch_and_bound import BranchAndBoundSolver
from repro.solver.model import MILPModel


class SolverError(RuntimeError):
    """Raised when a MILP could not be solved to optimality."""


@dataclass
class MILPSolution:
    """A solved assignment: the solution vector plus the objective value.

    ``x[i]`` is the value of the model's column ``i``.  ``names`` maps the
    variables a model added by name to their columns, so ``value``/``binary``
    and ``solution[name]`` read them by name.
    """

    objective: float
    x: np.ndarray
    names: Mapping[str, int]

    def value(self, name: str) -> float:
        return float(self.x[self.names[name]])

    def binary(self, name: str) -> bool:
        return round(self.value(name)) >= 1

    def __getitem__(self, name: str) -> float:
        return self.value(name)


class MILPSolver(Protocol):
    """Protocol implemented by all solver backends."""

    def solve(self, model: MILPModel) -> MILPSolution:  # pragma: no cover - protocol
        ...


def _to_solution(model: MILPModel, values: np.ndarray, objective: float) -> MILPSolution:
    return MILPSolution(float(objective), np.asarray(values, dtype=float), model.names)


class HighsSolver:
    """MILP solving through ``scipy.optimize.milp`` (HiGHS branch and cut)."""

    def __init__(self, *, time_limit: float | None = None, mip_rel_gap: float = 1e-6):
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap

    def clone(self) -> "HighsSolver":
        """A fresh, identically configured instance for a parallel worker."""
        return HighsSolver(time_limit=self.time_limit, mip_rel_gap=self.mip_rel_gap)

    def solve(self, model: MILPModel) -> MILPSolution:
        arrays = model.to_arrays()
        if model.num_variables == 0:
            return _to_solution(model, np.zeros(0), arrays["objective_offset"])

        options = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit

        result = milp(
            c=arrays["c"],
            constraints=LinearConstraint(arrays["A"], arrays["row_lower"], arrays["row_upper"]),
            bounds=ScipyBounds(arrays["lower"], arrays["upper"]),
            integrality=arrays["integrality"],
            options=options,
        )
        if not result.success or result.x is None:
            raise SolverError(f"HiGHS failed to solve model {model.name!r}: {result.message}")
        objective = arrays["objective_sign"] * result.fun + arrays["objective_offset"]
        return _to_solution(model, result.x, objective)


class BnBSolverBackend:
    """Adapter exposing :class:`BranchAndBoundSolver` through the common interface."""

    def __init__(self, **kwargs):
        self._kwargs = dict(kwargs)
        self._solver = BranchAndBoundSolver(**kwargs)

    @property
    def stats(self):
        return self._solver.stats

    def clone(self) -> "BnBSolverBackend":
        """A fresh instance for a parallel worker.

        The underlying branch-and-bound solver mutates its ``stats`` during a
        solve, so concurrent partitions must not share one instance.
        """
        return BnBSolverBackend(**self._kwargs)

    def solve(self, model: MILPModel) -> MILPSolution:
        values, objective = self._solver.solve(model)
        if values is None:
            raise SolverError(f"branch and bound found no feasible solution for {model.name!r}")
        return _to_solution(model, values, objective)


def default_solver() -> MILPSolver:
    """The default MILP backend used by the Explain3D pipeline."""
    return HighsSolver()
