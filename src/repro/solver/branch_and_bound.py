"""A pure-Python branch-and-bound MILP solver.

The solver repeatedly solves LP relaxations (via HiGHS through
``scipy.optimize.milp`` with no integrality, reading the same sparse arrays as
the HiGHS MIP backend), branches on the most fractional integral variable
and prunes nodes whose relaxation bound cannot improve on the incumbent.  It is
exact on the problem sizes produced by Explain3D's smart partitioning and
serves as the reference backend in tests; the HiGHS MIP backend in
:mod:`repro.solver.backends` is the faster default for benchmarks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.solver.lp import LPStatus, solve_lp_relaxation
from repro.solver.model import MILPModel, ObjectiveSense


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by its relaxation bound (best-first)."""

    priority: float
    counter: int
    bounds: dict[int, tuple[float, float]] = field(compare=False)


@dataclass
class BranchAndBoundStats:
    """Diagnostics for a branch-and-bound run."""

    nodes_explored: int = 0
    nodes_pruned: int = 0
    lp_solves: int = 0
    incumbent_updates: int = 0


class BranchAndBoundSolver:
    """Best-first branch and bound over LP relaxations."""

    def __init__(
        self,
        *,
        integrality_tolerance: float = 1e-6,
        gap_tolerance: float = 1e-9,
        node_limit: int = 200_000,
    ):
        self.integrality_tolerance = integrality_tolerance
        self.gap_tolerance = gap_tolerance
        self.node_limit = node_limit
        self.stats = BranchAndBoundStats()

    # -- helpers ------------------------------------------------------------------
    def _most_fractional(self, values: np.ndarray, integral_indices) -> Optional[int]:
        """Index of the integral variable whose value is farthest from integer.

        Vectorized: ``argmax`` of the per-variable distances to the nearest
        integer, matching the scalar loop (first index wins ties; ``None``
        when every distance is within the integrality tolerance).
        """
        indices = np.asarray(integral_indices, dtype=np.intp)
        if indices.size == 0:
            return None
        integral_values = values[indices]
        distances = np.abs(integral_values - np.round(integral_values))
        best = int(np.argmax(distances))
        if distances[best] <= self.integrality_tolerance:
            return None
        return int(indices[best])

    def _round_solution(self, values: np.ndarray, integral_indices) -> np.ndarray:
        rounded = np.array(values, dtype=float)
        indices = np.asarray(integral_indices, dtype=np.intp)
        if indices.size:
            rounded[indices] = np.round(rounded[indices])
        return rounded

    # -- main entry point ---------------------------------------------------------
    def solve(self, model: MILPModel) -> tuple[Optional[np.ndarray], float]:
        """Solve ``model``; returns ``(values, objective)`` or ``(None, nan)``.

        The objective is reported in the model's own sense (maximize or
        minimize).
        """
        self.stats = BranchAndBoundStats()
        arrays = model.to_arrays()
        integral_indices = np.flatnonzero(arrays["integrality"])
        maximize = model.objective_sense is ObjectiveSense.MAXIMIZE

        def better(candidate: float, incumbent: float) -> bool:
            if math.isnan(incumbent):
                return True
            return candidate > incumbent + self.gap_tolerance if maximize else candidate < incumbent - self.gap_tolerance

        def cannot_improve(bound: float, incumbent: float) -> bool:
            if math.isnan(incumbent):
                return False
            return bound <= incumbent + self.gap_tolerance if maximize else bound >= incumbent - self.gap_tolerance

        incumbent_values: Optional[np.ndarray] = None
        incumbent_objective = float("nan")

        counter = 0
        root = _Node(priority=0.0, counter=counter, bounds={})
        heap: list[_Node] = [root]

        while heap and self.stats.nodes_explored < self.node_limit:
            node = heapq.heappop(heap)
            self.stats.nodes_explored += 1

            relaxation = solve_lp_relaxation(arrays, extra_bounds=node.bounds)
            self.stats.lp_solves += 1
            if relaxation.status is not LPStatus.OPTIMAL:
                self.stats.nodes_pruned += 1
                continue
            if cannot_improve(relaxation.objective, incumbent_objective):
                self.stats.nodes_pruned += 1
                continue

            branch_index = self._most_fractional(relaxation.values, integral_indices)
            if branch_index is None:
                # Integral (within tolerance): candidate incumbent.
                candidate = self._round_solution(relaxation.values, integral_indices)
                if model.is_feasible(candidate, tolerance=1e-5):
                    objective = model.objective_value(candidate)
                    if better(objective, incumbent_objective):
                        incumbent_values = candidate
                        incumbent_objective = objective
                        self.stats.incumbent_updates += 1
                continue

            value = relaxation.values[branch_index]
            floor_value = math.floor(value)
            ceil_value = math.ceil(value)
            # Best-first: explore the child with the better parent bound first.
            priority = -relaxation.objective if maximize else relaxation.objective

            counter += 1
            down = dict(node.bounds)
            down[branch_index] = (
                max(down.get(branch_index, (-math.inf, math.inf))[0], -math.inf),
                floor_value,
            )
            heapq.heappush(heap, _Node(priority, counter, down))

            counter += 1
            up = dict(node.bounds)
            up[branch_index] = (
                ceil_value,
                min(up.get(branch_index, (-math.inf, math.inf))[1], math.inf),
            )
            heapq.heappush(heap, _Node(priority, counter, up))

        return incumbent_values, incumbent_objective
