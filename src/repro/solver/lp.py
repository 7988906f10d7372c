"""LP relaxation solving through ``scipy.optimize.milp`` (HiGHS) with no integrality."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class LPResult:
    """Result of an LP relaxation solve.

    ``objective`` is reported in the *original* sense of the model (maximized
    objectives are un-negated), so callers can compare it directly with
    incumbent solutions.
    """

    status: LPStatus
    objective: float
    values: np.ndarray | None

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


_STATUS_BY_CODE = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ERROR,       # iteration or time limit
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.ERROR,
}


def solve_lp_relaxation(arrays: dict, *, extra_bounds: dict[int, tuple[float, float]] | None = None) -> LPResult:
    """Solve the LP relaxation of a model exported with :meth:`MILPModel.to_arrays`.

    ``extra_bounds`` overrides individual variable bounds -- this is how the
    branch-and-bound solver tightens bounds along each branch without copying
    the whole model.
    """
    lower, upper = arrays["lower"], arrays["upper"]
    if extra_bounds:
        lower, upper = lower.copy(), upper.copy()
        for index, (bound_lower, bound_upper) in extra_bounds.items():
            lower[index] = max(lower[index], bound_lower)
            upper[index] = min(upper[index], bound_upper)
            if lower[index] > upper[index]:
                return LPResult(LPStatus.INFEASIBLE, float("nan"), None)

    result = milp(
        c=arrays["c"],
        constraints=LinearConstraint(arrays["A"], arrays["row_lower"], arrays["row_upper"]),
        bounds=Bounds(lower, upper),
    )
    status = _STATUS_BY_CODE.get(result.status, LPStatus.ERROR)
    if status is not LPStatus.OPTIMAL or result.x is None:
        return LPResult(status, float("nan"), None)

    # milp minimizes sign * objective; convert back to the model's sense.
    sign = arrays["objective_sign"]
    objective = sign * result.fun + arrays["objective_offset"]
    return LPResult(LPStatus.OPTIMAL, float(objective), np.asarray(result.x))
