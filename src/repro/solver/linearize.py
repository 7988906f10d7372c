"""Big-M linearization of the Equation (7) indicator.

The paper's MILP formulation needs the indicator ``y = (I* == I)`` of
Equation (7), linearized so that ``y = 1`` forces ``I* = I`` (the objective
then rewards ``y = 1`` whenever it is admissible).  The binary-times-continuous
products of Equations (8) and (11) never appear: the strengthened formulation
in :mod:`repro.core.milp_model` multiplies binaries by constants only.
"""

from __future__ import annotations

from repro.solver.model import ConstraintSense, LinearExpression, MILPModel, Variable


def add_equality_indicator(
    model: MILPModel,
    indicator: Variable,
    expression,
    target: float,
    *,
    big_m: float,
    name: str = "eq_indicator",
) -> None:
    """Force ``indicator = 1  =>  expression == target``.

    Implements Equation (7): the binary ``y_i`` may only be 1 when the refined
    impact equals the original impact.  The converse direction (``expression ==
    target => indicator = 1``) is *not* enforced; the objective rewards
    ``indicator = 1`` (``log beta > log(1 - beta)``), so an optimal solution
    always sets it when admissible.
    """
    if isinstance(expression, Variable):
        expression = LinearExpression.from_variable(expression)
    # expression - target <=  M * (1 - indicator)
    model.add_constraint(
        expression + big_m * indicator, ConstraintSense.LESS_EQUAL, target + big_m, f"{name}_ub"
    )
    # expression - target >= -M * (1 - indicator)
    model.add_constraint(
        expression - big_m * indicator, ConstraintSense.GREATER_EQUAL, target - big_m, f"{name}_lb"
    )
