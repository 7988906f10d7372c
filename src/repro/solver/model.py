"""Modeling layer for mixed integer linear programs.

The modeling objects are deliberately small and self-contained: variables,
linear expressions (sparse coefficient maps plus a constant), constraints and
a :class:`MILPModel` that exports itself to the sparse row-bounded matrix form
read by both solver backends.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse


class VariableType(enum.Enum):
    """Variable domains supported by the model."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"

    @property
    def is_integral(self) -> bool:
        return self in (VariableType.INTEGER, VariableType.BINARY)


class ConstraintSense(enum.Enum):
    """Direction of a linear constraint."""

    LESS_EQUAL = "<="
    GREATER_EQUAL = ">="
    EQUAL = "=="


class ObjectiveSense(enum.Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class Variable:
    """A decision variable; created through :meth:`MILPModel.add_variable`."""

    name: str
    index: int
    vartype: VariableType = VariableType.CONTINUOUS
    lower: float = 0.0
    upper: float = math.inf

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(
                f"variable {self.name}: lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    # Arithmetic sugar so model-building code reads naturally.
    def __add__(self, other):
        return LinearExpression.from_variable(self) + other

    def __radd__(self, other):
        return LinearExpression.from_variable(self) + other

    def __sub__(self, other):
        return LinearExpression.from_variable(self) - other

    def __rsub__(self, other):
        return (-1.0) * LinearExpression.from_variable(self) + other

    def __mul__(self, scalar: float):
        return LinearExpression.from_variable(self) * scalar

    def __rmul__(self, scalar: float):
        return LinearExpression.from_variable(self) * scalar

    def __neg__(self):
        return LinearExpression.from_variable(self) * -1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Variable({self.name}, {self.vartype.value}, [{self.lower}, {self.upper}])"


class LinearExpression:
    """A sparse linear expression ``sum_i c_i * x_i + constant``."""

    __slots__ = ("coefficients", "constant")

    def __init__(self, coefficients: Mapping[int, float] | None = None, constant: float = 0.0):
        self.coefficients: dict[int, float] = dict(coefficients or {})
        self.constant = float(constant)

    @classmethod
    def from_variable(cls, variable: Variable, coefficient: float = 1.0) -> "LinearExpression":
        return cls({variable.index: float(coefficient)})

    @classmethod
    def constant_expression(cls, value: float) -> "LinearExpression":
        return cls({}, value)

    def copy(self) -> "LinearExpression":
        return LinearExpression(dict(self.coefficients), self.constant)

    # -- arithmetic ---------------------------------------------------------------
    def _coerce(self, other) -> "LinearExpression":
        if isinstance(other, LinearExpression):
            return other
        if isinstance(other, Variable):
            return LinearExpression.from_variable(other)
        if isinstance(other, (int, float)):
            return LinearExpression.constant_expression(float(other))
        raise TypeError(f"cannot combine LinearExpression with {type(other).__name__}")

    def __iadd__(self, other) -> "LinearExpression":
        """Add ``other`` in place: accumulating ``k`` terms costs O(k), not O(k^2)."""
        other = self._coerce(other)
        coefficients = self.coefficients
        for index, coefficient in other.coefficients.items():
            coefficients[index] = coefficients.get(index, 0.0) + coefficient
        self.constant += other.constant
        return self

    def __add__(self, other) -> "LinearExpression":
        result = self.copy()
        result += other
        return result

    def __radd__(self, other) -> "LinearExpression":
        return self.__add__(other)

    def __sub__(self, other) -> "LinearExpression":
        return self.__add__(self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinearExpression":
        return (self * -1.0).__add__(other)

    def __mul__(self, scalar: float) -> "LinearExpression":
        if not isinstance(scalar, (int, float)):
            raise TypeError("LinearExpression can only be scaled by a number")
        return LinearExpression(
            {index: coefficient * scalar for index, coefficient in self.coefficients.items()},
            self.constant * scalar,
        )

    def __rmul__(self, scalar: float) -> "LinearExpression":
        return self.__mul__(scalar)

    def __neg__(self) -> "LinearExpression":
        return self * -1.0

    # -- evaluation ---------------------------------------------------------------
    def value(self, assignment: Sequence[float]) -> float:
        """Evaluate the expression under a dense variable assignment."""
        total = self.constant
        for index, coefficient in self.coefficients.items():
            total += coefficient * assignment[index]
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = [f"{coeff:+g}*x{idx}" for idx, coeff in sorted(self.coefficients.items())]
        if self.constant or not terms:
            terms.append(f"{self.constant:+g}")
        return " ".join(terms)


def linear_sum(terms: Iterable) -> LinearExpression:
    """Sum variables/expressions/constants into a single expression."""
    result = LinearExpression()
    for term in terms:
        result += term
    return result


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``expression sense rhs``."""

    expression: LinearExpression
    sense: ConstraintSense
    rhs: float
    name: str = ""

    def satisfied_by(self, assignment: Sequence[float], *, tolerance: float = 1e-6) -> bool:
        lhs = self.expression.value(assignment)
        if self.sense is ConstraintSense.LESS_EQUAL:
            return lhs <= self.rhs + tolerance
        if self.sense is ConstraintSense.GREATER_EQUAL:
            return lhs >= self.rhs - tolerance
        return abs(lhs - self.rhs) <= tolerance


class MILPModel:
    """A mixed integer linear program: variables, constraints and an objective."""

    def __init__(self, name: str = "milp"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinearExpression = LinearExpression()
        self.objective_sense: ObjectiveSense = ObjectiveSense.MAXIMIZE
        self._names: dict[str, int] = {}

    # -- construction -------------------------------------------------------------
    def add_variable(
        self,
        name: str,
        *,
        vartype: VariableType = VariableType.CONTINUOUS,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> Variable:
        if name in self._names:
            raise ValueError(f"variable {name!r} already exists in model {self.name!r}")
        if vartype is VariableType.BINARY:
            lower, upper = 0.0, 1.0
        variable = Variable(name, len(self.variables), vartype, lower, upper)
        self.variables.append(variable)
        self._names[name] = variable.index
        return variable

    def add_binary(self, name: str) -> Variable:
        return self.add_variable(name, vartype=VariableType.BINARY)

    def add_integer(self, name: str, lower: float = 0.0, upper: float = math.inf) -> Variable:
        return self.add_variable(name, vartype=VariableType.INTEGER, lower=lower, upper=upper)

    def add_continuous(
        self, name: str, lower: float = -math.inf, upper: float = math.inf
    ) -> Variable:
        return self.add_variable(name, vartype=VariableType.CONTINUOUS, lower=lower, upper=upper)

    def variable(self, name: str) -> Variable:
        return self.variables[self._names[name]]

    def add_constraint(
        self,
        expression,
        sense: ConstraintSense | str,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        if isinstance(expression, Variable):
            expression = LinearExpression.from_variable(expression)
        if not isinstance(expression, LinearExpression):
            raise TypeError("constraint left-hand side must be a LinearExpression or Variable")
        if isinstance(sense, str):
            sense = ConstraintSense(sense)
        constraint = Constraint(expression, sense, float(rhs), name)
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expression, sense: ObjectiveSense = ObjectiveSense.MAXIMIZE) -> None:
        if isinstance(expression, Variable):
            expression = LinearExpression.from_variable(expression)
        self.objective = expression
        self.objective_sense = sense

    # -- introspection ------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for variable in self.variables if variable.vartype.is_integral)

    def integral_indices(self) -> list[int]:
        return [variable.index for variable in self.variables if variable.vartype.is_integral]

    def is_feasible(self, assignment: Sequence[float], *, tolerance: float = 1e-6) -> bool:
        """Check bounds, integrality and constraints of a full assignment."""
        if len(assignment) != self.num_variables:
            return False
        for variable in self.variables:
            value = assignment[variable.index]
            if value < variable.lower - tolerance or value > variable.upper + tolerance:
                return False
            if variable.vartype.is_integral and abs(value - round(value)) > tolerance:
                return False
        return all(
            constraint.satisfied_by(assignment, tolerance=tolerance)
            for constraint in self.constraints
        )

    def objective_value(self, assignment: Sequence[float]) -> float:
        return self.objective.value(assignment)

    # -- export to matrix form ----------------------------------------------------
    def to_arrays(self) -> dict:
        """Sparse matrix form read by both solver backends.

        The constraints become ``row_lower <= A @ x <= row_upper`` with ``A``
        in CSR form: a ``<=`` row has an infinite lower bound, a ``>=`` row an
        infinite upper bound and an ``==`` row two equal bounds.  Variable
        bounds are the ``lower``/``upper`` vectors.  The objective ``c`` is
        always expressed for *minimization* (negated when the model
        maximizes); ``objective_offset`` carries the constant term which
        solvers ignore.
        """
        sign = -1.0 if self.objective_sense is ObjectiveSense.MAXIMIZE else 1.0
        c = np.zeros(self.num_variables)
        for index, coefficient in self.objective.coefficients.items():
            c[index] = sign * coefficient

        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        row_lower: list[float] = []
        row_upper: list[float] = []
        for constraint in self.constraints:
            coefficients = constraint.expression.coefficients
            indices.extend(coefficients)
            data.extend(coefficients.values())
            indptr.append(len(indices))
            rhs = constraint.rhs - constraint.expression.constant
            sense = constraint.sense
            row_lower.append(-math.inf if sense is ConstraintSense.LESS_EQUAL else rhs)
            row_upper.append(math.inf if sense is ConstraintSense.GREATER_EQUAL else rhs)
        matrix = sparse.csr_array(
            (np.array(data, dtype=float), np.array(indices, dtype=np.int64), indptr),
            shape=(self.num_constraints, self.num_variables),
        )
        matrix.eliminate_zeros()  # a coefficient that cancelled to 0.0 is no entry

        return {
            "c": c,
            "objective_sign": sign,
            "objective_offset": self.objective.constant,
            "A": matrix,
            "row_lower": np.array(row_lower, dtype=float),
            "row_upper": np.array(row_upper, dtype=float),
            "lower": np.array([variable.lower for variable in self.variables], dtype=float),
            "upper": np.array([variable.upper for variable in self.variables], dtype=float),
            "integrality": np.array(
                [1 if variable.vartype.is_integral else 0 for variable in self.variables]
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MILPModel({self.name}, {self.num_variables} vars "
            f"({self.num_integer_variables} integral), {self.num_constraints} constraints)"
        )
