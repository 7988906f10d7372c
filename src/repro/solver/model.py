"""Modeling layer for mixed integer linear programs.

The modeling objects are deliberately small and self-contained: variables,
linear expressions (sparse coefficient maps plus a constant), constraints and
a :class:`MILPModel` that stores its rows as COO entries with row bounds and
exports them in the sparse row-bounded matrix form read by both solver
backends.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from itertools import repeat
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
    """A mixed integer linear program in sparse row-bounded form.

    One storage form serves every way of building a model: per-column bound
    and integrality arrays, the objective's column indices and coefficients
    plus a constant, and the constraint rows as COO entries (row, column,
    coefficient) with a lower and an upper bound per row.  The per-name API
    (:meth:`add_variable`, :meth:`add_constraint`, :meth:`set_objective`)
    appends one variable or row at a time; the block API
    (:meth:`add_columns`, :meth:`add_rows`, :meth:`set_objective_terms`)
    appends whole index arrays.  Names are kept only for variables added by
    name.
    """

    def __init__(self, name: str = "milp"):
        self.name = name
        self.objective_sense: ObjectiveSense = ObjectiveSense.MAXIMIZE
        self.objective_constant = 0.0
        self._objective_columns = array("q")
        self._objective_coefficients = array("d")
        self._lower = array("d")
        self._upper = array("d")
        self._integral = array("b")
        self._entry_rows = array("q")
        self._entry_columns = array("q")
        self._entry_values = array("d")
        self._row_lower = array("d")
        self._row_upper = array("d")
        self._names: dict[str, int] = {}

    # -- construction: one variable or row at a time ------------------------------
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
        variable = Variable(name, self.num_variables, vartype, lower, upper)
        self._lower.append(lower)
        self._upper.append(upper)
        self._integral.append(vartype.is_integral)
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
        coefficients = expression.coefficients
        self._entry_rows.extend(repeat(self.num_constraints, len(coefficients)))
        self._entry_columns.extend(coefficients)
        self._entry_values.extend(coefficients.values())
        bound = constraint.rhs - expression.constant
        self._row_lower.append(-math.inf if sense is ConstraintSense.LESS_EQUAL else bound)
        self._row_upper.append(math.inf if sense is ConstraintSense.GREATER_EQUAL else bound)
        return constraint

    def set_objective(self, expression, sense: ObjectiveSense = ObjectiveSense.MAXIMIZE) -> None:
        if isinstance(expression, Variable):
            expression = LinearExpression.from_variable(expression)
        coefficients = expression.coefficients
        self.set_objective_terms(
            np.fromiter(coefficients, dtype=np.int64, count=len(coefficients)),
            np.fromiter(coefficients.values(), dtype=float, count=len(coefficients)),
            expression.constant,
            sense,
        )

    # -- construction: blocks of index arrays ---------------------------------------
    def add_columns(self, lower, upper, integral) -> None:
        """Append one column per entry of the bound and integrality arrays."""
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if np.any(lower > upper):
            raise ValueError(f"model {self.name!r}: a column's lower bound exceeds its upper bound")
        _append(self._lower, lower)
        _append(self._upper, upper)
        _append(self._integral, np.asarray(integral, dtype=np.int8))

    def add_rows(self, rows, columns, values, lower, upper) -> None:
        """Append rows ``lower <= A_block @ x <= upper`` given as COO entries.

        ``rows`` number the new rows from 0, one ``lower``/``upper`` pair per
        new row; entries with a 0.0 coefficient are dropped at export.
        """
        _append(self._entry_rows, np.asarray(rows, dtype=np.int64) + self.num_constraints)
        _append(self._entry_columns, np.asarray(columns, dtype=np.int64))
        _append(self._entry_values, np.asarray(values, dtype=float))
        _append(self._row_lower, np.asarray(lower, dtype=float))
        _append(self._row_upper, np.asarray(upper, dtype=float))

    def set_objective_terms(
        self, columns, coefficients, constant: float = 0.0,
        sense: ObjectiveSense = ObjectiveSense.MAXIMIZE,
    ) -> None:
        """Set the objective ``sum(coefficients * x[columns]) + constant``."""
        self._objective_columns = _append(array("q"), np.asarray(columns, dtype=np.int64))
        self._objective_coefficients = _append(array("d"), np.asarray(coefficients, dtype=float))
        self.objective_constant = float(constant)
        self.objective_sense = sense

    # -- introspection ------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self._lower)

    @property
    def num_constraints(self) -> int:
        return len(self._row_lower)

    @property
    def names(self) -> Mapping[str, int]:
        """Column index of every variable added by name."""
        return self._names

    def is_feasible(self, assignment: Sequence[float], *, tolerance: float = 1e-6) -> bool:
        """Check bounds, integrality and constraints of a full assignment."""
        x = np.asarray(assignment, dtype=float)
        if x.shape != (self.num_variables,):
            return False
        arrays = self.to_arrays()
        integral = x[arrays["integrality"] == 1]
        activity = arrays["A"] @ x
        return bool(
            np.all(x >= arrays["lower"] - tolerance)
            and np.all(x <= arrays["upper"] + tolerance)
            and np.all(np.abs(integral - np.round(integral)) <= tolerance)
            and np.all(activity >= arrays["row_lower"] - tolerance)
            and np.all(activity <= arrays["row_upper"] + tolerance)
        )

    def objective_value(self, assignment: Sequence[float]) -> float:
        x = np.asarray(assignment, dtype=float)
        columns = np.array(self._objective_columns, dtype=np.int64)
        coefficients = np.array(self._objective_coefficients, dtype=float)
        return self.objective_constant + float(coefficients @ x[columns])

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
        c[np.array(self._objective_columns, dtype=np.int64)] = sign * np.array(
            self._objective_coefficients, dtype=float
        )

        values = np.array(self._entry_values, dtype=float)
        kept = values != 0.0  # a coefficient that cancelled to 0.0 is no entry
        rows = np.array(self._entry_rows, dtype=np.int64)[kept]
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(self.num_constraints + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.num_constraints), out=indptr[1:])
        matrix = sparse.csr_array(
            (values[kept][order], np.array(self._entry_columns, dtype=np.int64)[kept][order], indptr),
            shape=(self.num_constraints, self.num_variables),
        )

        return {
            "c": c,
            "objective_sign": sign,
            "objective_offset": self.objective_constant,
            "A": matrix,
            "row_lower": np.array(self._row_lower, dtype=float),
            "row_upper": np.array(self._row_upper, dtype=float),
            "lower": np.array(self._lower, dtype=float),
            "upper": np.array(self._upper, dtype=float),
            "integrality": np.array(self._integral, dtype=np.int64),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MILPModel({self.name}, {self.num_variables} vars "
            f"({sum(self._integral)} integral), {self.num_constraints} constraints)"
        )


def _append(buffer: array, values: np.ndarray) -> array:
    """Append a NumPy array to a typed buffer of the same item type."""
    buffer.frombytes(np.ascontiguousarray(values, dtype=buffer.typecode).tobytes())
    return buffer
