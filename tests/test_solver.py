"""Unit tests for the MILP modeling layer and solver backends."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.backends import BnBSolverBackend, HighsSolver, SolverError
from repro.solver.branch_and_bound import BranchAndBoundSolver
from repro.solver.linearize import add_equality_indicator
from repro.solver.lp import LPStatus, solve_lp_relaxation
from repro.solver.model import (
    ConstraintSense,
    LinearExpression,
    MILPModel,
    ObjectiveSense,
    VariableType,
    linear_sum,
)


class TestLinearExpression:
    def test_arithmetic(self):
        model = MILPModel()
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = 2 * x + y - 3
        assert expr.coefficients == {0: 2.0, 1: 1.0}
        assert expr.constant == -3.0

    def test_subtraction_and_negation(self):
        model = MILPModel()
        x = model.add_continuous("x")
        expr = 5 - 2 * x
        assert expr.coefficients == {0: -2.0}
        assert expr.constant == 5.0
        assert (-expr).constant == -5.0

    def test_value_evaluation(self):
        model = MILPModel()
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = 3 * x - y + 1
        assert expr.value([2.0, 4.0]) == pytest.approx(3.0)

    def test_add_copies_and_iadd_mutates_in_place(self):
        model = MILPModel()
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        a = 2 * x + 1
        b = 3 * y + x
        total = a + b
        assert total is not a
        assert a.coefficients == {0: 2.0} and a.constant == 1.0
        assert total.coefficients == {0: 3.0, 1: 3.0}
        before = a
        a += b
        assert a is before
        assert a.coefficients == {0: 3.0, 1: 3.0} and a.constant == 1.0
        assert b.coefficients == {1: 3.0, 0: 1.0} and b.constant == 0.0

    def test_linear_sum(self):
        model = MILPModel()
        xs = [model.add_binary(f"b{i}") for i in range(3)]
        expr = linear_sum(xs)
        assert expr.value([1, 0, 1]) == 2

    def test_scaling_by_non_number_raises(self):
        model = MILPModel()
        x = model.add_continuous("x")
        with pytest.raises(TypeError):
            (x + 1) * "nope"

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=30)
    def test_distributivity(self, a, b, c):
        model = MILPModel()
        x = model.add_continuous("x")
        left = (a * x + b) * c
        right = (a * c) * x + b * c
        assert left.value([1.7]) == pytest.approx(right.value([1.7]), abs=1e-9)


class TestModel:
    def test_variable_types_and_bounds(self):
        model = MILPModel()
        b = model.add_binary("b")
        i = model.add_integer("i", 0, 5)
        c = model.add_continuous("c", -1, 1)
        assert b.vartype is VariableType.BINARY and b.upper == 1.0
        assert i.vartype.is_integral
        assert c.lower == -1

    def test_duplicate_names_rejected(self):
        model = MILPModel()
        model.add_binary("x")
        with pytest.raises(ValueError):
            model.add_binary("x")

    def test_invalid_bounds(self):
        model = MILPModel()
        with pytest.raises(ValueError):
            model.add_continuous("x", lower=2, upper=1)

    def test_constraint_satisfaction(self):
        model = MILPModel()
        x = model.add_continuous("x")
        constraint = model.add_constraint(x + 1, ConstraintSense.LESS_EQUAL, 3)
        assert constraint.satisfied_by([2.0])
        assert not constraint.satisfied_by([2.5])

    def test_is_feasible_checks_integrality(self):
        model = MILPModel()
        model.add_binary("x")
        assert model.is_feasible([1.0])
        assert not model.is_feasible([0.5])
        assert not model.is_feasible([2.0])

    def test_to_arrays_shapes(self):
        model = MILPModel()
        x = model.add_binary("x")
        y = model.add_continuous("y", 0, 10)
        model.add_constraint(x + y, ConstraintSense.LESS_EQUAL, 5)
        model.add_constraint(y - x, ConstraintSense.GREATER_EQUAL, 1)
        model.add_constraint(x + 2 * y, ConstraintSense.EQUAL, 4)
        model.set_objective(x + y, ObjectiveSense.MAXIMIZE)
        arrays = model.to_arrays()
        assert arrays["A"].format == "csr"
        assert arrays["A"].shape == (3, 2)
        assert arrays["A"].toarray().tolist() == [[1.0, 1.0], [-1.0, 1.0], [1.0, 2.0]]
        # <=, >= and == rows differ only in which row bound is infinite.
        assert arrays["row_lower"].tolist() == [-math.inf, 1.0, 4.0]
        assert arrays["row_upper"].tolist() == [5.0, math.inf, 4.0]
        assert arrays["lower"].tolist() == [0.0, 0.0]
        assert arrays["upper"].tolist() == [1.0, 10.0]
        assert list(arrays["integrality"]) == [1, 0]
        assert arrays["c"].tolist() == [-1.0, -1.0]  # maximization, negated

    def test_objective_value(self):
        model = MILPModel()
        x = model.add_continuous("x")
        model.set_objective(2 * x + 1)
        assert model.objective_value([3.0]) == 7.0


def knapsack_model() -> MILPModel:
    """max 10a + 6b + 4c  s.t. a+b+c <= 2, binaries."""
    model = MILPModel("knapsack")
    a = model.add_binary("a")
    b = model.add_binary("b")
    c = model.add_binary("c")
    model.add_constraint(a + b + c, ConstraintSense.LESS_EQUAL, 2)
    model.set_objective(10 * a + 6 * b + 4 * c, ObjectiveSense.MAXIMIZE)
    return model


def mixed_model() -> MILPModel:
    """A small mixed problem with an integer and a continuous variable."""
    model = MILPModel("mixed")
    x = model.add_integer("x", 0, 10)
    y = model.add_continuous("y", 0, 10)
    model.add_constraint(2 * x + y, ConstraintSense.LESS_EQUAL, 11)
    model.add_constraint(y - x, ConstraintSense.LESS_EQUAL, 2)
    model.set_objective(3 * x + 2 * y, ObjectiveSense.MAXIMIZE)
    return model


class TestLPRelaxation:
    def test_relaxation_bounds_milp(self):
        arrays = knapsack_model().to_arrays()
        result = solve_lp_relaxation(arrays)
        assert result.is_optimal
        assert result.objective >= 16.0 - 1e-6

    def test_extra_bounds_tighten(self):
        arrays = knapsack_model().to_arrays()
        result = solve_lp_relaxation(arrays, extra_bounds={0: (0.0, 0.0)})
        assert result.objective == pytest.approx(10.0)

    def test_conflicting_extra_bounds_infeasible(self):
        arrays = knapsack_model().to_arrays()
        result = solve_lp_relaxation(arrays, extra_bounds={0: (2.0, 5.0)})
        assert result.status is LPStatus.INFEASIBLE

    def test_infeasible_model(self):
        model = MILPModel()
        x = model.add_continuous("x", 0, 1)
        model.add_constraint(x + 0, ConstraintSense.GREATER_EQUAL, 2)
        model.set_objective(x, ObjectiveSense.MAXIMIZE)
        assert solve_lp_relaxation(model.to_arrays()).status is LPStatus.INFEASIBLE


class TestBackends:
    @pytest.mark.parametrize("solver", [HighsSolver(), BnBSolverBackend()])
    def test_knapsack(self, solver):
        solution = solver.solve(knapsack_model())
        assert solution.objective == pytest.approx(16.0, abs=1e-6)
        assert solution.binary("a") and solution.binary("b") and not solution.binary("c")

    @pytest.mark.parametrize("solver", [HighsSolver(), BnBSolverBackend()])
    def test_mixed_model_agreement(self, solver):
        # Optimum: x = 3, y = 5 (2x + y = 11, y - x = 2), objective 3*3 + 2*5 = 19.
        solution = solver.solve(mixed_model())
        assert solution.objective == pytest.approx(19.0, abs=1e-5)
        assert solution.value("x") == pytest.approx(3.0, abs=1e-5)
        assert solution.value("y") == pytest.approx(5.0, abs=1e-4)

    def test_minimization(self):
        model = MILPModel()
        x = model.add_integer("x", 0, 10)
        model.add_constraint(x + 0, ConstraintSense.GREATER_EQUAL, 2.5)
        model.set_objective(x + 0, ObjectiveSense.MINIMIZE)
        assert HighsSolver().solve(model).objective == pytest.approx(3.0)

    def test_infeasible_raises(self):
        model = MILPModel()
        x = model.add_binary("x")
        model.add_constraint(x + 0, ConstraintSense.GREATER_EQUAL, 2)
        model.set_objective(x, ObjectiveSense.MAXIMIZE)
        with pytest.raises(SolverError):
            HighsSolver().solve(model)
        with pytest.raises(SolverError):
            BnBSolverBackend().solve(model)

    def test_empty_model(self):
        model = MILPModel()
        assert HighsSolver().solve(model).objective == 0.0

    def test_branch_and_bound_stats(self):
        solver = BranchAndBoundSolver()
        values, objective = solver.solve(knapsack_model())
        assert objective == pytest.approx(16.0, abs=1e-6)
        assert solver.stats.lp_solves >= 1
        assert solver.stats.incumbent_updates >= 1

    @given(
        weights=st.lists(st.integers(1, 12), min_size=3, max_size=7),
        values=st.lists(st.integers(1, 20), min_size=3, max_size=7),
        capacity=st.integers(5, 30),
    )
    @settings(max_examples=15, deadline=None)
    def test_backends_agree_on_random_knapsacks(self, weights, values, capacity):
        size = min(len(weights), len(values))
        model = MILPModel("random")
        items = [model.add_binary(f"x{i}") for i in range(size)]
        model.add_constraint(
            linear_sum(weights[i] * items[i] for i in range(size)),
            ConstraintSense.LESS_EQUAL,
            capacity,
        )
        model.set_objective(
            linear_sum(values[i] * items[i] for i in range(size)), ObjectiveSense.MAXIMIZE
        )
        highs = HighsSolver().solve(model).objective
        model2 = MILPModel("random2")
        items2 = [model2.add_binary(f"x{i}") for i in range(size)]
        model2.add_constraint(
            linear_sum(weights[i] * items2[i] for i in range(size)),
            ConstraintSense.LESS_EQUAL,
            capacity,
        )
        model2.set_objective(
            linear_sum(values[i] * items2[i] for i in range(size)), ObjectiveSense.MAXIMIZE
        )
        bnb = BnBSolverBackend().solve(model2).objective
        assert highs == pytest.approx(bnb, abs=1e-6)


class TestLinearization:
    def test_equality_indicator_forces_value(self):
        model = MILPModel()
        y = model.add_binary("y")
        f = model.add_continuous("f", 0, 10)
        add_equality_indicator(model, y, f, 4.0, big_m=20.0)
        model.add_constraint(y + 0, ConstraintSense.EQUAL, 1)
        model.set_objective(f + 0, ObjectiveSense.MAXIMIZE)
        assert HighsSolver().solve(model).value("f") == pytest.approx(4.0)

    def test_equality_indicator_released_when_off(self):
        model = MILPModel()
        y = model.add_binary("y")
        f = model.add_continuous("f", 0, 10)
        add_equality_indicator(model, y, f, 4.0, big_m=20.0)
        model.add_constraint(y + 0, ConstraintSense.EQUAL, 0)
        model.set_objective(f + 0, ObjectiveSense.MAXIMIZE)
        assert HighsSolver().solve(model).value("f") == pytest.approx(10.0)
