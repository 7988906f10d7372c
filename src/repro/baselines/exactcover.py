"""EXACTCOVER: an integer-programming adaptation of the Exact Cover problem.

The NP-completeness proof of Theorem 3.5 reduces Exact Cover to EXP-3D:
elements are tuples of one canonical relation, sets are tuples of the other,
and an element belongs to a set when the initial mapping contains the
corresponding match.  The baseline turns that decision problem into an
optimization: choose sets and an assignment of elements to chosen sets such
that every element is covered at most once and the number of covered sets plus
covered elements is maximized.  The selected (element, set) assignments form
the evidence mapping; explanations are derived from it like for the other
mapping-based baselines.

As the paper observes, this adaptation ignores tuple impacts and match
probabilities, which is exactly why it performs poorly.
"""

from __future__ import annotations

from repro.baselines.base import DisagreementExplainer
from repro.core.explanations import ExplanationSet
from repro.core.problem import ExplainProblem
from repro.core.scoring import derive_explanations_from_mapping
from repro.matching.tuple_matching import TupleMapping, TupleMatch
from repro.solver.backends import MILPSolver, default_solver
from repro.solver.model import ConstraintSense, MILPModel, ObjectiveSense, linear_sum


class ExactCoverBaseline(DisagreementExplainer):
    """Exact-Cover-style ILP over the initial tuple mapping."""

    name = "ExactCover"

    def __init__(self, *, solver: MILPSolver | None = None):
        self.solver = solver or default_solver()

    def explain(self, problem: ExplainProblem) -> ExplanationSet:
        if not len(problem.mapping):
            return derive_explanations_from_mapping(
                problem.canonical_left,
                problem.canonical_right,
                TupleMapping(),
                problem.relation,
            )

        model = MILPModel("exact_cover")

        # Sets: tuples of the right canonical relation that appear in any match.
        set_vars: dict[str, object] = {}
        assign_vars: dict[tuple[str, str], object] = {}
        matches_by_left: dict[str, list] = {}
        for match in problem.mapping:
            matches_by_left.setdefault(match.left_key, []).append(match)
            if match.right_key not in set_vars:
                set_vars[match.right_key] = model.add_binary(f"s_{match.right_key}")
            assign_vars[match.pair] = model.add_binary(f"z_{match.left_key}|{match.right_key}")
            # An element may only be assigned to a chosen set.
            model.add_constraint(
                assign_vars[match.pair] - set_vars[match.right_key],
                ConstraintSense.LESS_EQUAL,
                0.0,
                f"choose_{match.left_key}|{match.right_key}",
            )

        # Each element is covered at most once (the "exact" cover restriction).
        for left_key, matches in matches_by_left.items():
            expr = linear_sum(assign_vars[match.pair] for match in matches)
            model.add_constraint(expr, ConstraintSense.LESS_EQUAL, 1.0, f"cover_{left_key}")

        # Maximize covered sets + covered elements.
        objective = linear_sum(set_vars.values())
        objective += linear_sum(assign_vars.values())
        model.set_objective(objective, ObjectiveSense.MAXIMIZE)

        solution = self.solver.solve(model)

        evidence = TupleMapping()
        for match in problem.mapping:
            if solution.binary(assign_vars[match.pair].name):
                evidence.add(
                    TupleMatch(match.left_key, match.right_key, match.probability, match.similarity)
                )
        return derive_explanations_from_mapping(
            problem.canonical_left, problem.canonical_right, evidence, problem.relation
        )
