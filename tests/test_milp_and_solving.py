"""Tests for the MILP transformation (Stage 2) and the partitioned solver."""

import numpy as np
import pytest

from repro.core.explanations import ExplanationSet
from repro.core.milp_model import MILPTransformation
from repro.core.partitioning import PartitionedSolver, SolveConfig, _restrict_by_partition
from repro.core.problem import ExplainProblem, NotComparableError, build_problem
from repro.core.scoring import ExplanationScorer, Priors, is_complete
from repro.core.canonical import CanonicalRelation, CanonicalTuple
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.graphs.bipartite import Side
from repro.graphs.smart_partition import SmartPartitioner
from repro.matching.attribute_match import AttributeMatching, SemanticRelation, matching
from repro.matching.tuple_matching import TupleMapping, TupleMatch
from repro.relational.executor import Database
from repro.relational.query import Scan, count_query
from repro.solver.backends import BnBSolverBackend, HighsSolver


def make_canonical(side: Side, label: str, impacts: dict[str, float]) -> CanonicalRelation:
    tuples = [
        CanonicalTuple(key=f"{label}:{i}", side=side, values={"name": name}, impact=impact)
        for i, (name, impact) in enumerate(impacts.items())
    ]
    return CanonicalRelation(side, ("name",), tuples, label=label)


def make_problem(left_impacts, right_impacts, matches, relation=SemanticRelation.EQUIVALENT,
                 priors=Priors(0.9, 0.9)) -> ExplainProblem:
    left = make_canonical(Side.LEFT, "T1", left_impacts)
    right = make_canonical(Side.RIGHT, "T2", right_impacts)
    left_index = {name: t.key for name, t in zip(left_impacts, left.tuples)}
    right_index = {name: t.key for name, t in zip(right_impacts, right.tuples)}
    mapping = TupleMapping(
        [TupleMatch(left_index[l], right_index[r], p) for l, r, p in matches]
    )
    attribute_matches = AttributeMatching(
        [  # single equivalence or containment match on "name"
        ]
    )
    attribute_matches = matching(("name", "name")) if relation is SemanticRelation.EQUIVALENT else (
        matching(("name", "name", "<=")) if relation is SemanticRelation.LESS_GENERAL
        else matching(("name", "name", ">="))
    )
    return ExplainProblem(
        canonical_left=left,
        canonical_right=right,
        attribute_matches=attribute_matches,
        mapping=mapping,
        priors=priors,
    )


class TestFigure1Example:
    def test_expected_explanations(self, figure1_problem):
        """Q1 vs Q2 of Figure 1: CS is double counted, everything else matches."""
        explanations = MILPTransformation(
            figure1_problem.canonical_left,
            figure1_problem.canonical_right,
            figure1_problem.mapping,
            figure1_problem.relation,
            figure1_problem.priors,
        ).solve()
        # All six matches of the initial mapping are selected as evidence.
        assert len(explanations.evidence) == 6
        assert not explanations.provenance
        # One value explanation: CSE reports 1 but CS contributes 2.
        assert len(explanations.value) == 1
        value = explanations.value[0]
        assert value.old_impact == 1.0
        assert value.new_impact == 2.0

    def test_result_is_complete(self, figure1_problem):
        explanations = MILPTransformation(
            figure1_problem.canonical_left,
            figure1_problem.canonical_right,
            figure1_problem.mapping,
            figure1_problem.relation,
            figure1_problem.priors,
        ).solve()
        assert is_complete(
            figure1_problem.canonical_left,
            figure1_problem.canonical_right,
            explanations,
            figure1_problem.relation,
        )

    def test_objective_matches_scorer(self, figure1_problem):
        explanations = MILPTransformation(
            figure1_problem.canonical_left,
            figure1_problem.canonical_right,
            figure1_problem.mapping,
            figure1_problem.relation,
            figure1_problem.priors,
        ).solve()
        scorer = ExplanationScorer(
            figure1_problem.canonical_left,
            figure1_problem.canonical_right,
            figure1_problem.mapping,
            figure1_problem.priors,
        )
        assert explanations.objective == pytest.approx(scorer.score(explanations), abs=1e-5)


class TestMILPBehaviour:
    def test_unmatched_tuples_are_provenance_explanations(self):
        problem = make_problem(
            {"a": 1.0, "orphan": 1.0}, {"a": 1.0}, [("a", "a", 0.95)]
        )
        explanations = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ).solve()
        assert ("L", problem.canonical_left.keys()[1]) in explanations.provenance_identities()
        assert len(explanations.evidence) == 1

    def test_low_probability_true_match_still_selected(self):
        """Selecting a weak match beats removing both endpoints."""
        problem = make_problem({"a": 1.0}, {"a": 1.0}, [("a", "a", 0.2)])
        explanations = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ).solve()
        assert len(explanations.evidence) == 1
        assert not explanations.provenance

    def test_zero_probability_evidence_keeps_its_probability(self):
        """A selected match reports its initial probability, 0.0 included."""
        problem = make_problem(
            {"a": 1.0}, {"a": 1.0}, [("a", "a", 0.0)], priors=Priors(0.99, 0.9)
        )
        explanations = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ).solve()
        [match] = list(explanations.evidence)
        assert match.pair == (problem.canonical_left.keys()[0], problem.canonical_right.keys()[0])
        assert match.probability == 0.0

    def test_equivalence_resolves_conflicts_globally(self):
        """The A/B/A'/B' example from Section 5.2: the cross pair has the highest
        probability, but selecting it would leave two tuples unmatched."""
        problem = make_problem(
            {"A": 1.0, "B": 1.0},
            {"A'": 1.0, "B'": 1.0},
            [("A", "A'", 0.8), ("B", "B'", 0.8), ("A", "B'", 0.9), ("B", "A'", 0.5)],
        )
        explanations = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ).solve()
        left = problem.canonical_left
        right = problem.canonical_right
        expected = {
            (left.keys()[0], right.keys()[0]),
            (left.keys()[1], right.keys()[1]),
        }
        assert explanations.evidence_pairs() == expected
        assert not explanations.provenance

    def test_many_to_one_allows_multiple_left_matches(self):
        problem = make_problem(
            {"a1": 1.0, "a2": 2.0},
            {"A": 3.0},
            [("a1", "A", 0.9), ("a2", "A", 0.9)],
            relation=SemanticRelation.LESS_GENERAL,
        )
        explanations = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ).solve()
        assert len(explanations.evidence) == 2
        assert not explanations.value  # 1 + 2 = 3, impacts balance

    def test_value_explanation_when_impacts_disagree(self):
        problem = make_problem(
            {"a": 2.0}, {"a": 5.0}, [("a", "a", 0.95)], relation=SemanticRelation.LESS_GENERAL
        )
        explanations = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ).solve()
        assert len(explanations.value) == 1
        value = explanations.value[0]
        assert value.side is Side.RIGHT
        assert value.new_impact == pytest.approx(2.0)

    def test_equivalence_forbids_sharing_a_right_tuple(self):
        problem = make_problem(
            {"a1": 1.0, "a2": 1.0},
            {"A": 2.0},
            [("a1", "A", 0.9), ("a2", "A", 0.9)],
            relation=SemanticRelation.EQUIVALENT,
        )
        explanations = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ).solve()
        assert len(explanations.evidence) == 1
        assert len(explanations.provenance) == 1

    def test_more_general_anchors_on_left(self):
        problem = make_problem(
            {"A": 3.0},
            {"a1": 1.0, "a2": 1.0},
            [("A", "a1", 0.9), ("A", "a2", 0.9)],
            relation=SemanticRelation.MORE_GENERAL,
        )
        transformation = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        )
        assert transformation.anchor_side() is Side.LEFT
        explanations = transformation.solve()
        assert len(explanations.evidence) == 2
        assert explanations.value and explanations.value[0].side is Side.LEFT

    def test_empty_problem(self):
        left = CanonicalRelation(Side.LEFT, ("name",), [], label="T1")
        right = CanonicalRelation(Side.RIGHT, ("name",), [], label="T2")
        explanations = MILPTransformation(
            left, right, TupleMapping(), SemanticRelation.EQUIVALENT
        ).solve()
        assert explanations.size == 0

    def test_problem_size_reporting(self, figure1_problem):
        transformation = MILPTransformation(
            figure1_problem.canonical_left,
            figure1_problem.canonical_right,
            figure1_problem.mapping,
            figure1_problem.relation,
        )
        sizes = transformation.problem_size()
        assert sizes["tuples"] == 12
        assert sizes["matches"] == 6
        assert sizes["variables"] > 0


class TestMILPOptimality:
    def test_milp_objective_at_least_greedy(self, small_academic_problem):
        """The MILP optimum must dominate the greedily constructed solution."""
        from repro.baselines.greedy import GreedyBaseline

        problem, _ = small_academic_problem
        milp = MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ).solve()
        greedy = GreedyBaseline().explain(problem)
        scorer = ExplanationScorer(
            problem.canonical_left, problem.canonical_right, problem.mapping, problem.priors
        )
        assert scorer.score(milp) >= scorer.score(greedy) - 1e-6


class TestPartitionedSolver:
    @pytest.mark.parametrize("mode", ["none", "components", "smart"])
    def test_modes_agree_on_figure1(self, figure1_problem, mode):
        solver = PartitionedSolver(figure1_problem, SolveConfig(partitioning=mode, batch_size=4))
        explanations = solver.solve()
        assert len(explanations.value) == 1
        assert not explanations.provenance
        assert solver.stats.num_partitions >= 1
        assert solver.stats.total_time > 0

    def test_components_split_is_lossless(self, small_academic_problem):
        problem, _ = small_academic_problem
        whole = PartitionedSolver(problem, SolveConfig(partitioning="none")).solve()
        split = PartitionedSolver(problem, SolveConfig(partitioning="components")).solve()
        assert split.objective == pytest.approx(whole.objective, abs=1e-4)

    def test_smart_partitioning_close_to_exact(self, small_academic_problem):
        problem, _ = small_academic_problem
        exact = PartitionedSolver(problem, SolveConfig(partitioning="none")).solve()
        batched = PartitionedSolver(
            problem, SolveConfig(partitioning="smart", batch_size=40)
        ).solve()
        # Batching may only lose objective mass on cut matches.
        assert batched.objective <= exact.objective + 1e-6
        assert batched.objective >= exact.objective - 10.0

    def test_stats_populated_for_smart_mode(self, small_academic_problem):
        problem, _ = small_academic_problem
        config = SolveConfig(partitioning="smart", batch_size=30)
        solver = PartitionedSolver(problem, config)
        solver.solve()
        assert solver.stats.num_partitions >= 2
        assert solver.stats.largest_partition <= 30 * 1.5
        assert solver.stats.milp_sizes

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="partitioning mode"):
            SolveConfig(partitioning="bogus")  # type: ignore[arg-type]


class TestBuildProblem:
    def test_not_comparable_raises(self):
        db1 = Database("a")
        db1.add_records("T", [{"x": 1}])
        db2 = Database("b")
        db2.add_records("U", [{"y": 1}])
        q1 = count_query("q1", Scan("T"), attribute="x")
        q2 = count_query("q2", Scan("U"), attribute="y")
        with pytest.raises(NotComparableError):
            build_problem(q1, db1, q2, db2, attribute_matches=AttributeMatching())

    def test_problem_statistics_and_results(self, figure1_problem):
        stats = figure1_problem.statistics()
        assert stats["provenance_left"] == 7
        assert stats["canonical_left"] == 6
        assert figure1_problem.result_left == 7.0
        assert figure1_problem.result_right == 6.0
        assert figure1_problem.disagreement == 1.0

    def test_match_graph_round_trip(self, figure1_problem):
        graph = figure1_problem.match_graph()
        assert graph.num_edges == len(figure1_problem.mapping)
        assert graph.num_nodes == 12

    def test_similarity_fallback_without_labels(self, figure1_db1, figure1_db2, figure1_queries):
        q1, q2 = figure1_queries
        problem = build_problem(
            q1, figure1_db1, q2, figure1_db2, attribute_matches=matching(("Program", "Major"))
        )
        assert len(problem.mapping) > 0
        assert all(0.0 < m.probability < 1.0 for m in problem.mapping)


class TestBackendCrossCheck:
    """HiGHS and the branch-and-bound twin agree on EXP-3D models.

    Unlike knapsacks (only <= rows over [0, 1] variables), these models carry
    == rows (balances, forced removals), >= rows (Definition 2.5 gates, the
    lower half of Equation (7)) and refined impacts ``I*`` with negative
    lower bounds, all through the one sparse export both backends read.
    """

    @staticmethod
    def assert_backends_agree(transformation: MILPTransformation):
        model = transformation.build()
        highs = HighsSolver().solve(model)
        bnb = BnBSolverBackend().solve(model)
        assert highs.objective == pytest.approx(bnb.objective, abs=1e-6)
        for solution in (highs, bnb):
            assert model.is_feasible(solution.x)
        return model.to_arrays()

    def test_figure1(self, figure1_problem):
        arrays = self.assert_backends_agree(MILPTransformation(
            figure1_problem.canonical_left, figure1_problem.canonical_right,
            figure1_problem.mapping, figure1_problem.relation, figure1_problem.priors,
        ))
        lower, upper = arrays["row_lower"], arrays["row_upper"]
        assert (lower == upper).any()                           # == rows
        assert ((lower == -np.inf) & (upper < np.inf)).any()    # <= rows
        assert ((lower > -np.inf) & (upper == np.inf)).any()    # >= rows

    @pytest.mark.parametrize("relation", list(SemanticRelation))
    def test_negative_impacts(self, relation):
        problem = make_problem(
            {"A": -3.0, "B": 2.0, "C": -1.0},
            {"a": -1.0, "b": -2.0, "c": 2.0, "d": 4.0},
            [("A", "a", 0.9), ("A", "b", 0.8), ("B", "c", 0.95), ("C", "d", 0.6), ("B", "d", 0.3)],
            relation=relation,
        )
        arrays = self.assert_backends_agree(MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors,
        ))
        # Some refined impact I* (the only continuous columns) may go negative.
        assert ((arrays["integrality"] == 0) & (arrays["lower"] < 0)).any()

    def test_smart_partitions_of_a_synthetic_pair(self):
        pair = generate_synthetic_pair(
            SyntheticConfig(num_tuples=40, vocabulary_size=60, difference_ratio=0.2, seed=3)
        )
        problem, _ = pair.build_problem()
        partitions = SmartPartitioner(batch_size=12).partition(problem.match_graph()).partitions
        assert len(partitions) > 1
        lefts, rights, mappings, _ = _restrict_by_partition(problem, list(partitions))
        for index, (left, right, mapping) in enumerate(zip(lefts, rights, mappings)):
            self.assert_backends_agree(MILPTransformation(
                left, right, mapping, problem.relation, problem.priors, name=f"part{index}"
            ))
