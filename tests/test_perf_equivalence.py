"""Equivalence tests for the performance subsystem.

The vectorized matching kernel and the parallel partitioned solver are pure
optimizations: they must produce results identical to the scalar / sequential
reference paths.  These tests pin that contract:

* blocked + batched candidate generation yields exactly the same
  ``CandidateMatch`` list as unblocked scoring on mixed string/numeric/NULL
  data;
* the batch similarity kernel is bit-identical to the scalar
  ``combined_similarity``;
* ``workers=N`` parallel solving produces the same merged objective and the
  same explanation identities as ``workers=1`` across all partitioning modes;
* the cached ``Priors`` constants and the vectorized branch-and-bound helpers
  match their recomputed / scalar counterparts.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.core.canonical import CanonicalRelation, CanonicalTuple
from repro.core.partitioning import (
    PartitionedSolver,
    SolveConfig,
    _restrict_by_partition,
)
from repro.core.scoring import MatchLogProbability, Priors, _clamp
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.graphs.bipartite import Side
from repro.graphs.smart_partition import TuplePartition
from repro.matching.attribute_match import matching
from repro.matching.blocking import TokenBlocker, all_pairs
from repro.matching.features import TupleFeatureCache, batch_similarity, pair_similarity
from repro.matching.similarity import combined_similarity
from repro.matching.tuple_matching import TupleMapping, TupleMatch, generate_candidates
from repro.solver.branch_and_bound import BranchAndBoundSolver


class _Entity:
    def __init__(self, key, values):
        self.key = key
        self.values = values


ATTRIBUTE_PAIRS = [("name", "name"), ("year", "year"), ("note", "note")]

MIXED_LEFT = [
    _Entity("l0", {"name": "Computer Science", "year": 1999, "note": None}),
    _Entity("l1", {"name": "History", "year": "1999", "note": "x"}),
    _Entity("l2", {"name": None, "year": 5.5, "note": ""}),
    _Entity("l3", {"name": "7", "year": 7, "note": "alpha beta"}),
    _Entity("l4", {"name": "zeta kappa", "year": None, "note": None}),
    _Entity("l5", {"name": True, "year": True, "note": "gamma"}),
    _Entity("l6", {"name": "science club", "year": 2001.5, "note": "beta"}),
]

MIXED_RIGHT = [
    _Entity("r0", {"name": "Computer Engineering", "year": 2000, "note": "y"}),
    _Entity("r1", {"name": "Art History", "year": 1999, "note": None}),
    _Entity("r2", {"name": "", "year": 6, "note": None}),
    _Entity("r3", {"name": "seven 7", "year": "7", "note": "beta gamma"}),
    _Entity("r4", {"name": None, "year": None, "note": ""}),
    _Entity("r5", {"name": "true story", "year": False, "note": "gamma"}),
]


#: NaN, +-inf and overflowing differences next to finite numbers.
NON_FINITE_LEFT = [
    _Entity("n0", {"name": "nan", "year": math.nan, "note": math.inf}),
    _Entity("n1", {"name": "inf", "year": math.inf, "note": -math.inf}),
    _Entity("n2", {"name": None, "year": -math.inf, "note": math.nan}),
    _Entity("n3", {"name": "big", "year": 1e308, "note": 3.0}),
]

NON_FINITE_RIGHT = [
    _Entity("m0", {"name": "nan", "year": math.nan, "note": 1.0}),
    _Entity("m1", {"name": None, "year": math.inf, "note": -math.inf}),
    _Entity("m2", {"name": "x", "year": -math.inf, "note": math.inf}),
    _Entity("m3", {"name": "big", "year": -1e308, "note": math.nan}),
]


class TestVectorizedKernel:
    def test_batch_similarity_bit_identical_to_scalar(self):
        lefts, rights = MIXED_LEFT + NON_FINITE_LEFT, MIXED_RIGHT + NON_FINITE_RIGHT
        left = TupleFeatureCache.from_tuples(lefts, [p[0] for p in ATTRIBUTE_PAIRS])
        right = TupleFeatureCache.from_tuples(rights, [p[1] for p in ATTRIBUTE_PAIRS])
        ii, jj = zip(*all_pairs(lefts, rights))
        batched = batch_similarity(left, right, ATTRIBUTE_PAIRS, ii, jj)
        for k, (i, j) in enumerate(zip(ii, jj)):
            scalar = combined_similarity(lefts[i].values, rights[j].values, ATTRIBUTE_PAIRS)
            assert batched[k] == scalar, (i, j)
            assert pair_similarity(left, right, i, j, ATTRIBUTE_PAIRS) == scalar, (i, j)
        assert not np.isnan(batched).any()

    def test_blocker_covers_every_nonzero_similarity_pair(self):
        blocker = TokenBlocker(ATTRIBUTE_PAIRS)
        blocked = set(
            blocker.candidate_pairs(
                [t.values for t in MIXED_LEFT], [t.values for t in MIXED_RIGHT]
            )
        )
        for i, j in all_pairs(MIXED_LEFT, MIXED_RIGHT):
            similarity = combined_similarity(
                MIXED_LEFT[i].values, MIXED_RIGHT[j].values, ATTRIBUTE_PAIRS
            )
            if similarity > 0.0:
                assert (i, j) in blocked, (i, j, similarity)

    @pytest.mark.parametrize("min_similarity", [0.0, 0.25])
    def test_blocked_candidates_equal_all_pairs(self, min_similarity):
        attribute_matches = matching(("name", "name"), ("year", "year"), ("note", "note"))
        blocked = generate_candidates(
            MIXED_LEFT,
            MIXED_RIGHT,
            attribute_matches,
            min_similarity=min_similarity,
            use_blocking=True,
            block_threshold=0,
        )
        unblocked = generate_candidates(
            MIXED_LEFT,
            MIXED_RIGHT,
            attribute_matches,
            min_similarity=min_similarity,
            use_blocking=False,
        )
        # Same candidates, same similarities, same (row-major) order.
        assert blocked == unblocked

    def test_blocked_candidates_equal_all_pairs_on_synthetic_workload(self):
        pair = generate_synthetic_pair(
            SyntheticConfig(num_tuples=80, difference_ratio=0.2, vocabulary_size=200)
        )
        problem, _ = pair.build_problem()
        blocked = generate_candidates(
            problem.canonical_left.tuples,
            problem.canonical_right.tuples,
            problem.attribute_matches,
            use_blocking=True,
            block_threshold=0,
        )
        unblocked = generate_candidates(
            problem.canonical_left.tuples,
            problem.canonical_right.tuples,
            problem.attribute_matches,
            use_blocking=False,
        )
        assert blocked == unblocked
        assert len(blocked) > 0


def _identity_sets(explanations):
    return (
        set(explanations.provenance_identities()),
        set(explanations.value_identities()),
        set(explanations.evidence_pairs()),
    )


class TestParallelSolveEquivalence:
    @pytest.fixture(scope="class")
    def problem(self):
        pair = generate_synthetic_pair(
            SyntheticConfig(num_tuples=90, difference_ratio=0.25, vocabulary_size=1000)
        )
        problem, _ = pair.build_problem()
        return problem

    @pytest.mark.parametrize("mode", ["none", "components", "smart"])
    def test_parallel_threads_match_sequential(self, problem, mode):
        sequential = PartitionedSolver(
            problem, SolveConfig(partitioning=mode, batch_size=30, workers=1)
        )
        parallel = PartitionedSolver(
            problem,
            SolveConfig(partitioning=mode, batch_size=30, workers=4, executor="thread"),
        )
        merged_sequential = sequential.solve()
        merged_parallel = parallel.solve()
        assert merged_parallel.objective == merged_sequential.objective
        assert _identity_sets(merged_parallel) == _identity_sets(merged_sequential)
        assert sequential.stats.num_partitions == parallel.stats.num_partitions
        if mode != "none":
            assert parallel.stats.num_partitions > 1
            assert parallel.stats.workers_used > 1

    def test_parallel_processes_match_sequential(self, problem):
        sequential = PartitionedSolver(
            problem, SolveConfig(partitioning="smart", batch_size=30, workers=1)
        )
        parallel = PartitionedSolver(
            problem,
            SolveConfig(partitioning="smart", batch_size=30, workers=2, executor="process"),
        )
        merged_sequential = sequential.solve()
        merged_parallel = parallel.solve()
        assert merged_parallel.objective == merged_sequential.objective
        assert _identity_sets(merged_parallel) == _identity_sets(merged_sequential)

    def test_default_workers_resolve_to_cpu_count(self):
        assert SolveConfig().resolved_workers() == (os.cpu_count() or 1)
        assert SolveConfig(workers=3).resolved_workers() == 3
        with pytest.raises(ValueError):
            SolveConfig(workers=0).resolved_workers()

    def test_unknown_executor_rejected(self, problem):
        solver = PartitionedSolver(problem, SolveConfig(executor="fiber"))
        with pytest.raises(ValueError):
            solver.solve()

    def test_solver_without_clone_falls_back_to_sequential(self, problem):
        from repro.solver.backends import HighsSolver

        class OpaqueSolver:
            # Implements only the MILPSolver protocol (no clone()): may be
            # stateful, so it must never be shared across concurrent workers.
            def __init__(self):
                self._inner = HighsSolver()

            def solve(self, model):
                return self._inner.solve(model)

        parallel = PartitionedSolver(
            problem,
            SolveConfig(partitioning="smart", batch_size=30, workers=4, solver=OpaqueSolver()),
        )
        merged = parallel.solve()
        assert parallel.stats.workers_used == 1
        reference = PartitionedSolver(
            problem, SolveConfig(partitioning="smart", batch_size=30, workers=1)
        ).solve()
        assert merged.objective == reference.objective


class TestSinglePassRestriction:
    def _relation(self, side, label, keys):
        tuples = [
            CanonicalTuple(key=key, side=side, values={"a": key}, impact=float(i))
            for i, key in enumerate(keys)
        ]
        return CanonicalRelation(side, ("a",), tuples, label=label)

    def test_buckets_match_per_partition_filtering(self):
        left = self._relation(Side.LEFT, "T1", ["l0", "l1", "l2", "l3"])
        right = self._relation(Side.RIGHT, "T2", ["r0", "r1", "r2"])
        mapping = TupleMapping(
            [
                TupleMatch("l0", "r0", 0.9),
                TupleMatch("l1", "r0", 0.8),
                TupleMatch("l2", "r1", 0.7),
                TupleMatch("l3", "r2", 0.6),
                TupleMatch("l0", "r2", 0.5),  # cut across partitions
            ]
        )
        partitions = [
            TuplePartition(0, frozenset({"l0", "l1"}), frozenset({"r0"})),
            TuplePartition(1, frozenset({"l2", "l3"}), frozenset({"r1", "r2"})),
        ]

        class _Problem:
            canonical_left = left
            canonical_right = right

        _Problem.mapping = mapping
        lefts, rights, mappings, cut = _restrict_by_partition(_Problem, partitions)

        for position, partition in enumerate(partitions):
            expected_left = [t.key for t in left.tuples if t.key in partition.left_keys]
            expected_right = [t.key for t in right.tuples if t.key in partition.right_keys]
            expected_matches = [
                m.pair
                for m in mapping
                if m.left_key in partition.left_keys and m.right_key in partition.right_keys
            ]
            assert [t.key for t in lefts[position].tuples] == expected_left
            assert [t.key for t in rights[position].tuples] == expected_right
            assert [m.pair for m in mappings[position]] == expected_matches
        # The cut match belongs to no partition and is returned on its own.
        assert all(("l0", "r2") not in m.pairs() for m in mappings)
        assert [m.pair for m in cut] == [("l0", "r2")]


class TestScoringCaches:
    def test_priors_constants_match_recomputation(self):
        priors = Priors(alpha=0.9, beta=0.7)
        assert priors.removed == math.log(_clamp(1.0 - 0.9))
        assert priors.kept_unchanged == math.log(_clamp(0.9)) + math.log(_clamp(0.7))
        assert priors.kept_changed == math.log(_clamp(0.9)) + math.log(_clamp(1.0 - 0.7))

    def test_match_log_probability_memoized_and_correct(self):
        terms = MatchLogProbability.of(0.8)
        assert terms.selected == math.log(0.8)
        assert terms.rejected == math.log(1.0 - 0.8)
        assert MatchLogProbability.of(0.8) is terms  # cached instance

    def test_tuple_mapping_probability_index(self):
        mapping = TupleMapping([TupleMatch("a", "x", 0.9), TupleMatch("b", "y", 0.4)])
        assert mapping.probability("a", "x") == 0.9
        assert mapping.probability("a", "y") is None
        view = mapping.pairs()
        assert isinstance(view, frozenset)
        assert view is mapping.pairs()  # cached between mutations
        mapping.add(TupleMatch("c", "z", 0.5))
        assert ("c", "z") in mapping.pairs()


class TestBranchAndBoundVectorization:
    def _reference_most_fractional(self, solver, values, integral_indices):
        best_index = None
        best_distance = solver.integrality_tolerance
        for index in integral_indices:
            value = values[index]
            distance = abs(value - round(value))
            if distance > best_distance:
                best_distance = distance
                best_index = index
        return best_index

    def test_most_fractional_matches_scalar_reference(self):
        solver = BranchAndBoundSolver()
        rng = np.random.default_rng(7)
        for _ in range(25):
            values = rng.uniform(-2.0, 2.0, size=12)
            integral = sorted(rng.choice(12, size=6, replace=False).tolist())
            assert solver._most_fractional(values, integral) == self._reference_most_fractional(
                solver, values, integral
            )
        # All-integral relaxation: no branching variable.
        integral_values = np.array([1.0, 2.0, -3.0, 0.0])
        assert solver._most_fractional(integral_values, [0, 1, 2, 3]) is None
        assert solver._most_fractional(integral_values, []) is None

    def test_round_solution_matches_scalar_reference(self):
        solver = BranchAndBoundSolver()
        values = np.array([0.2, 1.5, 2.5, -0.49, 3.0])
        integral = [1, 2, 3]
        rounded = solver._round_solution(values, integral)
        expected = np.array(values, dtype=float)
        for index in integral:
            expected[index] = round(expected[index])
        assert np.array_equal(rounded, expected)
        # Non-integral positions untouched.
        assert rounded[0] == values[0] and rounded[4] == values[4]
