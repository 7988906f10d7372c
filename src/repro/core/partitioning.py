"""Partitioned solving of the EXP-3D problem (Section 4, Algorithm 3).

Three solving modes are supported:

* ``"none"``   -- one MILP for the whole problem (the paper's NOOPT);
* ``"components"`` -- one MILP per connected component of the match graph
  (exact, no accuracy loss, but no size guarantee);
* ``"smart"``  -- the smart-partitioning optimizer: pre-partitioning,
  balanced min-cut graph partitioning with ``L_max = batch_size``, one MILP
  per partition (the paper's BATCH-``b``).

Each partition's restriction + MILP build + solve is an independent unit: with
``workers > 1`` the units run on a thread pool (partitions are disjoint
sub-problems, so the merge is order-preserving and the result is identical to
the inline ``workers=1`` path).  Threads do overlap solves: scipy's HiGHS
binding releases the GIL for the whole ``Highs::run``, so on two cores two
partitions solve at once.  Restricting the canonical relations and the
mapping to the partitions is done in a single pass that buckets tuples and
matches by partition, instead of one full scan per partition.

A service passes its ``solutions`` tier (:class:`TieredHighs`): a partition
model HiGHS already solved for that service is decoded from the stored
vector instead of solved again.  A direct solve has no tier.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Literal, Optional, get_args

import numpy as np

from repro.core.canonical import CanonicalRelation
from repro.core.explanations import ExplanationSet, ProvenanceExplanation
from repro.core.milp_model import MILPTransformation
from repro.core.problem import ExplainProblem
from repro.core.scoring import MatchLogProbability, Priors
from repro.graphs.smart_partition import SmartPartitioner, TuplePartition
from repro.graphs.weighting import WeightingParams
from repro.matching.attribute_match import SemanticRelation
from repro.matching.tuple_matching import TupleMapping
from repro.reliability.deadline import Deadline, DeadlineExceeded
from repro.reliability.faults import FAULTS
from repro.solver.backends import HighsSolver, MILPSolution, MILPSolver, default_solver
from repro.solver.model import MILPModel

PartitioningMode = Literal["none", "components", "smart"]


def _int_at_least(value, minimum: int) -> bool:
    """True for a plain int (not a bool) of at least ``minimum``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


@dataclass
class SolveConfig:
    """Configuration of Stage 2 solving; a bad value fails at construction."""

    partitioning: PartitioningMode = "smart"
    batch_size: int = 1000
    weighting: WeightingParams = field(default_factory=WeightingParams)
    use_prepartitioning: bool = True
    solver: MILPSolver | None = None
    workers: int | None = None      # None resolves to os.cpu_count()

    def __post_init__(self) -> None:
        if self.partitioning not in get_args(PartitioningMode):
            raise ValueError(f"unknown partitioning mode {self.partitioning!r}")
        if not _int_at_least(self.batch_size, 2):
            raise ValueError(f"batch_size must be an int >= 2, got {self.batch_size!r}")
        if not isinstance(self.use_prepartitioning, bool):
            raise ValueError(
                f"use_prepartitioning must be a bool, got {self.use_prepartitioning!r}"
            )
        if self.workers is not None and not _int_at_least(self.workers, 1):
            raise ValueError(f"workers must be None or a positive int, got {self.workers!r}")

    def resolved_workers(self) -> int:
        """The worker count to use: ``workers`` or, when unset, ``os.cpu_count()``."""
        return self.workers or os.cpu_count() or 1


@dataclass
class SolveStats:
    """Diagnostics of a partitioned solve."""

    num_partitions: int = 0
    num_supernodes: int = 0
    cut_edges: int = 0
    largest_partition: int = 0
    partition_time: float = 0.0
    solve_time: float = 0.0
    total_time: float = 0.0
    workers_used: int = 1
    milp_sizes: list[dict] = field(default_factory=list)
    # Anytime/partial solving (deadline expiry with ``allow_partial``):
    partial: bool = False
    unsolved_partitions: int = 0
    optimality_gap: float = 0.0


def _restrict_by_partition(
    problem: ExplainProblem, partitions: list[TuplePartition]
) -> tuple[list[CanonicalRelation], list[CanonicalRelation], list[TupleMapping], TupleMapping]:
    """Bucket canonical tuples by partition in one pass, and split the mapping by index.

    Partitions are disjoint by construction, so a key belongs to at most one
    partition and a match is internal to a partition exactly when both its
    endpoints land in the same one.  Tuple and match order within each bucket
    follows the original relation/mapping order, which keeps the per-partition
    MILPs identical to the former per-partition full-scan restriction.  The
    fourth result holds the matches internal to no partition (the cut
    matches), in mapping order.
    """
    left_of: dict[str, int] = {}
    right_of: dict[str, int] = {}
    for position, partition in enumerate(partitions):
        for key in partition.left_keys:
            left_of[key] = position
        for key in partition.right_keys:
            right_of[key] = position

    left_buckets: list[list] = [[] for _ in partitions]
    for canonical_tuple in problem.canonical_left.tuples:
        position = left_of.get(canonical_tuple.key)
        if position is not None:
            left_buckets[position].append(canonical_tuple)
    right_buckets: list[list] = [[] for _ in partitions]
    for canonical_tuple in problem.canonical_right.tuples:
        position = right_of.get(canonical_tuple.key)
        if position is not None:
            right_buckets[position].append(canonical_tuple)
    # Each match's partition (``len(partitions)`` for a cut match), then its
    # rows grouped by partition in mapping order.
    mapping = problem.mapping
    left_part, right_part = mapping.positions(left_of, right_of)
    part = np.where((left_part >= 0) & (left_part == right_part), left_part, len(partitions))
    rows = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[rows], np.arange(len(partitions) + 2))

    template_left = problem.canonical_left
    template_right = problem.canonical_right
    lefts = [
        CanonicalRelation(
            template_left.side, template_left.attributes, bucket, label=template_left.label
        )
        for bucket in left_buckets
    ]
    rights = [
        CanonicalRelation(
            template_right.side, template_right.attributes, bucket, label=template_right.label
        )
        for bucket in right_buckets
    ]
    mappings = [mapping.take(rows[start:end]) for start, end in zip(bounds, bounds[1:])]
    cut = mappings.pop()
    return lefts, rights, mappings, cut


def _solve_partition_task(
    task: tuple[int, CanonicalRelation, CanonicalRelation, TupleMapping, SemanticRelation, Priors, MILPSolver]
) -> tuple[ExplanationSet, dict]:
    """One independent unit of work: build and solve a partition's MILP."""
    FAULTS.check("solve.partition")
    index, left, right, mapping, relation, priors, solver = task
    transformation = MILPTransformation(
        left, right, mapping, relation, priors, solver=solver, name=f"exp3d_part{index}"
    )
    piece = transformation.solve()
    return piece, transformation.problem_size()


def _trivial_partition_solution(
    left: CanonicalRelation,
    right: CanonicalRelation,
    mapping: TupleMapping,
    priors: Priors,
) -> tuple[ExplanationSet, float]:
    """A feasible fallback for a partition whose MILP was never solved.

    Removing every tuple (all become provenance explanations) and rejecting
    every match satisfies all MILP constraints by construction, so merging
    this piece with optimally solved partitions still yields a *valid*
    explanation set -- just not an optimal one.  Returns the piece and an
    upper bound on the objective this partition could have contributed minus
    what the trivial solution contributes, i.e. this partition's share of the
    reported optimality gap.
    """
    a = priors.removed
    per_tuple_best = max(a, priors.kept_unchanged, priors.kept_changed)
    provenance = [
        ProvenanceExplanation(relation.side, canonical_tuple.key)
        for relation in (left, right)
        for canonical_tuple in relation
    ]
    objective = a * len(provenance)
    bound = per_tuple_best * len(provenance)
    for probability in mapping.probabilities.tolist():
        terms = MatchLogProbability.of(probability)
        objective += terms.rejected
        bound += max(terms.selected, terms.rejected)
    piece = ExplanationSet(provenance=provenance, objective=objective)
    return piece, bound - objective


def _supports_cloning(solver: MILPSolver) -> bool:
    return callable(getattr(solver, "clone", None))


class TieredHighs:
    """HiGHS behind a ``solutions`` tier: each distinct model is solved once.

    ``solutions`` is a thread-safe map (an
    :class:`~repro.service.cache.ArtifactCache`) from a key over the model's
    :meth:`~repro.solver.model.MILPModel.fingerprint` and the HiGHS options
    to the objective and solution vector HiGHS returned.  HiGHS is
    deterministic for a given model and options, so a hit returns exactly
    what a fresh solve would.  Only a successful solve of a model with
    variables is stored.  Vectors are stored as bytes, so a hit's ``x`` is a
    read-only view that no caller can change for later hits.
    """

    def __init__(self, solver: HighsSolver, solutions):
        self.solver = solver
        self.solutions = solutions
        self._options = repr((solver.mip_rel_gap, solver.time_limit)).encode()

    def solve(self, model: MILPModel) -> MILPSolution:
        if model.num_variables == 0:
            return self.solver.solve(model)
        key = hashlib.sha256(model.fingerprint().encode() + b"|" + self._options).hexdigest()
        stored = self.solutions.get(key)
        if stored is not None:
            objective, x = stored
            return MILPSolution(objective, np.frombuffer(x), model.names)
        solution = self.solver.solve(model)
        self.solutions.put(key, (solution.objective, solution.x.tobytes()))
        return solution


class PartitionedSolver:
    """Solves an :class:`ExplainProblem`, optionally split into sub-problems."""

    def __init__(
        self,
        problem: ExplainProblem,
        config: SolveConfig | None = None,
        *,
        deadline: Deadline | None = None,
        allow_partial: bool = False,
        solutions=None,
    ):
        self.problem = problem
        self.config = config or SolveConfig()
        self.solver = self.config.solver or default_solver()
        self.stats = SolveStats()
        #: Cooperative deadline observed before each partition solve; an
        #: unbounded deadline still observes its cancellation event.
        self.deadline = deadline or Deadline.unbounded()
        #: When True, deadline expiry mid-solve yields the incumbent (solved
        #: partitions + trivial fallbacks, with an optimality gap in
        #: ``stats``) instead of raising :class:`DeadlineExceeded`.
        self.allow_partial = allow_partial
        #: A service's ``solutions`` tier (see :class:`TieredHighs`), or None
        #: to solve every partition.
        self.solutions = solutions

    # -- partition selection ----------------------------------------------------------
    def _partitions(self) -> list[TuplePartition]:
        graph = self.problem.match_graph()
        mode = self.config.partitioning
        if mode == "none" or graph.num_nodes <= self.config.batch_size:
            partition = TuplePartition(
                0,
                frozenset(self.problem.canonical_left.keys()),
                frozenset(self.problem.canonical_right.keys()),
            )
            self.stats.num_supernodes = graph.num_nodes
            return [partition]
        if mode == "components":
            result = SmartPartitioner.by_connected_components(graph)
            self.stats.num_supernodes = result.num_supernodes
            return list(result.partitions)
        partitioner = SmartPartitioner(
            batch_size=self.config.batch_size,
            weighting=self.config.weighting,
            use_prepartitioning=self.config.use_prepartitioning,
        )
        result = partitioner.partition(graph)
        self.stats.num_supernodes = result.num_supernodes
        self.stats.cut_edges = result.cut_edges
        return list(result.partitions)

    # -- solving ------------------------------------------------------------------------
    def solve(self) -> ExplanationSet:
        """Solve all sub-problems (on threads when ``workers > 1``) and merge the results."""
        start = time.perf_counter()
        partitions = self._partitions()
        self.stats.num_partitions = len(partitions)
        self.stats.largest_partition = max((p.size for p in partitions), default=0)
        self.stats.partition_time = time.perf_counter() - start

        solve_start = time.perf_counter()
        lefts, rights, mappings, cut = _restrict_by_partition(self.problem, partitions)

        workers = self.config.resolved_workers()
        if not _supports_cloning(self.solver):
            # A backend without clone() may mutate internal state during a
            # solve (the MILPSolver protocol only requires solve()), so one
            # shared instance must never serve concurrent partitions.
            workers = 1
        self.stats.workers_used = max(1, min(workers, len(partitions)))
        pooled = self.stats.workers_used > 1
        tasks = [
            (
                partition.index,
                lefts[position],
                rights[position],
                mappings[position],
                self.problem.relation,
                self.problem.priors,
                self._partition_solver(pooled),
            )
            for position, partition in enumerate(partitions)
        ]
        results = self._run(tasks)

        # Positions left as None missed the deadline: substitute the trivial
        # feasible solution and account its contribution to the optimality
        # gap, keeping the merge order identical to a full solve.
        pieces: list[ExplanationSet] = []
        gap = 0.0
        for position, result in enumerate(results):
            if result is not None:
                piece, size = result
                self.stats.milp_sizes.append(size)
            else:
                piece, partition_gap = _trivial_partition_solution(
                    lefts[position], rights[position], mappings[position],
                    self.problem.priors,
                )
                gap += partition_gap
            pieces.append(piece)
        unsolved = sum(1 for result in results if result is None)
        if unsolved:
            self.stats.partial = True
            self.stats.unsolved_partitions = unsolved
            self.stats.optimality_gap = gap
        merged = ExplanationSet.merge_all(pieces)

        # Matches cut across partitions are implicitly rejected (z = 0); add
        # their log(1 - p) terms so the merged objective matches Equation (13).
        for probability in cut.probabilities.tolist():
            merged.objective += MatchLogProbability.of(probability).rejected

        self.stats.solve_time = time.perf_counter() - solve_start
        self.stats.total_time = time.perf_counter() - start
        return merged

    def _partition_solver(self, pooled: bool) -> MILPSolver:
        # Inline solving keeps the caller's instance (its post-solve state,
        # e.g. BnB stats, stays observable as before).
        solver = self.solver.clone() if pooled else self.solver
        # Only HiGHS itself goes through the tier: the branch-and-bound twin
        # is an oracle and always solves, and a subclass may solve otherwise.
        if self.solutions is not None and type(solver) is HighsSolver:
            return TieredHighs(solver, self.solutions)
        return solver

    # -- task execution (inline or pooled, deadline-checkpointed) ---------------------
    def _run(self, tasks: list) -> list[Optional[tuple]]:
        """Solve every task: inline for one worker, else on a thread pool.

        Either way a deadline checkpoint precedes each task, so a partition
        that starts in time runs to completion and is kept, and one that had
        not started when the deadline passed is skipped.  Returns one slot per
        task; ``None`` marks a skipped partition (only reachable with
        ``allow_partial`` -- otherwise the checkpoint's
        :class:`DeadlineExceeded` propagates).  Cancellation always
        propagates: a cancelled request has no use for an incumbent.
        """

        def run(task) -> Optional[tuple]:
            try:
                self.deadline.check("solve.partition")
            except DeadlineExceeded:
                if not self.allow_partial:
                    raise
                return None
            return _solve_partition_task(task)

        if self.stats.workers_used == 1:
            return [run(task) for task in tasks]
        with ThreadPoolExecutor(max_workers=self.stats.workers_used) as pool:
            return list(pool.map(run, tasks))

    # -- convenience --------------------------------------------------------------------
    def expected_partitions(self) -> int:
        graph_size = len(self.problem.canonical_left) + len(self.problem.canonical_right)
        return max(1, math.ceil(graph_size / self.config.batch_size))
