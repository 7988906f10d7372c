"""Partitioned solving of the EXP-3D problem (Section 4, Algorithm 3).

Three solving modes are supported:

* ``"none"``   -- one MILP for the whole problem (the paper's NOOPT);
* ``"components"`` -- one MILP per connected component of the match graph
  (exact, no accuracy loss, but no size guarantee);
* ``"smart"``  -- the smart-partitioning optimizer: pre-partitioning,
  balanced min-cut graph partitioning with ``L_max = batch_size``, one MILP
  per partition (the paper's BATCH-``b``).

Each partition's restriction + MILP build + solve is an independent unit: with
``workers > 1`` the units are dispatched to a thread or process pool
(partitions are disjoint sub-problems, so the merge is order-preserving and
the result is identical to the sequential ``workers=1`` path).  Restricting
the canonical relations and the mapping to the partitions is done in a single
pass that buckets tuples and matches by partition, instead of one full scan
per partition.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.core.canonical import CanonicalRelation
from repro.core.explanations import ExplanationSet, ProvenanceExplanation
from repro.core.milp_model import MILPTransformation
from repro.core.problem import ExplainProblem
from repro.core.scoring import MatchLogProbability, Priors
from repro.graphs.smart_partition import SmartPartitioner, TuplePartition
from repro.graphs.weighting import WeightingParams
from repro.matching.attribute_match import SemanticRelation
from repro.matching.tuple_matching import TupleMapping, TupleMatch
from repro.reliability.deadline import Deadline, DeadlineExceeded, OperationCancelled
from repro.reliability.faults import FAULTS
from repro.solver.backends import MILPSolver, default_solver

PartitioningMode = Literal["none", "components", "smart"]
ExecutorKind = Literal["thread", "process"]


@dataclass
class SolveConfig:
    """Configuration of Stage 2 solving."""

    partitioning: PartitioningMode = "smart"
    batch_size: int = 1000
    weighting: WeightingParams = field(default_factory=WeightingParams)
    use_prepartitioning: bool = True
    solver: MILPSolver | None = None
    workers: int | None = None      # None resolves to os.cpu_count()
    executor: ExecutorKind = "thread"

    def resolved_workers(self) -> int:
        """The worker count to use: ``workers`` or, when unset, ``os.cpu_count()``."""
        if self.workers is not None:
            if self.workers < 1:
                raise ValueError(f"workers must be positive, got {self.workers}")
            return self.workers
        return os.cpu_count() or 1


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
) -> tuple[list[CanonicalRelation], list[CanonicalRelation], list[TupleMapping], list[TupleMatch]]:
    """Bucket canonical tuples and matches by partition in one pass each.

    Partitions are disjoint by construction, so a key belongs to at most one
    partition and a match is internal to a partition exactly when both its
    endpoints land in the same one.  Tuple and match order within each bucket
    follows the original relation/mapping order, which keeps the per-partition
    MILPs identical to the former per-partition full-scan restriction.  The
    fourth result lists the matches internal to no partition (the cut
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
    match_buckets: list[list] = [[] for _ in partitions]
    cut: list[TupleMatch] = []
    for match in problem.mapping:
        position = left_of.get(match.left_key)
        if position is not None and right_of.get(match.right_key) == position:
            match_buckets[position].append(match)
        else:
            cut.append(match)

    template_left = problem.canonical_left
    template_right = problem.canonical_right
    # The restricted relations exist only for MILP building; dropping the
    # provenance back-reference keeps process-pool payloads small.
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
    mappings = [TupleMapping(bucket) for bucket in match_buckets]
    return lefts, rights, mappings, cut


def _solve_partition_task(
    task: tuple[int, CanonicalRelation, CanonicalRelation, TupleMapping, SemanticRelation, Priors, MILPSolver]
) -> tuple[ExplanationSet, dict]:
    """One independent unit of work: build and solve a partition's MILP.

    Module-level (and fed picklable arguments) so it can run on a process
    pool as well as on threads or inline.
    """
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
    for match in mapping:
        terms = MatchLogProbability.of(match.probability)
        objective += terms.rejected
        bound += max(terms.selected, terms.rejected)
    piece = ExplanationSet(provenance=provenance, objective=objective)
    return piece, bound - objective


def _worker_solver(solver: MILPSolver) -> MILPSolver:
    """A per-task solver instance when the backend supports cloning."""
    clone = getattr(solver, "clone", None)
    return clone() if callable(clone) else solver


def _supports_cloning(solver: MILPSolver) -> bool:
    return callable(getattr(solver, "clone", None))


class PartitionedSolver:
    """Solves an :class:`ExplainProblem`, optionally split into sub-problems."""

    def __init__(
        self,
        problem: ExplainProblem,
        config: SolveConfig | None = None,
        *,
        deadline: Deadline | None = None,
        allow_partial: bool = False,
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

    # -- partition selection ----------------------------------------------------------
    def _partitions(self) -> list[TuplePartition]:
        graph = self.problem.match_graph()
        mode = self.config.partitioning
        if mode not in ("none", "components", "smart"):
            raise ValueError(f"unknown partitioning mode {mode!r}")
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
        """Solve all sub-problems (possibly in parallel) and merge the results."""
        if self.config.executor not in ("thread", "process"):
            raise ValueError(f"unknown executor kind {self.config.executor!r}")
        start = time.perf_counter()
        partitions = self._partitions()
        self.stats.num_partitions = len(partitions)
        self.stats.largest_partition = max((p.size for p in partitions), default=0)
        self.stats.partition_time = time.perf_counter() - start

        solve_start = time.perf_counter()
        lefts, rights, mappings, cut = _restrict_by_partition(self.problem, partitions)

        workers = self.config.resolved_workers()
        if workers > 1 and not _supports_cloning(self.solver):
            # A backend without clone() may mutate internal state during a
            # solve (the MILPSolver protocol only requires solve()), so one
            # shared instance must never serve concurrent partitions.
            workers = 1
        self.stats.workers_used = max(1, min(workers, len(partitions)))
        parallel = self.stats.workers_used > 1 and len(partitions) > 1
        tasks = [
            (
                partition.index,
                lefts[position],
                rights[position],
                mappings[position],
                self.problem.relation,
                self.problem.priors,
                # Sequential solving keeps the caller's instance (its post-solve
                # state, e.g. BnB stats, stays observable as before).
                _worker_solver(self.solver) if parallel else self.solver,
            )
            for position, partition in enumerate(partitions)
        ]
        if not parallel:
            # Deterministic sequential fallback (also the workers=1 reference path).
            results = self._run_sequential(tasks)
        else:
            pool_type = ThreadPoolExecutor if self.config.executor == "thread" else ProcessPoolExecutor
            results = self._run_parallel(tasks, pool_type)

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
        for match in cut:
            merged.objective += MatchLogProbability.of(match.probability).rejected

        self.stats.solve_time = time.perf_counter() - solve_start
        self.stats.total_time = time.perf_counter() - start
        return merged

    # -- task execution (sequential / parallel, deadline-checkpointed) ------------------
    def _run_sequential(self, tasks: list) -> list[Optional[tuple]]:
        """Solve tasks in order; a deadline checkpoint precedes each one.

        Returns one slot per task; ``None`` marks a partition the deadline
        cut off (only reachable with ``allow_partial`` -- otherwise the
        checkpoint's :class:`DeadlineExceeded` propagates).  Cancellation
        always propagates: a cancelled request has no use for an incumbent.
        """
        results: list[Optional[tuple]] = [None] * len(tasks)
        for position, task in enumerate(tasks):
            try:
                self.deadline.check("solve.partition")
            except DeadlineExceeded:
                if not self.allow_partial:
                    raise
                break
            results[position] = _solve_partition_task(task)
        return results

    def _run_parallel(self, tasks: list, pool_type) -> list[Optional[tuple]]:
        """Dispatch all tasks, then await them in order within the deadline.

        On expiry, not-yet-started futures are cancelled; futures already
        running finish (threads cannot be killed), which bounds the overrun
        to one checkpoint interval -- the same guarantee as the sequential
        path.  Completed futures are harvested as the incumbent when
        ``allow_partial`` is set.
        """
        results: list[Optional[tuple]] = [None] * len(tasks)
        with pool_type(max_workers=self.stats.workers_used) as pool:
            futures = [pool.submit(_solve_partition_task, task) for task in tasks]
            try:
                for position, future in enumerate(futures):
                    if self.deadline.cancelled():
                        raise OperationCancelled("solve.partition")
                    try:
                        results[position] = future.result(timeout=self.deadline.remaining())
                    except FutureTimeoutError:
                        raise DeadlineExceeded(
                            "solve.partition", self.deadline.elapsed(),
                            float(self.deadline.seconds),
                        ) from None
            except (DeadlineExceeded, OperationCancelled):
                for future in futures:
                    future.cancel()
                if not self.allow_partial or self.deadline.cancelled():
                    raise
                for position, future in enumerate(futures):
                    if results[position] is None and future.done() and not future.cancelled():
                        try:
                            results[position] = future.result(timeout=0)
                        except Exception:  # noqa: BLE001 - failed piece stays unsolved
                            pass
        return results

    # -- convenience --------------------------------------------------------------------
    def expected_partitions(self) -> int:
        graph_size = len(self.problem.canonical_left) + len(self.problem.canonical_right)
        return max(1, math.ceil(graph_size / self.config.batch_size))
