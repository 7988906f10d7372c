"""The Explain3D facade: the user-facing entry point of the reproduction.

Typical usage::

    from repro import Explain3D, matching

    engine = Explain3D()
    report = engine.explain(
        query_left, db_left, query_right, db_right,
        attribute_matches=matching(("Program", "Major")),
    )
    print(report.describe())

The facade runs the three stages of the paper end to end: Stage 1 (provenance,
canonicalization, initial mapping), Stage 2 (partitioned MILP refinement) and
Stage 3 (pattern summarization).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.core.explanations import ExplanationSet
from repro.core.partitioning import PartitionedSolver, SolveConfig, SolveStats, _int_at_least
from repro.core.problem import ExplainProblem, build_problem
from repro.core.scoring import Priors
from repro.core.summarize import ExplanationSummary, PatternSummarizer
from repro.graphs.weighting import WeightingParams
from repro.matching.attribute_match import AttributeMatching
from repro.matching.tuple_matching import TupleMapping
from repro.relational.executor import Database
from repro.relational.query import Query
from repro.solver.backends import MILPSolver


@dataclass
class Explain3DConfig:
    """End-to-end configuration of the Explain3D pipeline; a bad value fails at construction."""

    priors: Priors = field(default_factory=Priors)
    partitioning: str = "smart"
    batch_size: int = 1000
    weighting: WeightingParams = field(default_factory=WeightingParams)
    use_prepartitioning: bool = True
    num_buckets: int = 50
    min_similarity: float = 0.0
    min_match_probability: float = 0.0
    summarize: bool = True
    min_summary_precision: float = 0.75
    solver: Optional[MILPSolver] = None
    workers: Optional[int] = None   # None resolves to os.cpu_count(); 1 solves inline

    def __post_init__(self) -> None:
        # Building the solve config checks the Stage 2 fields.
        self.solve_config()
        if not _int_at_least(self.num_buckets, 1):
            raise ValueError(f"num_buckets must be an int >= 1, got {self.num_buckets!r}")
        if not _is_number(self.min_similarity) or not math.isfinite(self.min_similarity):
            raise ValueError(f"min_similarity must be a finite number, got {self.min_similarity!r}")
        for name in ("min_match_probability", "min_summary_precision"):
            value = getattr(self, name)
            if not _is_number(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        if not isinstance(self.summarize, bool):
            raise ValueError(f"summarize must be a bool, got {self.summarize!r}")

    def solve_config(self) -> SolveConfig:
        return SolveConfig(
            partitioning=self.partitioning,  # type: ignore[arg-type]
            batch_size=self.batch_size,
            weighting=self.weighting,
            use_prepartitioning=self.use_prepartitioning,
            solver=self.solver,
            workers=self.workers,
        )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ExplanationReport:
    """The full output of one Explain3D run.

    ``degraded`` lists every degradation-ladder rung this run took (empty on
    a normal run): e.g. a deadline-bounded solve that returned the partial
    incumbent, or a skipped summarization.  Degradation is always explicit --
    a report produced through any fallback says so here rather than silently
    presenting different answers.
    """

    problem: ExplainProblem
    explanations: ExplanationSet
    summary: ExplanationSummary
    stats: SolveStats
    timings: dict
    degraded: list = field(default_factory=list)

    @property
    def evidence(self) -> TupleMapping:
        return self.explanations.evidence

    def describe(self, *, max_items: int = 10) -> str:
        """Human-readable report used by the examples."""
        lines = []
        if self.problem.result_left is not None and self.problem.result_right is not None:
            lines.append(
                f"Query results disagree: {self.problem.query_left.name} = "
                f"{self.problem.result_left:g} vs {self.problem.query_right.name} = "
                f"{self.problem.result_right:g}"
            )
        lines.append(self.explanations.describe(max_items=max_items))
        if self.summary.patterns or self.summary.residual_keys:
            lines.append("Summarized explanations:")
            lines.append(self.summary.describe())
        lines.append(
            f"Solved in {self.timings.get('total', 0.0):.3f}s "
            f"({self.stats.num_partitions} partition(s), "
            f"largest {self.stats.largest_partition} tuples)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable report: the payload of the service layer's JSON API.

        Everything is JSON-safe (numpy scalars are unwrapped, unknown value
        types fall back to ``str``); ``json.dumps(report.to_dict())`` always
        succeeds.
        """
        problem = self.problem
        return _json_safe(
            {
                "query_left": {
                    "name": problem.query_left.name if problem.query_left else None,
                    "result": problem.result_left,
                },
                "query_right": {
                    "name": problem.query_right.name if problem.query_right else None,
                    "result": problem.result_right,
                },
                "disagreement": problem.disagreement,
                "statistics": problem.statistics(),
                "explanations": {
                    "objective": self.explanations.objective,
                    "provenance": [
                        {"side": e.side.value, "key": e.key} for e in self.explanations.provenance
                    ],
                    "value": [
                        {
                            "side": e.side.value,
                            "key": e.key,
                            "old_impact": e.old_impact,
                            "new_impact": e.new_impact,
                        }
                        for e in self.explanations.value
                    ],
                    "evidence": [
                        {
                            "left": m.left_key,
                            "right": m.right_key,
                            "probability": m.probability,
                            "similarity": m.similarity,
                        }
                        for m in self.evidence
                    ],
                },
                "summary": {
                    "patterns": [
                        {
                            "side": p.side.value,
                            "conditions": [list(condition) for condition in p.conditions],
                            "covered_targets": p.covered_targets,
                            "covered_others": p.covered_others,
                            "precision": p.precision,
                        }
                        for p in self.summary.patterns
                    ],
                    "residual_keys": [list(residual) for residual in self.summary.residual_keys],
                },
                "stats": asdict(self.stats),
                "timings": dict(self.timings),
                "degraded": list(self.degraded),
            }
        )

    def to_json(self, *, indent: int | None = None) -> str:
        """The report serialized as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)


def _json_safe(value):
    """Recursively convert a report structure into plain JSON types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(item) for item in value]
    if hasattr(value, "item"):  # numpy scalars
        return _json_safe(value.item())
    return str(value)


class Explain3D:
    """The three-stage Explain3D framework (Section 3) with smart partitioning (Section 4)."""

    def __init__(self, config: Explain3DConfig | None = None):
        self.config = config or Explain3DConfig()

    # -- stage 1 -------------------------------------------------------------------------
    def build_problem(
        self,
        query_left: Query,
        db_left: Database,
        query_right: Query,
        db_right: Database,
        *,
        attribute_matches: AttributeMatching | None = None,
        tuple_mapping: TupleMapping | None = None,
        labeled_pairs: set[tuple[str, str]] | None = None,
    ) -> ExplainProblem:
        """Stage 1: provenance, canonicalization and the initial tuple mapping."""
        return build_problem(
            query_left,
            db_left,
            query_right,
            db_right,
            attribute_matches=attribute_matches,
            tuple_mapping=tuple_mapping,
            labeled_pairs=labeled_pairs,
            priors=self.config.priors,
            num_buckets=self.config.num_buckets,
            min_similarity=self.config.min_similarity,
            min_match_probability=self.config.min_match_probability,
        )

    # -- stages 2 and 3 ------------------------------------------------------------------
    def explain_problem(
        self,
        problem: ExplainProblem,
        *,
        stage1_seconds: float = 0.0,
        deadline=None,
        allow_partial: bool = False,
        solutions=None,
    ) -> ExplanationReport:
        """Stages 2-3 for an already constructed problem.

        ``stage1_seconds`` records how long the caller spent building the
        problem, so end-to-end timings stay consistent however Stage 1 ran
        (inline, cached, or injected).  ``deadline`` (a
        :class:`~repro.reliability.Deadline`) is observed at per-partition
        solver checkpoints; with ``allow_partial`` an expired deadline yields
        the incumbent explanation set with an optimality gap (and skips
        summarization when the budget is gone) instead of raising, each rung
        recorded in the report's ``degraded`` list.  ``solutions`` is a
        service's tier of solved partition models (see
        :class:`~repro.core.partitioning.TieredHighs`); without one every
        partition is solved.
        """
        timings: dict[str, float] = {"stage1": stage1_seconds}
        degraded: list[dict] = []

        solve_start = time.perf_counter()
        solver = PartitionedSolver(
            problem, self.config.solve_config(),
            deadline=deadline, allow_partial=allow_partial, solutions=solutions,
        )
        explanations = solver.solve()
        timings["solve"] = time.perf_counter() - solve_start
        if solver.stats.partial:
            degraded.append(
                {
                    "site": "solve.partition",
                    "fallback": "partial-incumbent",
                    "unsolved_partitions": solver.stats.unsolved_partitions,
                    "optimality_gap": solver.stats.optimality_gap,
                }
            )

        summary = ExplanationSummary()
        if self.config.summarize:
            if deadline is not None and allow_partial and deadline.expired():
                # The budget is spent: return the incumbent promptly rather
                # than burn more time summarizing it -- explicitly reported.
                degraded.append({"site": "summarize", "fallback": "skipped"})
            else:
                if deadline is not None:
                    deadline.check("summarize")
                summarize_start = time.perf_counter()
                summarizer = PatternSummarizer(min_precision=self.config.min_summary_precision)
                summary = summarizer.summarize(
                    explanations, problem.canonical_left, problem.canonical_right
                )
                timings["summarize"] = time.perf_counter() - summarize_start

        # Compute the total exactly once, after every stage key exists --
        # mutating it afterwards (the old `+= build_time`) desyncs it from
        # the per-stage keys.
        timings["total"] = sum(timings.values())
        return ExplanationReport(
            problem=problem,
            explanations=explanations,
            summary=summary,
            stats=solver.stats,
            timings=timings,
            degraded=degraded,
        )

    # -- end to end ----------------------------------------------------------------------
    def explain(
        self,
        query_left: Query,
        db_left: Database,
        query_right: Query,
        db_right: Database,
        *,
        attribute_matches: AttributeMatching | None = None,
        tuple_mapping: TupleMapping | None = None,
        labeled_pairs: set[tuple[str, str]] | None = None,
    ) -> ExplanationReport:
        """Run all three stages end to end."""
        build_start = time.perf_counter()
        problem = self.build_problem(
            query_left,
            db_left,
            query_right,
            db_right,
            attribute_matches=attribute_matches,
            tuple_mapping=tuple_mapping,
            labeled_pairs=labeled_pairs,
        )
        build_time = time.perf_counter() - build_start
        return self.explain_problem(problem, stage1_seconds=build_time)
