"""FORMALEXP: single-dataset, intervention-based predicate explanations.

Roy & Suciu's formal explanation framework (SIGMOD 2014) explains a surprising
aggregate by finding predicates whose *intervention* (removing the tuples they
cover) moves the aggregate the most.  It operates on one dataset at a time and
knows nothing about the other query; the paper adapts it to the two-dataset
setting by asking "why is Q1's result high?" / "why is Q2's result low?" and
treating tuples covered by the top-k predicates as provenance-based
explanations.  No evidence mapping is produced.

This implementation enumerates conjunctive predicates of up to two
attribute-value conditions over each query's provenance relation, scores each
predicate by how much removing its tuples shrinks the *absolute disagreement*
between the two query results, and reports the tuples covered by the top-k
predicates (across both sides) as explanations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.baselines.base import DisagreementExplainer
from repro.core.explanations import ExplanationSet, ProvenanceExplanation
from repro.core.problem import ExplainProblem
from repro.graphs.bipartite import Side
from repro.matching.tuple_matching import TupleMapping


@dataclass(frozen=True)
class PredicateExplanation:
    """A ranked predicate explanation on one side."""

    side: Side
    conditions: tuple[tuple[str, object], ...]
    covered_keys: tuple[str, ...]
    score: float

    def describe(self) -> str:
        clauses = " AND ".join(f"{attribute} = {value!r}" for attribute, value in self.conditions)
        return f"[{self.side.value}] {clauses} (score {self.score:g}, covers {len(self.covered_keys)})"


class FormalExpBaseline(DisagreementExplainer):
    """Top-k intervention-based predicate explanations per dataset."""

    def __init__(self, top_k: int = 15, *, max_conditions: int = 2, max_candidates: int = 5000):
        self.top_k = top_k
        self.max_conditions = max_conditions
        self.max_candidates = max_candidates
        self.name = f"FormalExp-Top{top_k}"

    # -- candidate predicates ---------------------------------------------------------
    def _candidates(self, records: list[dict]) -> list[tuple[tuple[str, object], ...]]:
        singles: set[tuple[str, object]] = set()
        for record in records:
            for attribute, value in record.items():
                if value is None:
                    continue
                try:
                    hash(value)
                except TypeError:
                    continue
                singles.add((attribute, value))
        # A fixed order, not set order: the stable top-k sort and the
        # ``max_candidates`` cut keep the first of tied predicates.
        ordered = sorted(singles, key=repr)
        candidates = [(single,) for single in ordered]
        if self.max_conditions >= 2 and len(singles) <= 200:
            for first, second in combinations(ordered, 2):
                if first[0] != second[0]:
                    candidates.append((first, second))
        return candidates[: self.max_candidates]

    @staticmethod
    def _covered(records: list[tuple[str, dict, float]], conditions) -> list[tuple[str, float]]:
        covered = []
        for key, record, impact in records:
            if all(record.get(attribute) == value for attribute, value in conditions):
                covered.append((key, impact))
        return covered

    # -- the explainer interface ----------------------------------------------------------
    def explain(self, problem: ExplainProblem) -> ExplanationSet:
        result_left = problem.result_left
        result_right = problem.result_right
        if result_left is None or result_right is None:
            # Non-aggregate disagreement: fall back to the total canonical impact.
            result_left = problem.canonical_left.total_impact()
            result_right = problem.canonical_right.total_impact()
        baseline_gap = abs(result_left - result_right)

        ranked: list[PredicateExplanation] = []
        for side, canonical, own_result, other_result in (
            (Side.LEFT, problem.canonical_left, result_left, result_right),
            (Side.RIGHT, problem.canonical_right, result_right, result_left),
        ):
            records = []
            for canonical_tuple in canonical:
                members = canonical.provenance_members(canonical_tuple.key)
                if members:
                    for member in members:
                        records.append((canonical_tuple.key, dict(member.values), member.impact))
                else:
                    records.append(
                        (canonical_tuple.key, dict(canonical_tuple.values), canonical_tuple.impact)
                    )
            candidates = self._candidates([record for _, record, _ in records])
            for conditions in candidates:
                covered = self._covered(records, conditions)
                if not covered:
                    continue
                removed_impact = sum(impact for _, impact in covered)
                new_gap = abs((own_result - removed_impact) - other_result)
                score = baseline_gap - new_gap
                if score <= 0:
                    continue
                ranked.append(
                    PredicateExplanation(
                        side,
                        conditions,
                        tuple(sorted({key for key, _ in covered})),
                        score,
                    )
                )

        ranked.sort(key=lambda explanation: (-explanation.score, len(explanation.covered_keys)))
        top = ranked[: self.top_k]

        provenance: list[ProvenanceExplanation] = []
        seen: set[tuple[str, str]] = set()
        for explanation in top:
            for key in explanation.covered_keys:
                identity = (explanation.side.value, key)
                if identity not in seen:
                    seen.add(identity)
                    provenance.append(ProvenanceExplanation(explanation.side, key))

        return ExplanationSet(provenance=provenance, value=[], evidence=TupleMapping())
