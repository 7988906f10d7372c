"""GREEDY: Explain3D's objective, maximized greedily (Section 5.1.3).

Starting from an empty evidence mapping, the baseline scans the initial tuple
matches in descending probability order and adds a match when (a) it does not
violate the valid-mapping cardinality and (b) it improves the objective value
of the explanation set implied by the evidence built so far.

The objective delta of adding one match is computed incrementally from the
scoring model of Section 3.1:

* the match's own term flips from ``log(1 - p)`` to ``log p``;
* a previously unmatched endpoint flips from "provenance explanation"
  (``log(1 - alpha)``) to "kept";
* the anchor tuple of the affected component may flip between "impact
  unchanged" and "impact corrected" as the component's impact balance changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.baselines.base import DisagreementExplainer
from repro.core.explanations import ExplanationSet
from repro.core.problem import ExplainProblem
from repro.core.scoring import (
    MatchLogProbability,
    Priors,
    anchor_side,
    derive_explanations_from_mapping,
)
from repro.graphs.bipartite import Side
from repro.matching.tuple_matching import TupleMapping, TupleMatch


@dataclass
class _GreedyState:
    """Incremental bookkeeping of the evidence built so far."""

    priors: Priors
    anchor_impacts: dict[str, float]
    other_impacts: dict[str, float]
    anchor_matched_sum: dict[str, float] = field(default_factory=dict)
    anchor_degree: dict[str, int] = field(default_factory=dict)
    other_degree: dict[str, int] = field(default_factory=dict)

    # -- per-tuple objective terms ---------------------------------------------------
    def anchor_term(self, key: str, *, extra_sum: float = 0.0, extra_degree: int = 0) -> float:
        degree = self.anchor_degree.get(key, 0) + extra_degree
        if degree == 0:
            return self.priors.removed
        total = self.anchor_matched_sum.get(key, 0.0) + extra_sum
        if math.isclose(total, self.anchor_impacts[key], abs_tol=1e-9):
            return self.priors.kept_unchanged
        return self.priors.kept_changed

    def other_term(self, key: str, *, extra_degree: int = 0) -> float:
        degree = self.other_degree.get(key, 0) + extra_degree
        if degree == 0:
            return self.priors.removed
        return self.priors.kept_unchanged

    # -- the delta of adding one match -------------------------------------------------
    def gain(self, anchor_key: str, other_key: str, probability: float) -> float:
        terms = MatchLogProbability.of(probability)
        match_delta = terms.selected - terms.rejected
        other_impact = self.other_impacts[other_key]
        anchor_delta = self.anchor_term(
            anchor_key, extra_sum=other_impact, extra_degree=1
        ) - self.anchor_term(anchor_key)
        other_delta = self.other_term(other_key, extra_degree=1) - self.other_term(other_key)
        return match_delta + anchor_delta + other_delta

    def commit(self, anchor_key: str, other_key: str) -> None:
        self.anchor_degree[anchor_key] = self.anchor_degree.get(anchor_key, 0) + 1
        self.other_degree[other_key] = self.other_degree.get(other_key, 0) + 1
        self.anchor_matched_sum[anchor_key] = (
            self.anchor_matched_sum.get(anchor_key, 0.0) + self.other_impacts[other_key]
        )


class GreedyBaseline(DisagreementExplainer):
    """Greedy evidence construction under Explain3D's objective."""

    name = "Greedy"

    def explain(self, problem: ExplainProblem) -> ExplanationSet:
        relation = problem.relation
        priors = problem.priors

        # Orient the component anchors exactly as the MILP does.
        anchor = anchor_side(relation)
        if anchor is Side.LEFT:
            anchor_relation, other_relation = problem.canonical_left, problem.canonical_right
        else:
            anchor_relation, other_relation = problem.canonical_right, problem.canonical_left

        state = _GreedyState(
            priors=priors,
            anchor_impacts=anchor_relation.impacts(),
            other_impacts=other_relation.impacts(),
        )
        anchor_limited = (
            relation.left_degree_limited if anchor is Side.LEFT else relation.right_degree_limited
        )
        other_limited = (
            relation.right_degree_limited if anchor is Side.LEFT else relation.left_degree_limited
        )

        evidence = TupleMapping()
        for match in problem.mapping.sorted_by_probability():
            anchor_key = match.right_key if anchor is Side.RIGHT else match.left_key
            other_key = match.left_key if anchor is Side.RIGHT else match.right_key
            if anchor_key not in state.anchor_impacts or other_key not in state.other_impacts:
                continue
            if anchor_limited and state.anchor_degree.get(anchor_key, 0) >= 1:
                continue
            if other_limited and state.other_degree.get(other_key, 0) >= 1:
                continue
            if state.gain(anchor_key, other_key, match.probability) <= 0.0:
                continue
            state.commit(anchor_key, other_key)
            evidence.add(
                TupleMatch(match.left_key, match.right_key, match.probability, match.similarity)
            )

        return derive_explanations_from_mapping(
            problem.canonical_left, problem.canonical_right, evidence, relation
        )
