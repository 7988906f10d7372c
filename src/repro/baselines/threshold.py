"""THRESHOLD: refine the initial tuple mapping with a fixed probability cutoff."""

from __future__ import annotations

from repro.core.explanations import ExplanationSet
from repro.core.problem import ExplainProblem
from repro.core.scoring import derive_explanations_from_mapping
from repro.baselines.base import DisagreementExplainer


class ThresholdBaseline(DisagreementExplainer):
    """Keep initial matches with ``probability >= threshold`` as the evidence.

    Explanations are then derived exactly like for the other record-linkage
    methods: unmatched tuples become provenance-based explanations, matched
    components with unequal impacts yield value-based explanations.
    """

    def __init__(self, threshold: float = 0.9, *, enforce_validity: bool = True):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.enforce_validity = enforce_validity
        self.name = f"Threshold-{threshold:g}"

    def explain(self, problem: ExplainProblem) -> ExplanationSet:
        evidence = problem.mapping.above(self.threshold)
        if self.enforce_validity:
            evidence = _enforce_cardinality(evidence, problem)
        return derive_explanations_from_mapping(
            problem.canonical_left, problem.canonical_right, evidence, problem.relation
        )


def _enforce_cardinality(evidence, problem: ExplainProblem):
    """Drop lower-probability matches that violate the valid-mapping cardinality."""
    relation = problem.relation
    used_left: set[str] = set()
    used_right: set[str] = set()
    from repro.matching.tuple_matching import TupleMapping

    kept = []
    for match in evidence.sorted_by_probability():
        if relation.left_degree_limited and match.left_key in used_left:
            continue
        if relation.right_degree_limited and match.right_key in used_right:
            continue
        kept.append(match)
        used_left.add(match.left_key)
        used_right.add(match.right_key)
    return TupleMapping(kept)
