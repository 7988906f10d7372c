"""RSWOOSH: generic entity resolution (Benjelloun et al., VLDB Journal 2009).

R-Swoosh maintains a set of resolved records ``I'``; each incoming record is
compared against the resolved set, and on a match the two records are merged
(their attribute token sets are unioned) and re-inserted, so merges can
cascade.  The pairwise match function is Jaccard similarity over the matching
attributes with a fixed threshold (the paper uses 0.75 and notes Jaro performs
strictly worse).

The resulting clusters provide deterministic tuple matches (probability 1.0):
every left/right pair co-resident in a cluster joins the evidence mapping.
Explanations are then derived exactly like for THRESHOLD/GREEDY.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import DisagreementExplainer
from repro.core.explanations import ExplanationSet
from repro.core.problem import ExplainProblem
from repro.core.scoring import derive_explanations_from_mapping
from repro.matching.similarity import jaro_similarity, tokenize
from repro.matching.tuple_matching import TupleMapping, TupleMatch


@dataclass
class _ERRecord:
    """A (possibly merged) record during entity resolution."""

    tokens: frozenset[str]
    numeric_values: tuple[float, ...]
    left_keys: set[str] = field(default_factory=set)
    right_keys: set[str] = field(default_factory=set)

    def merge(self, other: "_ERRecord") -> "_ERRecord":
        return _ERRecord(
            tokens=self.tokens | other.tokens,
            numeric_values=self.numeric_values + other.numeric_values,
            left_keys=self.left_keys | other.left_keys,
            right_keys=self.right_keys | other.right_keys,
        )


class RSwooshBaseline(DisagreementExplainer):
    """R-Swoosh entity resolution used as a disagreement explainer."""

    def __init__(self, threshold: float = 0.75, *, similarity: str = "jaccard"):
        if similarity not in ("jaccard", "jaro"):
            raise ValueError("similarity must be 'jaccard' or 'jaro'")
        self.threshold = threshold
        self.similarity = similarity
        self.name = f"Rswoosh({similarity}>={threshold:g})"

    # -- record construction and matching ------------------------------------------------
    def _record_for(self, canonical_tuple, attributes, *, left: bool) -> _ERRecord:
        tokens: set[str] = set()
        numerics: list[float] = []
        for attribute in attributes:
            value = canonical_tuple.value(attribute)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numerics.append(float(value))
            else:
                tokens |= tokenize(value)
        keys = {canonical_tuple.key}
        return _ERRecord(
            tokens=frozenset(tokens),
            numeric_values=tuple(numerics),
            left_keys=keys if left else set(),
            right_keys=set() if left else keys,
        )

    def _matches(self, first: _ERRecord, second: _ERRecord) -> bool:
        if self.similarity == "jaro":
            score = jaro_similarity(" ".join(sorted(first.tokens)), " ".join(sorted(second.tokens)))
            return score >= self.threshold
        union = first.tokens | second.tokens
        if not union:
            return False
        score = len(first.tokens & second.tokens) / len(union)
        return score >= self.threshold

    # -- the R-Swoosh loop -----------------------------------------------------------------
    def _resolve(self, records: list[_ERRecord]) -> list[_ERRecord]:
        pending = list(records)
        resolved: list[_ERRecord] = []
        while pending:
            record = pending.pop()
            merged_with = None
            for index, candidate in enumerate(resolved):
                if self._matches(record, candidate):
                    merged_with = index
                    break
            if merged_with is None:
                resolved.append(record)
            else:
                candidate = resolved.pop(merged_with)
                pending.append(candidate.merge(record))
        return resolved

    # -- the explainer interface --------------------------------------------------------------
    def explain(self, problem: ExplainProblem) -> ExplanationSet:
        pairs = problem.attribute_matches.attribute_pairs()
        left_attrs = [pair[0] for pair in pairs]
        right_attrs = [pair[1] for pair in pairs]

        records = [
            self._record_for(t, left_attrs, left=True) for t in problem.canonical_left
        ] + [
            self._record_for(t, right_attrs, left=False) for t in problem.canonical_right
        ]
        clusters = self._resolve(records)

        evidence = TupleMapping(
            TupleMatch(left_key, right_key, 1.0)
            for cluster in clusters
            for left_key in sorted(cluster.left_keys)
            for right_key in sorted(cluster.right_keys)
        )

        return derive_explanations_from_mapping(
            problem.canonical_left, problem.canonical_right, evidence, problem.relation
        )
