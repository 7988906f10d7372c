"""The probabilistic scoring model of Section 3.1 (Equations 1-6).

The objective of the EXP-3D problem is ``Pr(E | T1, T2, M_tuple)``, which the
paper decomposes (up to a constant factor) into

``Pr(T1, T2 | E) * Pr(M_tuple | T1, T2, E) * Pr(E)``

with tuple-independence and match-independence assumptions.  This module
provides:

* :class:`Priors` -- the a-priori probabilities ``alpha`` (a tuple is covered
  by both queries) and ``beta`` (a tuple's impact is correct), and the derived
  log-space constants of Equation (8);
* :class:`ExplanationScorer` -- evaluation of ``log Pr(E | T1, T2, M_tuple)``
  for an arbitrary candidate explanation set (used by the GREEDY baseline and
  by tests that cross-check the MILP optimum);
* :func:`derive_explanations_from_mapping` -- the deterministic construction
  of explanations implied by a chosen evidence mapping, used by the record
  linkage baselines (RSWOOSH, THRESHOLD, GREEDY);
* :func:`anchor_side` -- which side anchors the components of a valid
  mapping, shared by that construction, GREEDY and the MILP.

Note on Equation (8): the paper's text assigns ``b = log(alpha) + log(beta)``
to the ``y = 0`` branch and ``c = log(alpha) + log(1 - beta)`` to ``y = 1``,
which contradicts its own Equation (3) (``y = 1`` means the impact is
unchanged).  We implement the semantically consistent version: an unchanged
impact scores ``log(alpha) + log(beta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.canonical import CanonicalRelation
from repro.core.explanations import ExplanationSet, ProvenanceExplanation, ValueExplanation
from repro.graphs.bipartite import Side
from repro.matching.attribute_match import SemanticRelation
from repro.matching.tuple_matching import TupleMapping, TupleMatch

_PROB_FLOOR = 1e-3


def _clamp(probability: float) -> float:
    return min(max(probability, _PROB_FLOOR), 1.0 - _PROB_FLOOR)


@dataclass(frozen=True)
class Priors:
    """The prior probabilities ``alpha`` and ``beta`` (Section 3.1).

    Both lie in ``(0.5, 1]``: a tuple is more likely to be covered by both
    queries, and to have a correct impact, than not.  The paper does not state
    the values it uses; the defaults here (high ``alpha``, moderate ``beta``)
    encode that a tuple missing from one dataset is rarer than a reported value
    being off, which matches all three dataset families of the evaluation.
    """

    alpha: float = 0.95
    beta: float = 0.6

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0.5, 1], got {self.alpha}")
        if not 0.5 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0.5, 1], got {self.beta}")
        # The log-space constants are consumed once per canonical tuple in the
        # scoring and MILP hot loops; compute them once at construction (the
        # dataclass is frozen, so alpha/beta can never change afterwards).
        object.__setattr__(self, "_removed", math.log(_clamp(1.0 - self.alpha)))
        object.__setattr__(
            self, "_kept_unchanged", math.log(_clamp(self.alpha)) + math.log(_clamp(self.beta))
        )
        object.__setattr__(
            self, "_kept_changed", math.log(_clamp(self.alpha)) + math.log(_clamp(1.0 - self.beta))
        )

    # -- the log-space constants of Equation (8) -----------------------------------
    @property
    def removed(self) -> float:
        """``a = log(1 - alpha)``: tuple is a provenance-based explanation."""
        return self._removed

    @property
    def kept_unchanged(self) -> float:
        """``log(alpha) + log(beta)``: tuple kept with its original impact."""
        return self._kept_unchanged

    @property
    def kept_changed(self) -> float:
        """``log(alpha) + log(1 - beta)``: tuple kept, impact corrected (value explanation)."""
        return self._kept_changed


@dataclass(frozen=True)
class MatchLogProbability:
    """Log-probability terms of one tuple match (Equation 9)."""

    selected: float
    rejected: float

    @classmethod
    def of(cls, probability: float) -> "MatchLogProbability":
        return _match_log_terms(probability)


@lru_cache(maxsize=1 << 16)
def _match_log_terms(probability: float) -> MatchLogProbability:
    """Memoized construction: match probabilities repeat heavily (calibration
    buckets them), and ``of`` is called per match in scoring, MILP building and
    partition merging."""
    if math.isnan(probability):
        raise ValueError("match probability is NaN")
    probability = _clamp(probability)
    return MatchLogProbability(math.log(probability), math.log(1.0 - probability))


class ExplanationScorer:
    """Computes ``log Pr(E | T1, T2, M_tuple)`` for a candidate explanation set."""

    def __init__(
        self,
        canonical_left: CanonicalRelation,
        canonical_right: CanonicalRelation,
        initial_mapping: TupleMapping,
        priors: Priors = Priors(),
    ):
        self.canonical_left = canonical_left
        self.canonical_right = canonical_right
        self.initial_mapping = initial_mapping
        self.priors = priors

    # -- individual terms -----------------------------------------------------------
    def tuple_log_probability(
        self, *, removed: bool, impact_changed: bool
    ) -> float:
        """Equation (3) in log space; a removed tuple cannot also change impact."""
        if removed and impact_changed:
            return -math.inf
        if removed:
            return self.priors.removed
        if impact_changed:
            return self.priors.kept_changed
        return self.priors.kept_unchanged

    def match_log_probability(self, match: TupleMatch, *, selected: bool) -> float:
        terms = MatchLogProbability.of(match.probability)
        return terms.selected if selected else terms.rejected

    # -- whole explanation sets -------------------------------------------------------
    def score(self, explanations: ExplanationSet) -> float:
        """``log Pr(E | T1, T2, M_tuple)`` up to the constant dropped in Eq. (6)."""
        removed = explanations.provenance_identities()
        changed = explanations.value_identities()
        selected_pairs = explanations.evidence_pairs()

        total = 0.0
        for relation in (self.canonical_left, self.canonical_right):
            for canonical_tuple in relation:
                identity = (canonical_tuple.side.value, canonical_tuple.key)
                total += self.tuple_log_probability(
                    removed=identity in removed,
                    impact_changed=identity in changed,
                )
        for match in self.initial_mapping:
            total += self.match_log_probability(match, selected=match.pair in selected_pairs)
        return total

    def score_mapping(self, mapping: TupleMapping, relation: SemanticRelation) -> float:
        """Score of the explanation set *implied* by an evidence mapping."""
        explanations = derive_explanations_from_mapping(
            self.canonical_left, self.canonical_right, mapping, relation
        )
        return self.score(explanations)


def mapping_is_valid(
    mapping: TupleMapping | Iterable[TupleMatch], relation: SemanticRelation
) -> bool:
    """Definition 3.2: check the cardinality restrictions of a mapping."""
    left_degree: dict[str, int] = {}
    right_degree: dict[str, int] = {}
    for match in mapping:
        left_degree[match.left_key] = left_degree.get(match.left_key, 0) + 1
        right_degree[match.right_key] = right_degree.get(match.right_key, 0) + 1
    if relation.left_degree_limited and any(v > 1 for v in left_degree.values()):
        return False
    if relation.right_degree_limited and any(v > 1 for v in right_degree.values()):
        return False
    return True


def impact_equality_holds(
    canonical_left: CanonicalRelation,
    canonical_right: CanonicalRelation,
    explanations: ExplanationSet,
    *,
    tolerance: float = 1e-6,
) -> bool:
    """Definition 3.3: per-component impact equality of the refined relations."""
    removed = explanations.provenance_identities()
    new_impacts = {
        (e.side.value, e.key): e.new_impact for e in explanations.value
    }

    def refined_impact(canonical_tuple) -> float | None:
        identity = (canonical_tuple.side.value, canonical_tuple.key)
        if identity in removed:
            return None
        return new_impacts.get(identity, canonical_tuple.impact)

    # Build components over the *evidence* mapping.
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for canonical_tuple in list(canonical_left) + list(canonical_right):
        node = (canonical_tuple.side.value, canonical_tuple.key)
        parent.setdefault(node, node)
    for match in explanations.evidence:
        union((Side.LEFT.value, match.left_key), (Side.RIGHT.value, match.right_key))

    sums: dict[tuple[str, str], dict[str, float]] = {}
    for relation in (canonical_left, canonical_right):
        for canonical_tuple in relation:
            impact = refined_impact(canonical_tuple)
            if impact is None:
                continue
            root = find((canonical_tuple.side.value, canonical_tuple.key))
            bucket = sums.setdefault(root, {"L": 0.0, "R": 0.0})
            bucket[canonical_tuple.side.value] += impact

    return all(abs(bucket["L"] - bucket["R"]) <= tolerance for bucket in sums.values())


def is_complete(
    canonical_left: CanonicalRelation,
    canonical_right: CanonicalRelation,
    explanations: ExplanationSet,
    relation: SemanticRelation,
) -> bool:
    """Definition 3.4: valid evidence mapping + impact equality."""
    return mapping_is_valid(explanations.evidence, relation) and impact_equality_holds(
        canonical_left, canonical_right, explanations
    )


def anchor_side(relation: SemanticRelation) -> Side:
    """The side whose tuples anchor the components of a valid mapping.

    Anchors are the tuples that may have degree > 1: the left side when the
    relation limits right degrees but not left degrees (one-to-many, left
    more general), the right side otherwise (many-to-one or equivalence).
    """
    if relation.right_degree_limited and not relation.left_degree_limited:
        return Side.LEFT
    return Side.RIGHT


def derive_explanations_from_mapping(
    canonical_left: CanonicalRelation,
    canonical_right: CanonicalRelation,
    mapping: TupleMapping,
    relation: SemanticRelation,
    *,
    tolerance: float = 1e-9,
) -> ExplanationSet:
    """Explanations implied by a fixed evidence mapping.

    This is the construction the record-linkage baselines use (Section 5.1.3):
    tuples without a selected match become provenance-based explanations;
    within each matched component whose impacts disagree, the anchor tuple
    (the side allowed degree > 1, or the right side under equivalence) gets a
    value-based explanation correcting its impact to the other side's total.
    """
    matched_left: dict[str, list[TupleMatch]] = {}
    matched_right: dict[str, list[TupleMatch]] = {}
    for match in mapping:
        matched_left.setdefault(match.left_key, []).append(match)
        matched_right.setdefault(match.right_key, []).append(match)

    provenance: list[ProvenanceExplanation] = []
    for canonical_tuple in canonical_left:
        if canonical_tuple.key not in matched_left:
            provenance.append(ProvenanceExplanation(Side.LEFT, canonical_tuple.key))
    for canonical_tuple in canonical_right:
        if canonical_tuple.key not in matched_right:
            provenance.append(ProvenanceExplanation(Side.RIGHT, canonical_tuple.key))

    value: list[ValueExplanation] = []
    anchor = anchor_side(relation)
    if anchor is Side.LEFT:
        anchor_relation, other_relation = canonical_left, canonical_right
        anchored = matched_left
        other_key = "right_key"
    else:
        anchor_relation, other_relation = canonical_right, canonical_left
        anchored = matched_right
        other_key = "left_key"

    for anchor_key, matches in anchored.items():
        anchor_tuple = anchor_relation.get(anchor_key)
        if anchor_tuple is None:
            continue
        other_total = 0.0
        for match in matches:
            other = other_relation.get(getattr(match, other_key))
            if other is not None:
                other_total += other.impact
        if abs(other_total - anchor_tuple.impact) > tolerance:
            value.append(
                ValueExplanation(anchor, anchor_key, anchor_tuple.impact, other_total)
            )

    return ExplanationSet(provenance=provenance, value=value, evidence=TupleMapping(mapping))
