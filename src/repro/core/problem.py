"""The bundled input of the EXP-3D problem (Problem 1).

An :class:`ExplainProblem` holds everything Stage 2 needs: the two canonical
relations, the attribute matches that made the queries comparable, the initial
probabilistic tuple mapping, and the priors.  :func:`build_problem` constructs
it from raw queries and databases, running Stage 1 (provenance derivation,
schema matching if needed, canonicalization, candidate generation and
similarity-to-probability calibration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.canonical import CanonicalRelation, UnknownAttributeError, canonicalize
from repro.core.scoring import Priors
from repro.graphs.bipartite import MatchGraph, Side
from repro.matching.attribute_match import AttributeMatching
from repro.matching.calibration import calibrate_matches
from repro.matching.features import TupleFeatureCache
from repro.matching.schema_matcher import infer_attribute_matches
from repro.matching.tuple_matching import TupleMapping, generate_candidates
from repro.relational.errors import EmptyAggregateError, ExecutionError
from repro.relational.executor import Database
from repro.relational.provenance import ProvenanceRelation, provenance_relation
from repro.relational.query import Aggregate, AggregateFunction, Project, Query


class NotComparableError(ValueError):
    """Raised when two queries share no attribute match (Definition 2.2)."""


class UnknownMatchKeyError(ValueError):
    """A supplied tuple mapping names a key of no canonical tuple.

    The caller's mistake, not a server fault: the service answers it with a
    400 whose ``path`` points at the first offending ``tuple_mapping`` entry.
    """

    def __init__(self, index: int, side: Side, key: str):
        super().__init__(
            f"tuple_mapping entry {index} names {key!r}, which is no canonical tuple "
            f"of the {side.name.lower()} side"
        )
        self.side = side
        self.key = key
        self.path = f"/tuple_mapping/{index}"


@dataclass
class Stage1Artifacts:
    """Reusable Stage-1 byproducts, used as an in/out parameter of :func:`build_problem`.

    Any field left ``None`` is computed as usual and *stored back*, so a
    long-lived caller (the service layer) can harvest the artifacts of a cold
    build and inject them into later builds against the same databases:

    * ``provenance_left`` / ``provenance_right`` skip query re-execution;
    * ``left_features`` / ``right_features`` skip re-tokenization (validated
      against the canonical tuples, rebuilt when stale);
    * ``candidates`` are the *unfiltered* scored candidates -- they are
      independent of ``min_similarity``, which is applied per request, so one
      scored mapping serves similarity-threshold perturbations too.

    A direct call starts from an empty instance, so it takes the same path.
    """

    provenance_left: ProvenanceRelation | None = None
    provenance_right: ProvenanceRelation | None = None
    left_features: TupleFeatureCache | None = None
    right_features: TupleFeatureCache | None = None
    candidates: TupleMapping | None = None


@dataclass
class ExplainProblem:
    """The input of Problem 1: canonical relations, matches, mapping, priors."""

    canonical_left: CanonicalRelation
    canonical_right: CanonicalRelation
    attribute_matches: AttributeMatching
    mapping: TupleMapping
    priors: Priors = field(default_factory=Priors)
    query_left: Optional[Query] = None
    query_right: Optional[Query] = None
    provenance_left: Optional[ProvenanceRelation] = None
    provenance_right: Optional[ProvenanceRelation] = None
    result_left: Optional[float] = None
    result_right: Optional[float] = None

    @property
    def relation(self):
        """The dominant semantic relation governing mapping cardinality."""
        return self.attribute_matches.dominant_relation()

    @property
    def disagreement(self) -> Optional[float]:
        """Difference of the two query results (None when either is unknown)."""
        if self.result_left is None or self.result_right is None:
            return None
        return self.result_left - self.result_right

    def match_graph(self) -> MatchGraph:
        """The bipartite graph ``G = (T1, T2, M_tuple)`` used by Section 4."""
        return MatchGraph(
            self.canonical_left.keys(), self.canonical_right.keys(), self.mapping
        )

    def statistics(self) -> dict:
        """The per-dataset statistics reported in Figure 4."""
        return {
            "provenance_left": len(self.provenance_left) if self.provenance_left else None,
            "provenance_right": len(self.provenance_right) if self.provenance_right else None,
            "canonical_left": len(self.canonical_left),
            "canonical_right": len(self.canonical_right),
            "initial_matches": len(self.mapping),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExplainProblem(|T1|={len(self.canonical_left)}, |T2|={len(self.canonical_right)}, "
            f"|M|={len(self.mapping)}, relation={self.relation})"
        )


def _scored_candidates(
    canonical_left: CanonicalRelation,
    canonical_right: CanonicalRelation,
    attribute_matches: AttributeMatching,
    artifacts: Stage1Artifacts,
) -> TupleMapping:
    """The unfiltered scored candidates, reusing/harvesting ``artifacts``.

    Scoring with a ``-inf`` threshold keeps every pair the (exact) blocker
    emits, so the candidates can be cut down to any requested
    ``min_similarity`` afterwards without rescoring.  Feature caches are
    validated against the canonical tuples and rebuilt when stale, then
    stored back for the next request.
    """
    attribute_pairs = attribute_matches.attribute_pairs()
    left_attrs = [pair[0] for pair in attribute_pairs]
    right_attrs = [pair[1] for pair in attribute_pairs]
    left_features = artifacts.left_features
    if left_features is None or not left_features.covers(len(canonical_left), left_attrs):
        left_features = TupleFeatureCache.from_tuples(canonical_left.tuples, left_attrs)
    right_features = artifacts.right_features
    if right_features is None or not right_features.covers(len(canonical_right), right_attrs):
        right_features = TupleFeatureCache.from_tuples(canonical_right.tuples, right_attrs)
    artifacts.left_features = left_features
    artifacts.right_features = right_features

    if artifacts.candidates is None:
        artifacts.candidates = generate_candidates(
            canonical_left.tuples,
            canonical_right.tuples,
            attribute_matches,
            min_similarity=float("-inf"),
            left_features=left_features,
            right_features=right_features,
        )
    return artifacts.candidates


def _check_mapping_keys(
    mapping: TupleMapping, canonical_left: CanonicalRelation, canonical_right: CanonicalRelation
) -> None:
    """Raise :class:`UnknownMatchKeyError` at the first match naming an unknown key."""
    left, right = mapping.positions(
        dict.fromkeys(canonical_left.keys(), 0), dict.fromkeys(canonical_right.keys(), 0)
    )
    unknown = np.flatnonzero((left < 0) | (right < 0))
    if unknown.size:
        index = int(unknown[0])
        if left[index] < 0:
            raise UnknownMatchKeyError(index, Side.LEFT, mapping.left_keys[index])
        raise UnknownMatchKeyError(index, Side.RIGHT, mapping.right_keys[index])


def scalar_result(query: Query, provenance: ProvenanceRelation):
    """The query's one-value result, read off its provenance relation.

    Equal to :func:`repro.relational.executor.scalar_result` of the query over
    its database -- the same value, ``None`` for a non-COUNT aggregate over
    no rows, the same :class:`EmptyAggregateError` for one over NULLs only --
    without planning or running the query again: the provenance already
    holds, in executor order, the rows the outermost aggregate or projection
    reads.  An ungrouped aggregate combines the aggregated attribute with the
    executor's own kernel (:meth:`AggregateFunction.combine`); any other
    query's result is the value of its one-row, one-column output.  Raises
    :class:`ExecutionError`, as the executor does, when there is no such
    output.
    """
    root = query.root
    if isinstance(root, Aggregate) and not root.group_by:
        if root.attribute is None:
            return float(len(provenance))  # COUNT(*)
        if root.attribute in provenance.attributes:
            if not provenance.tuples and root.function is not AggregateFunction.COUNT:
                return None  # the executor's explicit NULL of an empty aggregate
            return root.function.combine(provenance.values(root.attribute))
    elif not isinstance(root, Aggregate):
        attributes = root.attributes if isinstance(root, Project) else provenance.attributes
        if len(attributes) == 1 and attributes[0] in provenance.attributes:
            values = provenance.values(attributes[0])
            rows = len(values)
            if isinstance(root, Project) and root.distinct:
                rows = len(dict.fromkeys((value,) for value in values))
            if rows == 1:
                return values[0]
    raise ExecutionError(f"query {query.name} has no one-row, one-column result")


def _tagged_result(query: Query, provenance: ProvenanceRelation, pointer: str):
    # An all-NULL aggregate input is a typed, user-actionable condition, not
    # a missing result: tag it with the JSON pointer of the offending query
    # so it surfaces as a 400 envelope.
    try:
        return scalar_result(query, provenance)
    except EmptyAggregateError as exc:
        exc.path = exc.path or pointer
        raise


def build_problem(
    query_left: Query,
    db_left: Database,
    query_right: Query,
    db_right: Database,
    *,
    attribute_matches: AttributeMatching | None = None,
    tuple_mapping: TupleMapping | None = None,
    labeled_pairs: set[tuple[str, str]] | None = None,
    priors: Priors = Priors(),
    num_buckets: int = 50,
    min_similarity: float = 0.0,
    min_match_probability: float = 0.0,
    compute_results: bool = True,
    artifacts: Stage1Artifacts | None = None,
) -> ExplainProblem:
    """Run Stage 1 and assemble an :class:`ExplainProblem`.

    ``labeled_pairs`` are gold canonical-key pairs used to calibrate similarity
    scores into probabilities (Section 5.1.2); when absent, similarities are
    used directly as (clamped) probabilities.  ``tuple_mapping`` overrides the
    whole record-linkage step with an externally supplied initial mapping;
    every key it names must be a canonical key (else
    :class:`UnknownMatchKeyError`).  ``artifacts`` injects (and harvests)
    reusable Stage-1 byproducts -- see :class:`Stage1Artifacts`; the produced
    problem is identical with or without it.
    """
    # Stage 1 provenance capture runs through the query planner (repro.plan):
    # rewrites + hash joins replace the naive tree walk, with results (rows,
    # order, lineage) fingerprint-identical to the reference interpreter.
    if artifacts is None:
        artifacts = Stage1Artifacts()
    if artifacts.provenance_left is None:
        artifacts.provenance_left = provenance_relation(
            query_left, db_left, label=f"P[{query_left.name}]", planner="optimized"
        )
    if artifacts.provenance_right is None:
        artifacts.provenance_right = provenance_relation(
            query_right, db_right, label=f"P[{query_right.name}]", planner="optimized"
        )
    provenance_left, provenance_right = artifacts.provenance_left, artifacts.provenance_right

    if attribute_matches is None:
        attribute_matches = infer_attribute_matches(provenance_left, provenance_right)
    requested = attribute_matches
    attribute_matches = attribute_matches.normalized()
    if not attribute_matches.comparable:
        raise NotComparableError(
            f"queries {query_left.name} and {query_right.name} share no attribute match"
        )

    try:
        canonical_left = canonicalize(provenance_left, attribute_matches, Side.LEFT, label="T1")
        canonical_right = canonicalize(provenance_right, attribute_matches, Side.RIGHT, label="T2")
    except UnknownAttributeError as exc:
        # Tag the first requested match naming a missing attribute with its
        # JSON pointer, so the service answers a 400 that points at it.
        for index, match in enumerate(requested):
            if set(exc.missing) & set(match.left if exc.side is Side.LEFT else match.right):
                exc.path = exc.path or f"/attribute_matches/{index}"
                break
        raise

    if tuple_mapping is not None:
        _check_mapping_keys(tuple_mapping, canonical_left, canonical_right)
    else:
        candidates = _scored_candidates(
            canonical_left, canonical_right, attribute_matches, artifacts
        )
        # The scored candidates are unfiltered; apply the request's threshold
        # with the same strict comparison the generator uses.  Without labels
        # a candidate's probability is its clamped similarity.
        tuple_mapping = candidates.take(candidates.similarities > min_similarity)
        if labeled_pairs is not None:
            tuple_mapping = calibrate_matches(
                tuple_mapping,
                labeled_pairs,
                num_buckets=num_buckets,
                min_probability=min_match_probability,
            )

    result_left = result_right = None
    if compute_results:
        try:
            result_left = _tagged_result(query_left, provenance_left, "/query_left")
            result_right = _tagged_result(query_right, provenance_right, "/query_right")
        except EmptyAggregateError:
            raise
        except ExecutionError:
            # A query with no one-value result (a list or grouped query): the
            # pair gets neither result, and the disagreement is judged on
            # provenance rather than a single number.
            result_left = result_right = None

    return ExplainProblem(
        canonical_left=canonical_left,
        canonical_right=canonical_right,
        attribute_matches=attribute_matches,
        mapping=tuple_mapping,
        priors=priors,
        query_left=query_left,
        query_right=query_right,
        provenance_left=provenance_left,
        provenance_right=provenance_right,
        result_left=result_left,
        result_right=result_right,
    )
