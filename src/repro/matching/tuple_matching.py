"""Tuple matches and the initial tuple mapping (Definition 2.4).

A tuple match ``(t_i, t_j, p)`` associates a tuple of one canonical relation
with a tuple of the other, with probability ``p`` that they refer to the same
(or containment-associated) entity.  The *initial* mapping is produced by a
record-linkage step (similarity scoring + calibration); Explain3D's Stage 2
refines it into the *evidence mapping* ``M*_tuple``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.matching.attribute_match import AttributeMatching
from repro.matching.blocking import TokenBlocker
from repro.matching.features import BatchScorer, TupleFeatureCache


class CandidateMatch(NamedTuple):
    """A scored candidate pair before probability calibration.

    A ``NamedTuple`` rather than a dataclass: candidate generation constructs
    one per surviving pair, and tuple construction is several times cheaper
    than a frozen dataclass's ``__init__``.
    """

    left_key: str
    right_key: str
    similarity: float


@dataclass(frozen=True)
class TupleMatch:
    """A probabilistic tuple match ``(t_i, t_j, p)``."""

    left_key: str
    right_key: str
    probability: float
    similarity: float = 0.0

    @property
    def pair(self) -> tuple[str, str]:
        return (self.left_key, self.right_key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TupleMatch({self.left_key} ~ {self.right_key}, p={self.probability:.3f})"


class TupleMapping:
    """An insertion-ordered set of tuple matches, one per (left, right) pair.

    Used both for the initial mapping ``M_tuple`` and the refined evidence
    mapping ``M*_tuple``.
    """

    def __init__(self, matches: Iterable[TupleMatch] = ()):
        self._matches: list[TupleMatch] = []
        #: (left, right) -> probability of the first match added for the pair.
        self._probability: dict[tuple[str, str], float] = {}
        self._pairs_view: frozenset[tuple[str, str]] | None = None
        for match in matches:
            self.add(match)

    # -- container protocol -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._matches)

    def __iter__(self) -> Iterator[TupleMatch]:
        return iter(self._matches)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return tuple(pair) in self._probability

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TupleMapping({len(self._matches)} matches)"

    # -- mutation -----------------------------------------------------------------
    def add(self, match: TupleMatch) -> None:
        pair = (match.left_key, match.right_key)
        if pair in self._probability:
            return
        self._matches.append(match)
        self._probability[pair] = match.probability
        self._pairs_view = None

    # -- accessors ----------------------------------------------------------------
    @property
    def matches(self) -> tuple[TupleMatch, ...]:
        return tuple(self._matches)

    def pairs(self) -> frozenset[tuple[str, str]]:
        """A frozen view of all (left, right) pairs, cached between mutations."""
        if self._pairs_view is None:
            self._pairs_view = frozenset(self._probability)
        return self._pairs_view

    # By-side lookups scan the matches: the pipeline never asks for them, so
    # no per-match index is kept for them.
    def for_left(self, key: str) -> tuple[TupleMatch, ...]:
        return tuple(match for match in self._matches if match.left_key == key)

    def for_right(self, key: str) -> tuple[TupleMatch, ...]:
        return tuple(match for match in self._matches if match.right_key == key)

    def left_keys(self) -> set[str]:
        return {match.left_key for match in self._matches}

    def right_keys(self) -> set[str]:
        return {match.right_key for match in self._matches}

    def probability(self, left_key: str, right_key: str) -> float | None:
        return self._probability.get((left_key, right_key))

    def filtered(self, predicate: Callable[[TupleMatch], bool]) -> "TupleMapping":
        return TupleMapping(match for match in self._matches if predicate(match))

    def above(self, threshold: float) -> "TupleMapping":
        """Matches with probability >= threshold (the THRESHOLD baseline)."""
        return self.filtered(lambda match: match.probability >= threshold)

    def restricted_to(self, left_keys: set[str], right_keys: set[str]) -> "TupleMapping":
        return self.filtered(
            lambda match: match.left_key in left_keys and match.right_key in right_keys
        )

    def best_per_left(self) -> "TupleMapping":
        """Keep only the highest-probability match of each left tuple."""
        best: dict[str, TupleMatch] = {}
        for match in self._matches:
            current = best.get(match.left_key)
            if current is None or match.probability > current.probability:
                best[match.left_key] = match
        return TupleMapping(best.values())

    def sorted_by_probability(self, *, descending: bool = True) -> list[TupleMatch]:
        return sorted(
            self._matches, key=lambda match: match.probability, reverse=descending
        )


def generate_candidates(
    left_tuples: Sequence,
    right_tuples: Sequence,
    attribute_matches: AttributeMatching,
    *,
    min_similarity: float = 0.0,
    use_blocking: bool = True,
    block_threshold: int = 10_000,
    left_features: TupleFeatureCache | None = None,
    right_features: TupleFeatureCache | None = None,
) -> list[CandidateMatch]:
    """Score candidate pairs of canonical tuples by combined similarity.

    ``left_tuples`` / ``right_tuples`` are objects exposing ``key`` and a
    ``values`` mapping (both :class:`~repro.relational.provenance.ProvenanceTuple`
    and :class:`~repro.core.canonical.CanonicalTuple` qualify).  Pairs scoring
    at or below ``min_similarity`` are dropped.

    Features (token sets, numeric columns) are cached once per tuple and all
    candidate pairs are scored in one vectorized batch; blocking engages when
    the cross product exceeds ``block_threshold`` pairs.  The blocker is exact
    (see :class:`~repro.matching.blocking.TokenBlocker`), so the result is
    identical to scoring every pair.

    ``left_features`` / ``right_features`` optionally inject prebuilt
    :class:`TupleFeatureCache` instances (e.g. reused across service requests);
    a cache that does not cover the tuples and matched attributes is rebuilt.
    """
    attribute_pairs = attribute_matches.attribute_pairs()
    left_values = [t.values for t in left_tuples]
    right_values = [t.values for t in right_tuples]
    left_attrs = [pair[0] for pair in attribute_pairs]
    right_attrs = [pair[1] for pair in attribute_pairs]
    if left_features is None or not left_features.covers(len(left_values), left_attrs):
        left_features = TupleFeatureCache(left_values, left_attrs)
    if right_features is None or not right_features.covers(len(right_values), right_attrs):
        right_features = TupleFeatureCache(right_values, right_attrs)
    left_keys = np.asarray([t.key for t in left_tuples], dtype=object)
    right_keys = np.asarray([t.key for t in right_tuples], dtype=object)

    candidates: list[CandidateMatch] = []
    scorer = BatchScorer(left_features, right_features, attribute_pairs)

    def score_pairs(ii: np.ndarray, jj: np.ndarray) -> None:
        similarities = scorer.score(ii, jj)
        keep = np.flatnonzero(similarities > min_similarity)
        if keep.size:
            candidates.extend(
                map(
                    CandidateMatch,
                    left_keys[ii[keep]].tolist(),
                    right_keys[jj[keep]].tolist(),
                    similarities[keep].tolist(),
                )
            )

    if use_blocking and len(left_tuples) * len(right_tuples) > block_threshold:
        blocker = TokenBlocker(attribute_pairs)
        ii, jj = blocker.candidate_pair_arrays(
            left_values,
            right_values,
            left_features=left_features,
            right_features=right_features,
        )
        score_pairs(ii, jj)
    elif len(left_tuples) and len(right_tuples):
        # Unblocked cross product: score in bounded row-major chunks so the
        # pair index arrays (and their sparse intermediates) never hold more
        # than ~1M pairs at once, keeping memory proportional to the output.
        num_right = len(right_tuples)
        rows_per_chunk = max(1, _UNBLOCKED_PAIR_CHUNK // num_right)
        for row_start in range(0, len(left_tuples), rows_per_chunk):
            rows = np.arange(
                row_start, min(row_start + rows_per_chunk, len(left_tuples)), dtype=np.intp
            )
            ii = np.repeat(rows, num_right)
            jj = np.tile(np.arange(num_right, dtype=np.intp), len(rows))
            score_pairs(ii, jj)
    return candidates


_UNBLOCKED_PAIR_CHUNK = 1 << 20
