"""Tuple matches and the initial tuple mapping (Definition 2.4).

A tuple match ``(t_i, t_j, p)`` associates a tuple of one canonical relation
with a tuple of the other, with probability ``p`` that they refer to the same
(or containment-associated) entity.  The *initial* mapping is produced by a
record-linkage step (similarity scoring + calibration); Explain3D's Stage 2
refines it into the *evidence mapping* ``M*_tuple``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.matching.attribute_match import AttributeMatching
from repro.matching.blocking import TokenBlocker
from repro.matching.features import BatchScorer, TupleFeatureCache


#: Probabilities stay this far from 0 and 1 so log-likelihoods stay finite.
MIN_PROBABILITY = 1e-3
MAX_PROBABILITY = 1.0 - 1e-3


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


#: A mapping's columns, and the :class:`TupleMatch` field each one holds.
_COLUMNS = ("left_keys", "right_keys", "probabilities", "similarities")
_FIELDS = ("left_key", "right_key", "probability", "similarity")


class TupleMapping:
    """An insertion-ordered set of tuple matches, one per (left, right) pair.

    Used both for the initial mapping ``M_tuple`` and the refined evidence
    mapping ``M*_tuple``.  Stored as four aligned columns: ``left_keys`` and
    ``right_keys`` (object arrays), ``probabilities`` and ``similarities``
    (float arrays).  Candidate scoring, partitioning, the MILP build and its
    decode read the columns; iterating builds one :class:`TupleMatch` per row.
    """

    def __init__(self, matches: Iterable[TupleMatch] = ()):
        first: dict[tuple[str, str], TupleMatch] = {}
        for match in matches:
            first.setdefault(match.pair, match)
        self._assign(*([getattr(m, name) for m in first.values()] for name in _FIELDS))

    @classmethod
    def from_columns(cls, left_keys, right_keys, probabilities, similarities) -> "TupleMapping":
        """A mapping over aligned columns; the caller guarantees that no pair repeats."""
        mapping = cls.__new__(cls)
        mapping._assign(left_keys, right_keys, probabilities, similarities)
        return mapping

    @classmethod
    def concat(cls, mappings: Iterable["TupleMapping"]) -> "TupleMapping":
        """The matches of ``mappings`` in order; no pair may occur in two of them."""
        mappings = [cls(), *mappings]  # an empty head keeps zero mappings valid
        return cls.from_columns(
            *(np.concatenate([getattr(m, name) for m in mappings]) for name in _COLUMNS)
        )

    def _assign(self, left_keys, right_keys, probabilities, similarities) -> None:
        self.left_keys = np.asarray(left_keys, dtype=object)
        self.right_keys = np.asarray(right_keys, dtype=object)
        self.probabilities = np.asarray(probabilities, dtype=float)
        self.similarities = np.asarray(similarities, dtype=float)
        self._rows: dict[tuple[str, str], int] | None = None  # built on the first lookup
        self._pairs_view: frozenset[tuple[str, str]] | None = None

    def _row_of(self) -> dict[tuple[str, str], int]:
        if self._rows is None:
            pairs = zip(self.left_keys.tolist(), self.right_keys.tolist())
            self._rows = {pair: row for row, pair in enumerate(pairs)}
        return self._rows

    # -- container protocol -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.probabilities)

    def __iter__(self) -> Iterator[TupleMatch]:
        return map(TupleMatch, *(getattr(self, name).tolist() for name in _COLUMNS))

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return tuple(pair) in self._row_of()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TupleMapping({len(self)} matches)"

    # -- mutation -----------------------------------------------------------------
    def add(self, match: TupleMatch) -> None:
        """Append ``match`` unless its pair is already mapped (the first one stays).

        Each call copies the columns: build a large mapping with
        ``TupleMapping(matches)`` instead.
        """
        rows = self._row_of()
        if match.pair in rows:
            return
        rows[match.pair] = len(rows)
        for name, field in zip(_COLUMNS, _FIELDS):
            setattr(self, name, np.append(getattr(self, name), getattr(match, field)))
        self._pairs_view = None

    # -- accessors ----------------------------------------------------------------
    @property
    def matches(self) -> tuple[TupleMatch, ...]:
        return tuple(self)

    def pairs(self) -> frozenset[tuple[str, str]]:
        """A frozen view of all (left, right) pairs, cached between mutations."""
        if self._pairs_view is None:
            self._pairs_view = frozenset(self._row_of())
        return self._pairs_view

    def probability(self, left_key: str, right_key: str) -> float | None:
        row = self._row_of().get((left_key, right_key))
        return None if row is None else float(self.probabilities[row])

    def take(self, rows) -> "TupleMapping":
        """The matches at ``rows`` (distinct positions or a boolean mask), in that order."""
        return TupleMapping.from_columns(*(getattr(self, name)[rows] for name in _COLUMNS))

    def positions(self, left_at: dict, right_at: dict) -> tuple[np.ndarray, np.ndarray]:
        """Each match's keys looked up in ``left_at`` / ``right_at``; -1 where absent."""
        return tuple(
            np.fromiter(map(index.get, keys.tolist(), repeat(-1)), dtype=np.intp, count=len(keys))
            for index, keys in ((left_at, self.left_keys), (right_at, self.right_keys))
        )

    def above(self, threshold: float) -> "TupleMapping":
        """Matches with probability >= threshold (the THRESHOLD baseline)."""
        return self.take(self.probabilities >= threshold)

    def sorted_by_probability(self, *, descending: bool = True) -> list[TupleMatch]:
        return sorted(self, key=lambda match: match.probability, reverse=descending)


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
) -> TupleMapping:
    """Score candidate pairs of canonical tuples by combined similarity.

    ``left_tuples`` / ``right_tuples`` are objects exposing ``key`` and a
    ``values`` mapping (both :class:`~repro.relational.provenance.ProvenanceTuple`
    and :class:`~repro.core.canonical.CanonicalTuple` qualify).  Pairs scoring
    at or below ``min_similarity`` are dropped.  The survivors come back as a
    :class:`TupleMapping` in row-major order, each with its similarity clamped
    into ``[MIN_PROBABILITY, MAX_PROBABILITY]`` as its probability -- the
    uncalibrated reading, which
    :func:`~repro.matching.calibration.calibrate_matches` replaces.  Keys
    must be unique within each side (canonical keys are).

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

    chunks: list[TupleMapping] = []
    scorer = BatchScorer(left_features, right_features, attribute_pairs)

    def score_pairs(ii: np.ndarray, jj: np.ndarray) -> None:
        similarities = scorer.score(ii, jj)
        keep = similarities > min_similarity
        kept = similarities[keep]
        chunks.append(
            TupleMapping.from_columns(
                left_keys[ii[keep]],
                right_keys[jj[keep]],
                np.clip(kept, MIN_PROBABILITY, MAX_PROBABILITY),
                kept,
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
    return TupleMapping.concat(chunks)


_UNBLOCKED_PAIR_CHUNK = 1 << 20
