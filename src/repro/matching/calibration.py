"""Similarity-to-probability calibration (Section 5.1.2).

The paper converts raw similarity scores into match probabilities in two steps:

1. divide the candidate matches into ``k`` contiguous buckets over similarity
   (the paper uses 50);
2. within each bucket, the probability of every match is the fraction of true
   matches in that bucket, estimated from a labeled sample (or gold standard).

Empty buckets inherit an interpolated probability from their neighbours so the
calibrator is total over [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.matching.tuple_matching import MAX_PROBABILITY, MIN_PROBABILITY, TupleMapping


def _clamp(probability: float) -> float:
    """Keep probabilities away from 0/1 so log-likelihoods stay finite."""
    return min(max(probability, MIN_PROBABILITY), MAX_PROBABILITY)


@dataclass
class SimilarityCalibrator:
    """Bucket-based similarity-to-probability calibration."""

    num_buckets: int = 50
    _bucket_probabilities: list[float] = field(default_factory=list, repr=False)

    def _bucket_of(self, similarity: float) -> int:
        similarity = min(max(similarity, 0.0), 1.0)
        index = int(similarity * self.num_buckets)
        return min(index, self.num_buckets - 1)

    def fit(self, similarities: Sequence[float], labels: Sequence[bool]) -> "SimilarityCalibrator":
        """Estimate per-bucket probabilities from labeled similarities."""
        if len(similarities) != len(labels):
            raise ValueError("similarities and labels must have the same length")
        positives = [0] * self.num_buckets
        totals = [0] * self.num_buckets
        for similarity, label in zip(similarities, labels):
            bucket = self._bucket_of(similarity)
            totals[bucket] += 1
            if label:
                positives[bucket] += 1

        raw: list[float | None] = []
        for bucket in range(self.num_buckets):
            if totals[bucket] == 0:
                raw.append(None)
            else:
                raw.append(positives[bucket] / totals[bucket])

        self._bucket_probabilities = self._interpolate(raw)
        return self

    @staticmethod
    def _interpolate(raw: list[float | None]) -> list[float]:
        """Fill empty buckets by linear interpolation between known neighbours."""
        n = len(raw)
        known = [i for i, value in enumerate(raw) if value is not None]
        if not known:
            # No labels at all: fall back to the identity mapping
            # (probability = bucket midpoint), which keeps the pipeline usable.
            return [(i + 0.5) / n for i in range(n)]
        filled = list(raw)
        first, last = known[0], known[-1]
        for i in range(first):
            filled[i] = raw[first]
        for i in range(last + 1, n):
            filled[i] = raw[last]
        for left, right in zip(known, known[1:]):
            span = right - left
            for i in range(left + 1, right):
                weight = (i - left) / span
                filled[i] = raw[left] * (1 - weight) + raw[right] * weight
        return [float(value) for value in filled]

    def probability(self, similarity: float) -> float:
        """Calibrated match probability for a similarity score."""
        if not self._bucket_probabilities:
            raise RuntimeError("calibrator must be fit before use")
        return _clamp(self._bucket_probabilities[self._bucket_of(similarity)])

    @property
    def is_fit(self) -> bool:
        return bool(self._bucket_probabilities)


def calibrate_matches(
    candidates: TupleMapping,
    true_pairs: set[tuple[str, str]],
    *,
    num_buckets: int = 50,
    sample_fraction: float = 1.0,
    min_probability: float = 0.0,
) -> TupleMapping:
    """Give scored candidates calibrated probabilities.

    ``candidates`` are scored matches (see
    :func:`~repro.matching.tuple_matching.generate_candidates`); only their
    keys and similarity column are read.  ``true_pairs`` plays the role of the
    labeled sample: the calibrator learns bucket probabilities from (a
    deterministic subsample of) the candidates labeled against it, then
    assigns every candidate its bucket probability.  Candidates whose
    calibrated probability is below ``min_probability`` are dropped from the
    initial mapping.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    stride = max(int(round(1.0 / sample_fraction)), 1)
    similarities = candidates.similarities.tolist()
    sample_pairs = zip(
        candidates.left_keys[::stride].tolist(), candidates.right_keys[::stride].tolist()
    )

    calibrator = SimilarityCalibrator(num_buckets)
    calibrator.fit(similarities[::stride], [pair in true_pairs for pair in sample_pairs])

    probabilities = np.array([calibrator.probability(s) for s in similarities], dtype=float)
    keep = probabilities >= min_probability
    return TupleMapping.from_columns(
        candidates.left_keys[keep],
        candidates.right_keys[keep],
        probabilities[keep],
        candidates.similarities[keep],
    )
