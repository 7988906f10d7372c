"""Per-tuple feature caching and batched similarity scoring (the Stage 1 hot path).

Candidate generation used to call the tokenizer regex once per *compared pair*
and attribute, which makes Stage 1 O(pairs x attributes) regex invocations on
the paper's workloads.  :class:`TupleFeatureCache` tokenizes every attribute
value exactly once per canonical tuple -- O(tuples x attributes) -- and also
records which values are numeric.  :func:`batch_similarity` then scores an
arbitrary list of candidate pairs in one NumPy/SciPy shot: token-set
intersection sizes come from sparse token-incidence matrices, numeric
similarity from array arithmetic.

Both the batched path and the scalar :func:`pair_similarity` produce results
bit-identical to :func:`repro.matching.similarity.combined_similarity`, which
remains the reference implementation (and is still used by tests to
cross-check this kernel).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from repro.matching.similarity import normalized_euclidean_similarity, tokenize

_EMPTY: frozenset[str] = frozenset()


def is_numeric_value(value) -> bool:
    """True for int/float values, excluding bools (mirrors ``value_similarity``)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TupleFeatureCache:
    """Precomputed matching features for a sequence of tuple value mappings.

    For every tuple and every attribute the cache holds the frozen token set
    (:func:`tokenize` is called exactly once per value) plus, for numeric
    values, the float value and a numeric flag.  Attribute columns are
    addressed by position via :meth:`attribute_position`.
    """

    def __init__(self, values: Sequence[dict], attributes: Sequence[str]):
        self.attributes = tuple(dict.fromkeys(attributes))
        self.num_tuples = len(values)
        self._attr_index = {name: pos for pos, name in enumerate(self.attributes)}
        num_attrs = len(self.attributes)
        # tokens[a][t] is the frozen token set of attribute a of tuple t.
        self.tokens: list[list[frozenset[str]]] = [
            [_EMPTY] * self.num_tuples for _ in range(num_attrs)
        ]
        self.is_numeric = np.zeros((num_attrs, self.num_tuples), dtype=bool)
        self.numeric = np.zeros((num_attrs, self.num_tuples), dtype=np.float64)
        # Per-attribute token-id CSR pieces: a local vocabulary plus flat id
        # arrays, so batch scoring never re-walks the token sets.
        self._vocabularies: list[dict[str, int]] = [{} for _ in range(num_attrs)]
        token_ids: list[list[int]] = [[] for _ in range(num_attrs)]
        self._indptr = [np.zeros(self.num_tuples + 1, dtype=np.int64) for _ in range(num_attrs)]
        for t, record in enumerate(values):
            for a, name in enumerate(self.attributes):
                value = record.get(name)
                tokens = tokenize(value)
                self.tokens[a][t] = tokens
                vocabulary = self._vocabularies[a]
                ids = token_ids[a]
                for token in tokens:
                    ids.append(vocabulary.setdefault(token, len(vocabulary)))
                self._indptr[a][t + 1] = len(ids)
                if is_numeric_value(value):
                    self.is_numeric[a, t] = True
                    self.numeric[a, t] = float(value)
        self._token_ids = [np.asarray(ids, dtype=np.int64) for ids in token_ids]

    def token_column(self, position: int) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
        """(vocabulary, CSR indptr, flat token ids) of one attribute column."""
        return self._vocabularies[position], self._indptr[position], self._token_ids[position]

    @classmethod
    def from_tuples(cls, tuples: Sequence, attributes: Sequence[str]) -> "TupleFeatureCache":
        """Build a cache from objects exposing a ``values`` mapping."""
        return cls([t.values for t in tuples], attributes)

    def covers(self, num_tuples: int, attributes: Sequence[str]) -> bool:
        """Whether this cache can serve ``num_tuples`` tuples over ``attributes``.

        All lookups are by attribute name, so a cache built over a superset of
        the requested attributes is reusable as-is.  The service layer uses
        this to validate prebuilt caches before injecting them into candidate
        generation; the cache itself is picklable, so it can also be spilled
        to disk and reloaded across processes.
        """
        return self.num_tuples == num_tuples and all(
            name in self._attr_index for name in attributes
        )

    def attribute_position(self, name: str) -> int:
        return self._attr_index[name]

    def __len__(self) -> int:
        return self.num_tuples


def pair_similarity(
    left: TupleFeatureCache,
    right: TupleFeatureCache,
    i: int,
    j: int,
    attribute_pairs: Sequence[tuple[str, str]],
) -> float:
    """Scalar combined similarity of one pair, from cached features only."""
    if not attribute_pairs:
        return 0.0
    total = 0.0
    for left_attr, right_attr in attribute_pairs:
        a = left.attribute_position(left_attr)
        b = right.attribute_position(right_attr)
        if left.is_numeric[a, i] and right.is_numeric[b, j]:
            total += normalized_euclidean_similarity(left.numeric[a, i], right.numeric[b, j])
            continue
        left_tokens = left.tokens[a][i]
        right_tokens = right.tokens[b][j]
        if not left_tokens and not right_tokens:
            total += 1.0
            continue
        union = len(left_tokens | right_tokens)
        if union:
            total += len(left_tokens & right_tokens) / union
    return total / len(attribute_pairs)


class BatchScorer:
    """Batched pair scoring for one (left cache, right cache, attribute pairs).

    Construction builds, once per matched attribute, the shared-vocabulary
    sparse token-incidence matrices of both sides: the left column's local ids
    are used as-is, the right column's local ids are remapped into the left
    vocabulary (O(|vocabulary|), not O(token instances)).  :meth:`score` can
    then be called repeatedly -- e.g. per chunk of an unblocked cross product
    -- without re-walking any token sets.
    """

    def __init__(
        self,
        left: TupleFeatureCache,
        right: TupleFeatureCache,
        attribute_pairs: Sequence[tuple[str, str]],
    ):
        self.left = left
        self.right = right
        self.attribute_pairs = list(attribute_pairs)
        self._columns: list[tuple] = []
        for left_attr, right_attr in self.attribute_pairs:
            a = left.attribute_position(left_attr)
            b = right.attribute_position(right_attr)
            left_vocabulary, left_indptr, left_ids = left.token_column(a)
            right_vocabulary, right_indptr, right_local_ids = right.token_column(b)
            merged = dict(left_vocabulary)
            remap = np.empty(len(right_vocabulary), dtype=np.int64)
            for token, local_id in right_vocabulary.items():
                remap[local_id] = merged.setdefault(token, len(merged))
            right_ids = remap[right_local_ids] if right_local_ids.size else right_local_ids
            width = max(len(merged), 1)
            left_matrix = sparse.csr_matrix(
                (np.ones(len(left_ids), dtype=np.int64), left_ids, left_indptr),
                shape=(left.num_tuples, width),
            )
            right_matrix = sparse.csr_matrix(
                (np.ones(len(right_ids), dtype=np.int64), right_ids, right_indptr),
                shape=(right.num_tuples, width),
            )
            self._columns.append(
                (a, b, left_matrix, right_matrix, np.diff(left_indptr), np.diff(right_indptr))
            )

    def score(self, left_indices, right_indices) -> np.ndarray:
        """Combined similarity of all ``(left_indices[k], right_indices[k])`` pairs.

        One sparse-matrix pass per matched attribute; the result is
        bit-identical to calling
        :func:`repro.matching.similarity.combined_similarity` per pair (the
        accumulation order over attributes is the same).
        """
        ii = np.asarray(left_indices, dtype=np.intp)
        jj = np.asarray(right_indices, dtype=np.intp)
        if ii.size == 0 or not self.attribute_pairs:
            return np.zeros(ii.shape[0], dtype=np.float64)
        total = np.zeros(ii.shape[0], dtype=np.float64)
        for a, b, left_matrix, right_matrix, left_sizes, right_sizes in self._columns:
            intersection = np.asarray(
                left_matrix[ii].multiply(right_matrix[jj]).sum(axis=1), dtype=np.float64
            ).ravel()
            union = (left_sizes[ii] + right_sizes[jj]).astype(np.float64) - intersection
            # Both token sets empty -> Jaccard is defined as 1.0 (see token_jaccard).
            similarities = np.where(
                union > 0.0, intersection / np.where(union > 0.0, union, 1.0), 1.0
            )
            both_numeric = self.left.is_numeric[a][ii] & self.right.is_numeric[b][jj]
            if both_numeric.any():
                numeric_at = np.flatnonzero(both_numeric)
                left_values = self.left.numeric[a][ii[numeric_at]]
                right_values = self.right.numeric[b][jj[numeric_at]]
                # Overflow goes quietly to inf (similarity 0) as with Python
                # floats; non-finite pairs get the scalar path's 1.0 or 0.0.
                with np.errstate(over="ignore", invalid="ignore"):
                    difference = left_values - right_values
                    euclidean = 1.0 / (1.0 + difference * difference)
                finite = np.isfinite(left_values) & np.isfinite(right_values)
                same = (left_values == right_values) | (np.isnan(left_values) & np.isnan(right_values))
                similarities[numeric_at] = np.where(finite, euclidean, same)
            total += similarities
        return total / len(self.attribute_pairs)


def batch_similarity(
    left: TupleFeatureCache,
    right: TupleFeatureCache,
    attribute_pairs: Sequence[tuple[str, str]],
    left_indices,
    right_indices,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`BatchScorer`."""
    return BatchScorer(left, right, attribute_pairs).score(left_indices, right_indices)
