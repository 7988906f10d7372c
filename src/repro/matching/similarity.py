"""Similarity measures used to build the initial tuple mapping.

Section 5.1.2 of the paper uses token-wise Jaccard similarity for string
attributes, normalized Euclidean distance for numeric attributes, and the mean
over matched attributes as the combined tuple similarity.

The functions here are the *scalar reference* implementations: they tokenize
their arguments on every call.  The candidate-generation hot path instead
caches token sets and numeric columns once per tuple and scores whole blocks
of pairs in one vectorized shot -- see :mod:`repro.matching.features`, whose
results are bit-identical to these functions.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def tokenize(value) -> frozenset[str]:
    """Lower-cased alphanumeric tokens of a value (empty set for NULL)."""
    if value is None:
        return frozenset()
    return frozenset(_TOKEN_PATTERN.findall(str(value).lower()))


def token_jaccard(left, right) -> float:
    """Token-wise Jaccard similarity: |tokens(a) ∩ tokens(b)| / |tokens(a) ∪ tokens(b)|."""
    left_tokens = tokenize(left)
    right_tokens = tokenize(right)
    if not left_tokens and not right_tokens:
        return 1.0
    union = left_tokens | right_tokens
    if not union:
        return 0.0
    return len(left_tokens & right_tokens) / len(union)


def normalized_euclidean_similarity(left, right) -> float:
    """``1 / (1 + |a - b|^2)`` similarity for numeric attributes.

    Non-finite values follow the run aligner's equality: NaN agrees with NaN
    and an infinity only with itself (1.0); any other pair involving a
    non-finite value scores 0.0.
    """
    if left is None or right is None:
        return 0.0
    try:
        left, right = float(left), float(right)
    except (TypeError, ValueError):
        return 0.0
    if not (math.isfinite(left) and math.isfinite(right)):
        return 1.0 if left == right or (left != left and right != right) else 0.0
    difference = left - right
    return 1.0 / (1.0 + difference * difference)


def value_similarity(left, right) -> float:
    """Dispatch on value type: numeric pairs use Euclidean, otherwise Jaccard."""
    left_numeric = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_numeric = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_numeric and right_numeric:
        return normalized_euclidean_similarity(left, right)
    return token_jaccard(left, right)


def combined_similarity(
    left_values: dict,
    right_values: dict,
    attribute_pairs: Sequence[tuple[str, str]],
) -> float:
    """Mean similarity across the matched attribute pairs (Section 5.1.2)."""
    if not attribute_pairs:
        return 0.0
    total = 0.0
    for left_attr, right_attr in attribute_pairs:
        total += value_similarity(left_values.get(left_attr), right_values.get(right_attr))
    return total / len(attribute_pairs)


def token_containment(left, right) -> float:
    """Fraction of ``left``'s tokens contained in ``right`` (used by the schema matcher)."""
    left_tokens = tokenize(left)
    if not left_tokens:
        return 0.0
    right_tokens = tokenize(right)
    return len(left_tokens & right_tokens) / len(left_tokens)


def jaro_similarity(left: str, right: str) -> float:
    """Jaro string similarity.

    The paper mentions evaluating RSWOOSH with Jaro similarity (footnote 13);
    it is provided for completeness and used in baseline ablations.
    """
    s1 = str(left or "")
    s2 = str(right or "")
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    match_window = max(len1, len2) // 2 - 1
    match_window = max(match_window, 0)
    s1_matches = [False] * len1
    s2_matches = [False] * len2
    matches = 0
    for i, ch in enumerate(s1):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len2)
        for j in range(start, end):
            if s2_matches[j] or s2[j] != ch:
                continue
            s1_matches[i] = True
            s2_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(len1):
        if not s1_matches[i]:
            continue
        while not s2_matches[k]:
            k += 1
        if s1[i] != s2[k]:
            transpositions += 1
        k += 1
    transpositions //= 2
    return (
        matches / len1 + matches / len2 + (matches - transpositions) / matches
    ) / 3.0


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean with an explicit zero for empty input."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)
