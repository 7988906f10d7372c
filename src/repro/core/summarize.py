"""Stage 3: summarization of explanations (Section 3.3).

When the discrepancies between two datasets are extensive, the explanation set
can involve hundreds of tuples.  Stage 3 compresses it into conjunctive
patterns over the provenance attributes ("Degree = 'Associate degree'"),
following the Data-Auditor / Data-X-Ray style of pattern tableaux: find a
small set of patterns that cover the explained ("target") tuples with high
precision.

The summarizer is a greedy weighted set cover:

1. enumerate candidate patterns (single attribute-value conditions and pairs
   of conditions) over the provenance tuples behind the explained canonical
   tuples;
2. repeatedly pick the pattern with the best score (covered targets minus
   covered non-targets), until every target is covered or no pattern clears
   the precision threshold;
3. targets left uncovered are reported individually, so the summary never
   loses information.

Candidates are evaluated over posting bitsets: each ``(attribute, value)``
maps to a Python-int bitmask over the target records and one over the other
records, so a pair's cover is an AND and a cover's size a popcount.  The
record scan it replaces stays as the oracle twin
(:meth:`PatternSummarizer.summarize_reference`); both give identical patterns
and residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from repro.core.canonical import CanonicalRelation
from repro.core.explanations import ExplanationSet
from repro.graphs.bipartite import Side


@dataclass(frozen=True)
class SummaryPattern:
    """A conjunctive pattern summarizing part of the explanations."""

    side: Side
    conditions: tuple[tuple[str, object], ...]
    covered_targets: int
    covered_others: int

    @property
    def precision(self) -> float:
        total = self.covered_targets + self.covered_others
        return self.covered_targets / total if total else 0.0

    def matches(self, record: dict) -> bool:
        return all(record.get(attribute) == value for attribute, value in self.conditions)

    def describe(self) -> str:
        clauses = " AND ".join(f"{attribute} = {value!r}" for attribute, value in self.conditions)
        return (
            f"[{self.side.value}] {clauses}  "
            f"(covers {self.covered_targets} explained tuples, precision {self.precision:.2f})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SummaryPattern({self.describe()})"


@dataclass
class ExplanationSummary:
    """The summarized explanations ``E_S``: patterns plus residual singletons."""

    patterns: list[SummaryPattern] = field(default_factory=list)
    residual_keys: list[tuple[str, str]] = field(default_factory=list)

    @property
    def size(self) -> int:
        """``|E_S|``: number of patterns plus uncovered explanations."""
        return len(self.patterns) + len(self.residual_keys)

    def describe(self) -> str:
        lines = [pattern.describe() for pattern in self.patterns]
        if self.residual_keys:
            lines.append(
                f"+ {len(self.residual_keys)} individual explanations not covered by any pattern"
            )
        return "\n".join(lines) if lines else "(no explanations to summarize)"


class PatternSummarizer:
    """Greedy pattern-cover summarizer over explanation tuples.

    A pattern has one or two conditions; its score is the number of targets
    it covers minus the number of other records it covers.
    """

    def __init__(self, *, min_precision: float = 0.75, max_patterns: int = 50):
        self.min_precision = min_precision
        self.max_patterns = max_patterns

    # -- candidate generation -----------------------------------------------------------
    @staticmethod
    def _records_for(
        relation: CanonicalRelation, keys: Iterable[str]
    ) -> list[tuple[str, dict]]:
        """(canonical key, full provenance record) pairs for the given canonical keys.

        When a canonical tuple groups several provenance tuples, each member
        contributes its full record; when no provenance is attached, the
        canonical values themselves are used.
        """
        # One provenance index per call: ``provenance_members`` rebuilds it per key.
        by_key = relation.provenance.by_key() if relation.provenance is not None else {}
        records: list[tuple[str, dict]] = []
        for key in keys:
            canonical_tuple = relation.get(key)
            if canonical_tuple is None:
                continue
            members = [by_key[member] for member in canonical_tuple.members if member in by_key]
            if members:
                for member in members:
                    records.append((key, dict(member.values)))
            else:
                records.append((key, dict(canonical_tuple.values)))
        return records

    @staticmethod
    def _candidate_patterns(
        target_records: Sequence[dict], attributes: Sequence[str]
    ) -> list[tuple[tuple[str, object], ...]]:
        singles: set[tuple[str, object]] = set()
        for record in target_records:
            for attribute in attributes:
                value = record.get(attribute)
                if value is not None and _is_hashable(value):
                    singles.add((attribute, value))
        # A fixed order, not set order: the greedy keeps the first of tied
        # candidates, so set order would make summaries follow string hashing.
        ordered = sorted(singles, key=repr)
        candidates: list[tuple[tuple[str, object], ...]] = [(single,) for single in ordered]
        for first, second in combinations(ordered, 2):
            if first[0] != second[0]:
                candidates.append((first, second))
        return candidates

    # -- summarization per side ------------------------------------------------------------
    def _side_records(
        self, relation: CanonicalRelation, target_keys: set[str]
    ) -> tuple[list[tuple[str, dict]], list[tuple[str, dict]]]:
        """The (key, record) pairs of the explained and of the other canonical tuples."""
        target_records = self._records_for(relation, sorted(target_keys))
        other_records = self._records_for(relation, sorted(set(relation.keys()) - target_keys))
        return target_records, other_records

    def _summarize_side(
        self,
        relation: CanonicalRelation,
        target_keys: set[str],
        side: Side,
    ) -> tuple[list[SummaryPattern], list[tuple[str, str]]]:
        if not target_keys:
            return [], []
        target_records, other_records = self._side_records(relation, target_keys)
        if not target_records:
            return [], [(side.value, key) for key in sorted(target_keys)]

        covers = _postings(record for _, record in target_records)
        other_covers = _postings(record for _, record in other_records)
        # A pattern covering < 2 targets is no better than listing them, and
        # covers only shrink, so such a single -- and every pair holding one
        # -- can never be chosen.  The survivors keep the scan's order
        # (singles by repr, then pairs in combinations order), so ties break
        # the same way.  Counts among the other records never change.
        singles = [single for single in sorted(covers, key=repr) if covers[single].bit_count() >= 2]
        candidates = [
            ((single,), covers[single], other_covers.get(single, 0).bit_count())
            for single in singles
        ]
        for first, second in combinations(singles, 2):
            if first[0] == second[0]:
                continue
            cover = covers[first] & covers[second]
            if cover.bit_count() >= 2:
                others = other_covers.get(first, 0) & other_covers.get(second, 0)
                candidates.append(((first, second), cover, others.bit_count()))

        uncovered = (1 << len(target_records)) - 1
        patterns: list[SummaryPattern] = []
        while uncovered and len(patterns) < self.max_patterns:
            best = None
            best_score = 0
            for conditions, cover, others in candidates:
                covered = (cover & uncovered).bit_count()
                if covered < 2 or covered / (covered + others) < self.min_precision:
                    continue
                if covered - others > best_score:
                    best_score = covered - others
                    best = (conditions, cover, covered, others)
            if best is None:
                break
            conditions, cover, covered, others = best
            patterns.append(SummaryPattern(side, conditions, covered, others))
            uncovered &= ~cover

        residual_keys = sorted(
            {key for index, (key, _) in enumerate(target_records) if uncovered >> index & 1}
        )
        return patterns, [(side.value, key) for key in residual_keys]

    def _summarize_side_reference(
        self,
        relation: CanonicalRelation,
        target_keys: set[str],
        side: Side,
    ) -> tuple[list[SummaryPattern], list[tuple[str, str]]]:
        """:meth:`_summarize_side` by rescanning every record for every candidate."""
        if not target_keys:
            return [], []
        target_records, other_records = self._side_records(relation, target_keys)
        if not target_records:
            return [], [(side.value, key) for key in sorted(target_keys)]

        attributes = sorted({name for _, record in target_records for name in record})
        candidates = self._candidate_patterns([r for _, r in target_records], attributes)

        uncovered: dict[int, tuple[str, dict]] = dict(enumerate(target_records))
        patterns: list[SummaryPattern] = []

        while uncovered and len(patterns) < self.max_patterns:
            best_pattern: tuple[tuple[str, object], ...] | None = None
            best_score = 0.0
            best_cover: list[int] = []
            best_others = 0
            for conditions in candidates:
                cover = [
                    index
                    for index, (_, record) in uncovered.items()
                    if all(record.get(a) == v for a, v in conditions)
                ]
                if len(cover) < 2:
                    continue  # a pattern covering < 2 targets is no better than listing them
                others = sum(
                    1
                    for _, record in other_records
                    if all(record.get(a) == v for a, v in conditions)
                )
                precision = len(cover) / (len(cover) + others)
                if precision < self.min_precision:
                    continue
                score = len(cover) - others
                if score > best_score:
                    best_score = score
                    best_pattern = conditions
                    best_cover = cover
                    best_others = others
            if best_pattern is None:
                break
            patterns.append(
                SummaryPattern(side, best_pattern, len(best_cover), best_others)
            )
            for index in best_cover:
                uncovered.pop(index, None)

        residual_keys = sorted({key for key, _ in uncovered.values()})
        return patterns, [(side.value, key) for key in residual_keys]

    # -- public API ----------------------------------------------------------------------
    def summarize(
        self,
        explanations: ExplanationSet,
        canonical_left: CanonicalRelation,
        canonical_right: CanonicalRelation,
    ) -> ExplanationSummary:
        """Summarize an explanation set over both canonical relations."""
        return self._summarize(self._summarize_side, explanations, canonical_left, canonical_right)

    def summarize_reference(
        self,
        explanations: ExplanationSet,
        canonical_left: CanonicalRelation,
        canonical_right: CanonicalRelation,
    ) -> ExplanationSummary:
        """:meth:`summarize` by the record scan: the oracle twin for tests and benchmarks."""
        return self._summarize(
            self._summarize_side_reference, explanations, canonical_left, canonical_right
        )

    @staticmethod
    def _summarize(summarize_side, explanations, canonical_left, canonical_right):
        summary = ExplanationSummary()
        for side, relation in ((Side.LEFT, canonical_left), (Side.RIGHT, canonical_right)):
            targets = explanations.explained_keys(side)
            patterns, residuals = summarize_side(relation, targets, side)
            summary.patterns.extend(patterns)
            summary.residual_keys.extend(residuals)
        return summary


def _postings(records: Iterable[dict]) -> dict[tuple[str, object], int]:
    """``(attribute, value)`` -> bitmask of the records holding that value.

    Skips what the scan's ``record.get(attribute) == value`` never matches as
    a pattern value: ``None``, unhashable values, and values unequal to
    themselves (NaN).  A dict lookup would match one shared NaN object by
    identity -- ``json.loads`` returns one -- where ``==`` never does.  Of
    equal keys (``1`` and ``1.0``) the first seen is kept, as a ``set`` does.
    """
    postings: dict[tuple[str, object], int] = {}
    for index, record in enumerate(records):
        bit = 1 << index
        for attribute, value in record.items():
            if value is None or not _is_hashable(value) or value != value:
                continue
            postings[attribute, value] = postings.get((attribute, value), 0) | bit
    return postings


def _is_hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True
