"""Explanations and their evidence (Definition 2.5).

The output of Explain3D is ``E = (Delta, delta | M*_tuple)``:

* ``Delta`` -- provenance-based explanations: canonical tuples on either side
  that have no counterpart on the other side;
* ``delta`` -- value-based explanations: impact corrections ``I -> I*``;
* ``M*_tuple`` -- the evidence mapping, a valid refinement of the initial
  tuple mapping that supports the explanations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.graphs.bipartite import Side
from repro.matching.tuple_matching import TupleMapping


@dataclass(frozen=True)
class ProvenanceExplanation:
    """A mismatched tuple: ``key`` (canonical tuple) on ``side`` has no counterpart."""

    side: Side
    key: str

    @property
    def identity(self) -> tuple[str, str]:
        return (self.side.value, self.key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProvenanceExplanation({self.side.value}:{self.key})"


@dataclass(frozen=True)
class ValueExplanation:
    """An impact correction ``I -> I*`` for a kept tuple."""

    side: Side
    key: str
    old_impact: float
    new_impact: float

    @property
    def identity(self) -> tuple[str, str]:
        return (self.side.value, self.key)

    @property
    def delta(self) -> float:
        return self.new_impact - self.old_impact

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ValueExplanation({self.side.value}:{self.key}, "
            f"{self.old_impact:g} -> {self.new_impact:g})"
        )


@dataclass
class ExplanationSet:
    """The full output ``E = (Delta, delta | M*_tuple)`` plus its objective value."""

    provenance: list[ProvenanceExplanation] = field(default_factory=list)
    value: list[ValueExplanation] = field(default_factory=list)
    evidence: TupleMapping = field(default_factory=TupleMapping)
    objective: float = 0.0

    # -- set views used by the evaluation metrics ----------------------------------
    def provenance_identities(self) -> set[tuple[str, str]]:
        return {explanation.identity for explanation in self.provenance}

    def value_identities(self) -> set[tuple[str, str]]:
        return {explanation.identity for explanation in self.value}

    def explanation_identities(self) -> set[tuple[str, str, str]]:
        """All explanations as ``(kind, side, key)`` triples."""
        identities = {("provenance",) + explanation.identity for explanation in self.provenance}
        identities |= {("value",) + explanation.identity for explanation in self.value}
        return identities

    def evidence_pairs(self) -> frozenset[tuple[str, str]]:
        """A frozen view of the selected (left, right) pairs -- do not mutate."""
        return self.evidence.pairs()

    def explained_keys(self, side: Side) -> set[str]:
        """Canonical tuple keys on ``side`` touched by any explanation."""
        keys = {e.key for e in self.provenance if e.side is side}
        keys |= {e.key for e in self.value if e.side is side}
        return keys

    # -- bookkeeping ----------------------------------------------------------------
    @property
    def size(self) -> int:
        """``|E|``: the number of individual explanations."""
        return len(self.provenance) + len(self.value)

    @staticmethod
    def merge_all(parts: Iterable["ExplanationSet"]) -> "ExplanationSet":
        """Combine explanation sets from independently solved sub-problems.

        Sub-problems are disjoint, so no evidence pair occurs in two parts.
        Lists and evidence columns are concatenated in part order, and the
        objectives are summed left to right from 0.0.
        """
        parts = list(parts)
        objective = 0.0
        for part in parts:
            objective += part.objective
        return ExplanationSet(
            provenance=[e for part in parts for e in part.provenance],
            value=[e for part in parts for e in part.value],
            evidence=TupleMapping.concat(part.evidence for part in parts),
            objective=objective,
        )

    def describe(self, *, max_items: int = 10) -> str:
        """Human-readable multi-line description used by the examples."""
        lines = [
            f"{len(self.provenance)} provenance-based and {len(self.value)} value-based "
            f"explanations, {len(self.evidence)} evidence matches "
            f"(objective {self.objective:.3f})"
        ]
        for explanation in self.provenance[:max_items]:
            lines.append(f"  - missing counterpart: {explanation.side.value}:{explanation.key}")
        if len(self.provenance) > max_items:
            lines.append(f"  ... {len(self.provenance) - max_items} more provenance explanations")
        for explanation in self.value[:max_items]:
            lines.append(
                f"  - wrong impact: {explanation.side.value}:{explanation.key} "
                f"{explanation.old_impact:g} -> {explanation.new_impact:g}"
            )
        if len(self.value) > max_items:
            lines.append(f"  ... {len(self.value) - max_items} more value explanations")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExplanationSet({len(self.provenance)} provenance, {len(self.value)} value, "
            f"{len(self.evidence)} evidence)"
        )
