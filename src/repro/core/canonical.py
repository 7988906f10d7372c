"""Stage 1: canonicalization (Definition 3.1).

Canonicalization groups provenance tuples that share the same values on the
matched attributes and sums their impacts:

``T = pi_{A, I}(A G SUM(I) (P))``

Queries with AVG/MAX/MIN aggregation require a strict one-to-one mapping, so
their provenance relations are left un-grouped (each provenance tuple becomes
its own canonical tuple).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.graphs.bipartite import Side
from repro.matching.attribute_match import AttributeMatching
from repro.relational.provenance import ProvenanceRelation, ProvenanceTuple
from repro.relational.query import AggregateFunction


class UnknownAttributeError(ValueError):
    """An attribute match names an attribute of no provenance tuple.

    The caller's mistake, not a server fault: the service answers it with a
    400 whose ``path`` points at the offending ``attribute_matches`` entry
    (see :func:`repro.core.problem.build_problem`).
    """

    def __init__(self, message: str, side: Side, missing: Sequence[str], path: str = ""):
        super().__init__(message)
        self.side = side
        self.missing = tuple(missing)
        self.path = path


@dataclass(frozen=True)
class CanonicalTuple:
    """A canonical tuple: group-by values on the matched attributes plus total impact.

    ``members`` lists the keys of the provenance tuples collapsed into this
    canonical tuple; Stage 3 uses them to recover full attribute values for
    summarization.
    """

    key: str
    side: Side
    values: dict
    impact: float
    members: tuple[str, ...] = ()

    def value(self, attribute: str):
        return self.values.get(attribute)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CanonicalTuple({self.key}, I={self.impact:g}, {self.values})"


class CanonicalRelation:
    """The canonical relation ``T`` of a query (Definition 3.1)."""

    def __init__(
        self,
        side: Side,
        attributes: Sequence[str],
        tuples: Sequence[CanonicalTuple],
        *,
        label: str = "T",
        provenance: ProvenanceRelation | None = None,
    ):
        self.side = side
        self.attributes = tuple(attributes)
        self.tuples = list(tuples)
        self.label = label
        self.provenance = provenance
        self._by_key = {t.key: t for t in self.tuples}

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[CanonicalTuple]:
        return iter(self.tuples)

    def __getitem__(self, key: str) -> CanonicalTuple:
        return self._by_key[key]

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def keys(self) -> list[str]:
        return [t.key for t in self.tuples]

    def get(self, key: str) -> CanonicalTuple | None:
        return self._by_key.get(key)

    def total_impact(self) -> float:
        return sum(t.impact for t in self.tuples)

    def impacts(self) -> dict[str, float]:
        return {t.key: t.impact for t in self.tuples}

    def provenance_members(self, key: str) -> list[ProvenanceTuple]:
        """The provenance tuples collapsed into canonical tuple ``key``."""
        if self.provenance is None:
            return []
        by_key = self.provenance.by_key()
        return [by_key[member] for member in self._by_key[key].members if member in by_key]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CanonicalRelation({self.label}, {self.side.value}, {len(self.tuples)} tuples, "
            f"total impact {self.total_impact():g})"
        )


def _matching_attributes(attribute_matches: AttributeMatching, side: Side) -> tuple[str, ...]:
    if side is Side.LEFT:
        return attribute_matches.left_attributes()
    return attribute_matches.right_attributes()


def canonicalize(
    provenance: ProvenanceRelation,
    attribute_matches: AttributeMatching,
    side: Side,
    *,
    label: str | None = None,
) -> CanonicalRelation:
    """Derive the canonical relation of a provenance relation.

    Tuples are grouped by the side's matching attributes and their impacts are
    summed.  Queries whose aggregate requires a one-to-one mapping
    (AVG/MAX/MIN) skip the grouping, per Section 3.1.
    """
    label = label or ("T1" if side is Side.LEFT else "T2")
    group_attributes = _matching_attributes(attribute_matches, side)
    if not group_attributes:
        raise ValueError(
            "cannot canonicalize: the attribute matching has no attributes on side "
            f"{side.value} (queries are not comparable)"
        )
    missing = [name for name in group_attributes if name not in provenance.attributes]
    if missing:
        raise UnknownAttributeError(
            f"matching attributes {missing} are not attributes of provenance relation "
            f"{provenance.label} (has {list(provenance.attributes)})",
            side,
            missing,
        )

    function = provenance.query.aggregate_function
    one_to_one = function is not None and function.requires_one_to_one

    tuples: list[CanonicalTuple] = []
    if one_to_one:
        for index, prov_tuple in enumerate(provenance):
            values = {name: prov_tuple.value(name) for name in group_attributes}
            tuples.append(
                CanonicalTuple(
                    key=f"{label}:{index}",
                    side=side,
                    values=values,
                    impact=prov_tuple.impact,
                    members=(prov_tuple.key,),
                )
            )
        return CanonicalRelation(side, group_attributes, tuples, label=label, provenance=provenance)

    groups: dict[tuple, list[ProvenanceTuple]] = {}
    order: list[tuple] = []
    for prov_tuple in provenance:
        group_key = tuple(prov_tuple.value(name) for name in group_attributes)
        if group_key not in groups:
            groups[group_key] = []
            order.append(group_key)
        groups[group_key].append(prov_tuple)

    for index, group_key in enumerate(order):
        members = groups[group_key]
        values = dict(zip(group_attributes, group_key))
        impact = sum(member.impact for member in members)
        tuples.append(
            CanonicalTuple(
                key=f"{label}:{index}",
                side=side,
                values=values,
                impact=impact,
                members=tuple(member.key for member in members),
            )
        )
    return CanonicalRelation(side, group_attributes, tuples, label=label, provenance=provenance)
