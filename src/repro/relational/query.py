"""Relational-algebra query AST of the form ``Q = pi_o sigma_C(X)``.

The paper (Section 2.1) focuses on queries whose outermost shape is a
projection (either a set of attributes or one of the five SQL aggregates
SUM/COUNT/AVG/MAX/MIN) over a selection over an arbitrary inner expression
``X`` that may contain joins, unions and subqueries.  This module defines the
AST; :mod:`repro.relational.executor` evaluates it.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from repro.relational.errors import EmptyAggregateError, ExecutionError
from repro.relational.expressions import Predicate, TruePredicate


class AggregateFunction(enum.Enum):
    """The five SQL aggregate functions supported by the paper's query class."""

    SUM = "SUM"
    COUNT = "COUNT"
    AVG = "AVG"
    MAX = "MAX"
    MIN = "MIN"

    @property
    def requires_one_to_one(self) -> bool:
        """Whether canonicalization must preserve individual tuples.

        Per Section 3.1, canonicalization sums impacts of grouped tuples, which
        is only sound for SUM and COUNT.  AVG/MAX/MIN require a strict
        one-to-one mapping and are left un-grouped.
        """
        return self in (AggregateFunction.AVG, AggregateFunction.MAX, AggregateFunction.MIN)

    def combine(self, values: Sequence[float]) -> float:
        """Apply the aggregate to a sequence of numeric values.

        COUNT is value-agnostic: it counts non-NULL entries without touching
        their types.  The numeric aggregates coerce to float when possible
        (SQL-style implicit cast), so they work over string columns that hold
        numbers -- e.g. the ``MovieInfo.info`` attribute of the IMDb view 2
        schema -- and raise :class:`ExecutionError` otherwise.
        """
        if self is AggregateFunction.COUNT:
            return float(sum(1 for value in values if value is not None))
        cleaned = []
        for value in values:
            if value is None:
                continue
            try:
                cleaned.append(float(value))
            except (TypeError, ValueError):
                raise ExecutionError(
                    f"{self.value} over non-numeric value {value!r}"
                ) from None
        if not cleaned:
            raise EmptyAggregateError(self.value)
        if self is AggregateFunction.SUM:
            return float(sum(cleaned))
        if self is AggregateFunction.AVG:
            return float(sum(cleaned)) / len(cleaned)
        if self is AggregateFunction.MAX:
            return float(max(cleaned))
        return float(min(cleaned))


class QueryNode:
    """Base class for all query AST nodes."""

    def children(self) -> tuple["QueryNode", ...]:
        return ()

    def referenced_relations(self) -> set[str]:
        names: set[str] = set()
        for child in self.children():
            names |= child.referenced_relations()
        return names

    def to_sql(self) -> str:
        """SQL text for this tree (see :func:`repro.sql.lower.node_to_sql`).

        Re-parsing and re-lowering the printed SQL yields a
        fingerprint-identical AST; constructs with no SQL form (ad-hoc
        callable predicates) raise :class:`repro.sql.errors.SqlPrintError`.
        """
        from repro.sql.lower import node_to_sql

        return node_to_sql(self)


@dataclass(frozen=True)
class Scan(QueryNode):
    """A reference to a base relation in the database."""

    relation: str

    def referenced_relations(self) -> set[str]:
        return {self.relation}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scan({self.relation})"


@dataclass(frozen=True)
class Select(QueryNode):
    """``sigma_C(child)``: rows of the child satisfying the predicate."""

    child: QueryNode
    predicate: Predicate

    def children(self) -> tuple[QueryNode, ...]:
        return (self.child,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Select({self.predicate!r}, {self.child!r})"


@dataclass(frozen=True)
class Project(QueryNode):
    """``pi_A(child)``: projection onto a list of attributes."""

    child: QueryNode
    attributes: tuple[str, ...]
    distinct: bool = False

    def children(self) -> tuple[QueryNode, ...]:
        return (self.child,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "DISTINCT " if self.distinct else ""
        return f"Project({kind}{list(self.attributes)}, {self.child!r})"


@dataclass(frozen=True)
class Join(QueryNode):
    """Theta-join of two children.

    ``on`` lists equality pairs ``(left_attr, right_attr)``; an optional extra
    ``condition`` predicate is evaluated over the concatenated row.
    """

    left: QueryNode
    right: QueryNode
    on: tuple[tuple[str, str], ...] = ()
    condition: Optional[Predicate] = None

    def children(self) -> tuple[QueryNode, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Join({self.left!r}, {self.right!r}, on={list(self.on)})"


@dataclass(frozen=True)
class Union(QueryNode):
    """Bag union of two or more children with identical schemas."""

    inputs: tuple[QueryNode, ...]

    def children(self) -> tuple[QueryNode, ...]:
        return self.inputs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Union({list(self.inputs)})"


@dataclass(frozen=True)
class Difference(QueryNode):
    """Rows of ``left`` whose key attributes do not appear in ``right``.

    Used to express the NOT IN / NOT EXISTS subqueries of the IMDb template
    Q10 ("actresses who have not starred in any <genre> movies").
    """

    left: QueryNode
    right: QueryNode
    on: tuple[str, ...]

    def children(self) -> tuple[QueryNode, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Difference({self.left!r}, {self.right!r}, on={list(self.on)})"


@dataclass(frozen=True)
class Aggregate(QueryNode):
    """``gamma_{aggr(attr)}(child)``: a single-result aggregate (optionally grouped)."""

    child: QueryNode
    function: AggregateFunction
    attribute: Optional[str] = None
    group_by: tuple[str, ...] = ()
    alias: str = "agg"

    def __post_init__(self):
        if self.function is not AggregateFunction.COUNT and self.attribute is None:
            raise ExecutionError(f"{self.function.value} requires an attribute")

    def children(self) -> tuple[QueryNode, ...]:
        return (self.child,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = self.attribute if self.attribute is not None else "*"
        return f"Aggregate({self.function.value}({target}), {self.child!r})"


@dataclass(frozen=True)
class Query:
    """A named query: the paper's ``Q = pi_o sigma_C(X)``.

    ``root`` is the full AST (projection or aggregate at the top).  ``name`` is
    a human-readable label ("Q1", "Q2", ...) used in provenance identifiers and
    reports.  ``description`` optionally records the natural-language question
    the query answers, which is how semantic similarity is communicated.
    """

    name: str
    root: QueryNode
    description: str = ""

    def referenced_relations(self) -> set[str]:
        return self.root.referenced_relations()

    def fingerprint(self) -> str:
        """A stable content hash of the query (name + full AST).

        The name participates because provenance keys embed it
        (``"P[Q1]:3"``).  The AST is walked field by field (node reprs are
        cosmetic and lossy), so every attribute, predicate, group-by list and
        join condition contributes.  Predicates have deterministic reprs;
        ad-hoc callable conditions fall back to their default repr, which is
        only stable within one process (such queries still cache correctly
        in-memory, they just never share cache entries across processes).

        The AST is frozen, so the hash is computed once per instance and
        memoized; the memo is dropped on pickling (see :meth:`__getstate__`).
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode())
            digest.update(repr(_canonical_description(self.root)).encode())
            memo = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", memo)
        return memo

    def __getstate__(self) -> dict:
        # A memoized fingerprint of a query with an ad-hoc callable condition
        # embeds a memory address, valid only in this process: never ship it.
        state = dict(self.__dict__)
        state.pop("_fingerprint", None)
        return state

    def to_sql(self) -> str:
        """SQL text of the query body (the name lives outside the SQL)."""
        return self.root.to_sql()

    def explain_plan(self, db, *, run: bool = True, optimize: bool = True):
        """The optimized physical plan of this query over ``db`` (EXPLAIN).

        Returns a :class:`repro.plan.PlanExplanation`: ``describe()`` prints
        the operator tree, ``to_dict()``/``to_json()`` serialize it.  With
        ``run=True`` (the default) the plan is executed once and every
        operator is annotated with its actual row count and timing.
        """
        from repro.plan import plan_query

        return plan_query(self, db, optimize_tree=optimize).explain(run=run)

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self.root, Aggregate)

    @property
    def aggregate_function(self) -> Optional[AggregateFunction]:
        if isinstance(self.root, Aggregate):
            return self.root.function
        return None

    @property
    def aggregate_attribute(self) -> Optional[str]:
        if isinstance(self.root, Aggregate):
            return self.root.attribute
        return None

    @property
    def inner(self) -> QueryNode:
        """The query below the outermost projection/aggregation (``sigma_C(X)``)."""
        if isinstance(self.root, (Aggregate, Project)):
            return self.root.child
        return self.root

    @property
    def output_attributes(self) -> tuple[str, ...]:
        if isinstance(self.root, Project):
            return self.root.attributes
        if isinstance(self.root, Aggregate):
            return (self.root.alias,)
        return ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Query({self.name}: {self.root!r})"


def _canonical_description(node) -> object:
    """A lossless, deterministic structure describing a query AST node.

    Unlike the node reprs (cosmetic, and e.g. ``Join.__repr__`` omits the
    extra condition), this covers every dataclass field recursively.
    """
    if isinstance(node, QueryNode):
        return (type(node).__name__,) + tuple(
            (f.name, _canonical_description(getattr(node, f.name))) for f in fields(node)
        )
    if isinstance(node, (list, tuple)):
        return tuple(_canonical_description(item) for item in node)
    if isinstance(node, enum.Enum):
        return (type(node).__name__, node.value)
    return repr(node)


# ---------------------------------------------------------------------------
# Convenience constructors used throughout examples, datasets and tests.
# ---------------------------------------------------------------------------

def scan(relation: str) -> Scan:
    return Scan(relation)


def where(child: QueryNode, predicate: Predicate | None) -> QueryNode:
    """Wrap ``child`` in a selection (no-op for ``None``/``TruePredicate``)."""
    if predicate is None or isinstance(predicate, TruePredicate):
        return child
    return Select(child, predicate)


def count_query(
    name: str,
    source: QueryNode,
    *,
    predicate: Predicate | None = None,
    attribute: str | None = None,
    description: str = "",
) -> Query:
    """``SELECT COUNT(attribute) FROM source WHERE predicate``."""
    root = Aggregate(where(source, predicate), AggregateFunction.COUNT, attribute, alias="count")
    return Query(name, root, description)


def sum_query(
    name: str,
    source: QueryNode,
    attribute: str,
    *,
    predicate: Predicate | None = None,
    description: str = "",
) -> Query:
    """``SELECT SUM(attribute) FROM source WHERE predicate``."""
    root = Aggregate(where(source, predicate), AggregateFunction.SUM, attribute, alias="sum")
    return Query(name, root, description)


def aggregate_query(
    name: str,
    function: AggregateFunction,
    source: QueryNode,
    attribute: str | None,
    *,
    predicate: Predicate | None = None,
    description: str = "",
) -> Query:
    """Generic aggregate query constructor."""
    root = Aggregate(
        where(source, predicate), function, attribute, alias=function.value.lower()
    )
    return Query(name, root, description)


def projection_query(
    name: str,
    source: QueryNode,
    attributes: Sequence[str],
    *,
    predicate: Predicate | None = None,
    distinct: bool = True,
    description: str = "",
) -> Query:
    """``SELECT [DISTINCT] attributes FROM source WHERE predicate``."""
    root = Project(where(source, predicate), tuple(attributes), distinct=distinct)
    return Query(name, root, description)
