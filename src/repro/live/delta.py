"""Typed row-level deltas: the unit of live updates.

A :class:`Delta` is an ordered batch of :class:`RowChange` records emitted by
mutating a base relation (:meth:`Relation.insert` / :meth:`update` /
:meth:`delete`).  Each change carries the row's stable lineage id, its values
before and after, and a per-row content hash; the batch carries the relation's
content fingerprint before and after, plus a deterministic ``delta_id``
(content hash of the batch) used as the idempotency key of ``POST /ingest``.

Two application modes:

* :func:`apply_changes` mutates a relation **in place** and returns the merged
  batch delta -- the mode a single-owner caller uses;
* :func:`apply_changes_copy` is **copy-on-write**: it leaves the input
  untouched and returns a new relation (sharing the immutable ``Row`` objects
  of unchanged rows) plus the delta.  The service layer uses this so a
  concurrent reader holding the old relation keeps a fully consistent
  pre-delta view -- readers see either the old version or the new one, never a
  torn mix.

Change *specs* are the wire form (JSON-safe dicts)::

    {"op": "insert", "record": {"Program": "Math", "Degree": "B.S."}}
    {"op": "update", "row_id": "D1:2", "record": {"Degree": "B.A."}}
    {"op": "delete", "row_id": "D1:3"}

``row`` (a position) is accepted in place of ``row_id``; update records may be
partial (unnamed columns keep their values).  Malformed specs raise
:class:`DeltaError` with a JSON-pointer path; applying a delta against content
whose fingerprint no longer matches raises :class:`DeltaConflictError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.relational.relation import Relation

VALID_OPS = ("insert", "update", "delete")


class DeltaError(ValueError):
    """A malformed or inapplicable change spec (HTTP 400).

    ``path`` is a JSON-pointer-style location of the offending field within
    the ingest payload, mirroring :class:`repro.service.api.SpecError`.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class DeltaConflictError(RuntimeError):
    """A delta addressed to content that has since changed (HTTP 409).

    Raised when an ingest declares ``base_fingerprint`` and the live relation
    no longer matches it -- the caller built the delta against a stale
    snapshot and must re-read before retrying.
    """


def row_hash(row_id: str, values: tuple | None) -> str:
    """The per-row content hash carried by every :class:`RowChange`."""
    return hashlib.sha256(repr((row_id, values)).encode()).hexdigest()


@dataclass(frozen=True)
class RowChange:
    """One row-level change: op + stable row identity + before/after values."""

    op: str                  # "insert" | "update" | "delete"
    row_id: str              # the row's lineage id ("<relation>:<n>")
    before: tuple | None     # values before (update/delete; None for insert)
    after: tuple | None      # values after (insert/update; None for delete)
    row_hash: str            # content hash of (row_id, post-change values)

    @classmethod
    def make(
        cls, op: str, row_id: str, *, before: tuple | None, after: tuple | None
    ) -> "RowChange":
        values = after if after is not None else before
        return cls(op, row_id, before, after, row_hash(row_id, values))

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "row_id": self.row_id,
            "before": list(self.before) if self.before is not None else None,
            "after": list(self.after) if self.after is not None else None,
            "row_hash": self.row_hash,
        }


@dataclass(frozen=True)
class Delta:
    """An ordered batch of row changes to one relation.

    ``delta_id`` is deterministic in (relation, base fingerprint, changes), so
    re-submitting the same batch -- a client retry, a router failover replay --
    produces the same id and dedupes at every idempotency gate.
    """

    relation: str
    base_fingerprint: str
    new_fingerprint: str
    changes: tuple[RowChange, ...]
    delta_id: str

    @classmethod
    def make(
        cls,
        relation: str,
        base_fingerprint: str,
        new_fingerprint: str,
        changes: Sequence[RowChange],
    ) -> "Delta":
        digest = hashlib.sha256()
        digest.update(relation.encode())
        digest.update(base_fingerprint.encode())
        for change in changes:
            digest.update(change.op.encode())
            digest.update(change.row_id.encode())
            digest.update(change.row_hash.encode())
        return cls(
            relation=relation,
            base_fingerprint=base_fingerprint,
            new_fingerprint=new_fingerprint,
            changes=tuple(changes),
            delta_id=digest.hexdigest(),
        )

    @classmethod
    def single(
        cls, relation: str, base_fingerprint: str, new_fingerprint: str,
        change: RowChange,
    ) -> "Delta":
        return cls.make(relation, base_fingerprint, new_fingerprint, (change,))

    @staticmethod
    def merge(deltas: Sequence["Delta"]) -> "Delta":
        """Fold consecutive deltas to one relation into a single batch."""
        if not deltas:
            raise DeltaError("cannot merge an empty delta sequence")
        relations = {delta.relation for delta in deltas}
        if len(relations) != 1:
            raise DeltaError(f"cannot merge deltas across relations {sorted(relations)}")
        changes: list[RowChange] = []
        for delta in deltas:
            changes.extend(delta.changes)
        return Delta.make(
            deltas[0].relation,
            deltas[0].base_fingerprint,
            deltas[-1].new_fingerprint,
            changes,
        )

    @property
    def deletes_only(self) -> bool:
        return all(change.op == "delete" for change in self.changes)

    def deleted_ids(self) -> frozenset:
        return frozenset(
            change.row_id for change in self.changes if change.op == "delete"
        )

    def touched_ids(self) -> frozenset:
        return frozenset(change.row_id for change in self.changes)

    def counts(self) -> dict:
        out = {"insert": 0, "update": 0, "delete": 0}
        for change in self.changes:
            out[change.op] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "delta_id": self.delta_id,
            "base_fingerprint": self.base_fingerprint,
            "new_fingerprint": self.new_fingerprint,
            "counts": self.counts(),
            "changes": [change.to_dict() for change in self.changes],
        }


# ---------------------------------------------------------------------------
# Change-spec validation (the wire form of POST /ingest)
# ---------------------------------------------------------------------------

def validate_change_specs(specs, path: str = "/changes") -> list[dict]:
    """Validate a list of change specs; returns them normalized.

    Lineage ids stay ``row_id`` and positions stay integer ``row``, so a
    normalized batch validates to itself however often it is re-validated.
    Shape errors raise :class:`DeltaError` with a JSON-pointer path.  Value
    errors (unknown columns, bad arity, missing rows) surface later, at apply
    time, against the actual schema.
    """
    if not isinstance(specs, list) or not specs:
        raise DeltaError("'changes' must be a non-empty list", path)
    normalized: list[dict] = []
    for index, spec in enumerate(specs):
        here = f"{path}/{index}"
        if not isinstance(spec, dict):
            raise DeltaError(
                f"each change is an object, got {type(spec).__name__}", here
            )
        op = str(spec.get("op", "")).lower()
        if op not in VALID_OPS:
            raise DeltaError(
                f"change op must be one of {list(VALID_OPS)}, got {spec.get('op')!r}",
                f"{here}/op",
            )
        entry: dict = {"op": op}
        if op in ("insert", "update"):
            if "record" not in spec:
                raise DeltaError(f"{op} change needs a 'record'", f"{here}/record")
            record = spec["record"]
            if not isinstance(record, (dict, list, tuple)):
                raise DeltaError(
                    "'record' is an object of column values (or a value list)",
                    f"{here}/record",
                )
            entry["record"] = record
        if op in ("update", "delete"):
            if "row_id" in spec:
                entry["row_id"] = str(spec["row_id"])
            elif "row" in spec:
                try:
                    entry["row"] = int(spec["row"])
                except (TypeError, ValueError):
                    raise DeltaError(
                        f"'row' must be an integer position, got {spec['row']!r}",
                        f"{here}/row",
                    ) from None
            else:
                raise DeltaError(
                    f"{op} change needs a 'row_id' (or integer 'row')",
                    f"{here}/row_id",
                )
        normalized.append(entry)
    return normalized


# ---------------------------------------------------------------------------
# Applying change specs
# ---------------------------------------------------------------------------

def _apply_one(relation: Relation, spec: dict, path: str) -> Delta:
    """Apply one normalized change spec; re-raise DeltaErrors with the path."""
    try:
        if spec["op"] == "insert":
            return relation.insert(spec["record"])
        row = spec["row_id"] if "row_id" in spec else spec["row"]
        if spec["op"] == "update":
            return relation.update(row, spec["record"])
        return relation.delete(row)
    except DeltaError as exc:
        raise DeltaError(str(exc), exc.path or path) from None


def apply_changes(
    relation: Relation,
    specs: Sequence[dict],
    *,
    expect_fingerprint: str | None = None,
    path: str = "/changes",
) -> Delta:
    """Apply a batch of change specs to ``relation`` in place; returns the Delta.

    ``expect_fingerprint`` (when given) must match the relation's current
    content or :class:`DeltaConflictError` is raised before anything mutates.
    Validation runs up front so a malformed spec mid-batch cannot leave the
    relation half-updated; a value-level failure (unknown row, bad column)
    can, so callers needing atomicity use :func:`apply_changes_copy`.
    """
    normalized = validate_change_specs(list(specs), path)
    if expect_fingerprint is not None:
        actual = relation.fingerprint()
        if actual != expect_fingerprint:
            raise DeltaConflictError(
                f"delta targets {relation.name!r} at fingerprint "
                f"{expect_fingerprint[:12]}..., but the live content is at "
                f"{actual[:12]}...; re-read and rebuild the delta"
            )
    deltas = [
        _apply_one(relation, spec, f"{path}/{index}")
        for index, spec in enumerate(normalized)
    ]
    return Delta.merge(deltas)


def apply_changes_copy(
    relation: Relation,
    specs: Sequence[dict],
    *,
    expect_fingerprint: str | None = None,
    path: str = "/changes",
) -> tuple[Relation, Delta]:
    """Copy-on-write apply: the input relation is never touched.

    Returns ``(new_relation, delta)``.  The copy shares the immutable ``Row``
    objects of unchanged rows (cheap for small deltas over large relations)
    and clones the rolling fingerprint state, so insert-only batches stay
    O(changes) instead of O(rows).  Any failure leaves the caller's relation
    exactly as it was -- the atomicity the service's swap-under-lock relies on.
    """
    clone = relation.copy()
    delta = apply_changes(
        clone, specs, expect_fingerprint=expect_fingerprint, path=path
    )
    return clone, delta
