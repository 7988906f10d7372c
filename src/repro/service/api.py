"""JSON request/response schema and the stdlib-only HTTP daemon.

The wire format is deliberately declarative -- a request names registered
databases and describes its two queries as small JSON specs that compile into
the query AST of :mod:`repro.relational.query`:

.. code-block:: json

    {
      "database_left": "D1",
      "query_left": {"name": "Q1", "kind": "count", "relation": "D1",
                     "attribute": "Program"},
      "database_right": "D2",
      "query_right": {"name": "Q2", "kind": "count", "relation": "D2",
                      "attribute": "Major",
                      "where": [{"column": "Univ", "op": "=", "value": "A"}]},
      "attribute_matches": [["Program", "Major"]],
      "config": {"partitioning": "none", "priors": {"alpha": 0.9, "beta": 0.9}}
    }

A query spec may equally be **real SQL** (parsed, bound against the
registered database and lowered by :mod:`repro.sql`)::

    {"name": "Q2", "sql": "SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'"}

or use a **nested source** instead of a flat relation, composing joins,
unions and differences declaratively::

    {"name": "Q2", "kind": "sum", "attribute": "bach_degr",
     "source": {"join": {"left": "School", "right": "Stats",
                         "on": [["ID", "ID"]]}},
     "where": [{"column": "Univ_name", "op": "=", "value": "UMass-Amherst"}]}

An explain payload may instead carry a **run pair** -- the run-diff workload
of :mod:`repro.runs`.  The two runs (inline records, or NDJSON/CSV run files
on the server) are registered as a disjoint database pair and the canonical
queries, attribute matches and request are synthesized by the bridge::

    {"runs": {"left": {"name": "single_thread", "records": [...]},
              "right": {"path": "runs/async_event_loop.ndjson"},
              "key": "id", "compare": "tax"}}

Malformed specs produce structured errors: :class:`SpecError` carries a
JSON-pointer-style ``path`` ("/query_left/where/0/op") that the daemon
returns alongside the message.

Endpoints of the daemon (``python -m repro.service``):

* ``GET  /health``        -- liveness + reliability snapshot (circuit-breaker
  states, degradation counters, cache totals, job-queue depth, per-endpoint
  request counts and latency quantiles -- the load signal the fleet router
  aggregates across workers);
* ``GET  /stats``         -- cache + job-queue counters;
* ``POST /databases``     -- register a database from records;
* ``POST /explain``       -- synchronous explain, returns the full report;
* ``POST /plan``          -- EXPLAIN one query: the optimized physical plan
  tree with per-operator estimated/actual row counts, q-errors and timings
  (``{"database": ..., "query": <spec>, "run": true}``);
* ``POST /analyze``       -- ANALYZE a registered database
  (``{"database": ..., "buckets": 8}``): collects per-relation/per-column
  statistics (cached by relation content in the ``stats`` artifact cache)
  and switches its plans to the cost-based planner;
* ``POST /ingest``        -- apply row-level changes to a registered database
  (``{"database": ..., "relation": ..., "changes": [{"op": "insert",
  "record": {...}}, {"op": "delete", "row_id": "D1:3"}]}``): statistics
  advance incrementally, unaffected cached artifacts are rewired to the new
  fingerprint, affected ones evicted; ``delta_id`` is the idempotency key
  (derived from the payload when omitted) and ``expect_fingerprint`` turns a
  lost update into a 409 conflict instead of a silent overwrite;
* ``POST /jobs``          -- asynchronous explain, returns a job id;
* ``GET  /jobs/<id>``     -- job status (plus the report once done);
* ``DELETE /jobs/<id>``   -- cancel a queued *or running* job (running jobs
  are cancelled cooperatively at the solver's checkpoints).

Every non-2xx response carries one uniform error envelope
``{"error": {"type", "message", "path"}}`` with a distinct status per typed
error: 400 spec/SQL errors, 404 unknown database, 409 cancelled, 503 open
circuit breaker, 504 deadline exceeded.  Unexpected failures are structured
500s -- never a bare string.  Routing, body parsing and that error table are
the shared transport of :mod:`repro.service.http`, which the fleet router
serves too.

:class:`ServiceClient` is a thin helper mirroring the endpoints.
"""

from __future__ import annotations

import math
import threading
from dataclasses import fields

from repro.core.explain3d import Explain3DConfig
from repro.core.scoring import Priors
from repro.graphs.weighting import WeightingParams
from repro.live import validate_change_specs
from repro.matching.attribute_match import AttributeMatching, matching
from repro.matching.tuple_matching import TupleMapping, TupleMatch
from repro.relational.executor import Database
from repro.relational.expressions import (
    Comparison,
    Contains,
    IsNull,
    Membership,
    Not,
    Predicate,
)
from repro.relational.query import (
    AggregateFunction,
    Difference,
    Join,
    Query,
    QueryNode,
    Scan,
    Select,
    Union,
    aggregate_query,
    count_query,
    projection_query,
    sum_query,
)
from repro.reliability.retry import RetryPolicy
from repro.relational.errors import SchemaError
from repro.relational.schema import DataType, Schema
from repro.runs.spec import compile_runs_payload
from repro.service.cache import fingerprint_of
from repro.service.engine import ExplainRequest, ExplainService
from repro.service.http import (
    JSONHTTPServer,
    JSONRequestHandler,
    SpecError,
    error_payload,
    http_json,
    start_in_background,
)
from repro.service.jobs import JobQueue, JobState
from repro.service.metrics import LatencyRecorder
from repro.sql import SqlError
from repro.sql import parse_query as parse_sql_query


# ---------------------------------------------------------------------------
# Spec -> object compilation
# ---------------------------------------------------------------------------

_COMPARISON_OPS = {"=", "==", "!=", "<>", "<", "<=", ">", ">="}


def predicate_from_spec(conditions: list[dict], path: str = "") -> Predicate | None:
    """An ANDed predicate from a list of condition specs (None when empty)."""
    if not conditions:
        return None
    if not isinstance(conditions, list):
        raise SpecError("'where' must be a list of condition objects", path)
    parts: list[Predicate] = []
    for index, condition in enumerate(conditions):
        here = f"{path}/{index}"
        if not isinstance(condition, dict) or "column" not in condition:
            raise SpecError(f"each condition needs a 'column': {condition!r}", here)
        column = condition["column"]
        op = condition.get("op", "=")
        if op in _COMPARISON_OPS:
            if "value" not in condition:
                raise SpecError(
                    f"comparison condition needs a 'value': {condition!r}",
                    f"{here}/value",
                )
            part: Predicate = Comparison(column, op, condition["value"])
        elif op == "in":
            part = Membership(column, tuple(condition.get("values", ())))
        elif op == "contains":
            part = Contains(column, str(condition.get("value", "")))
        elif op == "is_null":
            part = IsNull(column)
        elif op == "not_null":
            part = IsNull(column, negate=True)
        else:
            raise SpecError(f"unsupported condition op {op!r}", f"{here}/op")
        if condition.get("negate"):
            part = Not(part)
        parts.append(part)
    result = parts[0]
    for part in parts[1:]:
        result = result & part
    return result


def source_from_spec(spec, path: str = "") -> QueryNode:
    """A query-tree source from a spec: a relation name, or a nested object.

    Accepted shapes (exactly one of the object keys)::

        "Movie"                                  -- a base relation
        {"relation": "Movie"}                    -- the same, spelled out
        {"join": {"left": ..., "right": ...,
                  "on": [["m_id", "m_id"]]}}     -- equi-join of two sources
        {"union": [..., ...]}                    -- n-ary bag union
        {"difference": {"left": ..., "right": ...,
                        "on": ["name"]}}         -- anti-join on key columns

    Any object form may carry ``"where": [...]`` to wrap the source in a
    selection.  Sources nest arbitrarily.
    """
    if isinstance(spec, str):
        return Scan(spec)
    if not isinstance(spec, dict):
        raise SpecError(
            f"source spec must be a relation name or an object, "
            f"got {type(spec).__name__}",
            path,
        )
    kinds = [key for key in ("relation", "join", "union", "difference") if key in spec]
    if len(kinds) != 1:
        raise SpecError(
            "source spec needs exactly one of 'relation', 'join', "
            f"'union', 'difference'; got {sorted(spec)}",
            path,
        )
    kind = kinds[0]
    node: QueryNode
    if kind == "relation":
        node = Scan(str(spec["relation"]))
    elif kind == "join":
        body = spec["join"]
        if not isinstance(body, dict) or "left" not in body or "right" not in body:
            raise SpecError("'join' needs 'left' and 'right' sources", f"{path}/join")
        pairs: list[tuple[str, str]] = []
        for index, pair in enumerate(body.get("on", [])):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SpecError(
                    f"join 'on' entries are [left_attr, right_attr] pairs: {pair!r}",
                    f"{path}/join/on/{index}",
                )
            pairs.append((str(pair[0]), str(pair[1])))
        node = Join(
            source_from_spec(body["left"], f"{path}/join/left"),
            source_from_spec(body["right"], f"{path}/join/right"),
            on=tuple(pairs),
        )
    elif kind == "union":
        body = spec["union"]
        if not isinstance(body, list) or len(body) < 2:
            raise SpecError(
                "'union' needs a list of at least two sources", f"{path}/union"
            )
        node = Union(
            tuple(
                source_from_spec(member, f"{path}/union/{index}")
                for index, member in enumerate(body)
            )
        )
    else:  # difference
        body = spec["difference"]
        if not isinstance(body, dict) or "left" not in body or "right" not in body:
            raise SpecError(
                "'difference' needs 'left' and 'right' sources", f"{path}/difference"
            )
        on = body.get("on")
        if not isinstance(on, list) or not on:
            raise SpecError(
                "'difference' needs a non-empty 'on' list of key columns",
                f"{path}/difference/on",
            )
        node = Difference(
            source_from_spec(body["left"], f"{path}/difference/left"),
            source_from_spec(body["right"], f"{path}/difference/right"),
            on=tuple(str(name) for name in on),
        )
    inner_where = predicate_from_spec(spec.get("where", []), f"{path}/where")
    if inner_where is not None:
        node = Select(node, inner_where)
    return node


def query_from_spec(spec: dict, database=None, path: str = "") -> Query:
    """Compile a JSON query spec into a :class:`~repro.relational.query.Query`.

    Three spec families are accepted:

    * ``{"sql": "SELECT ..."}`` -- real SQL, parsed and lowered by
      :mod:`repro.sql` (bound against ``database`` when one is given);
    * ``{"kind": ..., "relation": ...}`` -- the flat single-relation form;
    * ``{"kind": ..., "source": {...}}`` -- the same kinds over a nested
      join/union/difference source tree (:func:`source_from_spec`).
    """
    if not isinstance(spec, dict):
        raise SpecError(
            f"query spec must be an object, got {type(spec).__name__}", path
        )
    if "sql" in spec:
        conflicting = sorted(
            {"kind", "relation", "source", "where", "attribute", "attributes",
             "distinct"} & set(spec)
        )
        if conflicting:
            raise SpecError(
                f"a 'sql' query spec cannot also carry declarative keys "
                f"{conflicting}; put the whole query in the SQL string",
                f"{path}/sql",
            )
        name = spec.get("name", "Q")
        try:
            return parse_sql_query(
                str(spec["sql"]),
                database,
                name=name,
                description=spec.get("description", ""),
            )
        except SqlError as exc:
            raise SpecError(f"bad SQL: {exc}", f"{path}/sql") from exc
    try:
        name = spec["name"]
    except KeyError as exc:
        raise SpecError(f"query spec needs {exc.args[0]!r}", path) from None
    if "relation" in spec and "source" in spec:
        raise SpecError(
            "query spec cannot carry both 'relation' and 'source'; "
            "put the relation inside the source tree",
            path,
        )
    if "relation" in spec:
        source: QueryNode = Scan(spec["relation"])
    elif "source" in spec:
        source = source_from_spec(spec["source"], f"{path}/source")
    else:
        raise SpecError("query spec needs 'relation', 'source' or 'sql'", path)
    kind = str(spec.get("kind", "count")).lower()
    predicate = predicate_from_spec(spec.get("where", []), f"{path}/where")
    description = spec.get("description", "")
    if kind == "count":
        return count_query(
            name, source, predicate=predicate, attribute=spec.get("attribute"),
            description=description,
        )
    if kind == "sum":
        if "attribute" not in spec:
            raise SpecError("sum query needs an 'attribute'", f"{path}/attribute")
        return sum_query(
            name, source, spec["attribute"], predicate=predicate, description=description
        )
    if kind in ("avg", "max", "min"):
        if "attribute" not in spec:
            raise SpecError(f"{kind} query needs an 'attribute'", f"{path}/attribute")
        return aggregate_query(
            name,
            AggregateFunction[kind.upper()],
            source,
            spec["attribute"],
            predicate=predicate,
            description=description,
        )
    if kind == "project":
        attributes = spec.get("attributes")
        if not attributes:
            raise SpecError("project query needs 'attributes'", f"{path}/attributes")
        return projection_query(
            name,
            source,
            list(attributes),
            predicate=predicate,
            distinct=bool(spec.get("distinct", True)),
            description=description,
        )
    raise SpecError(f"unsupported query kind {kind!r}", f"{path}/kind")


def database_from_spec(spec: dict) -> Database:
    """Build a :class:`Database` from ``{"name": ..., "relations": {name: [records]}}``.

    An optional ``"dtypes"`` block pins per-relation column types
    (``{"Run": {"id": "integer", "tax": "float"}}``), making a registration
    loss-free across the JSON wire: the rebuilt relation coerces into exactly
    the declared schema instead of re-inferring from the records, so content
    fingerprints agree with the sender's.  Without it, types are inferred.
    """
    if not isinstance(spec, dict) or "name" not in spec:
        raise SpecError("database spec needs a 'name'")
    relations = spec.get("relations")
    if not isinstance(relations, dict) or not relations:
        raise SpecError("database spec needs a non-empty 'relations' object")
    dtypes = spec.get("dtypes") or {}
    if not isinstance(dtypes, dict):
        raise SpecError("'dtypes' must be an object of {relation: {column: type}}", "/dtypes")
    db = Database(spec["name"])
    for relation_name, records in relations.items():
        if not isinstance(records, list):
            raise SpecError(f"relation {relation_name!r} must be a list of records")
        schema = None
        declared = dtypes.get(relation_name)
        if declared is not None:
            if not isinstance(declared, dict) or not declared:
                raise SpecError(
                    f"dtypes for relation {relation_name!r} must be a non-empty "
                    "object of {column: type}",
                    f"/dtypes/{relation_name}",
                )
            try:
                schema = Schema(
                    [(str(column), DataType(str(type_name)))
                     for column, type_name in declared.items()]
                )
            except (ValueError, SchemaError) as exc:
                raise SpecError(
                    f"bad dtypes for relation {relation_name!r}: {exc}",
                    f"/dtypes/{relation_name}",
                ) from None
        db.add_records(relation_name, records, schema)
    return db


def matches_from_spec(spec: list, path: str = "") -> AttributeMatching:
    """``[["Program", "Major"], ["zip", "county", "<="]]`` -> AttributeMatching."""
    try:
        return matching(*[tuple(pair) for pair in spec])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad attribute_matches spec: {exc}", path) from exc


def mapping_from_spec(spec: list, path: str = "") -> TupleMapping:
    """``[["T1:0", "T2:0", 0.95], ...]`` -> an explicit initial TupleMapping."""
    mapping = TupleMapping()
    for index, entry in enumerate(spec):
        if not isinstance(entry, (list, tuple)) or len(entry) < 3:
            raise SpecError(
                f"mapping entries are [left, right, probability]: {entry!r}",
                f"{path}/{index}",
            )
        try:
            probability = float(entry[2])
            similarity = float(entry[3]) if len(entry) > 3 else 0.0
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"mapping probability and similarity must be numbers: {entry!r}", f"{path}/{index}"
            ) from exc
        # JSON parsers accept NaN/Infinity; a non-finite probability has no log-odds.
        if not math.isfinite(probability):
            raise SpecError(f"mapping probability must be finite: {entry!r}", f"{path}/{index}")
        mapping.add(TupleMatch(str(entry[0]), str(entry[1]), probability, similarity))
    return mapping


_CONFIG_FIELDS = {f.name for f in fields(Explain3DConfig)}


def config_from_spec(spec: dict, path: str = "") -> Explain3DConfig:
    """Compile config overrides; nested priors/weighting are plain objects."""
    if not isinstance(spec, dict):
        raise SpecError("config spec must be an object", path)
    kwargs = dict(spec)
    unknown = set(kwargs) - _CONFIG_FIELDS
    if unknown:
        raise SpecError(f"unknown config fields: {sorted(unknown)}", path)
    if "solver" in kwargs:
        raise SpecError("solver backends cannot be configured over the wire", f"{path}/solver")
    try:
        if "priors" in kwargs:
            kwargs["priors"] = Priors(**kwargs["priors"])
        if "weighting" in kwargs:
            kwargs["weighting"] = WeightingParams(**kwargs["weighting"])
        return Explain3DConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad config spec: {exc}", path) from exc


def plan_request_from_payload(payload: dict, *, database_resolver=None):
    """Compile a ``POST /plan`` payload into ``(database_name, query, run)``."""
    if not isinstance(payload, dict):
        raise SpecError("plan payload must be a JSON object")
    for key in ("database", "query"):
        if key not in payload:
            raise SpecError(f"plan payload needs {key!r}", f"/{key}")
    name = str(payload["database"])
    database = None
    if database_resolver is not None:
        try:
            database = database_resolver(name)
        except KeyError:
            database = None
    query = query_from_spec(payload["query"], database, "/query")
    return name, query, bool(payload.get("run", True))


def analyze_request_from_payload(payload: dict) -> tuple[str, int | None]:
    """Compile a ``POST /analyze`` payload into ``(database_name, buckets)``."""
    if not isinstance(payload, dict):
        raise SpecError("analyze payload must be a JSON object")
    if "database" not in payload:
        raise SpecError("analyze payload needs 'database'", "/database")
    buckets = payload.get("buckets")
    if buckets is not None:
        try:
            buckets = int(buckets)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad bucket count: {exc}", "/buckets") from exc
        if buckets < 1:
            raise SpecError("bucket count must be positive", "/buckets")
    return str(payload["database"]), buckets


def ingest_request_from_payload(payload: dict) -> dict:
    """Compile a ``POST /ingest`` payload into :meth:`ExplainService.ingest` kwargs.

    Change specs are shape-validated here (JSON-pointer errors); value-level
    problems (unknown rows, bad columns) surface at apply time against the
    actual schema.  When the payload carries no ``delta_id``, a deterministic
    one is derived from the payload itself, so a client retry of the same
    batch dedupes at the engine's idempotency gate -- intentionally repeated
    identical batches must carry distinct ``delta_id`` values (or pin
    ``expect_fingerprint``).
    """
    if not isinstance(payload, dict):
        raise SpecError("ingest payload must be a JSON object")
    for key in ("database", "relation", "changes"):
        if key not in payload:
            raise SpecError(f"ingest payload needs {key!r}", f"/{key}")
    changes = validate_change_specs(payload["changes"], "/changes")
    expect = payload.get("expect_fingerprint")
    delta_id = payload.get("delta_id")
    if delta_id is None:
        delta_id = fingerprint_of(
            str(payload["database"]),
            str(payload["relation"]),
            changes,
            expect if expect is not None else "auto",
        )
    return {
        "database": str(payload["database"]),
        "relation": str(payload["relation"]),
        "changes": changes,
        "delta_id": str(delta_id),
        "expect_fingerprint": str(expect) if expect is not None else None,
    }


def runs_request_from_payload(payload: dict, service: ExplainService) -> ExplainRequest:
    """Compile a ``{"runs": ...}`` explain payload against a live service.

    The run pair is synthesized into a disjoint database pair by
    :mod:`repro.runs.bridge` and registered on the service (re-registering
    identical run content lands on the identical fingerprint, so repeated
    requests over the same runs stay warm in the report cache); the rewritten
    declarative payload then compiles through the ordinary
    :func:`request_from_payload` path.
    """
    compiled = compile_runs_payload(payload)
    problem = compiled.problem
    service.register_database(problem.database_left, problem.database_left.name)
    service.register_database(problem.database_right, problem.database_right.name)
    return request_from_payload(
        compiled.explain_payload, database_resolver=service.database
    )


def request_from_payload(payload: dict, *, database_resolver=None) -> ExplainRequest:
    """Compile a full JSON request payload into an :class:`ExplainRequest`.

    ``database_resolver`` maps a registered database name to its
    :class:`Database` so SQL query specs bind against the real schema (the
    daemon passes the service's registry).  A name the resolver cannot serve
    compiles leniently here and surfaces as an unknown-database error once
    the request reaches the engine.
    """
    if not isinstance(payload, dict):
        raise SpecError("request payload must be a JSON object")
    for key in ("query_left", "database_left", "query_right", "database_right"):
        if key not in payload:
            raise SpecError(f"request payload needs {key!r}", f"/{key}")

    def _database(name_key: str):
        if database_resolver is None:
            return None
        try:
            return database_resolver(str(payload[name_key]))
        except KeyError:
            return None

    labeled = payload.get("labeled_pairs")
    labeled_pairs = None
    if labeled:
        try:
            labeled_pairs = {(str(a), str(b)) for a, b in labeled}
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"labeled_pairs entries are [left, right] pairs: {exc}",
                "/labeled_pairs",
            ) from exc
    deadline_seconds = payload.get("deadline_seconds")
    if deadline_seconds is not None:
        try:
            deadline_seconds = float(deadline_seconds)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad deadline_seconds: {exc}", "/deadline_seconds") from exc
        if deadline_seconds <= 0:
            raise SpecError("deadline_seconds must be positive", "/deadline_seconds")
    on_deadline = str(payload.get("on_deadline", "error"))
    if on_deadline not in ("error", "partial"):
        raise SpecError(
            f"on_deadline must be 'error' or 'partial', got {on_deadline!r}",
            "/on_deadline",
        )
    return ExplainRequest(
        query_left=query_from_spec(
            payload["query_left"], _database("database_left"), "/query_left"
        ),
        database_left=str(payload["database_left"]),
        query_right=query_from_spec(
            payload["query_right"], _database("database_right"), "/query_right"
        ),
        database_right=str(payload["database_right"]),
        attribute_matches=(
            matches_from_spec(payload["attribute_matches"], "/attribute_matches")
            if payload.get("attribute_matches")
            else None
        ),
        tuple_mapping=(
            mapping_from_spec(payload["tuple_mapping"], "/tuple_mapping")
            if payload.get("tuple_mapping")
            else None
        ),
        labeled_pairs=labeled_pairs,
        config=(
            config_from_spec(payload["config"], "/config")
            if payload.get("config")
            else None
        ),
        deadline_seconds=deadline_seconds,
        on_deadline=on_deadline,
    )


# ---------------------------------------------------------------------------
# The HTTP daemon
# ---------------------------------------------------------------------------

class _ServiceRequestHandler(JSONRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # Defined on this class, not only inherited, so a wrapper installed
        # per class (perfbench's span tracer) can time the daemon's POSTs.
        self.dispatch("POST")


class ServiceHTTPServer(JSONHTTPServer):
    """The daemon: the shared route table, answered by the service and its job queue.

    The routed methods below carry :class:`~repro.fleet.router.FleetRouter`'s
    names, which is what lets one table (:data:`repro.service.http.ROUTES`)
    serve both.
    """

    handler_class = _ServiceRequestHandler

    def __init__(
        self,
        address,
        service: ExplainService,
        *,
        job_workers: int = 2,
        retry_policy: RetryPolicy | None = None,
    ):
        super().__init__(address, self, LatencyRecorder())
        self.service = service
        self.jobs = JobQueue(
            service.explain, max_workers=job_workers, retry_policy=retry_policy
        )

    def health(self) -> dict:
        payload = self.service.health()
        queue_stats = self.jobs.queue_stats()
        payload["jobs"] = {
            "queue_depth": queue_stats["states"].get("queued", 0),
            "running": queue_stats["states"].get("running", 0),
            **{
                k: queue_stats[k]
                for k in ("submitted", "completed", "failed", "cancelled", "deduplicated")
            },
        }
        payload["endpoints"] = self.metrics.snapshot()
        return payload

    def stats(self) -> dict:
        return {"service": self.service.stats(), "jobs": self.jobs.queue_stats()}

    def register_database(self, spec: dict) -> tuple[int, dict]:
        db = database_from_spec(spec)
        fingerprint = self.service.register_database(db, db.name)
        return 201, {"name": db.name, "fingerprint": fingerprint}

    def explain(self, payload: dict) -> dict:
        if "runs" in payload:
            request = runs_request_from_payload(payload, self.service)
        else:
            request = request_from_payload(payload, database_resolver=self.service.database)
        return self.service.explain(request).to_dict()

    def plan(self, payload: dict) -> dict:
        name, query, run = plan_request_from_payload(
            payload, database_resolver=self.service.database
        )
        return self.service.explain_plan(name, query, run=run)

    def analyze(self, payload: dict) -> dict:
        name, buckets = analyze_request_from_payload(payload)
        return self.service.analyze(name, buckets=buckets)

    def ingest(self, payload: dict) -> dict:
        return self.service.ingest(**ingest_request_from_payload(payload))

    def submit_job(self, payload: dict) -> tuple[int, dict]:
        request = request_from_payload(payload, database_resolver=self.service.database)
        # Single-flight: identical concurrent submissions (retries, duplicate
        # clicks, router failover) coalesce onto one job.
        job = self.jobs.submit(request, idempotency_key=fingerprint_of(payload))
        return 202, job.status()

    def job_status(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_payload("UnknownJobError", f"unknown job {job_id}")
        payload = job.status()
        if job.state is JobState.DONE:
            payload["result"] = job.result.to_dict()
        return payload

    def cancel_job(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_payload("UnknownJobError", f"unknown job {job_id}")
        # Queued jobs are CANCELLED immediately; running jobs get a
        # cooperative cancel request honoured at the next checkpoint.
        if not self.jobs.cancel(job_id):
            return 409, error_payload("JobFinishedError", f"job {job_id} already finished")
        return {"id": job_id, "state": job.state.value, "cancel_requested": job.cancel_requested}


def serve(
    service: ExplainService,
    *,
    host: str = "127.0.0.1",
    port: int = 8311,
    job_workers: int = 2,
    retry_policy: RetryPolicy | None = None,
) -> ServiceHTTPServer:
    """Create (but do not start) the HTTP server -- call ``serve_forever()``."""
    return ServiceHTTPServer(
        (host, port), service, job_workers=job_workers, retry_policy=retry_policy
    )


def serve_in_background(
    service: ExplainService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    job_workers: int = 2,
    retry_policy: RetryPolicy | None = None,
) -> tuple[ServiceHTTPServer, threading.Thread]:
    """Start the daemon on a background thread (port 0 = ephemeral); returns both."""
    server = serve(
        service, host=host, port=port, job_workers=job_workers, retry_policy=retry_policy
    )
    return start_in_background(server, "explain-http")


# ---------------------------------------------------------------------------
# The thin client
# ---------------------------------------------------------------------------

class ServiceClient:
    """A stdlib-only client for the explanation service daemon (or the router)."""

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _call(self, method: str, path: str, payload: dict | None = None) -> dict:
        status, body = http_json(
            method, f"{self.base_url}{path}", payload, timeout=self.timeout
        )
        if status < 400:
            return body
        error = body.get("error") or {}
        raise ServiceClientError(
            status,
            str(error.get("message", "")),
            error_type=str(error.get("type", "")),
            path=str(error.get("path", "")),
        )

    def health(self) -> dict:
        return self._call("GET", "/health")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def register_database(self, name: str, relations: dict[str, list[dict]]) -> dict:
        return self._call("POST", "/databases", {"name": name, "relations": relations})

    def explain(self, payload: dict) -> dict:
        return self._call("POST", "/explain", payload)

    def plan(self, payload: dict) -> dict:
        return self._call("POST", "/plan", payload)

    def analyze(self, database: str, *, buckets: int | None = None) -> dict:
        payload: dict = {"database": database}
        if buckets is not None:
            payload["buckets"] = buckets
        return self._call("POST", "/analyze", payload)

    def ingest(
        self,
        database: str,
        relation: str,
        changes: list,
        *,
        delta_id: str | None = None,
        expect_fingerprint: str | None = None,
    ) -> dict:
        payload: dict = {"database": database, "relation": relation, "changes": changes}
        if delta_id is not None:
            payload["delta_id"] = delta_id
        if expect_fingerprint is not None:
            payload["expect_fingerprint"] = expect_fingerprint
        return self._call("POST", "/ingest", payload)

    def submit_job(self, payload: dict) -> dict:
        return self._call("POST", "/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self._call("GET", f"/jobs/{job_id}")

    def cancel_job(self, job_id: str) -> dict:
        return self._call("DELETE", f"/jobs/{job_id}")

    def wait_for_job(self, job_id: str, *, timeout: float = 30.0, poll: float = 0.05) -> dict:
        """Poll a job until it reaches a terminal state; returns the final status."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if JobState(status["state"]).terminal:
                return status
            if _time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} did not finish within {timeout}s")
            _time.sleep(poll)


class ServiceClientError(RuntimeError):
    """An HTTP error response from the daemon, with status code and detail.

    ``error_type`` and ``path`` mirror the daemon's typed error envelope
    (``{"error": {"type", "message", "path"}}``) when present.
    """

    def __init__(self, status: int, detail: str, *, error_type: str = "", path: str = ""):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail
        self.error_type = error_type
        self.path = path
