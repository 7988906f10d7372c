"""The long-lived explanation engine: register databases once, explain many times.

:class:`ExplainService` wraps the one-shot :class:`~repro.core.explain3d.Explain3D`
pipeline in a service that keeps content-addressed Stage-1 artifacts alive
across requests:

* **provenance** per (database, query) -- skips query re-execution;
* **plans** per (database, ANALYZE statistics, query body) -- compiled
  :class:`~repro.plan.PhysicalPlan` objects; provenance misses execute the
  cached plan instead of re-planning, and renamed queries with the same body
  share one plan (the key ignores the query name);
* **stats** per (relation content, bucket count) -- ANALYZE statistics
  (:meth:`ExplainService.analyze`); identical relation content is analyzed
  once no matter which database or name it is registered under;
* **features** per (provenance pair, attribute matches) -- the tokenized
  :class:`~repro.matching.features.TupleFeatureCache` of each side;
* **candidates** per (provenance pair, attribute matches) -- the unfiltered
  scored candidate matches (independent of ``min_similarity``);
* **problem** per (Stage-1 inputs + linkage config) -- the assembled
  :class:`~repro.core.problem.ExplainProblem`;
* **report** per (problem + solve/summarize config) -- the finished
  :class:`~repro.core.explain3d.ExplanationReport`;
* **solutions** per (partition MILP content + HiGHS options) -- the
  objective and vector HiGHS returned (see
  :class:`~repro.core.partitioning.TieredHighs`), so a cold question whose
  partition model this service already solved skips HiGHS.  The keys are
  model content, never database fingerprints, so ingest rewiring and
  version retirement leave the tier alone.

A repeated request is a report-cache hit (no recomputation at all); a request
that perturbs only the solve configuration reuses the cached problem; one that
perturbs only the linkage thresholds reuses provenance, features and scored
candidates; a different question over the same slice of data (SUM, MAX and
AVG of IMDb ``gross`` over one year build one model) reuses solved
partitions.  Responses are identical to a direct ``Explain3D.explain()`` call
with the same inputs -- the caches inject work, never change it.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.core.canonical import UnknownAttributeError
from repro.core.explain3d import Explain3D, Explain3DConfig, ExplanationReport
from repro.core.milp_model import NonFiniteImpactError
from repro.core.problem import Stage1Artifacts, UnknownMatchKeyError, build_problem
from repro.live import DeltaConflictError, DeltaError, apply_changes_copy, delta_affects
from repro.matching.attribute_match import AttributeMatching
from repro.matching.tuple_matching import TupleMapping
from repro.plan import PhysicalPlan, logical_fingerprint, plan_node, plan_query
from repro.relational.errors import EmptyAggregateError, UnknownRelationError
from repro.relational.executor import Database
from repro.relational.provenance import provenance_relation
from repro.relational.query import Query
from repro.reliability.breaker import BreakerRegistry
from repro.reliability.deadline import Deadline, DeadlineExceeded, OperationCancelled
from repro.reliability.faults import FAULTS
from repro.service.cache import ArtifactCache, CacheRegistry, EncodedPart, fingerprint_of

logger = logging.getLogger(__name__)

#: How many applied delta ids the engine retains for ingest idempotency.
#: Bookkeeping, not correctness: a forgotten delta id becomes a 409 conflict
#: on the (stale) retry.
_DELTA_LOG_LIMIT = 512
#: How many compiled ``{"sql": ...}`` queries the service keeps (see
#: :attr:`ExplainService.compiled_queries`).
_COMPILED_QUERY_LIMIT = 256


@dataclass(frozen=True)
class _KeyParts:
    """A request shape's key material, each part canonicalized once.

    Every artifact key is a :func:`fingerprint_of` over database fingerprints
    and these parts.  Holding them as :class:`EncodedPart` bytes lets the
    request path, ingest rewiring and version retirement hash cached bytes
    plus fingerprints instead of re-canonicalizing queries, matches,
    mappings and labels for every key; the keys are bit-identical to
    ``fingerprint_of`` over the raw parts.
    """

    query_left: EncodedPart
    query_right: EncodedPart
    matches: EncodedPart
    mapping: EncodedPart
    labeled: EncodedPart
    stage1: EncodedPart

    @classmethod
    def of(cls, request: "ExplainRequest", config: Explain3DConfig) -> "_KeyParts":
        """The request's key parts; the Stage-1 config fields shape problem identity."""
        return cls(
            query_left=EncodedPart(request.query_left),
            query_right=EncodedPart(request.query_right),
            matches=EncodedPart(
                tuple(request.attribute_matches.matches)
                if request.attribute_matches is not None
                else "auto"
            ),
            mapping=EncodedPart(
                tuple(request.tuple_mapping.matches)
                if request.tuple_mapping is not None
                else "auto"
            ),
            labeled=EncodedPart(
                request.labeled_pairs if request.labeled_pairs is not None else "none"
            ),
            stage1=EncodedPart(
                (
                    config.priors,
                    config.num_buckets,
                    config.min_similarity,
                    config.min_match_probability,
                )
            ),
        )

    def provenance_keys(self, left_fp: str, right_fp: str) -> tuple[str, str]:
        return (
            fingerprint_of(left_fp, self.query_left, "L"),
            fingerprint_of(right_fp, self.query_right, "R"),
        )

    def linkage_key(self, provenance_left: str, provenance_right: str) -> str:
        # Features and scored candidates depend on the provenance pair and the
        # attribute matches only -- *not* on min_similarity or calibration, so
        # threshold-perturbed requests reuse them wholesale.
        return fingerprint_of(provenance_left, provenance_right, self.matches)

    def problem_key(self, left_fp: str, right_fp: str) -> str:
        return fingerprint_of(
            left_fp,
            self.query_left,
            right_fp,
            self.query_right,
            self.matches,
            self.mapping,
            self.labeled,
            self.stage1,
        )


@dataclass
class _LiveSignature:
    """The request shape behind one cached problem.

    Holds exactly what :meth:`ExplainService.ingest` and version retirement
    need to recompute the problem's artifact keys under a *different*
    database fingerprint: both database names, the queries (for the
    affectedness test), the shape's key parts, and the logical fingerprints
    of both queries' inner expressions (their plan keys).  ``solve_parts``
    collects every solve configuration seen for the problem (keyed by its
    own fingerprint), since each produced a distinct cached report.
    """

    database_left: str
    database_right: str
    query_left: Query
    query_right: Query
    parts: _KeyParts
    plan_left: str
    plan_right: str
    solve_parts: dict = field(default_factory=dict)


class UnknownDatabaseError(KeyError):
    """Raised when a request references a database name never registered."""

    def __init__(self, name: str, known):
        super().__init__(name)
        self.name = name
        self.known = sorted(known)

    def __str__(self) -> str:
        return f"unknown database {self.name!r} (registered: {self.known})"


@dataclass
class ServiceConfig:
    """Configuration of one :class:`ExplainService` instance."""

    default_pipeline: Explain3DConfig = field(default_factory=Explain3DConfig)
    cache_entries: int = 128
    report_cache_entries: int = 256
    spill_dir: str | Path | None = None
    #: Persist every cached artifact to ``spill_dir`` eagerly (not only on
    #: eviction), turning the directory into a shared cross-process cache
    #: tier: fleet workers pointed at one directory reuse each other's
    #: artifacts.  Safe by construction -- keys are content fingerprints and
    #: writes are atomic renames, so concurrent writers cannot conflict.
    spill_write_through: bool = False
    #: Deadline applied to requests that do not set their own (None = none).
    default_deadline_seconds: float | None = None
    #: Per-database circuit breaker: consecutive unexpected failures before
    #: the breaker opens, and the cool-down before a half-open probe.
    breaker_failures: int = 5
    breaker_reset_seconds: float = 30.0


@dataclass
class ExplainRequest:
    """One explanation request against registered databases.

    ``database_left`` / ``database_right`` are names previously passed to
    :meth:`ExplainService.register_database`.  ``config`` overrides the
    service's default pipeline configuration for this request only.

    Reliability knobs:

    * ``deadline_seconds`` -- wall-clock budget for this request, observed
      at cooperative checkpoints down to the per-partition solver;
    * ``on_deadline`` -- ``"error"`` raises a typed
      :class:`~repro.reliability.DeadlineExceeded`; ``"partial"`` returns
      the incumbent explanation with an optimality gap, explicitly marked in
      the response's ``degraded`` metadata;
    * ``cancel_event`` -- cooperative cancellation flag (set by
      :meth:`~repro.service.jobs.JobQueue.cancel` for running jobs), observed
      at the same checkpoints.
    """

    query_left: Query
    database_left: str
    query_right: Query
    database_right: str
    attribute_matches: AttributeMatching | None = None
    tuple_mapping: TupleMapping | None = None
    labeled_pairs: set | None = None
    config: Explain3DConfig | None = None
    deadline_seconds: float | None = None
    on_deadline: str = "error"
    cancel_event: threading.Event | None = field(default=None, repr=False, compare=False)


@dataclass
class ServiceResult:
    """A served explanation: the report plus service-level bookkeeping.

    ``degraded`` lists every degradation-ladder rung the serving path took
    (planner fallback, partial solve, skipped summarization...); an empty
    list means the full optimized path ran.  Fallbacks are never silent.
    """

    report: ExplanationReport
    request_fingerprint: str
    problem_fingerprint: str
    cached_report: bool
    cached_problem: bool
    service_seconds: float
    degraded: list = field(default_factory=list)
    deadline: dict | None = None

    def to_dict(self) -> dict:
        payload = self.report.to_dict()
        payload["service"] = {
            "request_fingerprint": self.request_fingerprint,
            "problem_fingerprint": self.problem_fingerprint,
            "cached_report": self.cached_report,
            "cached_problem": self.cached_problem,
            "service_seconds": self.service_seconds,
            "degraded": list(self.degraded),
            "deadline": self.deadline,
        }
        return payload


class ExplainService:
    """A long-lived engine serving many explain requests over registered databases."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.caches = CacheRegistry(
            max_entries=self.config.cache_entries,
            spill_dir=self.config.spill_dir,
            write_through=self.config.spill_write_through,
        )
        self._provenance = self.caches.cache("provenance")
        # Plans hold a reference to their whole database: spilling one would
        # pickle every base relation to disk.  Replanning is milliseconds, so
        # evicted plans are simply dropped.
        self._plans = self.caches.cache("plans", spill=False)
        # ANALYZE statistics, keyed by *relation* content fingerprint: the
        # same relation content registered under any database (or re-analyzed
        # after an unrelated relation changed) reuses one entry.
        self._stats = self.caches.cache("stats")
        self._features = self.caches.cache("features")
        self._candidates = self.caches.cache("candidates")
        self._problems = self.caches.cache("problem")
        self._reports = self.caches.cache(
            "report", max_entries=self.config.report_cache_entries
        )
        self._solutions = self.caches.cache("solutions")
        #: Compiled ``{"sql": ...}`` query specs, so a repeated question skips
        #: lex, parse, bind and lower (see :func:`repro.service.api.query_from_spec`).
        self.compiled_queries = ArtifactCache(
            "compiled_queries", max_entries=_COMPILED_QUERY_LIMIT
        )
        self._databases: dict[str, Database] = {}
        self._db_fingerprints: dict[str, str] = {}
        self._lock = threading.RLock()
        self._requests_served = 0
        # Live-update bookkeeping: request shapes for delta-aware rewiring,
        # applied delta ids for ingest idempotency, and a lock serializing
        # ingests (explains stay concurrent -- they read one atomic snapshot).
        self._signatures: OrderedDict[str, _LiveSignature] = OrderedDict()
        # A shape is worth re-keying only while a problem or report of it can
        # still be cached, so the registry is as large as the larger of those
        # caches.  A forgotten shape degrades to plain eviction-by-re-keying.
        self._signature_limit = max(self._problems.max_entries, self._reports.max_entries)
        self._applied_deltas: OrderedDict[str, dict] = OrderedDict()
        self._ingest_lock = threading.Lock()
        self._ingests_applied = 0
        self.breakers = BreakerRegistry(
            failure_threshold=self.config.breaker_failures,
            reset_seconds=self.config.breaker_reset_seconds,
        )
        # Degradation-ladder counters: "site:fallback" -> times taken.
        self._degradations: Counter = Counter()

    def _record_degradation(self, site: str, fallback: str) -> None:
        with self._lock:
            self._degradations[f"{site}:{fallback}"] += 1

    # -- database registry ---------------------------------------------------------
    def register_database(self, db: Database, name: str | None = None) -> str:
        """Register (or replace) a database; returns its content fingerprint.

        Re-registering a changed database under the same name changes the
        fingerprint, so every derived artifact is re-keyed automatically and
        no stale artifact can be served.  The replaced version's artifacts
        are then unreachable, so they are retired from memory (see
        :meth:`_retire_version`) unless another name still holds that version.
        """
        label = name or db.name
        if not label:
            raise ValueError("databases must be registered under a non-empty name")
        fingerprint = db.fingerprint()
        with self._lock:
            replaced = self._databases.get(label)
            current = dict(self._db_fingerprints)
            signatures = list(self._signatures.items())
            self._databases[label] = db
            self._db_fingerprints[label] = fingerprint
        old_fp = current.get(label)
        still_registered = any(fp == old_fp for other, fp in current.items() if other != label)
        if old_fp not in (None, fingerprint) and not still_registered:
            self._retire_version(label, replaced, fingerprint, current, signatures)
        return fingerprint

    def database(self, name: str) -> Database:
        with self._lock:
            if name not in self._databases:
                raise UnknownDatabaseError(name, self._databases.keys())
            return self._databases[name]

    def databases(self) -> dict[str, str]:
        """Registered database names mapped to their fingerprints."""
        with self._lock:
            return dict(self._db_fingerprints)

    def _db_fingerprint(self, name: str) -> str:
        with self._lock:
            if name not in self._db_fingerprints:
                raise UnknownDatabaseError(name, self._databases.keys())
            return self._db_fingerprints[name]

    def _snapshot(self, name: str) -> tuple[Database, str]:
        """The (database, fingerprint) pair read under one lock acquisition.

        Reading them separately would let a concurrent re-registration pair
        version-1 rows with the version-2 fingerprint, poisoning every cache
        keyed off it; a request must see one consistent version throughout.
        """
        with self._lock:
            if name not in self._databases:
                raise UnknownDatabaseError(name, self._databases.keys())
            return self._databases[name], self._db_fingerprints[name]

    # -- fingerprint keys ----------------------------------------------------------
    @staticmethod
    def _solver_part(solver) -> object:
        """Cache-key contribution of a solver backend.

        Keyed by class *and* configuration (``vars``), so differently
        parameterized instances (e.g. a gap-bounded vs an exact HiGHS) never
        serve each other's cached reports.  Attributes whose reprs are
        instance-specific make the key conservative -- a safe miss, never a
        wrong hit.
        """
        if solver is None:
            return "default"
        try:
            state = tuple(sorted((k, repr(v)) for k, v in vars(solver).items()))
        except TypeError:
            state = repr(solver)
        return (type(solver).__name__, state)

    @staticmethod
    def _solve_config_part(config: Explain3DConfig) -> object:
        """The config fields that shape the solved report.

        ``workers`` is deliberately excluded: the pooled and inline solve
        paths produce identical results (asserted by the perf-equivalence
        suite), so perturbing it should hit the report cache rather than
        resolve.
        """
        return (
            config.partitioning,
            config.batch_size,
            config.weighting,
            config.use_prepartitioning,
            config.summarize,
            config.min_summary_precision,
            ExplainService._solver_part(config.solver),
        )

    # -- the serving path ----------------------------------------------------------
    def explain(self, request: ExplainRequest) -> ServiceResult:
        """Serve one request, reusing every cached artifact that applies.

        The request deadline (or the service default) is observed at
        cooperative checkpoints throughout; unexpected pipeline failures
        trip the per-database circuit breakers, while client mistakes,
        deadlines and cancellations do not -- they say nothing about the
        health of the data behind a database name.
        """
        started = time.perf_counter()
        config = request.config or self.config.default_pipeline
        seconds = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self.config.default_deadline_seconds
        )
        deadline = Deadline.after(seconds, cancel_event=request.cancel_event)
        # One consistent (database, fingerprint) snapshot per side serves the
        # whole request, even if a re-registration lands mid-flight.  Snapshot
        # *before* the breaker gate so an unknown name stays a 404 even while
        # a breaker is open.
        left = self._snapshot(request.database_left)
        right = self._snapshot(request.database_right)
        admission = self.breakers.acquire(request.database_left, request.database_right)
        try:
            result = self._serve(request, config, deadline, left, right, started)
        except (
            DeadlineExceeded, OperationCancelled, UnknownDatabaseError,
            EmptyAggregateError, NonFiniteImpactError, UnknownAttributeError,
            UnknownMatchKeyError, UnknownRelationError,
        ):
            # Not a dependency-health signal: the request ran out of budget,
            # was cancelled, named nothing, or asked for what its data cannot
            # give (a 400) -- the databases are fine.  Releasing frees a
            # half-open probe slot for the next request.
            self.breakers.release(admission)
            raise
        except Exception:
            self.breakers.record_failure(admission)
            raise
        self.breakers.record_success(admission)
        return result

    def _serve(
        self,
        request: ExplainRequest,
        config: Explain3DConfig,
        deadline: Deadline,
        left: tuple[Database, str],
        right: tuple[Database, str],
        started: float,
    ) -> ServiceResult:
        parts = _KeyParts.of(request, config)
        solve_part = EncodedPart(self._solve_config_part(config))
        problem_key = parts.problem_key(left[1], right[1])
        report_key = fingerprint_of(problem_key, solve_part)
        self._record_signature(problem_key, request, parts, solve_part)
        degraded: list[dict] = []

        cached_report = self._reports.get(report_key)
        if cached_report is not None:
            with self._lock:
                self._requests_served += 1
            return ServiceResult(
                report=cached_report,
                request_fingerprint=report_key,
                problem_fingerprint=problem_key,
                cached_report=True,
                cached_problem=True,
                service_seconds=time.perf_counter() - started,
                deadline=deadline.to_dict(),
            )

        deadline.check("stage1.build")
        build_start = time.perf_counter()
        problem = self._problems.get(problem_key)
        cached_problem = problem is not None
        if problem is None:
            problem = self._build_problem(request, config, left, right, parts, degraded)
            self._problems.put(problem_key, problem)
        build_seconds = time.perf_counter() - build_start

        deadline.check("stage2.solve")
        engine = Explain3D(config)
        report = engine.explain_problem(
            problem,
            stage1_seconds=build_seconds,
            deadline=deadline if deadline.bounded or deadline.cancel_event else None,
            allow_partial=request.on_deadline == "partial",
            solutions=self._solutions,
        )
        degraded.extend(report.degraded)
        for rung in degraded:
            self._record_degradation(rung.get("site", "?"), rung.get("fallback", "?"))
        if degraded:
            # Never cache a degraded report: the planner fallback produces
            # fingerprint-identical answers, but a partial solve or skipped
            # summary does not -- and a later, unhurried request with the
            # same key must get (and will cache) the full answer.
            report.degraded = list(degraded)
        else:
            self._reports.put(report_key, report)
        with self._lock:
            self._requests_served += 1
        return ServiceResult(
            report=report,
            request_fingerprint=report_key,
            problem_fingerprint=problem_key,
            cached_report=False,
            cached_problem=cached_problem,
            service_seconds=time.perf_counter() - started,
            degraded=list(degraded),
            deadline=deadline.to_dict(),
        )

    def _build_problem(
        self,
        request: ExplainRequest,
        config: Explain3DConfig,
        left: tuple[Database, str],
        right: tuple[Database, str],
        parts: _KeyParts,
        degraded: list[dict] | None = None,
    ):
        """Cold problem construction, threading cached Stage-1 artifacts through.

        ``degraded`` (when given) collects any degradation-ladder rungs taken
        while building -- e.g. the optimized planner failing over to the
        naive interpreter.
        """
        db_left, left_fp = left
        db_right, right_fp = right

        provenance_key_left, provenance_key_right = parts.provenance_keys(left_fp, right_fp)
        linkage_key = parts.linkage_key(provenance_key_left, provenance_key_right)

        artifacts = Stage1Artifacts(
            provenance_left=self._provenance.get(provenance_key_left),
            provenance_right=self._provenance.get(provenance_key_right),
        )
        # Provenance misses run through the plan cache: the physical plan is
        # keyed by (database, inner expression) only -- not the query *name*
        # -- so renamed or re-labelled queries with the same body reuse the
        # compiled plan even though their provenance artifacts differ.
        if artifacts.provenance_left is None:
            artifacts.provenance_left = self._planned_provenance(
                request.query_left, db_left, left_fp, degraded
            )
        if artifacts.provenance_right is None:
            artifacts.provenance_right = self._planned_provenance(
                request.query_right, db_right, right_fp, degraded
            )
        features = self._features.get(linkage_key)
        if features is not None:
            artifacts.left_features, artifacts.right_features = features
        artifacts.candidates = self._candidates.get(linkage_key)

        problem = build_problem(
            request.query_left,
            db_left,
            request.query_right,
            db_right,
            attribute_matches=request.attribute_matches,
            tuple_mapping=request.tuple_mapping,
            labeled_pairs=request.labeled_pairs,
            priors=config.priors,
            num_buckets=config.num_buckets,
            min_similarity=config.min_similarity,
            min_match_probability=config.min_match_probability,
            artifacts=artifacts,
        )

        # Harvest whatever the build produced for the next request.
        self._provenance.put(provenance_key_left, artifacts.provenance_left)
        self._provenance.put(provenance_key_right, artifacts.provenance_right)
        if artifacts.left_features is not None and artifacts.right_features is not None:
            self._features.put(
                linkage_key, (artifacts.left_features, artifacts.right_features)
            )
        if artifacts.candidates is not None:
            self._candidates.put(linkage_key, artifacts.candidates)
        return problem

    # -- ANALYZE statistics ----------------------------------------------------------
    def analyze(self, database: str, *, buckets: int | None = None) -> dict:
        """ANALYZE a registered database; returns the statistics as JSON.

        Per-relation statistics are served from (and stored in) the ``stats``
        artifact cache keyed by relation *content* fingerprint, so identical
        relation content -- under any name, in any registered database -- is
        analyzed exactly once.  The resulting
        :class:`~repro.stats.statistics.DatabaseStats` is attached to the
        database, which flips the planner to cost-based mode (join
        reordering, statistics-backed build sides) for every plan compiled
        afterwards; the plan cache re-keys automatically.
        """
        from repro.stats import DEFAULT_BUCKETS, DatabaseStats, analyze_relation

        buckets = buckets if buckets is not None else DEFAULT_BUCKETS
        db, _ = self._snapshot(database)
        try:
            relations = {}
            for name, relation in db.relations().items():
                FAULTS.check("stats.analyze")
                fingerprint = relation.fingerprint()
                key = fingerprint_of(fingerprint, buckets)
                stats = self._stats.get_or_compute(
                    key,
                    lambda relation=relation, fingerprint=fingerprint: analyze_relation(
                        relation, buckets=buckets, fingerprint=fingerprint
                    ),
                )
                # A content-cache hit may carry the name the identical content
                # was first analyzed under; report it under this database's name.
                relations[name] = stats.with_name(name)
        except Exception as exc:
            # Degradation ladder, rung 2: without ANALYZE statistics the
            # planner keeps using the heuristic cost model -- plans may be
            # slower, answers are identical.  Leave any previously attached
            # statistics in place rather than half-replacing them.
            logger.warning(
                "ANALYZE of %s failed (%s: %s); planner stays on the "
                "heuristic cost model",
                database, type(exc).__name__, exc,
            )
            self._record_degradation("stats.analyze", "heuristic-cost-model")
            return {
                "database": database,
                "relations": {},
                "degraded": [
                    {
                        "site": "stats.analyze",
                        "fallback": "heuristic-cost-model",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                ],
            }
        statistics = DatabaseStats(relations, buckets=buckets)
        db.statistics = statistics
        payload = statistics.to_dict()
        payload["database"] = database
        payload["fingerprint"] = statistics.fingerprint()
        return payload

    # -- live updates (POST /ingest) ---------------------------------------------------
    def _record_signature(
        self,
        problem_key: str,
        request: ExplainRequest,
        parts: _KeyParts,
        solve_part: EncodedPart,
    ) -> None:
        """Remember the request shape behind ``problem_key`` for rewiring."""
        solve_fp = fingerprint_of(solve_part)
        with self._lock:
            signature = self._signatures.get(problem_key)
        if signature is None:
            # Built outside the lock (two canonical forms): a racing request
            # of the same shape may store an equal signature first, and
            # setdefault then keeps that one.
            signature = _LiveSignature(
                database_left=request.database_left,
                database_right=request.database_right,
                query_left=request.query_left,
                query_right=request.query_right,
                parts=parts,
                plan_left=logical_fingerprint(request.query_left.inner),
                plan_right=logical_fingerprint(request.query_right.inner),
            )
        with self._lock:
            signature = self._signatures.setdefault(problem_key, signature)
            signature.solve_parts[solve_fp] = solve_part
            self._signatures.move_to_end(problem_key)
            while len(self._signatures) > self._signature_limit:
                self._signatures.popitem(last=False)

    def _signature_keys(
        self, signature: _LiveSignature, left_fp: str, right_fp: str
    ) -> dict:
        """Every artifact key of one request shape under the given fingerprints."""
        parts = signature.parts
        provenance_left, provenance_right = parts.provenance_keys(left_fp, right_fp)
        linkage = parts.linkage_key(provenance_left, provenance_right)
        problem = parts.problem_key(left_fp, right_fp)
        return {
            "provenance_left": provenance_left,
            "provenance_right": provenance_right,
            "linkage": linkage,
            "problem": problem,
            "reports": {
                solve_fp: fingerprint_of(problem, part)
                for solve_fp, part in signature.solve_parts.items()
            },
        }

    def _advance_stats(self, statistics, relation: str, delta, new_relation):
        """ANALYZE statistics carried across a delta; returns ``(stats, mode)``.

        Merges the delta into the attached statistics when they describe the
        delta's base content and carry mergeable sketches, falling back to a
        full rescan past the drift threshold (``mode`` is ``"incremental"``
        or ``"rescan"``).  Either way the result lands in the ``stats``
        artifact cache under the new content fingerprint, so a later ANALYZE
        of the post-delta database is a cache hit.
        """
        from repro.stats import analyze_relation
        from repro.stats.statistics import DRIFT_THRESHOLD, merge_relation_stats

        buckets = statistics.buckets
        base = statistics.relation(relation)
        stats = None
        mode = "rescan"
        if (
            base is not None
            and base.fingerprint == delta.base_fingerprint
            and all(column.sketch is not None for column in base.columns)
        ):
            merged = merge_relation_stats(base, delta, buckets=buckets)
            if merged.drift <= DRIFT_THRESHOLD:
                stats, mode = merged, "incremental"
        if stats is None:
            stats = analyze_relation(
                new_relation, buckets=buckets, fingerprint=delta.new_fingerprint
            )
        self._stats.put(fingerprint_of(delta.new_fingerprint, buckets), stats)
        return stats, mode

    def _shapes_over(self, database: str, new_db_fp: str, current: dict, signatures):
        """The remembered request shapes over ``database``, with their keys.

        Yields ``(problem key, shape, old keys, new keys)``: every artifact
        key of the shape under the fingerprints in ``current``, and under the
        same fingerprints with ``database`` at ``new_db_fp``.  A shape whose
        other database is no longer registered is skipped.
        """
        for problem_key, signature in signatures:
            if database not in (signature.database_left, signature.database_right):
                continue
            old_left = current.get(signature.database_left)
            old_right = current.get(signature.database_right)
            if old_left is None or old_right is None:
                continue
            new_left = new_db_fp if signature.database_left == database else old_left
            new_right = new_db_fp if signature.database_right == database else old_right
            yield (
                problem_key,
                signature,
                self._signature_keys(signature, old_left, old_right),
                self._signature_keys(signature, new_left, new_right),
            )

    def _artifact_keys(self, old_keys: dict, new_keys: dict) -> list:
        """``(cache, old key, new key)`` of every cached artifact of one shape."""
        pairs = [
            (cache, old_keys[slot], new_keys[slot])
            for slot, cache in (
                ("provenance_left", self._provenance),
                ("provenance_right", self._provenance),
                ("linkage", self._features),
                ("linkage", self._candidates),
                ("problem", self._problems),
            )
        ]
        pairs += [
            (self._reports, report_key, new_keys["reports"][solve_fp])
            for solve_fp, report_key in old_keys["reports"].items()
        ]
        return pairs

    def _rekey_signatures(self, rekeyed: list[tuple[str, str]]) -> None:
        """Move remembered shapes to the problem keys of a new database version."""
        with self._lock:
            for old_problem_key, new_problem_key in rekeyed:
                signature = self._signatures.pop(old_problem_key, None)
                if signature is not None:
                    self._signatures[new_problem_key] = signature

    def _retire_version(
        self,
        database: str,
        replaced: Database,
        new_db_fp: str,
        current: dict,
        signatures: list,
    ) -> None:
        """Drop a replaced database version's artifacts from the memory caches.

        Walks the remembered request shapes over ``database`` as
        :meth:`_rewire_caches` does.  Every artifact whose key changes under
        the new fingerprint is evicted, and so are the shape's compiled plans
        on the replaced version (which would otherwise pin its ``Database``).
        Eviction spills and writes no tombstone: the content behind those
        keys is still valid if the same version is registered again.
        """
        old_fp = current[database]
        rekeyed: list[tuple[str, str]] = []
        for problem_key, signature, old_keys, new_keys in self._shapes_over(
            database, new_db_fp, current, signatures
        ):
            for cache, old_key, new_key in self._artifact_keys(old_keys, new_keys):
                if old_key != new_key:
                    cache.evict(old_key)
            for side_database, plan in (
                (signature.database_left, signature.plan_left),
                (signature.database_right, signature.plan_right),
            ):
                if side_database == database:
                    self._plans.evict(self._plan_key(replaced, old_fp, plan))
            rekeyed.append((problem_key, new_keys["problem"]))
        self._rekey_signatures(rekeyed)

    def _rewire_caches(self, database: str, delta, new_db_fp: str) -> dict:
        """Delta-aware invalidation: evict what changed, rewire what did not.

        Walks every remembered request shape touching ``database``.  A shape
        the delta provably does not affect (see
        :func:`repro.live.delta_affects`) has its artifacts *rewired* -- same
        bytes, re-addressed to the new database fingerprint; an affected
        shape has its old-key artifacts evicted (with shared-tier tombstones)
        so nothing stale survives.  Artifacts whose keys do not change (the
        un-ingested side's provenance) are simply retained.  Compiled plans
        are never rewired: a physical plan binds the old database object, and
        replanning is cheap.
        """
        moves = {"rewired": 0, "evicted": 0, "retained": 0}
        with self._lock:
            signatures = list(self._signatures.items())
            current = dict(self._db_fingerprints)
        handled: set[tuple[str, str]] = set()

        def rewire(cache, old_key: str, new_key: str) -> None:
            if old_key == new_key:
                if (cache.name, old_key) not in handled:
                    handled.add((cache.name, old_key))
                    if old_key in cache:
                        moves["retained"] += 1
                return
            if (cache.name, old_key) in handled:
                return
            handled.add((cache.name, old_key))
            if cache.rewire(old_key, new_key):
                moves["rewired"] += 1
                moves["retained"] += 1

        def invalidate(cache, old_key: str) -> None:
            if (cache.name, old_key) in handled:
                return
            handled.add((cache.name, old_key))
            if cache.invalidate(old_key):
                moves["evicted"] += 1

        def affects(signature: _LiveSignature, old_keys: dict) -> bool:
            for side_database, query, slot in (
                (signature.database_left, signature.query_left, "provenance_left"),
                (signature.database_right, signature.query_right, "provenance_right"),
            ):
                if side_database == database and delta_affects(
                    query, delta, self._provenance.peek(old_keys[slot])
                ):
                    return True
            return False

        # Judge every shape before moving anything: shapes that share an
        # artifact (threshold perturbations share provenance) must all find
        # it under its old key, or all but the first would be evicted.
        shapes = [
            (problem_key, old_keys, new_keys, affects(signature, old_keys))
            for problem_key, signature, old_keys, new_keys in self._shapes_over(
                database, new_db_fp, current, signatures
            )
        ]
        rekeyed: list[tuple[str, str]] = []
        for problem_key, old_keys, new_keys, affected in shapes:
            for cache, old_key, new_key in self._artifact_keys(old_keys, new_keys):
                if not affected:
                    rewire(cache, old_key, new_key)
                elif old_key != new_key:
                    invalidate(cache, old_key)
            rekeyed.append((problem_key, new_keys["problem"]))
        self._rekey_signatures(rekeyed)
        return moves

    def ingest(
        self,
        database: str,
        relation: str,
        changes,
        *,
        delta_id: str | None = None,
        expect_fingerprint: str | None = None,
    ) -> dict:
        """Apply a batch of row-level changes to a registered database.

        The serving path of ``POST /ingest``: builds a copy-on-write version
        of the touched relation (concurrent explains keep reading the
        pre-delta snapshot), advances ANALYZE statistics incrementally,
        evicts exactly the cached artifacts the delta affected -- rewiring
        the rest to the new database fingerprint -- and atomically swaps the
        new database version in.  Every explain answer is therefore
        byte-identical to a cold rebuild at either the pre- or post-delta
        version, never a mix.

        ``delta_id`` is the idempotency key: re-submitting an applied id
        returns the original summary without re-applying (the PR-7
        single-flight machinery on the router funnels concurrent duplicates
        into one call).  Without one, a deterministic id is derived from the
        payload and the current database fingerprint.  ``expect_fingerprint``
        (when given) must match the live database fingerprint, else
        :class:`~repro.live.DeltaConflictError` (HTTP 409).
        """
        with self._ingest_lock:
            db, db_fp = self._snapshot(database)
            if expect_fingerprint is not None and expect_fingerprint != db_fp:
                raise DeltaConflictError(
                    f"ingest targets {database!r} at fingerprint "
                    f"{expect_fingerprint[:12]}..., but the live database is at "
                    f"{db_fp[:12]}...; re-read and rebuild the delta"
                )
            idempotency_key = delta_id or fingerprint_of(
                database, relation, changes, db_fp
            )
            with self._lock:
                summary = self._applied_deltas.get(idempotency_key)
            if summary is not None:
                duplicate = dict(summary)
                duplicate["applied"] = False
                duplicate["deduplicated"] = True
                return duplicate
            # The fault gate sits before any state change: an injected ingest
            # fault leaves database, statistics and caches fully pre-delta.
            FAULTS.check("live.apply_delta")
            try:
                old_relation = db.relation(relation)
            except UnknownRelationError as exc:
                raise DeltaError(str(exc), "/relation") from None
            new_relation, delta = apply_changes_copy(old_relation, changes)

            stats_mode = "none"
            new_statistics = None
            if db.statistics is not None and relation in db.statistics:
                stats, stats_mode = self._advance_stats(
                    db.statistics, relation, delta, new_relation
                )
                relations = db.statistics.relations()
                relations[relation] = stats.with_name(relation)
                from repro.stats import DatabaseStats

                new_statistics = DatabaseStats(
                    relations, buckets=db.statistics.buckets
                )

            new_db = db.with_relation(relation, new_relation, statistics=new_statistics)
            new_db_fp = new_db.fingerprint()
            caches = self._rewire_caches(database, delta, new_db_fp)

            with self._lock:
                if self._db_fingerprints.get(database) != db_fp:
                    raise DeltaConflictError(
                        f"database {database!r} was re-registered during ingest; "
                        "re-read and rebuild the delta"
                    )
                self._databases[database] = new_db
                self._db_fingerprints[database] = new_db_fp
                self._ingests_applied += 1
                summary = {
                    "database": database,
                    "relation": relation,
                    "delta_id": delta.delta_id,
                    "applied": True,
                    "base_fingerprint": db_fp,
                    "fingerprint": new_db_fp,
                    "relation_fingerprint": delta.new_fingerprint,
                    "changes": delta.counts(),
                    "stats": stats_mode,
                    "caches": caches,
                }
                for key in {idempotency_key, delta.delta_id}:
                    self._applied_deltas[key] = summary
                while len(self._applied_deltas) > _DELTA_LOG_LIMIT:
                    self._applied_deltas.popitem(last=False)
            return dict(summary)

    # -- query planning --------------------------------------------------------------
    def _planned_provenance(
        self, query: Query, db: Database, db_fp: str, degraded: list[dict] | None = None
    ):
        """Provenance via the plan cache (compile once per database + body).

        Degradation ladder, rung 1: if the optimized planner fails for any
        reason -- a lowering bug, an injected fault -- fall back to the naive
        reference interpreter, which produces fingerprint-identical provenance
        (asserted by the chaos suite).  The rung is recorded in ``degraded``
        and in the engine counters; answers never change, only speed.  A
        query naming a relation the database lacks is the caller's mistake,
        not a planner fault: the naive interpreter fails on it too, so the
        :class:`UnknownRelationError` propagates as it is.
        """
        inner = query.inner
        try:
            plan = self._cached_plan(db, db_fp, inner, lambda: plan_node(inner, db))
        except UnknownRelationError:
            raise
        except Exception as exc:
            logger.warning(
                "optimized planner failed for %s (%s: %s); "
                "falling back to the naive interpreter",
                query.name, type(exc).__name__, exc,
            )
            self._record_degradation("plan.lower", "naive-interpreter")
            if degraded is not None:
                degraded.append(
                    {
                        "site": "plan.lower",
                        "fallback": "naive-interpreter",
                        "query": query.name,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
            return provenance_relation(
                query, db, label=f"P[{query.name}]", planner="naive"
            )
        return provenance_relation(query, db, label=f"P[{query.name}]", plan=plan)

    @staticmethod
    def _plan_key(db: Database, db_fp: str, logical: str) -> str:
        # ANALYZE statistics participate in the key: analyzing a database
        # changes the plans it should get (never their results), so cached
        # heuristic plans must not shadow the cost-based ones and vice versa.
        statistics = getattr(db, "statistics", None)
        stats_part = statistics.fingerprint() if statistics is not None else "none"
        return fingerprint_of(db_fp, stats_part, logical)

    def _cached_plan(self, db: Database, db_fp: str, node, factory) -> PhysicalPlan:
        key = self._plan_key(db, db_fp, logical_fingerprint(node))
        return self._plans.get_or_compute(key, factory)

    def explain_plan(self, database: str, query: Query, *, run: bool = True) -> dict:
        """EXPLAIN a query against a registered database (JSON plan tree).

        The compiled plan lands in (and is served from) the ``plans`` cache.
        The explain path plans the query's *inner* (provenance) expression
        rather than its root, so that plan is compiled and cached here too --
        an EXPLAIN genuinely warms the cache for the explain requests that
        follow.  ``run=True`` executes the root plan once and annotates each
        operator with actual row counts and timings.
        """
        db, db_fp = self._snapshot(database)
        plan = self._cached_plan(db, db_fp, query.root, lambda: plan_query(query, db))
        inner = query.inner
        if logical_fingerprint(inner) != plan.fingerprint:
            self._cached_plan(db, db_fp, inner, lambda: plan_node(inner, db))
        try:
            explanation = plan.explain(run=run).to_dict()
        except EmptyAggregateError as exc:
            # A well-formed aggregate over an all-NULL input: surface a typed
            # 400 pointing at the query, never an unhandled 500.
            exc.path = exc.path or "/query"
            raise
        explanation["database"] = database
        explanation["query"] = query.name
        return explanation

    # -- introspection ---------------------------------------------------------------
    def stats(self) -> dict:
        """Service counters: requests served, registered databases, cache stats."""
        with self._lock:
            served = self._requests_served
            databases = dict(self._db_fingerprints)
            degradations = dict(self._degradations)
            ingests = self._ingests_applied
        return {
            "requests_served": served,
            "ingests_applied": ingests,
            "databases": databases,
            "degradations": degradations,
            "breakers": self.breakers.states(),
            **self.caches.stats(),
        }

    def health(self) -> dict:
        """Liveness + reliability snapshot (the payload of ``GET /health``).

        ``status`` is ``"degraded"`` (not an error status -- the service is
        up and serving what it can) whenever any circuit breaker is open or
        any degradation rung has been taken; ``"ok"`` otherwise.
        """
        with self._lock:
            served = self._requests_served
            degradations = dict(self._degradations)
        breakers = self.breakers.states()
        cache_stats = self.caches.stats()
        degraded = self.breakers.any_open() or bool(degradations)
        tiers = {
            name: {"hits": counters["hits"], "misses": counters["misses"]}
            for name, counters in cache_stats["caches"].items()
        }
        return {
            "status": "degraded" if degraded else "ok",
            "requests_served": served,
            "breakers": breakers,
            "degradations": degradations,
            "caches": {**cache_stats["total"], "tiers": tiers},
        }

    def clear_caches(self) -> None:
        self.caches.clear()

    def persist_caches(self) -> int:
        """Flush every in-memory cache entry to the disk spill; returns count.

        Called by the daemon's graceful-shutdown path so a successor process
        (or a fleet sibling sharing the spill directory) starts warm instead
        of relying on whatever happened to be evicted before the SIGTERM.
        No spill directory means nothing to do.
        """
        return self.caches.flush()

    # -- conveniences -----------------------------------------------------------------
    def request(
        self,
        query_left: Query,
        database_left: str,
        query_right: Query,
        database_right: str,
        **kwargs,
    ) -> ExplainRequest:
        """Shorthand for building an :class:`ExplainRequest`."""
        return ExplainRequest(
            query_left=query_left,
            database_left=database_left,
            query_right=query_right,
            database_right=database_right,
            **kwargs,
        )

    def with_config(self, request: ExplainRequest, **overrides) -> ExplainRequest:
        """A copy of ``request`` with pipeline-config fields overridden."""
        base = request.config or self.config.default_pipeline
        return replace(request, config=replace(base, **overrides))
