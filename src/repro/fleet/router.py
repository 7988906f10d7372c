"""The fleet router: one front door, N worker pods, zero lost requests.

:class:`FleetRouter` answers the single-process daemon's route table
through the same transport (:mod:`repro.service.http`: body parsing, error
table, endpoint metrics), so :class:`ServiceClient` and every existing caller
work unchanged against a fleet.  Behind the door:

* **Placement** -- requests route over a consistent-hash ring keyed by the
  fingerprint of their database pair (:mod:`repro.fleet.ring`), so all
  traffic for one dataset pair lands on one worker and its in-memory
  artifact caches stay hot.  Database registrations broadcast to *every*
  worker, which is what makes failover re-hash sound: any worker can serve
  any request, identically, because the pipeline is deterministic and the
  artifact keys are content fingerprints.
* **Idempotent request keys** -- every explain carries an idempotency key
  (fingerprint of the full request payload).  Concurrent identical requests
  coalesce onto one upstream call (single-flight), and a failover retry of
  the same request is safe by construction -- replaying a pure computation.
* **Failover** -- a transport-dead worker is removed from the ring and the
  request re-hashes onto the next worker in the key's preference order; the
  response is byte-identical because every worker computes the same answer.
* **Circuit breakers** -- per-worker, reusing
  :class:`~repro.reliability.breaker.BreakerRegistry`: a worker that keeps
  failing is skipped in preference order until its cool-down probe passes.
* **Supervision** -- an optional heartbeat thread probes workers, respawns
  dead pods (replaying database registrations onto the newcomer) and adds
  them back to the ring.
* **Live deltas** -- ``POST /ingest`` is validated at the router, then
  broadcasts a row-level delta batch to every live worker (single-flighted
  by delta id); all pods must agree on the post-delta fingerprint, and each
  pod's delta-aware invalidation drops write-through tombstones into the
  shared tier so siblings cannot resurrect artifacts of the previous
  database version.  Applied deltas are logged and replayed (after the base
  registration) onto respawned pods.  A broadcast that some pods applied
  and another refused is reported, never hidden: a 500
  ``FleetConsistencyError`` names both sides.
"""

from __future__ import annotations

import threading

from repro.reliability.breaker import BreakerRegistry, CircuitOpenError
from repro.runs.spec import compile_runs_payload
from repro.service.api import ingest_request_from_payload
from repro.service.cache import fingerprint_of
from repro.service.http import (
    JSONHTTPServer,
    NoWorkerAvailable,
    WorkerUnavailable,
    error_payload,
    http_json,
    start_in_background,
)
from repro.service.metrics import LatencyRecorder, merge_endpoint_snapshots
from repro.fleet.ring import HashRing
from repro.fleet.shared_cache import SharedCacheTier, aggregate_cache_stats
from repro.fleet.worker import WorkerPool


class _Flight:
    """One in-flight routed request that duplicates can latch onto."""

    __slots__ = ("done", "outcome", "error", "followers")

    def __init__(self):
        self.done = threading.Event()
        self.outcome: tuple[int, dict] | None = None
        self.error: BaseException | None = None
        self.followers = 0


class FleetRouter:
    """Routes service requests across worker pods; see the module docstring."""

    def __init__(
        self,
        workers,
        *,
        pool: WorkerPool | None = None,
        shared_cache: SharedCacheTier | None = None,
        replicas: int = 64,
        breaker_failures: int = 3,
        breaker_reset_seconds: float = 5.0,
        forward_timeout: float = 600.0,
        respawn: bool = False,
        heartbeat_seconds: float = 1.0,
    ):
        self._workers = {worker.name: worker for worker in workers}
        if not self._workers:
            raise ValueError("a fleet needs at least one worker")
        self.ring = HashRing(self._workers, replicas=replicas)
        self.pool = pool
        self.shared_cache = shared_cache
        self.forward_timeout = forward_timeout
        self.respawn = respawn
        self.heartbeat_seconds = heartbeat_seconds
        self.breakers = BreakerRegistry(
            failure_threshold=breaker_failures, reset_seconds=breaker_reset_seconds
        )
        self.metrics = LatencyRecorder()
        self._lock = threading.RLock()
        #: Replayed onto respawned/joining workers so any pod can serve
        #: any database.  Maps name -> the raw /databases payload.
        self._registrations: dict[str, dict] = {}
        #: Applied deltas per database (delta id -> raw /ingest payload, in
        #: order), replayed after the registration so a respawned pod
        #: converges on the live fingerprint.  Cleared when a database is
        #: (re)registered from scratch.
        self._ingests: dict[str, dict[str, dict]] = {}
        self._inflight: dict[str, _Flight] = {}
        self._counters = {
            "routed": 0, "failovers": 0, "coalesced": 0,
            "respawns": 0, "rejected": 0,
        }
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None

    # -- request keys -----------------------------------------------------------------
    @staticmethod
    def placement_key(database_left: str, database_right: str) -> str:
        """The ring key of a database pair (order-sensitive, like the caches)."""
        return fingerprint_of(str(database_left), str(database_right))

    @staticmethod
    def request_key(payload: dict) -> str:
        """The idempotency key: a fingerprint of the full request payload."""
        return fingerprint_of(payload)

    # -- worker membership --------------------------------------------------------------
    def workers(self) -> dict:
        with self._lock:
            return dict(self._workers)

    def _mark_dead(self, name: str) -> None:
        """Drop a transport-dead worker from rotation; its arcs fail over."""
        with self._lock:
            worker = self._workers.get(name)
            if worker is not None and worker.state != "dead":
                worker.state = "dead"
            self.ring.remove(name)

    def _admit(self, worker) -> None:
        """Add a (re)spawned worker: replay registrations, then join the ring.

        Registrations -- and the deltas applied since each registration, in
        order -- replay *before* the ring add so the worker never receives a
        routed request for a database (or database version) it has not seen.
        """
        with self._lock:
            registrations = list(self._registrations.values())
            deltas = [delta for log in self._ingests.values() for delta in log.values()]
        for path, payloads in (("/databases", registrations), ("/ingest", deltas)):
            for payload in payloads:
                http_json(
                    "POST", f"{worker.url}{path}", payload, timeout=self.forward_timeout
                )
        with self._lock:
            self._workers[worker.name] = worker
            self.ring.add(worker.name)

    # -- supervision --------------------------------------------------------------------
    def start_supervisor(self) -> None:
        """Start the heartbeat/respawn loop (idempotent)."""
        if self._supervisor is not None:
            return
        self._supervisor = threading.Thread(
            target=self._supervise, name="fleet-supervisor", daemon=True
        )
        self._supervisor.start()

    def _supervise(self) -> None:
        while not self._stop.wait(self.heartbeat_seconds):
            try:
                self._heartbeat_once()
            except Exception:  # noqa: BLE001 - supervision must never die
                pass

    def _heartbeat_once(self) -> None:
        for name, worker in list(self.workers().items()):
            if worker.state == "dead":
                continue
            if worker.heartbeat() is None and worker.state == "dead":
                self._mark_dead(name)
        if self.respawn and self.pool is not None:
            for newcomer in self.pool.respawn_dead():
                try:
                    self._admit(newcomer)
                    with self._lock:
                        self._counters["respawns"] += 1
                except WorkerUnavailable:
                    newcomer.kill()

    def shutdown(self) -> None:
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        if self.pool is not None:
            self.pool.stop()

    # -- forwarding --------------------------------------------------------------------
    def _forward(
        self, key: str, method: str, path: str, payload: dict | None
    ) -> tuple[int, dict, str]:
        """Forward to the key's preferred worker, failing over down the ring.

        Returns ``(status, body, worker_name)``.  Transport failures mark the
        worker dead and re-hash; HTTP responses -- including the worker's own
        typed errors -- are relayed as-is (the worker answered; its answer is
        the answer).  Breaker-open workers are skipped in preference order.
        """
        attempts = 0
        with self._lock:
            preference = list(self.ring.preference(key))
        for name in preference:
            worker = self._workers.get(name)
            if worker is None or worker.state == "dead" or worker.url is None:
                continue
            try:
                admission = self.breakers.acquire(name)
            except CircuitOpenError:
                continue
            attempts += 1
            try:
                status, body = http_json(
                    method, f"{worker.url}{path}", payload,
                    timeout=self.forward_timeout,
                )
            except WorkerUnavailable:
                # The failover path: this worker is gone at the transport
                # level; requests re-hash onto the next node of the ring.
                self.breakers.record_failure(admission)
                self._mark_dead(name)
                with self._lock:
                    self._counters["failovers"] += 1
                continue
            if status >= 500:
                self.breakers.record_failure(admission)
            else:
                self.breakers.record_success(admission)
            with self._lock:
                self._counters["routed"] += 1
            return status, body, name
        with self._lock:
            self._counters["rejected"] += 1
        raise NoWorkerAvailable(
            f"no live worker for this request after {attempts} attempt(s); "
            f"ring members: {self.ring.nodes()}"
        )

    def _single_flight(self, idempotency_key: str, call):
        """Coalesce concurrent identical requests onto one upstream execution."""
        with self._lock:
            flight = self._inflight.get(idempotency_key)
            if flight is None:
                flight = self._inflight[idempotency_key] = _Flight()
                leader = True
            else:
                flight.followers += 1
                self._counters["coalesced"] += 1
                leader = False
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.outcome
        try:
            flight.outcome = call()
            return flight.outcome
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(idempotency_key, None)
            flight.done.set()

    # -- broadcasts --------------------------------------------------------------------
    def _broadcast(self, path: str, payload: dict, record) -> tuple[int, dict]:
        """POST one write to every live worker; ``record()`` logs it for replay.

        Every pod must hold every database version for failover re-hash to
        be sound.  ``record`` runs under the lock as soon as one pod holds the
        write, so a pod admitted mid-broadcast still replays it.  A pod that
        fails before any pod applied the write has its answer relayed as is:
        nothing changed anywhere.  A pod that fails after another applied it
        leaves the fleet split, reported as a 500 ``FleetConsistencyError``
        naming the applied and the failed pods; so is a disagreement on the
        resulting content fingerprint.  Retrying the same write converges:
        registrations are idempotent and deltas dedupe by id on every pod.
        """
        applied: dict[str, dict] = {}
        for name, worker in list(self.workers().items()):
            if worker.state == "dead" or worker.url is None:
                continue
            try:
                status, body = http_json(
                    "POST", f"{worker.url}{path}", payload, timeout=self.forward_timeout
                )
            except WorkerUnavailable:
                self._mark_dead(name)
                continue
            if status >= 400 and not applied:
                return status, body
            if status >= 400:
                error = body.get("error") or {}
                return 500, error_payload(
                    "FleetConsistencyError",
                    f"POST {path} applied on {sorted(applied)} but failed on "
                    f"{name!r} ({status} {error.get('type', '')}: "
                    f"{error.get('message', '')}); retry it to converge the fleet",
                )
            if not applied:
                with self._lock:
                    record()
            applied[name] = body
        if not applied:
            raise NoWorkerAvailable(f"no live worker accepted POST {path}")
        fingerprints = {body.get("fingerprint") for body in applied.values()}
        if len(fingerprints) != 1:
            return 500, error_payload(
                "FleetConsistencyError",
                f"workers disagree on the fingerprint after POST {path}: {fingerprints}",
            )
        body = next(iter(applied.values()))
        body["workers"] = sorted(applied)
        return status, body

    # -- the routed API -----------------------------------------------------------------
    def register_database(self, payload: dict) -> tuple[int, dict]:
        """Broadcast a database registration to every live worker.

        The payload is retained and replayed onto respawned pods.  Validation
        stays on the pods: building the database here too would double the
        registration cost.
        """
        name = str(payload.get("name", ""))

        def record():
            self._registrations[name] = payload
            # A (re)registration defines the database from scratch; earlier
            # deltas are folded into history and must not replay on top.
            self._ingests.pop(name, None)

        return self._broadcast("/databases", payload, record)

    def ingest(self, payload: dict) -> tuple[int, dict]:
        """Broadcast one delta batch to every live worker, coherently.

        The payload is validated here before any pod is contacted, so a
        malformed batch is one 400 and never a split fleet.  The delta id
        (client-supplied or derived from the payload) keys the single-flight
        latch, so a concurrent duplicate rides the in-flight broadcast; a
        later retry is absorbed by each worker's idempotent delta log.  The
        shared disk tier's tombstones are content-addressed, so all pods
        must agree on the post-delta fingerprint (see :meth:`_broadcast`).
        """
        delta_id = ingest_request_from_payload(payload)["delta_id"]

        def record():
            self._ingests.setdefault(str(payload["database"]), {})[delta_id] = payload

        return self._single_flight(
            f"ingest:{delta_id}", lambda: self._broadcast("/ingest", payload, record)
        )

    def explain(self, payload: dict) -> tuple[int, dict]:
        """Route one explain: single-flight, placement by database pair, failover.

        A ``{"runs": ...}`` payload (the run-diff workload) is compiled at
        the router: the run pair's registrations -- records plus pinned
        dtypes -- broadcast to every worker exactly like any other database
        (and replay onto respawned pods), then the rewritten declarative
        payload routes normally.  Re-submitting the same runs lands on the
        same fingerprints, so placement stays sticky and the owning worker's
        report cache stays warm.
        """
        if "runs" in payload:
            compiled = compile_runs_payload(payload)
            for registration in compiled.registrations:
                status, body = self.register_database(registration)
                if status >= 400:
                    return status, body
            payload = compiled.explain_payload
        key = self.placement_key(
            payload.get("database_left", ""), payload.get("database_right", "")
        )
        idempotency_key = self.request_key(payload)

        def _call():
            status, body, worker = self._forward(key, "POST", "/explain", payload)
            if status == 200:
                body.setdefault("fleet", {})
                body["fleet"].update(
                    {"worker": worker, "idempotency_key": idempotency_key}
                )
            return status, body

        return self._single_flight(idempotency_key, _call)

    def plan(self, payload: dict) -> tuple[int, dict]:
        key = self.placement_key(payload.get("database", ""), payload.get("database", ""))
        status, body, _ = self._forward(key, "POST", "/plan", payload)
        return status, body

    def analyze(self, payload: dict) -> tuple[int, dict]:
        key = self.placement_key(payload.get("database", ""), payload.get("database", ""))
        status, body, _ = self._forward(key, "POST", "/analyze", payload)
        return status, body

    # -- async jobs ---------------------------------------------------------------------
    #: Job references returned by the router are ``<worker>:<job-id>`` so
    #: status polls and cancels route back to the pod that owns the job.
    def submit_job(self, payload: dict) -> tuple[int, dict]:
        key = self.placement_key(
            payload.get("database_left", ""), payload.get("database_right", "")
        )
        status, body, worker = self._forward(key, "POST", "/jobs", payload)
        if status < 400 and "id" in body:
            body["id"] = f"{worker}:{body['id']}"
        return status, body

    def _job_ref(self, ref: str) -> tuple[str, str] | None:
        worker, _, job_id = ref.partition(":")
        if not job_id or worker not in self._workers:
            return None
        return worker, job_id

    def _job_call(self, method: str, ref: str) -> tuple[int, dict]:
        parsed = self._job_ref(ref)
        if parsed is None:
            return 404, error_payload("UnknownJobError", f"unknown job {ref}")
        worker_name, job_id = parsed
        worker = self._workers[worker_name]
        if worker.state != "dead" and worker.url is not None:
            try:
                status, body = http_json(
                    method, f"{worker.url}/jobs/{job_id}", timeout=self.forward_timeout
                )
            except WorkerUnavailable:
                self._mark_dead(worker_name)
            else:
                if "id" in body:
                    body["id"] = f"{worker_name}:{body['id']}"
                return status, body
        # The owning pod died; its in-memory job state died with it.
        # Clients re-submit: the idempotency key dedupes on the new pod.
        return 404, error_payload(
            "JobLostError",
            f"worker {worker_name} holding job {job_id} is gone; "
            "re-submit the request (idempotency keys make this safe)",
        )

    def job_status(self, ref: str) -> tuple[int, dict]:
        return self._job_call("GET", ref)

    def cancel_job(self, ref: str) -> tuple[int, dict]:
        return self._job_call("DELETE", ref)

    # -- introspection ------------------------------------------------------------------
    def health(self) -> dict:
        """The fleet-level /health: workers, ring, shared tier, load metrics."""
        workers_payload: dict[str, dict] = {}
        worker_health: list[dict] = []
        for name, worker in self.workers().items():
            entry = worker.describe()
            if worker.state != "dead":
                health = worker.probe()
                if health is not None:
                    worker_health.append(health)
                    entry["health"] = {
                        key: health.get(key)
                        for key in ("status", "requests_served", "degradations")
                    }
            workers_payload[name] = entry
        live = [w for w in self.workers().values() if w.state != "dead"]
        with self._lock:
            counters = dict(self._counters)
            registered = sorted(self._registrations)
            inflight = len(self._inflight)
        payload = {
            "status": "ok" if len(live) == len(self._workers) else "degraded",
            "workers": workers_payload,
            "live_workers": len(live),
            "ring": self.ring.describe(),
            "registered_databases": registered,
            "router": {**counters, "inflight": inflight},
            "breakers": self.breakers.states(),
            "endpoints": self.metrics.snapshot(),
            "worker_endpoints": merge_endpoint_snapshots(
                [health.get("endpoints", {}) for health in worker_health]
            ),
        }
        if self.shared_cache is not None:
            payload["shared_cache"] = self.shared_cache.describe()
        return payload

    def stats(self) -> dict:
        """Aggregated fleet stats, including the per-tier shared-cache view."""
        per_worker: dict[str, dict] = {}
        cache_blocks: list[dict] = []
        for name, worker in self.workers().items():
            if worker.state == "dead" or worker.url is None:
                per_worker[name] = {"state": "dead"}
                continue
            try:
                status, body = http_json(
                    "GET", f"{worker.url}/stats", timeout=self.forward_timeout
                )
            except WorkerUnavailable:
                self._mark_dead(name)
                per_worker[name] = {"state": "dead"}
                continue
            if status == 200:
                per_worker[name] = body
                service = body.get("service", {})
                if "caches" in service:
                    cache_blocks.append(service["caches"])
        with self._lock:
            counters = dict(self._counters)
        payload = {
            "router": counters,
            "workers": per_worker,
            "shared_cache": aggregate_cache_stats(cache_blocks),
        }
        if self.shared_cache is not None:
            payload["shared_cache"]["disk"] = self.shared_cache.describe()
        return payload


# ---------------------------------------------------------------------------
# The router's HTTP front door
# ---------------------------------------------------------------------------

class RouterHTTPServer(JSONHTTPServer):
    """The daemon's route table, answered by a :class:`FleetRouter`."""

    def __init__(self, address, router: FleetRouter):
        super().__init__(address, router, router.metrics)
        self.router = router


def serve_router(
    router: FleetRouter, *, host: str = "127.0.0.1", port: int = 8320
) -> RouterHTTPServer:
    """Create (but do not start) the router's HTTP server."""
    return RouterHTTPServer((host, port), router)


def serve_router_in_background(
    router: FleetRouter, *, host: str = "127.0.0.1", port: int = 0
) -> tuple[RouterHTTPServer, threading.Thread]:
    """Start the router daemon on a background thread (port 0 = ephemeral)."""
    return start_in_background(serve_router(router, host=host, port=port), "fleet-router")
