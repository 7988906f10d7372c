"""The explanation service layer: a long-lived engine over the Explain3D pipeline.

This subsystem converts the one-shot pipeline into a request-serving system:

* :mod:`repro.service.engine` -- :class:`ExplainService`, which registers
  databases once and serves many explain requests, reusing content-addressed
  Stage-1 artifacts across requests;
* :mod:`repro.service.cache` -- the LRU artifact cache with fingerprinting,
  hit/miss statistics and optional disk spill;
* :mod:`repro.service.jobs` -- the bounded-concurrency async job queue with
  cooperative cancellation and optional retry;
* :mod:`repro.service.api` -- the JSON schema, stdlib HTTP daemon and client;
* :mod:`repro.service.http` -- the one JSON-over-HTTP transport (route
  table, body parsing, error table, client exchange) the daemon shares with
  the fleet router.

Reliability primitives (deadlines, circuit breakers, retry policies, fault
injection) live in :mod:`repro.reliability` and are re-exported here where
they surface in the service API.

Run the daemon with ``python -m repro.service``.
"""

from repro.live import DeltaConflictError, DeltaError
from repro.reliability import (
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    OperationCancelled,
    RetryPolicy,
)
from repro.service.cache import ArtifactCache, CacheRegistry, CacheStats, fingerprint_of
from repro.service.engine import (
    ExplainRequest,
    ExplainService,
    ServiceConfig,
    ServiceResult,
    UnknownDatabaseError,
)
from repro.service.jobs import Job, JobQueue, JobState
from repro.service.api import (
    ServiceClient,
    ServiceClientError,
    SpecError,
    config_from_spec,
    database_from_spec,
    ingest_request_from_payload,
    mapping_from_spec,
    matches_from_spec,
    query_from_spec,
    request_from_payload,
    runs_request_from_payload,
    serve,
    serve_in_background,
    source_from_spec,
)

__all__ = [
    "CircuitOpenError",
    "DeltaConflictError",
    "DeltaError",
    "Deadline",
    "DeadlineExceeded",
    "OperationCancelled",
    "RetryPolicy",
    "ArtifactCache",
    "CacheRegistry",
    "CacheStats",
    "fingerprint_of",
    "ExplainRequest",
    "ExplainService",
    "ServiceConfig",
    "ServiceResult",
    "UnknownDatabaseError",
    "Job",
    "JobQueue",
    "JobState",
    "ServiceClient",
    "ServiceClientError",
    "SpecError",
    "config_from_spec",
    "database_from_spec",
    "ingest_request_from_payload",
    "mapping_from_spec",
    "matches_from_spec",
    "query_from_spec",
    "request_from_payload",
    "runs_request_from_payload",
    "serve",
    "serve_in_background",
    "source_from_spec",
]
