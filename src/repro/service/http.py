"""The one JSON-over-HTTP transport of the daemon, the fleet router and clients.

Both servers speak one protocol, so they share one implementation of it:

* :data:`ROUTES` maps ``(method, path)`` to the name of the API method that
  answers it, plus the one prefix route ``/jobs/{id}``.  The daemon
  (:class:`repro.service.api.ServiceHTTPServer`) and the router
  (:class:`repro.fleet.router.FleetRouter`) each expose those methods, and
  the name is looked up on every request, so a wrapper installed on the API
  class later still sees every call.
* :class:`JSONRequestHandler` owns everything else: body reading (an empty,
  malformed or non-object POST body is a 400 :class:`SpecError` before any
  API method runs), JSON replies, the bounded endpoint label and
  :class:`LatencyRecorder` timing, and one exception -> status table
  (:data:`ERROR_STATUS`).  Every non-2xx reply is the envelope of
  :func:`error_payload`.
* :func:`http_json` is the one client-side exchange: it returns
  ``(status, body)`` for every HTTP reply, error replies included, and raises
  :class:`WorkerUnavailable` only when the peer cannot be reached.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.canonical import UnknownAttributeError
from repro.core.milp_model import NonFiniteImpactError
from repro.core.problem import UnknownMatchKeyError
from repro.live import DeltaConflictError, DeltaError
from repro.relational.errors import EmptyAggregateError, UnknownRelationError
from repro.reliability.breaker import CircuitOpenError
from repro.reliability.deadline import DeadlineExceeded, OperationCancelled
from repro.runs.errors import RunError
from repro.service.engine import UnknownDatabaseError
from repro.service.metrics import LatencyRecorder
from repro.sql import SqlError


class SpecError(ValueError):
    """Raised when a JSON spec cannot be compiled into pipeline objects.

    ``path`` is a JSON-pointer-style location of the offending field within
    the request payload (e.g. ``/query_left/where/0/op``); the daemon returns
    it alongside the message so clients can highlight the exact field.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path

    def to_payload(self) -> dict:
        kind = "SqlError" if isinstance(self.__cause__, SqlError) else "SpecError"
        return error_payload(kind, str(self), self.path)


class NoWorkerAvailable(RuntimeError):
    """Every eligible worker is dead or breaker-open for this request (503)."""


class WorkerUnavailable(ConnectionError):
    """A peer could not be reached at the transport level (failover signal)."""


def error_payload(kind: str, message: str, path: str = "") -> dict:
    """The uniform error envelope of every non-2xx response.

    ``{"error": {"type": ..., "message": ..., "path": ...}}`` -- ``type`` is
    the exception class name (machine-matchable), ``path`` a JSON-pointer to
    the offending request field where one exists (empty otherwise).
    """
    return {"error": {"type": kind, "message": message, "path": path}}


#: Exception type -> HTTP status, the same on the daemon and the router.
#: Anything not listed is an unexpected failure and maps to 500 (still as a
#: structured envelope, never a bare string).
ERROR_STATUS = (
    (SpecError, 400),
    (RunError, 400),
    (DeltaError, 400),
    # A well-formed aggregate over an all-NULL input: the caller's data, not
    # a server fault.  Must precede any broader ExecutionError mapping.
    (EmptyAggregateError, 400),
    # A NaN or infinite impact reaching Stage 2: the caller's data again.
    (NonFiniteImpactError, 400),
    # An attribute match naming an attribute the query does not produce, a
    # supplied tuple mapping naming a key of no canonical tuple, or a query
    # built in code naming a relation its database lacks.
    (UnknownAttributeError, 400),
    (UnknownMatchKeyError, 400),
    (UnknownRelationError, 400),
    (UnknownDatabaseError, 404),
    (DeltaConflictError, 409),
    (OperationCancelled, 409),
    (CircuitOpenError, 503),
    (NoWorkerAvailable, 503),
    (DeadlineExceeded, 504),
)


def error_response(exc: Exception) -> tuple[int, dict]:
    """``(status, envelope)`` for an exception raised while serving a request."""
    if isinstance(exc, SpecError):
        return 400, exc.to_payload()
    for kind, status in ERROR_STATUS:
        if isinstance(exc, kind):
            return status, error_payload(type(exc).__name__, str(exc), getattr(exc, "path", ""))
    return 500, error_payload(type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Servers
# ---------------------------------------------------------------------------

JOB_ROUTE = "/jobs/{id}"

#: The service protocol: ``(method, path)`` -> the API method answering it.
#: POST methods take the request's JSON object; ``/jobs/{id}`` methods take
#: the job id.  A method returns a payload (200) or ``(status, payload)``.
ROUTES = {
    ("GET", "/health"): "health",
    ("GET", "/stats"): "stats",
    ("POST", "/databases"): "register_database",
    ("POST", "/explain"): "explain",
    ("POST", "/plan"): "plan",
    ("POST", "/analyze"): "analyze",
    ("POST", "/ingest"): "ingest",
    ("POST", "/jobs"): "submit_job",
    ("GET", JOB_ROUTE): "job_status",
    ("DELETE", JOB_ROUTE): "cancel_job",
}
_PATHS = frozenset(path for _, path in ROUTES)


def _json_object(raw: bytes) -> dict:
    """A POST body as a JSON object; anything else is a :class:`SpecError`."""
    if not raw:
        raise SpecError("empty request body")
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise SpecError(f"invalid JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise SpecError(f"request body must be a JSON object, got {type(body).__name__}")
    return body


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Serves :data:`ROUTES` for a :class:`JSONHTTPServer`."""

    server: JSONHTTPServer  # narrowed for type checkers

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test and daemon output clean

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self.dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self.dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self.dispatch("DELETE")

    def dispatch(self, method: str) -> None:
        """Serve one request: route it, reply in JSON, record endpoint metrics."""
        start = time.perf_counter()
        path, args = self.path, ()
        if path.startswith("/jobs/"):
            path, args = JOB_ROUTE, (path.removeprefix("/jobs/"),)
        try:
            status, payload = self._answer(method, path, args)
            body = json.dumps(payload).encode()
        except Exception as exc:  # noqa: BLE001 - every failure is a typed envelope
            status, payload = error_response(exc)
            body = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        finally:
            # A bounded label: unknown paths share one bucket, job ids none.
            label = path if path in _PATHS else "{unknown}"
            self.server.metrics.observe(
                f"{method} {label}", time.perf_counter() - start, error=status >= 400
            )

    def _answer(self, method: str, path: str, args: tuple) -> tuple[int, dict]:
        # Read the body first, even on a 404, so a kept-alive connection
        # stays aligned on the next request.
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length > 0 else b""
        name = ROUTES.get((method, path))
        if name is None:
            return 404, error_payload("NotFound", f"unknown path {self.path}")
        if method == "POST":
            args = (_json_object(raw),)
        result = getattr(self.server.api, name)(*args)
        return result if isinstance(result, tuple) else (200, result)


class JSONHTTPServer(ThreadingHTTPServer):
    """A threading server answering :data:`ROUTES` with the methods of ``api``."""

    daemon_threads = True
    handler_class = JSONRequestHandler

    def __init__(self, address, api, metrics: LatencyRecorder):
        super().__init__(address, self.handler_class)
        self.api = api
        #: Per-endpoint request counts + latency quantiles (rides /health).
        self.metrics = metrics


def start_in_background(server, name: str) -> tuple:
    """Run ``server.serve_forever`` on a daemon thread; returns ``(server, thread)``."""
    thread = threading.Thread(target=server.serve_forever, name=name, daemon=True)
    thread.start()
    return server, thread


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

def http_json(
    method: str, url: str, payload: dict | None = None, *, timeout: float = 30.0
) -> tuple[int, dict]:
    """One JSON-over-HTTP exchange: ``(status, body)`` or :class:`WorkerUnavailable`.

    HTTP error *responses* (4xx/5xx with a JSON envelope) are returned, not
    raised -- the peer is alive and answering, so a router must relay its
    answer rather than fail over.  Only transport-level failures raise.
    """
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            return exc.code, json.loads(body)
        except json.JSONDecodeError:
            return exc.code, error_payload("OpaqueHTTPError", body.decode(errors="replace"))
    except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
        raise WorkerUnavailable(f"{method} {url}: {exc}") from exc
