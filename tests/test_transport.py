"""The one HTTP/JSON transport: the daemon and the router answer alike.

Both servers answer one route table through one handler base
(:mod:`repro.service.http`), so a malformed request gets the same status and
error type from either, and the router turns it away before any pod sees it.
The ingest wire form round-trips through both: a change addressed by
``row_id`` lands on the row that id names.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.fleet import FleetRouter, StaticWorker, serve_router_in_background
from repro.fleet.__main__ import demo_pair
from repro.live import apply_changes_copy
from repro.service import ExplainService, ServiceClient, database_from_spec, serve_in_background


def _url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


class _Deployment:
    """A single daemon beside a router over two in-process pods."""

    def __init__(self):
        self.daemon, _ = serve_in_background(ExplainService())
        self.pods = [serve_in_background(ExplainService())[0] for _ in range(2)]
        self.router = FleetRouter(
            [StaticWorker(f"w{index}", _url(pod)) for index, pod in enumerate(self.pods)]
        )
        self.router_http, _ = serve_router_in_background(self.router)

    def fronts(self) -> dict[str, str]:
        return {"daemon": _url(self.daemon), "router": _url(self.router_http)}

    def pod_counts(self) -> list[dict]:
        """Per-pod request counts by endpoint, as each pod reports on /health."""
        return [
            {label: series["count"] for label, series in pod.metrics.snapshot().items()}
            for pod in self.pods
        ]

    def close(self) -> None:
        self.router_http.shutdown()
        self.router.shutdown()
        for server in (self.daemon, *self.pods):
            server.shutdown()
            server.server_close()


@pytest.fixture(scope="module")
def shared():
    deployment = _Deployment()
    yield deployment
    deployment.close()


@pytest.fixture()
def fresh():
    deployment = _Deployment()
    yield deployment
    deployment.close()


def _raw(base_url: str, method: str, path: str, body: bytes | None) -> tuple[int, dict]:
    """One request with a literal body (``http_json`` only sends valid JSON)."""
    request = urllib.request.Request(
        f"{base_url}{path}", data=body, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


BODY_PATHS = ("/explain", "/plan", "/ingest", "/jobs", "/databases")
BAD_BODIES = {"empty": b"", "invalid-json": b"{not json", "array": b"[1, 2]", "string": b'"x"'}
MALFORMED = [
    *(
        pytest.param("POST", path, body, 400, "SpecError", id=f"POST{path}-{name}")
        for path in BODY_PATHS
        for name, body in BAD_BODIES.items()
    ),
    pytest.param("GET", "/nope", None, 404, "NotFound", id="GET-unknown-path"),
    pytest.param("POST", "/nope", b"{}", 404, "NotFound", id="POST-unknown-path"),
    pytest.param("DELETE", "/nope", None, 404, "NotFound", id="DELETE-unknown-path"),
    pytest.param("GET", "/jobs/nonsense", None, 404, "UnknownJobError", id="GET-unknown-job"),
    pytest.param("DELETE", "/jobs/nonsense", None, 404, "UnknownJobError", id="DELETE-unknown-job"),
    pytest.param("GET", "/jobs/w0:job-999999", None, 404, "UnknownJobError", id="GET-unknown-job-on-pod"),
]


class TestDaemonRouterParity:
    @pytest.mark.parametrize("method, path, body, status, error_type", MALFORMED)
    def test_same_status_and_error_type(self, shared, method, path, body, status, error_type):
        before = shared.pod_counts()
        answers = {
            front: _raw(url, method, path, body) for front, url in shared.fronts().items()
        }
        for front, (code, payload) in answers.items():
            assert (code, payload["error"]["type"]) == (status, error_type), front
        if path in BODY_PATHS:
            # The router rejects a bad body at its own door: no pod saw it.
            assert shared.pod_counts() == before


class TestIngestByRowId:
    """A ``row_id`` change validates the same at the router, the daemon and
    the engine, and lands on the row that lineage id names."""

    @pytest.mark.parametrize("front", ["daemon", "router"])
    @pytest.mark.parametrize("op", ["delete", "update"])
    def test_row_id_change_lands_on_its_row(self, fresh, front, op):
        left_name, left, right_name, right, _ = demo_pair(0)
        client = ServiceClient(fresh.fronts()[front], timeout=60.0)
        client.register_database(left_name, left)
        client.register_database(right_name, right)
        change = {"op": op, "row_id": f"{left_name}:1"}
        if op == "update":
            change["record"] = {"Program": "Math"}
        summary = client.ingest(left_name, left_name, [change])
        assert summary["applied"] is True
        assert summary["changes"][op] == 1

        # The same change by position, applied locally, gives the same data.
        db = database_from_spec({"name": left_name, "relations": left})
        by_position = {key: value for key, value in change.items() if key != "row_id"}
        relation, _ = apply_changes_copy(db.relation(left_name), [{**by_position, "row": 1}])
        expected = db.with_relation(left_name, relation).fingerprint()
        assert summary["fingerprint"] == expected
        if front == "router":
            assert summary["workers"] == ["w0", "w1"]
