"""The JSON API: spec compilation, the HTTP daemon, and the client helper."""

from __future__ import annotations

import json

import pytest

from repro import Explain3D, Explain3DConfig, Priors, Scan, col, count_query, matching
from repro.service import (
    ExplainService,
    ServiceClient,
    ServiceClientError,
    SpecError,
    config_from_spec,
    database_from_spec,
    mapping_from_spec,
    query_from_spec,
    request_from_payload,
    serve_in_background,
)

D1_RECORDS = [
    {"Program": "Accounting", "Degree": "B.S."},
    {"Program": "CS", "Degree": "B.A."},
    {"Program": "CS", "Degree": "B.S."},
    {"Program": "ECE", "Degree": "B.S."},
    {"Program": "EE", "Degree": "B.S."},
    {"Program": "Management", "Degree": "B.A."},
    {"Program": "Design", "Degree": "B.A."},
]
D2_RECORDS = [
    {"Univ": "A", "Major": "Accounting"},
    {"Univ": "A", "Major": "CSE"},
    {"Univ": "A", "Major": "ECE"},
    {"Univ": "A", "Major": "EE"},
    {"Univ": "A", "Major": "Management"},
    {"Univ": "A", "Major": "Design"},
    {"Univ": "B", "Major": "Art"},
]

EXPLAIN_PAYLOAD = {
    "database_left": "D1",
    "query_left": {"name": "Q1", "kind": "count", "relation": "D1", "attribute": "Program"},
    "database_right": "D2",
    "query_right": {
        "name": "Q2",
        "kind": "count",
        "relation": "D2",
        "attribute": "Major",
        "where": [{"column": "Univ", "op": "=", "value": "A"}],
    },
    "attribute_matches": [["Program", "Major"]],
    "tuple_mapping": [
        ["T1:0", "T2:0", 0.95],
        ["T1:1", "T2:1", 0.90],
        ["T1:2", "T2:2", 0.95],
        ["T1:3", "T2:3", 0.95],
        ["T1:4", "T2:4", 0.95],
        ["T1:5", "T2:5", 0.95],
    ],
    "config": {"partitioning": "none", "priors": {"alpha": 0.9, "beta": 0.9}},
}


class TestSpecCompilation:
    def test_query_spec_matches_builder(self):
        spec = {
            "name": "Q2",
            "kind": "count",
            "relation": "D2",
            "attribute": "Major",
            "where": [{"column": "Univ", "op": "=", "value": "A"}],
        }
        built = query_from_spec(spec)
        reference = count_query(
            "Q2", Scan("D2"), predicate=(col("Univ") == "A"), attribute="Major"
        )
        assert built.fingerprint() == reference.fingerprint()

    def test_query_spec_kinds(self):
        assert query_from_spec(
            {"name": "S", "kind": "sum", "relation": "R", "attribute": "v"}
        ).aggregate_function.value == "SUM"
        assert query_from_spec(
            {"name": "A", "kind": "avg", "relation": "R", "attribute": "v"}
        ).aggregate_function.value == "AVG"
        projected = query_from_spec(
            {"name": "P", "kind": "project", "relation": "R", "attributes": ["a", "b"]}
        )
        assert projected.output_attributes == ("a", "b")

    def test_query_spec_errors(self):
        with pytest.raises(SpecError):
            query_from_spec({"kind": "count", "relation": "R"})  # no name
        with pytest.raises(SpecError):
            query_from_spec({"name": "Q", "relation": "R", "kind": "median"})
        with pytest.raises(SpecError):
            query_from_spec({"name": "Q", "kind": "sum", "relation": "R"})  # no attribute
        with pytest.raises(SpecError):
            query_from_spec(
                {"name": "Q", "kind": "count", "relation": "R",
                 "where": [{"column": "x", "op": "regex", "value": "y"}]}
            )

    def test_database_spec(self):
        db = database_from_spec({"name": "D1", "relations": {"D1": D1_RECORDS}})
        assert len(db.relation("D1")) == 7
        with pytest.raises(SpecError):
            database_from_spec({"name": "D1"})
        with pytest.raises(SpecError):
            database_from_spec({"relations": {"R": []}})

    def test_database_spec_with_dtypes_pins_the_schema(self):
        from repro.relational.schema import DataType

        # JSON round trips can erase the int/float distinction; an explicit
        # dtypes block rebuilds the sender's exact typed schema (and thereby
        # the same fingerprint).
        db = database_from_spec({
            "name": "R",
            "relations": {"R": [{"id": 1, "v": 1}]},
            "dtypes": {"R": {"id": "integer", "v": "float"}},
        })
        assert db.relation("R").schema.dtype("v") is DataType.FLOAT
        assert db.relation("R").column("v") == [1.0]
        with pytest.raises(SpecError) as excinfo:
            database_from_spec({
                "name": "R",
                "relations": {"R": [{"id": 1}]},
                "dtypes": {"R": {"id": "decimal"}},
            })
        assert excinfo.value.path == "/dtypes/R"

    def test_mapping_and_config_specs(self):
        mapping = mapping_from_spec([["T1:0", "T2:0", 0.95, 0.8]])
        match = next(iter(mapping))
        assert match.probability == 0.95 and match.similarity == 0.8
        for bad in (float("nan"), float("inf"), "likely"):
            with pytest.raises(SpecError) as excinfo:
                mapping_from_spec([["T1:0", "T2:0", 0.95], ["T1:1", "T2:1", bad]], "/tuple_mapping")
            assert excinfo.value.path == "/tuple_mapping/1"
        config = config_from_spec({"partitioning": "none", "priors": {"alpha": 0.9, "beta": 0.9}})
        assert config.partitioning == "none"
        assert config.priors == Priors(0.9, 0.9)
        with pytest.raises(SpecError):
            config_from_spec({"no_such_field": 1})
        with pytest.raises(SpecError):
            config_from_spec({"priors": {"alpha": 0.2, "beta": 0.9}})  # invalid prior

    def test_request_payload_requires_all_parts(self):
        with pytest.raises(SpecError):
            request_from_payload({"database_left": "D1"})


@pytest.fixture(scope="module")
def running_server():
    service = ExplainService()
    server, thread = serve_in_background(service, port=0)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    client.register_database("D1", {"D1": D1_RECORDS})
    client.register_database("D2", {"D2": D2_RECORDS})
    yield client
    server.shutdown()


class TestHTTPDaemon:
    def test_health_and_stats(self, running_server):
        health = running_server.health()
        assert health["status"] == "ok"
        assert health["breakers"] == {}
        assert health["degradations"] == {}
        assert "spill_errors" in health["caches"]
        assert health["jobs"]["queue_depth"] == 0
        stats = running_server.stats()
        assert "service" in stats and "jobs" in stats
        assert "breakers" in stats["service"]
        assert "degradations" in stats["service"]

    def test_sync_explain_equals_direct_pipeline(self, running_server):
        payload = running_server.explain(EXPLAIN_PAYLOAD)
        # rebuild the identical problem directly, bypassing the service
        from repro import Database, TupleMapping, TupleMatch

        db1 = Database("D1")
        db1.add_records("D1", D1_RECORDS)
        db2 = Database("D2")
        db2.add_records("D2", D2_RECORDS)
        mapping = TupleMapping(
            TupleMatch(left, right, probability)
            for left, right, probability in EXPLAIN_PAYLOAD["tuple_mapping"]
        )
        direct = Explain3D(Explain3DConfig(partitioning="none", priors=Priors(0.9, 0.9))).explain(
            query_from_spec(EXPLAIN_PAYLOAD["query_left"]),
            db1,
            query_from_spec(EXPLAIN_PAYLOAD["query_right"]),
            db2,
            attribute_matches=matching(("Program", "Major")),
            tuple_mapping=mapping,
        )
        expected = direct.to_dict()
        assert payload["query_left"]["result"] == 7.0
        assert payload["query_right"]["result"] == 6.0
        assert payload["explanations"]["provenance"] == expected["explanations"]["provenance"]
        assert payload["explanations"]["value"] == expected["explanations"]["value"]
        assert sorted(
            (e["left"], e["right"]) for e in payload["explanations"]["evidence"]
        ) == sorted((e["left"], e["right"]) for e in expected["explanations"]["evidence"])
        assert payload["summary"]["patterns"] == expected["summary"]["patterns"]

    def test_repeat_request_hits_report_cache(self, running_server):
        running_server.explain(EXPLAIN_PAYLOAD)
        warm = running_server.explain(EXPLAIN_PAYLOAD)
        assert warm["service"]["cached_report"] is True

    def test_async_job_roundtrip(self, running_server):
        job = running_server.submit_job(EXPLAIN_PAYLOAD)
        assert job["state"] in ("queued", "running", "done")
        final = running_server.wait_for_job(job["id"], timeout=30)
        assert final["state"] == "done"
        assert final["result"]["query_left"]["result"] == 7.0

    def test_unknown_job_and_path_are_404(self, running_server):
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.job("job-99999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceClientError) as excinfo:
            running_server._call("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_payload_is_400(self, running_server):
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.explain({"database_left": "D1"})
        assert excinfo.value.status == 400

    def test_malformed_labeled_pairs_is_400(self, running_server):
        payload = dict(EXPLAIN_PAYLOAD, labeled_pairs=[["a", "b", "c"]])
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.explain(payload)
        assert excinfo.value.status == 400  # client error, not a 500

    def test_unknown_database_is_404(self, running_server):
        payload = dict(EXPLAIN_PAYLOAD, database_left="ghost")
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.explain(payload)
        assert excinfo.value.status == 404

    def test_cancel_finished_job_is_409(self, running_server):
        job = running_server.submit_job(EXPLAIN_PAYLOAD)
        running_server.wait_for_job(job["id"], timeout=30)
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.cancel_job(job["id"])
        assert excinfo.value.status == 409

    def test_response_is_pure_json(self, running_server):
        payload = running_server.explain(EXPLAIN_PAYLOAD)
        json.dumps(payload)  # no exotic types survived serialization


class TestSqlAndNestedSpecs:
    """PR 3: SQL query specs, nested sources, and structured spec errors."""

    def test_sql_spec_matches_builder_fingerprint(self):
        built = query_from_spec(
            {"name": "Q2", "sql": "SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'"}
        )
        reference = count_query(
            "Q2", Scan("D2"), predicate=(col("Univ") == "A"), attribute="Major"
        )
        assert built.fingerprint() == reference.fingerprint()

    def test_sql_spec_binds_against_database_when_given(self):
        from repro import Database

        db = Database("D2")
        db.add_records("D2", D2_RECORDS)
        built = query_from_spec(
            {"name": "Q2", "sql": "SELECT COUNT(Major) FROM D2"}, db
        )
        assert built.name == "Q2"
        with pytest.raises(SpecError) as excinfo:
            query_from_spec(
                {"name": "Q2", "sql": "SELECT COUNT(Mojor) FROM D2"}, db, "/query_right"
            )
        assert "did you mean 'Major'" in str(excinfo.value)
        assert excinfo.value.path == "/query_right/sql"

    def test_nested_join_source_spec(self):
        from repro.relational.query import Join

        built = query_from_spec(
            {
                "name": "Q",
                "kind": "sum",
                "attribute": "bach_degr",
                "source": {
                    "join": {"left": "School", "right": "Stats", "on": [["ID", "ID"]]}
                },
                "where": [{"column": "Univ_name", "op": "=", "value": "X"}],
            }
        )
        join = built.root.child.child
        assert isinstance(join, Join)
        assert join.on == (("ID", "ID"),)

    def test_nested_union_and_difference_sources(self):
        from repro.relational.query import Difference, Union

        union_query = query_from_spec(
            {"name": "Q", "kind": "count", "source": {"union": ["A", "B"]}}
        )
        assert isinstance(union_query.root.child, Union)
        diff_query = query_from_spec(
            {
                "name": "Q",
                "kind": "count",
                "source": {
                    "difference": {
                        "left": {"relation": "A", "where": [{"column": "g", "value": "F"}]},
                        "right": "B",
                        "on": ["name"],
                    }
                },
            }
        )
        assert isinstance(diff_query.root.child, Difference)
        assert diff_query.root.child.on == ("name",)

    def test_spec_errors_carry_json_pointer_paths(self):
        with pytest.raises(SpecError) as excinfo:
            query_from_spec(
                {"name": "Q", "relation": "R",
                 "where": [{"column": "x", "op": "bogus"}]},
                None,
                "/query_left",
            )
        assert excinfo.value.path == "/query_left/where/0/op"
        with pytest.raises(SpecError) as excinfo:
            query_from_spec(
                {"name": "Q", "source": {"join": {"left": "A"}}}, None, "/query_left"
            )
        assert excinfo.value.path == "/query_left/source/join"
        with pytest.raises(SpecError) as excinfo:
            query_from_spec(
                {"name": "Q", "source": {"union": ["A"]}}, None, "/query_left"
            )
        assert excinfo.value.path == "/query_left/source/union"
        with pytest.raises(SpecError) as excinfo:
            request_from_payload({"database_left": "D1"})
        assert excinfo.value.path.startswith("/query_left") or excinfo.value.path.startswith("/")

    def test_sql_spec_rejects_conflicting_declarative_keys(self):
        with pytest.raises(SpecError) as excinfo:
            query_from_spec(
                {"name": "Q", "sql": "SELECT COUNT(x) FROM R",
                 "where": [{"column": "y", "value": 1}]},
                None,
                "/query_left",
            )
        assert "declarative keys" in str(excinfo.value)
        assert excinfo.value.path == "/query_left/sql"

    def test_source_spec_rejects_ambiguous_objects(self):
        from repro.service.api import source_from_spec

        with pytest.raises(SpecError):
            source_from_spec({"relation": "A", "join": {}}, "/q")
        with pytest.raises(SpecError):
            source_from_spec(42, "/q")


SQL_EXPLAIN_PAYLOAD = {
    "database_left": "D1",
    "query_left": {"name": "Q1", "sql": "SELECT COUNT(Program) FROM D1"},
    "database_right": "D2",
    "query_right": {
        "name": "Q2",
        "sql": "SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'",
    },
    "attribute_matches": [["Program", "Major"]],
    "tuple_mapping": EXPLAIN_PAYLOAD["tuple_mapping"],
    "config": EXPLAIN_PAYLOAD["config"],
}


class TestHTTPSqlRequests:
    def test_sql_request_output_identical_to_programmatic_path(self, running_server):
        programmatic = running_server.explain(EXPLAIN_PAYLOAD)
        via_sql = running_server.explain(SQL_EXPLAIN_PAYLOAD)
        # The SQL specs lower to fingerprint-identical queries, so the whole
        # request keys the same cached problem and report.
        assert (
            via_sql["service"]["problem_fingerprint"]
            == programmatic["service"]["problem_fingerprint"]
        )
        assert (
            via_sql["service"]["request_fingerprint"]
            == programmatic["service"]["request_fingerprint"]
        )
        scrub = lambda payload: {k: v for k, v in payload.items() if k != "service"}
        assert scrub(via_sql) == scrub(programmatic)

    def test_sql_request_binds_against_registered_schema(self, running_server):
        bad = dict(SQL_EXPLAIN_PAYLOAD)
        bad["query_right"] = {"name": "Q2", "sql": "SELECT COUNT(Mojor) FROM D2"}
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.explain(bad)
        assert excinfo.value.status == 400
        assert "did you mean 'Major'" in excinfo.value.detail

    def test_error_payload_includes_json_pointer_path(self, running_server):
        import urllib.request

        bad = dict(EXPLAIN_PAYLOAD)
        bad["query_right"] = {
            "name": "Q2", "relation": "D2",
            "where": [{"column": "Univ", "op": "bogus"}],
        }
        request = urllib.request.Request(
            f"{running_server.base_url}/explain",
            data=json.dumps(bad).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            body = json.loads(exc.read())
            assert exc.code == 400
            assert body["error"]["type"] == "SpecError"
            assert body["error"]["path"] == "/query_right/where/0/op"

    def test_async_job_accepts_sql_specs(self, running_server):
        job = running_server.submit_job(SQL_EXPLAIN_PAYLOAD)
        final = running_server.wait_for_job(job["id"], timeout=30)
        assert final["state"] == "done"
        assert final["result"]["query_left"]["result"] == 7.0

    def test_relation_and_source_conflict_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            query_from_spec(
                {"name": "Q", "kind": "count", "relation": "A",
                 "source": {"union": ["X", "Y"]}},
                None,
                "/query_left",
            )
        assert "both 'relation' and 'source'" in str(excinfo.value)
        assert excinfo.value.path == "/query_left"


class TestPlanEndpoint:
    def test_plan_round_trip(self, running_server):
        payload = running_server.plan(
            {
                "database": "D2",
                "query": {"name": "Q2", "sql": "SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'"},
            }
        )
        assert payload["database"] == "D2"
        assert payload["plan"]["operator"] == "AggregateExec"
        assert payload["rows_out"] == 1
        operators = [payload["plan"]]
        while "children" in operators[-1]:
            operators.append(operators[-1]["children"][0])
        assert operators[-1]["operator"] == "ScanExec"
        assert all("rows" in op and "seconds" in op for op in operators)

    def test_plan_without_run_skips_execution(self, running_server):
        payload = running_server.plan(
            {
                "database": "D1",
                "query": {"name": "Q1", "kind": "count", "relation": "D1",
                          "attribute": "Program"},
                "run": False,
            }
        )
        assert "rows_out" not in payload
        assert payload["plan"]["estimated_rows"] == 1

    def test_plan_missing_fields_is_spec_error(self, running_server):
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.plan({"database": "D1"})
        assert excinfo.value.status == 400

    def test_plan_unknown_database_is_404(self, running_server):
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.plan(
                {"database": "missing",
                 "query": {"name": "Q", "kind": "count", "relation": "X"}}
            )
        assert excinfo.value.status == 404


class TestAnalyzeEndpoint:
    def test_analyze_round_trip_switches_cost_model(self, running_server):
        plan_spec = {
            "database": "D2",
            "query": {"name": "Q2", "sql": "SELECT COUNT(Major) FROM D2"},
        }
        before = running_server.plan(plan_spec)
        assert before["cost_model"] == "heuristic"
        payload = running_server.analyze("D2")
        assert payload["database"] == "D2"
        assert payload["relations"]["D2"]["row_count"] == 7
        columns = payload["relations"]["D2"]["columns"]
        assert columns["Univ"]["distinct"] == 2
        after = running_server.plan(plan_spec)
        assert after["cost_model"] == "statistics"
        assert after["rows_out"] == before["rows_out"]

    def test_analyze_custom_buckets(self, running_server):
        payload = running_server.analyze("D1", buckets=2)
        histogram = payload["relations"]["D1"]["columns"]["Program"]["histogram"]
        assert histogram["buckets"] == 2

    def test_analyze_unknown_database_is_404(self, running_server):
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.analyze("missing")
        assert excinfo.value.status == 404

    def test_analyze_bad_buckets_is_spec_error(self, running_server):
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.analyze("D1", buckets=0)
        assert excinfo.value.status == 400


class TestTypedErrorResponses:
    """Satellite (c): every error type -> a distinct status + uniform envelope.

    The envelope is ``{"error": {"type", "message", "path"}}`` on *every*
    non-2xx response -- including unexpected pipeline failures (structured
    500s, never a bare string).
    """

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        from repro.reliability.faults import FAULTS

        FAULTS.reset()
        yield
        FAULTS.reset()

    def _raw_error(self, client, path, payload):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}{path}",
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request)
            raise AssertionError("expected an HTTP error")
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_spec_error_is_400_with_type_and_path(self, running_server):
        bad = dict(EXPLAIN_PAYLOAD)
        bad["on_deadline"] = "shrug"
        code, body = self._raw_error(running_server, "/explain", bad)
        assert code == 400
        assert body["error"]["type"] == "SpecError"
        assert body["error"]["path"] == "/on_deadline"
        assert body["error"]["message"]

    @pytest.mark.parametrize("probability", [float("nan"), float("-inf")])
    @pytest.mark.parametrize("left_key", ["T1:1", "T1:99"])  # matched key, key not in T1
    def test_non_finite_probability_is_400(self, running_server, probability, left_key):
        bad = dict(EXPLAIN_PAYLOAD)
        bad["tuple_mapping"] = [list(entry) for entry in EXPLAIN_PAYLOAD["tuple_mapping"]]
        bad["tuple_mapping"][1] = [left_key, "T2:1", probability]
        code, body = self._raw_error(running_server, "/explain", bad)  # JSON NaN/-Infinity
        assert code == 400
        assert body["error"]["type"] == "SpecError"
        assert body["error"]["path"] == "/tuple_mapping/1"

    def test_sql_error_is_400_with_sql_type(self, running_server):
        bad = dict(EXPLAIN_PAYLOAD)
        bad["query_left"] = {"name": "Q1", "sql": "SELEKT * FROM D1"}
        code, body = self._raw_error(running_server, "/explain", bad)
        assert code == 400
        assert body["error"]["type"] == "SqlError"
        assert body["error"]["path"] == "/query_left/sql"

    def test_unknown_database_is_404_typed(self, running_server):
        bad = dict(EXPLAIN_PAYLOAD)
        bad["database_left"] = "missing"
        code, body = self._raw_error(running_server, "/explain", bad)
        assert code == 404
        assert body["error"]["type"] == "UnknownDatabaseError"

    def test_unknown_path_is_404_typed(self, running_server):
        with pytest.raises(ServiceClientError) as excinfo:
            running_server._call("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "NotFound"

    def test_client_surfaces_type_and_path(self, running_server):
        bad = dict(EXPLAIN_PAYLOAD)
        bad["deadline_seconds"] = -1
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.explain(bad)
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SpecError"
        assert excinfo.value.path == "/deadline_seconds"

    def test_deadline_exceeded_is_504(self, running_server):
        from repro.reliability.faults import inject

        # A fresh config variant misses the report cache, so the request
        # actually solves (and trips the delayed checkpoint).
        hurried = dict(EXPLAIN_PAYLOAD)
        hurried["config"] = {
            "partitioning": "none",
            "priors": {"alpha": 0.9, "beta": 0.9},
            "min_summary_precision": 0.74,
        }
        hurried["deadline_seconds"] = 0.02
        with inject("solve.partition", "delay:0.1"):
            code, body = self._raw_error(running_server, "/explain", hurried)
        assert code == 504
        assert body["error"]["type"] == "DeadlineExceeded"

    def test_unexpected_failure_is_structured_500(self, figure1_db1, figure1_db2):
        from repro.reliability.faults import inject
        from repro.service import serve_in_background

        service = ExplainService()
        service.register_database(figure1_db1, "D1")
        service.register_database(figure1_db2, "D2")
        server, _ = serve_in_background(service, port=0)
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            with inject("solve.partition", "raise"):
                code, body = self._raw_error(client, "/explain", EXPLAIN_PAYLOAD)
            assert code == 500
            assert body["error"]["type"] == "InjectedFault"
            assert body["error"]["message"]
        finally:
            server.shutdown()

    def test_open_breaker_is_503(self, figure1_db1, figure1_db2):
        from repro.reliability.faults import inject
        from repro.service import ServiceConfig, serve_in_background

        service = ExplainService(
            ServiceConfig(breaker_failures=1, breaker_reset_seconds=30.0)
        )
        service.register_database(figure1_db1, "D1")
        service.register_database(figure1_db2, "D2")
        server, _ = serve_in_background(service, port=0)
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            with inject("solve.partition", "raise"):
                code, _body = self._raw_error(client, "/explain", EXPLAIN_PAYLOAD)
                assert code == 500
            code, body = self._raw_error(client, "/explain", EXPLAIN_PAYLOAD)
            assert code == 503
            assert body["error"]["type"] == "CircuitOpenError"
            assert client.health()["status"] == "degraded"
        finally:
            server.shutdown()

    def test_cancel_running_job_over_http(self, running_server):
        import time as _time

        from repro.reliability.faults import inject

        # A fresh config variant so the job misses the report cache and
        # actually runs the (delayed) solve.
        slow = dict(EXPLAIN_PAYLOAD)
        slow["config"] = {
            "partitioning": "none",
            "priors": {"alpha": 0.9, "beta": 0.9},
            "min_summary_precision": 0.72,
        }
        with inject("solve.partition", "delay:0.5"):
            job = running_server.submit_job(slow)
            deadline = _time.monotonic() + 5.0
            while True:
                status = running_server.job(job["id"])
                if status["state"] in ("running", "queued"):
                    break
                assert _time.monotonic() < deadline
                _time.sleep(0.005)
            cancelled = running_server.cancel_job(job["id"])
            assert cancelled["id"] == job["id"]
            final = running_server.wait_for_job(job["id"], timeout=10)
        assert final["state"] == "cancelled"
        assert final["cancel_requested"] is True

    def test_cancel_finished_job_is_409(self, running_server):
        job = running_server.submit_job(EXPLAIN_PAYLOAD)
        running_server.wait_for_job(job["id"], timeout=30)
        with pytest.raises(ServiceClientError) as excinfo:
            running_server.cancel_job(job["id"])
        assert excinfo.value.status == 409
        assert excinfo.value.error_type == "JobFinishedError"

    def test_explain_response_reports_deadline_and_degraded(self, running_server):
        result = running_server.explain(EXPLAIN_PAYLOAD)
        assert result["service"]["degraded"] == []
        assert "deadline" in result["service"]


class TestEndpointMetrics:
    """GET /health carries per-endpoint request counts and latency quantiles."""

    def test_health_reports_per_endpoint_latency(self, running_server):
        running_server.explain(EXPLAIN_PAYLOAD)
        endpoints = running_server.health()["endpoints"]
        health_series = endpoints["GET /health"]
        assert health_series["count"] >= 1
        assert health_series["window"] >= 1
        explain_series = endpoints["POST /explain"]
        assert explain_series["count"] >= 1
        assert 0.0 <= explain_series["p50_ms"] <= explain_series["p90_ms"] \
            <= explain_series["p99_ms"]

    def test_errors_are_counted_per_endpoint(self, running_server):
        before = running_server.health()["endpoints"].get(
            "POST /explain", {"errors": 0}
        )["errors"]
        with pytest.raises(ServiceClientError):
            running_server.explain({"database_left": "D1"})
        after = running_server.health()["endpoints"]["POST /explain"]["errors"]
        assert after == before + 1

    def test_unknown_paths_bucket_without_label_explosion(self, running_server):
        for suffix in ("a", "b", "c"):
            with pytest.raises(ServiceClientError):
                running_server._call("GET", f"/no-such-{suffix}")
        endpoints = running_server.health()["endpoints"]
        assert endpoints["GET {unknown}"]["count"] >= 3
        assert not any("/no-such-" in label for label in endpoints)

    def test_job_submissions_carry_idempotency_keys(self, running_server):
        health = running_server.health()
        assert "deduplicated" in health["jobs"]
        first = running_server.submit_job(EXPLAIN_PAYLOAD)
        second = running_server.submit_job(EXPLAIN_PAYLOAD)
        final = running_server.wait_for_job(second["id"], timeout=30)
        assert final["state"] == "done"
        if first["id"] == second["id"]:  # coalesced onto the in-flight job
            assert running_server.health()["jobs"]["deduplicated"] >= 1


@pytest.fixture()
def mutable_server():
    """A private daemon per test: ingest tests mutate the registered data."""
    service = ExplainService()
    server, thread = serve_in_background(service, port=0)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    client.register_database("D1", {"D1": D1_RECORDS})
    client.register_database("D2", {"D2": D2_RECORDS})
    yield client
    server.shutdown()


class TestIngestEndpoint:
    """POST /ingest: row-level deltas over the wire."""

    INSERT = [{"op": "insert", "record": {"Program": "Math", "Degree": "B.S."}}]

    def test_ingest_applies_and_explain_sees_the_delta(self, mutable_server):
        assert mutable_server.explain(EXPLAIN_PAYLOAD)["query_left"]["result"] == 7.0
        summary = mutable_server.ingest("D1", "D1", self.INSERT)
        assert summary["applied"] is True
        assert summary["changes"] == {"insert": 1, "update": 0, "delete": 0}
        assert summary["database"] == "D1" and summary["relation"] == "D1"
        assert summary["fingerprint"] != summary["base_fingerprint"]
        assert mutable_server.explain(EXPLAIN_PAYLOAD)["query_left"]["result"] == 8.0

    def test_retry_without_delta_id_is_idempotent(self, mutable_server):
        first = mutable_server.ingest("D1", "D1", self.INSERT)
        again = mutable_server.ingest("D1", "D1", self.INSERT)
        assert first["applied"] is True
        assert again["applied"] is False and again["deduplicated"] is True
        assert again["delta_id"] == first["delta_id"]
        assert again["fingerprint"] == first["fingerprint"]

    def test_explicit_delta_id_dedupes(self, mutable_server):
        first = mutable_server.ingest("D1", "D1", self.INSERT, delta_id="batch-7")
        again = mutable_server.ingest(
            "D1", "D1", [{"op": "delete", "row": 0}], delta_id="batch-7"
        )
        assert first["applied"] is True and again["applied"] is False
        assert mutable_server.explain(EXPLAIN_PAYLOAD)["query_left"]["result"] == 8.0

    def test_malformed_changes_are_400_with_path(self, mutable_server):
        with pytest.raises(ServiceClientError) as excinfo:
            mutable_server.ingest("D1", "D1", [{"op": "upsert"}])
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "DeltaError"
        assert excinfo.value.path == "/changes/0/op"

    def test_unknown_relation_is_400(self, mutable_server):
        with pytest.raises(ServiceClientError) as excinfo:
            mutable_server.ingest("D1", "Nope", [{"op": "delete", "row": 0}])
        assert excinfo.value.status == 400

    def test_unknown_database_is_404(self, mutable_server):
        with pytest.raises(ServiceClientError) as excinfo:
            mutable_server.ingest("ghost", "D1", self.INSERT)
        assert excinfo.value.status == 404

    def test_stale_expect_fingerprint_is_409(self, mutable_server):
        first = mutable_server.ingest("D1", "D1", self.INSERT)
        with pytest.raises(ServiceClientError) as excinfo:
            mutable_server.ingest(
                "D1", "D1", [{"op": "delete", "row": 0}],
                expect_fingerprint=first["base_fingerprint"],
            )
        assert excinfo.value.status == 409
        assert excinfo.value.error_type == "DeltaConflictError"

    def test_unaffected_artifacts_are_retained_not_evicted(self, mutable_server):
        mutable_server.explain(EXPLAIN_PAYLOAD)
        # D2's row 6 ("B", "Art") sits outside Q2's Univ='A' provenance.
        summary = mutable_server.ingest("D2", "D2", [{"op": "delete", "row": 6}])
        assert summary["caches"]["evicted"] == 0
        assert summary["caches"]["rewired"] > 0
        warm = mutable_server.explain(EXPLAIN_PAYLOAD)
        assert warm["service"]["cached_report"] is True
        assert warm["query_right"]["result"] == 6.0


RUNS_PAYLOAD = {
    "runs": {
        "left": {
            "name": "run_a",
            "records": [{"id": 1, "v": 1.0}, {"id": 2, "v": 2.0}],
        },
        "right": {
            "name": "run_b",
            "records": [{"id": 1, "v": 1.0}, {"id": 2, "v": 5.0}],
        },
        "key": "id",
    }
}


class TestRunsEndpoint:
    """POST /explain with a {"runs": ...} spec: the run-diff front door."""

    def test_runs_spec_explains_the_pair(self, mutable_server):
        result = mutable_server.explain(RUNS_PAYLOAD)
        assert result["query_left"]["result"] == 3.0
        assert result["query_right"]["result"] == 6.0
        assert result["explanations"]["value"]

    def test_repeat_runs_request_hits_the_report_cache(self, mutable_server):
        mutable_server.explain(RUNS_PAYLOAD)
        warm = mutable_server.explain(RUNS_PAYLOAD)
        assert warm["service"]["cached_report"] is True

    def test_registered_runs_accept_ingest_deltas(self, mutable_server):
        mutable_server.explain(RUNS_PAYLOAD)
        summary = mutable_server.ingest(
            "run_a", "run_a",
            [{"op": "insert", "record": {"id": 3, "v": 4.0}}],
        )
        assert summary["applied"] is True
        # Re-explain over the live databases with the plain payload (the runs
        # spec would re-register the pre-delta rows).
        from repro.runs import compile_runs_payload

        plain = compile_runs_payload(RUNS_PAYLOAD).explain_payload
        assert mutable_server.explain(plain)["query_left"]["result"] == 7.0

    @pytest.mark.parametrize("mutate, pointer", [
        (lambda p: p["runs"].pop("right"), "/runs/right"),
        (lambda p: p["runs"]["left"].pop("name"), "/runs/left/name"),
        (lambda p: p["runs"]["left"].update(records=[]), "/runs/left/records"),
        (lambda p: p["runs"].update(surprise=1), "/runs/surprise"),
        (lambda p: p.update(database_left="D1"), "/database_left"),
        (lambda p: p["runs"].update(key="missing"), "/runs"),
    ])
    def test_malformed_runs_specs_are_typed_400s(self, mutable_server, mutate, pointer):
        import copy

        payload = copy.deepcopy(RUNS_PAYLOAD)
        mutate(payload)
        with pytest.raises(ServiceClientError) as excinfo:
            mutable_server.explain(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "RunError"
        assert excinfo.value.path == pointer

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_compared_values_are_typed_400s(self, mutable_server, side, value):
        import copy

        payload = copy.deepcopy(RUNS_PAYLOAD)
        payload["runs"][side]["records"][1]["v"] = value  # JSON NaN / Infinity
        with pytest.raises(ServiceClientError) as excinfo:
            mutable_server.explain(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "NonFiniteImpactError"
        assert side in excinfo.value.detail
        assert repr(value) in excinfo.value.detail

    def test_runs_and_declarative_paths_are_byte_identical(self, mutable_server):
        from repro.fleet.__main__ import canonical_report
        from repro.runs import build_run_problem
        from repro.relational.relation import Relation

        left = Relation.from_records(
            RUNS_PAYLOAD["runs"]["left"]["records"], name="run_a"
        )
        right = Relation.from_records(
            RUNS_PAYLOAD["runs"]["right"]["records"], name="run_b"
        )
        direct = build_run_problem(left, right, key=("id",)).explain()
        served = mutable_server.explain(RUNS_PAYLOAD)
        assert canonical_report(served) == canonical_report(direct.to_dict())


class TestEmptyAggregateEnvelope:
    """Regression: a non-COUNT aggregate over an all-NULL column is a typed
    ``EmptyAggregateError`` 400 envelope with a JSON-pointer path, not a
    silent NULL result or a 500."""

    @pytest.fixture(scope="class")
    def null_server(self):
        service = ExplainService()
        server, thread = serve_in_background(service, port=0)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        records = [{"id": i, "v": None} for i in range(4)]
        client.register_database("N1", {"T": records})
        client.register_database("N2", {"T": records})
        yield client
        server.shutdown()

    def test_plan_run_surfaces_typed_400(self, null_server):
        with pytest.raises(ServiceClientError) as excinfo:
            null_server.plan({
                "database": "N1",
                "query": {"name": "Q", "kind": "sum", "relation": "T", "attribute": "v"},
                "run": True,
            })
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "EmptyAggregateError"
        assert excinfo.value.path == "/query"
        assert "SUM" in excinfo.value.detail

    def test_plan_without_run_still_explains(self, null_server):
        payload = null_server.plan({
            "database": "N1",
            "query": {"name": "Q", "kind": "sum", "relation": "T", "attribute": "v"},
            "run": False,
        })
        assert payload["query"] == "Q"

    def test_explain_points_at_the_offending_query(self, null_server):
        import urllib.error
        import urllib.request

        payload = {
            "database_left": "N1",
            "query_left": {"name": "Q1", "kind": "sum", "relation": "T", "attribute": "v"},
            "database_right": "N2",
            "query_right": {"name": "Q2", "kind": "count", "relation": "T", "attribute": "id"},
            "attribute_matches": [["id", "id"]],
        }
        request = urllib.request.Request(
            f"{null_server.base_url}/explain",
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            code = exc.code
            body = json.loads(exc.read())
        assert code == 400
        assert body["error"]["type"] == "EmptyAggregateError"
        assert body["error"]["path"] == "/query_left"
        assert "SUM over an empty input" in body["error"]["message"]

    def test_count_over_all_null_is_fine(self, null_server):
        payload = null_server.plan({
            "database": "N1",
            "query": {"name": "Q", "kind": "count", "relation": "T", "attribute": "v"},
            "run": True,
        })
        assert payload["rows_out"] == 1  # COUNT always yields a scalar row
