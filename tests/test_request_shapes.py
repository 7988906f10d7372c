"""Each request shape's work done once: cached key material, compiled SQL, results off provenance.

* Artifact keys built from a shape's cached parts must equal
  ``fingerprint_of`` over the raw request parts, for every cache tier, on the
  request path and after ingest rewiring -- and an ingest must not
  re-canonicalize any query.
* ``build_problem`` reads each query's result off the provenance it holds;
  the executor (``scalar_result(..., planner="naive")``) is the reference.
* The service's compiled-query cache must never serve a query bound against
  a schema that has since changed, and must never cache a SQL error.
"""

from __future__ import annotations

import pickle

import pytest

from repro import Explain3DConfig, Priors
from repro.core.problem import build_problem
from repro.core.problem import scalar_result as result_off_provenance
from repro.datasets.imdb import IMDbConfig, generate_imdb_workload
from repro.datasets.sql_catalog import catalog_queries, figure1_databases, imdb_sql
from repro.graphs.weighting import WeightingParams
from repro.relational import query as query_module
from repro.relational.errors import EmptyAggregateError
from repro.relational.executor import Database, scalar_result
from repro.relational.expressions import col
from repro.relational.provenance import provenance_relation
from repro.relational.query import (
    AggregateFunction,
    Query,
    Scan,
    aggregate_query,
    count_query,
    projection_query,
)
from repro.relational.schema import DataType, Schema
from repro.service import (
    ExplainService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    request_from_payload,
    runs_request_from_payload,
    serve_in_background,
)
from repro.service.cache import ArtifactCache, EncodedPart, fingerprint_of
from repro.service.http import SpecError
from repro.sql import parse_query
from repro.sql.fuzz import fuzz_round, toy_database

# ---------------------------------------------------------------------------
# Keys from cached parts
# ---------------------------------------------------------------------------

DECLARATIVE = {
    "database_left": "D1",
    "query_left": {"name": "Q1", "kind": "count", "relation": "D1", "attribute": "Program"},
    "database_right": "D2",
    "query_right": {
        "name": "Q2", "kind": "count", "relation": "D2", "attribute": "Major",
        "where": [{"column": "Univ", "op": "=", "value": "A"}],
    },
    "attribute_matches": [["Program", "Major"]],
}
SQL = {
    "database_left": "D1",
    "query_left": {"name": "Q1", "sql": "SELECT COUNT(Program) FROM D1 WHERE Degree = 'B.S.'"},
    "database_right": "D2",
    "query_right": {"name": "Q2", "sql": "SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'"},
}
MAPPING = [["T1:0", "T2:0", 0.95], ["T1:1", "T2:1", 0.9], ["T1:2", "T2:2", 0.95]]
LABELS = [["T1:0", "T2:0"], ["T1:2", "T2:2"], ["T1:3", "T2:3"]]
RUNS = {
    "runs": {
        "left": {"name": "run_a", "records": [{"id": i, "v": float(i)} for i in range(6)]},
        "right": {"name": "run_b", "records": [{"id": i, "v": float(i % 4)} for i in range(6)]},
        "key": "id",
    }
}
CONFIGS = (
    {"partitioning": "none", "priors": {"alpha": 0.9, "beta": 0.9}},
    {"partitioning": "smart", "batch_size": 3, "min_similarity": 0.2},
    {"summarize": False, "weighting": {"reward": 50.0}, "num_buckets": 10},
)


def _raw_keys(request, config: Explain3DConfig, left_fp: str, right_fp: str) -> dict:
    """Every artifact key as ``fingerprint_of`` over the raw request parts."""
    matches = (
        tuple(request.attribute_matches.matches)
        if request.attribute_matches is not None
        else "auto"
    )
    mapping = tuple(request.tuple_mapping.matches) if request.tuple_mapping is not None else "auto"
    labeled = request.labeled_pairs if request.labeled_pairs is not None else "none"
    stage1 = (config.priors, config.num_buckets, config.min_similarity, config.min_match_probability)
    solve = (
        config.partitioning, config.batch_size, config.weighting, config.use_prepartitioning,
        config.summarize, config.min_summary_precision, "default",
    )
    provenance_left = fingerprint_of(left_fp, request.query_left, "L")
    provenance_right = fingerprint_of(right_fp, request.query_right, "R")
    problem = fingerprint_of(
        left_fp, request.query_left, right_fp, request.query_right,
        matches, mapping, labeled, stage1,
    )
    return {
        "provenance_left": provenance_left,
        "provenance_right": provenance_right,
        "linkage": fingerprint_of(provenance_left, provenance_right, matches),
        "problem": problem,
        "report": fingerprint_of(problem, solve),
    }


def _figure1_service(config: ServiceConfig | None = None) -> ExplainService:
    db1, db2, _ = figure1_databases()
    service = ExplainService(config)
    service.register_database(db1, "D1")
    service.register_database(db2, "D2")
    return service


def _shapes(service: ExplainService):
    """Requests of every spec family, with and without mapping or labels."""
    for base in (DECLARATIVE, SQL):
        for extra in ({}, {"tuple_mapping": MAPPING}, {"labeled_pairs": LABELS}):
            for config in CONFIGS:
                payload = {**base, **extra, "config": config}
                yield request_from_payload(
                    payload,
                    database_resolver=service.database,
                    compiled=service.compiled_queries,
                )
    for config in CONFIGS:
        yield runs_request_from_payload({**RUNS, "config": config}, service)


class TestKeysFromCachedParts:
    def test_keys_equal_fingerprint_of_over_raw_parts(self):
        service = _figure1_service()
        seen_problems = set()
        for request in _shapes(service):
            left_fp = service.databases()[request.database_left]
            right_fp = service.databases()[request.database_right]
            expected = _raw_keys(request, request.config, left_fp, right_fp)
            result = service.explain(request)
            assert result.problem_fingerprint == expected["problem"]
            assert result.request_fingerprint == expected["report"]
            caches = {name: service.caches.cache(name) for name in
                      ("provenance", "features", "candidates", "problem", "report")}
            assert expected["provenance_left"] in caches["provenance"]
            assert expected["provenance_right"] in caches["provenance"]
            assert expected["problem"] in caches["problem"]
            assert expected["report"] in caches["report"]
            if request.tuple_mapping is None:
                assert expected["linkage"] in caches["features"]
                assert expected["linkage"] in caches["candidates"]
            # The remembered shape re-keys to the same keys under any pair of
            # fingerprints -- the computation ingest and retirement run.
            signature = service._signatures[expected["problem"]]
            for fps in ((left_fp, right_fp), ("f" * 64, right_fp), (left_fp, "0" * 64)):
                raw = _raw_keys(request, request.config, *fps)
                keys = service._signature_keys(signature, *fps)
                assert {slot: keys[slot] for slot in
                        ("provenance_left", "provenance_right", "linkage", "problem")} == {
                    slot: raw[slot] for slot in
                    ("provenance_left", "provenance_right", "linkage", "problem")}
                assert raw["report"] in keys["reports"].values()
            seen_problems.add(expected["problem"])
        assert len(seen_problems) == 2 * 3 * 3 + 3

    def test_rewired_artifacts_land_under_the_raw_keys(self):
        service = _figure1_service()
        requests = list(_shapes(service))[:9]
        for request in requests:
            service.explain(request)
        summary = service.ingest("D2", "D2", [{"op": "delete", "row_id": "D2:6"}])
        assert summary["caches"]["rewired"] > 0 and summary["caches"]["evicted"] == 0
        fps = service.databases()
        for request in requests:
            expected = _raw_keys(request, request.config, fps["D1"], fps["D2"])
            assert expected["problem"] in service.caches.cache("problem")
            assert service.explain(request).cached_report

    def test_encoded_part_hashes_like_the_raw_part(self):
        parts = ("fp", Priors(0.9, 0.8), {"b": 1, "a": (2, 3)}, {("x", "y")}, WeightingParams())
        assert fingerprint_of(*(EncodedPart(part) for part in parts)) == fingerprint_of(*parts)
        assert fingerprint_of("a", EncodedPart(parts[1]), "c") == fingerprint_of("a", parts[1], "c")


class TestQueryFingerprintMemo:
    def test_memo_equals_a_fresh_computation_and_is_not_pickled(self):
        query = count_query("Q2", Scan("D2"), predicate=(col("Univ") == "A"), attribute="Major")
        fingerprint = query.fingerprint()
        assert query.fingerprint() is fingerprint
        fresh = Query(query.name, query.root, query.description)
        assert fresh.fingerprint() == fingerprint
        clone = pickle.loads(pickle.dumps(query))
        assert "_fingerprint" not in clone.__dict__
        assert clone == query and clone.fingerprint() == fingerprint

    def test_memo_never_changes_equality_or_hash(self):
        query = count_query("Q1", Scan("D1"), attribute="Program")
        twin = count_query("Q1", Scan("D1"), attribute="Program")
        query.fingerprint()
        assert query == twin and hash(query) == hash(twin)


class _CanonicalCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = query_module._canonical_description

        def counting(node):
            self.calls += 1
            return original(node)

        monkeypatch.setattr(query_module, "_canonical_description", counting)


class TestRekeyingComputesNoCanonicalForm:
    SHAPES = 24

    def _remember_shapes(self, shapes: int = SHAPES, config=None) -> ExplainService:
        service = _figure1_service(config)
        for index in range(shapes):
            payload = {**DECLARATIVE, "config": {
                "partitioning": "none", "min_similarity": round(0.01 * index, 2),
            }}
            service.explain(request_from_payload(payload, database_resolver=service.database))
        return service

    def test_ingest_counts_no_cache_traffic(self):
        service = self._remember_shapes()
        provenance = service.caches.cache("provenance")
        assert (provenance.stats.hits, provenance.stats.misses) == (46, 2)
        service.ingest("D2", "D2", [{"op": "delete", "row_id": "D2:6"}])
        assert (provenance.stats.hits, provenance.stats.misses) == (46, 2)

    def test_peek_reads_spilled_entries_without_touching_order_or_counters(self, tmp_path):
        cache = ArtifactCache("t", max_entries=2, spill_dir=tmp_path)
        for key in ("a", "b", "c"):  # "a" spills
            cache.put(key, key.upper())
        before = (cache.keys(), cache.stats.as_dict())
        assert [cache.peek(key) for key in ("a", "b", "z")] == ["A", "B", None]
        assert (cache.keys(), cache.stats.as_dict()) == before

    def test_registry_remembers_only_shapes_the_caches_can_hold(self):
        config = ServiceConfig(cache_entries=4, report_cache_entries=6)
        service = self._remember_shapes(10, config)
        assert len(service._signatures) == 6
        fingerprints = service.databases()
        for problem_key, signature in service._signatures.items():
            keys = service._signature_keys(signature, fingerprints["D1"], fingerprints["D2"])
            assert problem_key in service._problems or any(
                key in service._reports for key in keys["reports"].values()
            )

    def test_ingest_hashes_cached_parts_only(self, monkeypatch):
        service = self._remember_shapes()
        assert len(service._signatures) == self.SHAPES
        counter = _CanonicalCounter(monkeypatch)
        summary = service.ingest("D2", "D2", [{"op": "delete", "row_id": "D2:6"}])
        assert counter.calls == 0
        # Shapes sharing provenance are each rewired, none evicted.
        assert summary["caches"]["evicted"] == 0
        assert summary["caches"]["rewired"] >= self.SHAPES

    def test_version_retirement_hashes_cached_parts_only(self, monkeypatch):
        service = self._remember_shapes()
        counter = _CanonicalCounter(monkeypatch)
        changed = Database("D2")
        changed.add_records("D2", [{"Univ": "A", "Major": "Art"}])
        service.register_database(changed, "D2")
        assert counter.calls == 0
        assert len(service.caches.cache("problem")) == 0


# ---------------------------------------------------------------------------
# Results read off provenance
# ---------------------------------------------------------------------------

def _outcome(compute) -> tuple:
    try:
        value = compute()
    except EmptyAggregateError as exc:
        return ("empty", exc.function)
    except Exception:
        return ("absent",)
    return ("value", type(value).__name__, repr(value))


def _assert_same_result(query, db) -> tuple:
    provenance = provenance_relation(query, db)
    expected = _outcome(lambda: scalar_result(query, db, planner="naive"))
    assert _outcome(lambda: result_off_provenance(query, provenance)) == expected, query
    return expected


class TestResultsOffProvenance:
    def test_sql_catalog(self):
        outcomes = {label: _assert_same_result(query, db)[0] for label, query, db in catalog_queries()}
        assert outcomes["figure1/Q1"] == "value"
        assert outcomes["imdb/Q1/v1"] == "absent"  # a SELECT DISTINCT list query

    def test_service_mix_imdb_pool(self):
        workload = generate_imdb_workload(IMDbConfig(num_movies=400, seed=17))
        years = workload.years_with_movies()
        dobs = sorted(set(workload.db_view1.relation("Director").column("dob")))[: len(years)]
        kinds = set()
        for template in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9"):
            for param in (dobs if template == "Q2" else years)[:4]:
                sqls = imdb_sql(template, param)
                for side, db in (("v1", workload.db_view1), ("v2", workload.db_view2)):
                    query = parse_query(sqls[side], db, name=f"{template}_{side}")
                    kinds.add(_assert_same_result(query, db)[0])
        assert kinds == {"value", "absent"}

    @pytest.mark.parametrize("rows", [[], [None, None], [None, 2.0, None]])
    @pytest.mark.parametrize("function", ["SUM", "AVG", "MAX", "MIN", "COUNT"])
    def test_empty_and_all_null_inputs(self, function, rows):
        db = Database("n")
        schema = Schema([("id", DataType.INTEGER), ("v", DataType.FLOAT)])
        db.add_records("T", [{"id": i, "v": v} for i, v in enumerate(rows)], schema)
        query = aggregate_query("A", AggregateFunction[function], Scan("T"), "v")
        _assert_same_result(query, db)
        _assert_same_result(count_query("C", Scan("T")), db)
        _assert_same_result(projection_query("P", Scan("T"), ["v"]), db)
        _assert_same_result(projection_query("P", Scan("T"), ["v"], distinct=False), db)

    def test_fuzzed_sql(self):
        kinds: dict = {}
        for seed in range(600):
            db = toy_database(seed % 7, rows=(2, 3, 4, 6, 30)[seed % 5])
            query = parse_query(fuzz_round(seed, db), db, name=f"F{seed}")
            try:
                provenance_relation(query, db)
            except Exception:
                continue  # no provenance, so build_problem never reads a result
            outcome = _assert_same_result(query, db)
            key = outcome[0] if outcome[0] != "value" else outcome[1]
            kinds[key] = kinds.get(key, 0) + 1
        assert {"absent", "float", "NoneType", "str", "int"} <= set(kinds)

    def test_pair_gets_both_results_or_neither(self, figure1_db1, figure1_db2, figure1_queries):
        q1, q2 = figure1_queries
        listing = projection_query("L", Scan("D2"), ["Major"])
        problem = build_problem(q1, figure1_db1, listing, figure1_db2)
        assert problem.result_left is None and problem.result_right is None
        problem = build_problem(q1, figure1_db1, q2, figure1_db2)
        assert (problem.result_left, problem.result_right) == (7.0, 6.0)

    def test_all_null_aggregate_keeps_its_pointer(self):
        db = Database("n")
        db.add_records("T", [{"id": 0, "v": None}, {"id": 1, "v": None}])
        q1 = count_query("Q1", Scan("T"), attribute="id")
        total = aggregate_query("Q2", AggregateFunction.SUM, Scan("T"), "v")
        with pytest.raises(EmptyAggregateError) as excinfo:
            build_problem(q1, db, total, db)
        assert excinfo.value.path == "/query_right"


# ---------------------------------------------------------------------------
# Compiled SQL reuse
# ---------------------------------------------------------------------------

class TestCompiledQueries:
    def test_repeated_sql_is_served_compiled(self):
        service = _figure1_service()
        first = request_from_payload(SQL, database_resolver=service.database,
                                     compiled=service.compiled_queries)
        again = request_from_payload(SQL, database_resolver=service.database,
                                     compiled=service.compiled_queries)
        assert again.query_left is first.query_left
        assert service.compiled_queries.stats.hits == 2
        renamed = dict(SQL, query_left={"name": "Other", "sql": SQL["query_left"]["sql"]})
        other = request_from_payload(renamed, database_resolver=service.database,
                                     compiled=service.compiled_queries)
        assert other.query_left.name == "Other"

    def test_recompiles_when_a_reregistered_database_renames_a_column(self):
        service = _figure1_service()
        payload = dict(SQL, query_left={"name": "Q1", "sql": "SELECT DISTINCT * FROM D1"})
        compile_ = lambda: request_from_payload(
            payload, database_resolver=service.database, compiled=service.compiled_queries
        ).query_left
        before = compile_()
        renamed = Database("D1")
        renamed.add_records("D1", [{"Course": "CS", "Degree": "B.S."}])
        service.register_database(renamed, "D1")
        after = compile_()
        assert after is not before
        assert after.fingerprint() == parse_query(
            payload["query_left"]["sql"], renamed, name="Q1").fingerprint()
        assert after.root.attributes == ("Course", "Degree")
        bound = dict(payload, query_left={"name": "Q1", "sql": "SELECT COUNT(Program) FROM D1"})
        with pytest.raises(SpecError) as excinfo:
            request_from_payload(bound, database_resolver=service.database,
                                 compiled=service.compiled_queries)
        assert excinfo.value.path == "/query_left/sql"

    def test_bad_sql_stays_a_400_when_sent_again(self):
        service = _figure1_service()
        server, _ = serve_in_background(service, port=0)
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            bad = dict(SQL, query_left={"name": "Q1", "sql": "SELECT COUNT(Progrm) FROM D1"})
            for _ in range(2):
                with pytest.raises(ServiceClientError) as excinfo:
                    client.explain(bad)
                assert excinfo.value.status == 400
                assert excinfo.value.path == "/query_left/sql"
            assert len(service.compiled_queries) == 0
        finally:
            server.shutdown()
            server.server_close()
