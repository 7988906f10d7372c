"""The explanation service layer: cache correctness, jobs, and equivalence.

The load-bearing guarantee is that the service is a transparent accelerator:
every response -- cold, warm, or config-perturbed -- must be identical to a
direct ``Explain3D.explain()`` call with the same inputs.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import Explain3D, Explain3DConfig, Priors, Scan, count_query, matching
from repro.core.problem import Stage1Artifacts, build_problem
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.service import (
    ArtifactCache,
    ExplainRequest,
    ExplainService,
    JobQueue,
    JobState,
    ServiceConfig,
    UnknownDatabaseError,
    fingerprint_of,
)


def _reports_equal(a, b) -> bool:
    """Result equivalence: explanations, evidence pairs and summary patterns."""
    return (
        a.explanations.explanation_identities() == b.explanations.explanation_identities()
        and a.explanations.evidence_pairs() == b.explanations.evidence_pairs()
        and abs(a.explanations.objective - b.explanations.objective) < 1e-9
        and {p.describe() for p in a.summary.patterns} == {p.describe() for p in b.summary.patterns}
        and sorted(a.summary.residual_keys) == sorted(b.summary.residual_keys)
    )


@pytest.fixture()
def figure1_service(figure1_db1, figure1_db2):
    service = ExplainService()
    service.register_database(figure1_db1, "D1")
    service.register_database(figure1_db2, "D2")
    return service


@pytest.fixture()
def figure1_request(figure1_queries, figure1_mapping):
    q1, q2 = figure1_queries
    return ExplainRequest(
        query_left=q1,
        database_left="D1",
        query_right=q2,
        database_right="D2",
        attribute_matches=matching(("Program", "Major")),
        tuple_mapping=figure1_mapping,
        config=Explain3DConfig(partitioning="none", priors=Priors(0.9, 0.9)),
    )


class TestArtifactCache:
    def test_lru_eviction_bounds_memory(self):
        cache = ArtifactCache("test", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_lru_recency_order(self):
        cache = ArtifactCache("test", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_hit_miss_counters(self):
        cache = ArtifactCache("test", max_entries=4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_get_or_compute(self):
        cache = ArtifactCache("test", max_entries=4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 43) == 42
        assert len(calls) == 1

    def test_disk_spill_roundtrip(self, tmp_path):
        cache = ArtifactCache("test", max_entries=1, spill_dir=tmp_path)
        cache.put("a", {"payload": [1, 2, 3]})
        cache.put("b", "evicts a to disk")
        assert cache.stats.spill_writes == 1
        assert cache.get("a") == {"payload": [1, 2, 3]}  # transparently reloaded
        assert cache.stats.spill_loads == 1

    def test_clear_also_drops_spill_files(self, tmp_path):
        cache = ArtifactCache("test", max_entries=1, spill_dir=tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)  # evicts a to disk
        cache.clear()
        assert cache.get("a") is None  # must not resurrect from disk
        assert cache.get("b") is None
        assert not list(tmp_path.glob("test-*.pkl"))

    def test_fingerprint_stability_and_sensitivity(self):
        assert fingerprint_of({"b": 2, "a": 1}) == fingerprint_of({"a": 1, "b": 2})
        assert fingerprint_of({1, 2, 3}) == fingerprint_of({3, 2, 1})
        assert fingerprint_of("x") != fingerprint_of("y")
        assert fingerprint_of(("x",)) != fingerprint_of(("x", "x"))


class TestFingerprints:
    def test_database_fingerprint_changes_with_content(self, figure1_db1):
        fingerprint = figure1_db1.fingerprint()
        assert fingerprint == figure1_db1.fingerprint()  # stable
        figure1_db1.relation("D1").append(["Robotics", "B.S."])
        assert figure1_db1.fingerprint() != fingerprint

    def test_database_fingerprint_changes_with_relation_name(self):
        from repro import Database

        rows = [{"x": 1}, {"x": 2}]
        db_a = Database("db")
        db_a.add_records("R", rows)
        db_b = Database("db")
        db_b.add_records("S", rows)
        assert db_a.fingerprint() != db_b.fingerprint()

    def test_query_fingerprint_sees_every_field(self):
        from repro import col
        from repro.relational.query import Aggregate, AggregateFunction, Query

        base = count_query("Q", Scan("R"), attribute="a")
        named = count_query("Q2", Scan("R"), attribute="a")
        filtered = count_query("Q", Scan("R"), attribute="a", predicate=(col("x") == 1))
        assert base.fingerprint() == count_query("Q", Scan("R"), attribute="a").fingerprint()
        assert base.fingerprint() != named.fingerprint()
        assert base.fingerprint() != filtered.fingerprint()
        # group_by is omitted from Aggregate.__repr__; the fingerprint must see it.
        plain = Query("Q", Aggregate(Scan("R"), AggregateFunction.COUNT, "a"))
        grouped = Query("Q", Aggregate(Scan("R"), AggregateFunction.COUNT, "a", group_by=("g",)))
        assert plain.fingerprint() != grouped.fingerprint()


class TestServiceEquivalence:
    def test_warm_and_cold_match_direct_explain(
        self, figure1_service, figure1_request, figure1_db1, figure1_db2
    ):
        cold = figure1_service.explain(figure1_request)
        warm = figure1_service.explain(figure1_request)
        assert not cold.cached_report
        assert warm.cached_report

        direct = Explain3D(figure1_request.config).explain(
            figure1_request.query_left,
            figure1_db1,
            figure1_request.query_right,
            figure1_db2,
            attribute_matches=figure1_request.attribute_matches,
            tuple_mapping=figure1_request.tuple_mapping,
        )
        assert _reports_equal(cold.report, direct)
        assert _reports_equal(warm.report, direct)
        assert cold.report.to_dict()["explanations"] == warm.report.to_dict()["explanations"]

    def test_automatic_stage1_matches_direct(self, figure1_service, figure1_queries,
                                             figure1_db1, figure1_db2):
        q1, q2 = figure1_queries
        config = Explain3DConfig(partitioning="none")
        request = ExplainRequest(q1, "D1", q2, "D2",
                                 attribute_matches=matching(("Program", "Major")),
                                 config=config)
        served = figure1_service.explain(request)
        direct = Explain3D(config).explain(
            q1, figure1_db1, q2, figure1_db2,
            attribute_matches=matching(("Program", "Major")),
        )
        assert _reports_equal(served.report, direct)

    def test_synthetic_equivalence_cold_warm_perturbed(self):
        pair = generate_synthetic_pair(
            SyntheticConfig(num_tuples=100, difference_ratio=0.2, vocabulary_size=300)
        )
        service = ExplainService()
        service.register_database(pair.db_left, "left")
        service.register_database(pair.db_right, "right")
        config = Explain3DConfig(partitioning="smart", batch_size=50)
        request = ExplainRequest(pair.query_left, "left", pair.query_right, "right",
                                 attribute_matches=pair.attribute_matches, config=config)
        cold = service.explain(request)
        warm = service.explain(request)
        direct = Explain3D(config).explain(
            pair.query_left, pair.db_left, pair.query_right, pair.db_right,
            attribute_matches=pair.attribute_matches,
        )
        assert _reports_equal(cold.report, direct)
        assert _reports_equal(warm.report, direct)

        # Perturbing the linkage threshold rebuilds the problem from cached
        # features + scored candidates, and must still match a direct run.
        perturbed = service.with_config(request, min_similarity=0.15)
        served = service.explain(perturbed)
        assert not served.cached_report and not served.cached_problem
        direct_perturbed = Explain3D(perturbed.config).explain(
            pair.query_left, pair.db_left, pair.query_right, pair.db_right,
            attribute_matches=pair.attribute_matches,
        )
        assert _reports_equal(served.report, direct_perturbed)
        stats = service.stats()["caches"]
        assert stats["candidates"]["hits"] >= 1  # scored candidates were reused
        assert stats["features"]["hits"] >= 1

    def test_solve_config_perturbation_reuses_problem(self, figure1_service, figure1_request):
        figure1_service.explain(figure1_request)
        rebatched = figure1_service.with_config(figure1_request, batch_size=500)
        served = figure1_service.explain(rebatched)
        assert not served.cached_report
        assert served.cached_problem  # stage 1 untouched, only stage 2 re-ran

    def test_worker_count_does_not_change_report_identity(
        self, figure1_service, figure1_request
    ):
        cold = figure1_service.explain(figure1_request)
        reworked = figure1_service.with_config(figure1_request, workers=4)
        served = figure1_service.explain(reworked)
        assert served.cached_report  # workers are excluded from the key
        assert served.report is cold.report

    def test_differently_parameterized_solvers_do_not_share_reports(
        self, figure1_service, figure1_request
    ):
        from repro.solver.backends import BnBSolverBackend

        loose = figure1_service.with_config(
            figure1_request, solver=BnBSolverBackend(gap_tolerance=1e-3)
        )
        exact = figure1_service.with_config(figure1_request, solver=BnBSolverBackend())
        first = figure1_service.explain(loose)
        second = figure1_service.explain(exact)
        assert not second.cached_report  # class name alone must not collide
        assert first.request_fingerprint != second.request_fingerprint


class TestServiceRegistry:
    def test_unknown_database_raises(self, figure1_service, figure1_request):
        bad = ExplainRequest(
            figure1_request.query_left, "nope",
            figure1_request.query_right, "D2",
        )
        with pytest.raises(UnknownDatabaseError):
            figure1_service.explain(bad)

    def test_reregistering_changed_database_rekeys(self, figure1_db1, figure1_db2,
                                                   figure1_request):
        service = ExplainService()
        first = service.register_database(figure1_db1, "D1")
        service.register_database(figure1_db2, "D2")
        cold = service.explain(figure1_request)

        figure1_db1.relation("D1").append(["Robotics", "B.S."])
        second = service.register_database(figure1_db1, "D1")
        assert first != second
        served = service.explain(figure1_request)
        assert not served.cached_report  # changed content, new fingerprint
        assert served.report.problem.result_left == 8.0
        assert cold.report.problem.result_left == 7.0

    def test_eviction_bounds_service_memory(self, figure1_db1, figure1_db2,
                                            figure1_queries, figure1_mapping):
        q1, q2 = figure1_queries
        service = ExplainService(ServiceConfig(cache_entries=2, report_cache_entries=2))
        service.register_database(figure1_db1, "D1")
        service.register_database(figure1_db2, "D2")
        for batch_size in (100, 200, 300, 400):
            request = ExplainRequest(
                q1, "D1", q2, "D2",
                attribute_matches=matching(("Program", "Major")),
                tuple_mapping=figure1_mapping,
                config=Explain3DConfig(partitioning="none", batch_size=batch_size),
            )
            service.explain(request)
        report_cache = service.caches.cache("report")
        assert len(report_cache) <= 2
        assert report_cache.stats.evictions >= 2


class TestVersionRetirement:
    """Re-registering changed content retires the replaced version from memory."""

    TIERS = ("provenance", "plans", "features", "candidates", "problem", "report")

    @staticmethod
    def _pair(seed):
        return generate_synthetic_pair(
            SyntheticConfig(num_tuples=40, difference_ratio=0.2, vocabulary_size=100, seed=seed)
        )

    @staticmethod
    def _register(service, pair, left="left", right="right"):
        service.register_database(pair.db_left, left)
        service.register_database(pair.db_right, right)

    @staticmethod
    def _explain(service, pair, left="left"):
        return service.explain(
            ExplainRequest(
                pair.query_left, left, pair.query_right, "right",
                attribute_matches=pair.attribute_matches,
                config=Explain3DConfig(partitioning="none"),
            )
        )

    def _sizes(self, service):
        return {tier: len(service.caches.cache(tier)) for tier in self.TIERS}

    def test_each_tier_holds_one_question(self):
        service = ExplainService()
        for seed in range(4):
            pair = self._pair(seed)
            self._register(service, pair)
            self._explain(service, pair)
            assert self._sizes(service) == {
                "provenance": 2, "plans": 2, "features": 1,
                "candidates": 1, "problem": 1, "report": 1,
            }, seed

    def test_identical_content_keeps_the_report(self):
        service = ExplainService()
        self._register(service, self._pair(1))
        self._explain(service, self._pair(1))
        self._register(service, self._pair(1))  # same bytes, fresh objects
        assert self._explain(service, self._pair(1)).cached_report

    def test_version_held_by_another_name_keeps_its_artifacts(self):
        service = ExplainService()
        first = self._pair(1)
        self._register(service, first)
        service.register_database(first.db_left, "left_copy")
        self._explain(service, first)
        sizes = self._sizes(service)
        service.register_database(self._pair(2).db_left, "left")
        assert self._sizes(service) == sizes
        assert self._explain(service, first, left="left_copy").cached_report

    def test_retired_entries_spill_without_tombstones(self, tmp_path):
        service = ExplainService(ServiceConfig(spill_dir=tmp_path))
        first = self._pair(1)
        self._register(service, first)
        cold = self._explain(service, first)
        self._register(service, self._pair(2))
        reports = service.caches.cache("report")
        assert len(reports) == 0
        assert list(tmp_path.glob("report-*.pkl"))
        assert not list(tmp_path.glob("*.tomb"))

        self._register(service, first)  # the old content again
        again = self._explain(service, first)
        assert again.cached_report
        assert reports.stats.spill_loads == 1
        assert _reports_equal(again.report, cold.report)


class TestJobQueue:
    def test_concurrent_submissions_match_sequential(self, figure1_db1, figure1_db2,
                                                     figure1_queries, figure1_mapping):
        q1, q2 = figure1_queries
        matches = matching(("Program", "Major"))
        requests = [
            ExplainRequest(
                q1, "D1", q2, "D2",
                attribute_matches=matches,
                tuple_mapping=figure1_mapping,
                config=Explain3DConfig(partitioning="none", priors=Priors(alpha, 0.9)),
            )
            for alpha in (0.85, 0.9, 0.95)
        ] * 2  # duplicates exercise concurrent cache access

        # sequential reference on a fresh service (no shared cache effects)
        sequential_service = ExplainService()
        sequential_service.register_database(figure1_db1, "D1")
        sequential_service.register_database(figure1_db2, "D2")
        sequential = [sequential_service.explain(r).report for r in requests]

        concurrent_service = ExplainService()
        concurrent_service.register_database(figure1_db1, "D1")
        concurrent_service.register_database(figure1_db2, "D2")
        queue = JobQueue(concurrent_service.explain, max_workers=4)
        jobs = queue.submit_batch(requests)
        assert queue.wait_all(jobs, timeout=30)
        for job, reference in zip(jobs, sequential):
            assert job.state is JobState.DONE, job.error
            assert _reports_equal(job.result.report, reference)
        assert queue.stats.completed == len(requests)
        queue.shutdown()

    def test_cancel_queued_job(self):
        gate = threading.Event()
        release = threading.Event()

        def slow_runner(request):
            gate.set()
            release.wait(5)
            return request

        queue = JobQueue(slow_runner, max_workers=1)
        running = queue.submit("first")
        assert gate.wait(5)  # worker is now blocked inside the first job
        queued = queue.submit("second")
        assert queue.cancel(queued.id)
        assert queued.state is JobState.CANCELLED
        # Cancelling a *running* job is now a cooperative request: it
        # returns True, sets the job's cancel_event, and the runner decides
        # whether to observe it.  This runner ignores it, so the job still
        # settles DONE -- but the request is recorded.
        assert queue.cancel(running.id)
        assert running.cancel_requested
        assert running.cancel_event.is_set()
        release.set()
        assert queue.wait_all([running], timeout=5)
        assert running.state is JobState.DONE
        assert queued.wait(5)
        assert queue.stats.cancelled == 1
        assert not queue.cancel(running.id)  # terminal now
        queue.shutdown()

    def test_failed_job_records_error(self):
        def boom(request):
            raise ValueError("no such artifact")

        queue = JobQueue(boom, max_workers=1)
        job = queue.submit("x")
        assert job.wait(5)
        assert job.state is JobState.FAILED
        assert "no such artifact" in job.error
        assert queue.stats.failed == 1
        queue.shutdown()

    def test_job_status_payload_is_json_safe(self):
        queue = JobQueue(lambda r: r, max_workers=1)
        job = queue.submit("payload")
        assert job.wait(5)
        json.dumps(job.status())
        queue.shutdown()

    def test_finished_jobs_are_pruned_beyond_retention(self):
        queue = JobQueue(lambda r: r, max_workers=1, max_retained=3)
        jobs = [queue.submit(i) for i in range(6)]
        assert queue.wait_all(jobs, timeout=10)
        queue.submit("one more")
        assert len(queue.jobs()) <= 4  # 3 retained + the fresh submission
        assert queue.get(jobs[0].id) is None  # oldest terminal job dropped
        queue.shutdown()

    def test_shutdown_cancels_queued_jobs(self):
        gate = threading.Event()
        release = threading.Event()

        def slow_runner(request):
            gate.set()
            release.wait(5)
            return request

        queue = JobQueue(slow_runner, max_workers=1)
        running = queue.submit("running")
        assert gate.wait(5)
        queued = queue.submit("never starts")
        release.set()
        queue.shutdown(wait=True, timeout=5)
        assert queued.wait(1)  # terminal, not abandoned in QUEUED limbo
        assert queued.state is JobState.CANCELLED
        assert running.state is JobState.DONE

    def test_idempotency_key_coalesces_inflight_submissions(self):
        gate = threading.Event()
        release = threading.Event()

        def slow_runner(request):
            gate.set()
            release.wait(5)
            return request

        queue = JobQueue(slow_runner, max_workers=1)
        first = queue.submit("payload", idempotency_key="k1")
        assert gate.wait(5)  # first is executing behind the barrier
        duplicate = queue.submit("payload", idempotency_key="k1")
        assert duplicate is first  # single flight: same Job object
        assert first.coalesced == 1
        assert queue.stats.deduplicated == 1
        distinct = queue.submit("other", idempotency_key="k2")
        assert distinct is not first
        unkeyed = queue.submit("payload")
        assert unkeyed is not first  # no key, no coalescing
        release.set()
        assert queue.wait_all([first, distinct, unkeyed], timeout=5)
        # Terminal jobs never coalesce: a later replay executes afresh.
        replay = queue.submit("payload", idempotency_key="k1")
        assert replay is not first
        assert replay.wait(5)
        assert queue.stats.deduplicated == 1  # unchanged by the replay
        queue.shutdown()

    def test_cancelled_key_is_unindexed_for_replay(self):
        gate = threading.Event()
        release = threading.Event()

        def slow_runner(request):
            gate.set()
            release.wait(5)
            return request

        queue = JobQueue(slow_runner, max_workers=1)
        queue.submit("running")
        assert gate.wait(5)
        queued = queue.submit("payload", idempotency_key="k")
        assert queue.cancel(queued.id)
        replay = queue.submit("payload", idempotency_key="k")
        assert replay is not queued  # the cancelled flight released its key
        release.set()
        assert queue.wait_all([replay], timeout=5)
        assert replay.state is JobState.DONE
        queue.shutdown()

    def test_drain_waits_for_inflight_jobs(self):
        gate = threading.Event()
        release = threading.Event()

        def slow_runner(request):
            gate.set()
            release.wait(5)
            return request

        queue = JobQueue(slow_runner, max_workers=1)
        job = queue.submit("x")
        assert gate.wait(5)
        assert not queue.drain(timeout=0.1)  # still running: drain times out
        release.set()
        assert queue.drain(timeout=5)
        assert job.state is JobState.DONE
        queue.shutdown()


class TestReportSerialization:
    def test_to_dict_roundtrips_through_json(self, figure1_service, figure1_request):
        report = figure1_service.explain(figure1_request).report
        payload = json.loads(report.to_json())
        assert payload["query_left"]["result"] == 7.0
        assert payload["query_right"]["result"] == 6.0
        assert payload["disagreement"] == 1.0
        assert len(payload["explanations"]["value"]) == 1
        assert payload["explanations"]["evidence"]
        assert {"side", "key", "old_impact", "new_impact"} <= set(
            payload["explanations"]["value"][0]
        )
        assert "patterns" in payload["summary"]
        assert payload["stats"]["num_partitions"] >= 1

    def test_timings_total_is_sum_of_stages(self, figure1_service, figure1_request,
                                            figure1_db1, figure1_db2):
        report = figure1_service.explain(figure1_request).report
        assert "stage1" in report.timings
        stages = {k: v for k, v in report.timings.items() if k != "total"}
        assert report.timings["total"] == pytest.approx(sum(stages.values()))
        direct = Explain3D(figure1_request.config).explain(
            figure1_request.query_left, figure1_db1,
            figure1_request.query_right, figure1_db2,
            attribute_matches=figure1_request.attribute_matches,
            tuple_mapping=figure1_request.tuple_mapping,
        )
        assert direct.timings["stage1"] > 0
        direct_stages = {k: v for k, v in direct.timings.items() if k != "total"}
        assert direct.timings["total"] == pytest.approx(sum(direct_stages.values()))


class TestStage1ArtifactsHook:
    def test_artifacts_are_harvested_and_reusable(self, figure1_db1, figure1_db2,
                                                  figure1_queries):
        q1, q2 = figure1_queries
        matches = matching(("Program", "Major"))
        artifacts = Stage1Artifacts()
        first = build_problem(q1, figure1_db1, q2, figure1_db2,
                              attribute_matches=matches, artifacts=artifacts)
        assert artifacts.provenance_left is not None
        assert artifacts.left_features is not None
        assert artifacts.candidates is not None

        second = build_problem(q1, figure1_db1, q2, figure1_db2,
                               attribute_matches=matches, artifacts=artifacts)
        plain = build_problem(q1, figure1_db1, q2, figure1_db2,
                              attribute_matches=matches)
        for problem in (first, second):
            assert problem.mapping.pairs() == plain.mapping.pairs()
            for match in problem.mapping:
                assert match.probability == pytest.approx(
                    plain.mapping.probability(match.left_key, match.right_key)
                )
        # injected provenance is reused object-identically
        assert second.provenance_left is first.provenance_left

    def test_stale_features_are_rebuilt(self, figure1_db1, figure1_db2, figure1_queries):
        from repro.matching.features import TupleFeatureCache

        q1, q2 = figure1_queries
        matches = matching(("Program", "Major"))
        stale = TupleFeatureCache([{"Program": "only-one-tuple"}], ["Program"])
        artifacts = Stage1Artifacts(left_features=stale)
        problem = build_problem(q1, figure1_db1, q2, figure1_db2,
                                attribute_matches=matches, artifacts=artifacts)
        plain = build_problem(q1, figure1_db1, q2, figure1_db2, attribute_matches=matches)
        assert artifacts.left_features is not stale  # rebuilt, not trusted
        assert problem.mapping.pairs() == plain.mapping.pairs()


class TestPlanCache:
    """The `plans` artifact cache: compiled physical plans across requests."""

    def test_plans_cache_appears_in_stats(self, figure1_service, figure1_request):
        figure1_service.explain(figure1_request)
        stats = figure1_service.stats()
        assert "plans" in stats["caches"]
        # A cold request plans both inner expressions.
        assert stats["caches"]["plans"]["misses"] >= 2

    def test_renamed_queries_reuse_compiled_plans(
        self, figure1_service, figure1_request, figure1_queries, figure1_mapping
    ):
        from dataclasses import replace

        from repro.relational.query import Query

        figure1_service.explain(figure1_request)
        before = figure1_service.stats()["caches"]["plans"]
        q1, q2 = figure1_queries
        renamed = replace(
            figure1_request,
            query_left=Query("Q1-renamed", q1.root),
            query_right=Query("Q2-renamed", q2.root),
        )
        result = figure1_service.explain(renamed)
        after = figure1_service.stats()["caches"]["plans"]
        # New names -> provenance cache misses, but the plan key ignores the
        # query name, so both sides hit the compiled plans.
        assert not result.cached_problem
        assert after["hits"] >= before["hits"] + 2
        assert after["misses"] == before["misses"]

    def test_plan_cache_eviction_is_bounded_and_counted(
        self, figure1_db1, figure1_db2, figure1_queries, figure1_mapping
    ):
        service = ExplainService(ServiceConfig(cache_entries=1))
        service.register_database(figure1_db1, "D1")
        service.register_database(figure1_db2, "D2")
        q1, q2 = figure1_queries
        request = ExplainRequest(
            query_left=q1,
            database_left="D1",
            query_right=q2,
            database_right="D2",
            attribute_matches=matching(("Program", "Major")),
            tuple_mapping=figure1_mapping,
            config=Explain3DConfig(partitioning="none"),
        )
        service.explain(request)
        plans = service.caches.cache("plans")
        assert len(plans) == 1  # two compiled plans, one-entry cache
        assert plans.stats.evictions >= 1

    def test_explain_plan_serves_and_warms_the_cache(
        self, figure1_service, figure1_queries, figure1_request
    ):
        _, q2 = figure1_queries
        payload = figure1_service.explain_plan("D2", q2, run=True)
        assert payload["database"] == "D2"
        assert payload["query"] == "Q2"
        assert payload["plan"]["operator"] == "AggregateExec"
        assert payload["rows_out"] == 1
        json.dumps(payload)
        before = figure1_service.stats()["caches"]["plans"]
        figure1_service.explain_plan("D2", q2, run=False)
        after = figure1_service.stats()["caches"]["plans"]
        assert after["hits"] == before["hits"] + 2  # root plan + inner plan
        # EXPLAIN also compiled the *inner* (provenance) expression's plan,
        # so a subsequent explain request for the same query hits it.
        before = after
        figure1_service.explain(figure1_request)
        after = figure1_service.stats()["caches"]["plans"]
        assert after["hits"] >= before["hits"] + 1

    def test_evicted_plans_are_never_spilled_to_disk(
        self, figure1_db1, figure1_db2, figure1_queries, figure1_mapping, tmp_path
    ):
        # A spilled plan would pickle its whole database; plans must opt out.
        service = ExplainService(ServiceConfig(cache_entries=1, spill_dir=tmp_path))
        service.register_database(figure1_db1, "D1")
        service.register_database(figure1_db2, "D2")
        q1, q2 = figure1_queries
        service.explain(
            ExplainRequest(
                query_left=q1,
                database_left="D1",
                query_right=q2,
                database_right="D2",
                attribute_matches=matching(("Program", "Major")),
                tuple_mapping=figure1_mapping,
                config=Explain3DConfig(partitioning="none"),
            )
        )
        plans = service.caches.cache("plans")
        assert plans.stats.evictions >= 1
        assert plans.stats.spill_writes == 0
        assert not list(tmp_path.glob("plans-*.pkl"))

    def test_explain_plan_unknown_database(self, figure1_service, figure1_queries):
        with pytest.raises(UnknownDatabaseError):
            figure1_service.explain_plan("nope", figure1_queries[0])

    def test_planned_provenance_equals_direct(self, figure1_service, figure1_request):
        """The plan cache is an accelerator: served reports stay identical."""
        served = figure1_service.explain(figure1_request)
        direct = Explain3D(figure1_request.config).explain(
            figure1_request.query_left,
            figure1_service.database("D1"),
            figure1_request.query_right,
            figure1_service.database("D2"),
            attribute_matches=figure1_request.attribute_matches,
            tuple_mapping=figure1_request.tuple_mapping,
        )
        assert _reports_equal(served.report, direct)


class TestStatsArtifactCache:
    """ANALYZE through the service: the `stats` artifact cache + plan re-keying."""

    def test_analyze_round_trip_and_caching(self, figure1_service):
        payload = figure1_service.analyze("D1")
        assert payload["database"] == "D1"
        assert payload["relations"]["D1"]["row_count"] == 7
        assert figure1_service.database("D1").statistics is not None
        stats = figure1_service.stats()["caches"]["stats"]
        assert stats["misses"] >= 1
        figure1_service.analyze("D1")  # identical content: pure cache hits
        after = figure1_service.stats()["caches"]["stats"]
        assert after["hits"] >= stats["hits"] + 1
        assert after["misses"] == stats["misses"]

    def test_analyze_rekeys_the_plan_cache(self, figure1_service, figure1_queries):
        _, q2 = figure1_queries
        first = figure1_service.explain_plan("D2", q2)
        assert first["cost_model"] == "heuristic"
        misses_before = figure1_service.stats()["caches"]["plans"]["misses"]
        figure1_service.analyze("D2")
        second = figure1_service.explain_plan("D2", q2)
        assert second["cost_model"] == "statistics"
        # The analyzed database must not be served the cached heuristic plan.
        assert figure1_service.stats()["caches"]["plans"]["misses"] > misses_before
        assert first["rows_out"] == second["rows_out"]

    def test_reports_identical_with_and_without_analyze(self, figure1_request):
        # Each service gets its own database objects: analyze() attaches
        # statistics to the Database instance, and sharing one instance
        # across both services would silently make the "plain" service plan
        # cost-based too.
        from repro.datasets.sql_catalog import figure1_databases

        plain = ExplainService()
        for db in figure1_databases()[:2]:
            plain.register_database(db)
        analyzed = ExplainService()
        for db in figure1_databases()[:2]:
            analyzed.register_database(db)
        analyzed.analyze("D1")
        analyzed.analyze("D2")
        assert plain.database("D1").statistics is None  # genuinely stats-off
        assert analyzed.database("D1").statistics is not None
        assert _reports_equal(
            plain.explain(figure1_request).report,
            analyzed.explain(figure1_request).report,
        )
