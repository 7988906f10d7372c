"""Chaos suite: every injected fault must yield a fallback or a typed error.

The contract under test is the reliability core's: for every named fault site
in :data:`repro.reliability.faults.KNOWN_SITES`, an injected failure either

* degrades to a **fingerprint-identical** answer (cache misses, planner
  fallback, heuristic cost model) -- asserted by comparing against the
  fault-free run -- or
* surfaces as a **typed, structured error** (deadline, cancellation, solver
  fault, open breaker),

and *never* hangs or silently changes an answer.  Deadlines are asserted to
return within budget plus one checkpoint interval; degraded reports are
asserted to carry explicit ``degraded`` markers and to never enter the
report cache.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Explain3DConfig, Priors, matching
from repro.core.partitioning import PartitionedSolver, SolveConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.reliability import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    InjectedFault,
    OperationCancelled,
    RetryOutcome,
    RetryPolicy,
    retry_call,
)
from repro.reliability.faults import FAULTS, KNOWN_SITES, inject
from repro.service import (
    ArtifactCache,
    ExplainRequest,
    ExplainService,
    JobQueue,
    JobState,
    ServiceConfig,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    """No fault armed in one test may leak into another (global injector)."""
    FAULTS.reset()
    yield
    FAULTS.reset()


def _reports_equal(a, b) -> bool:
    return (
        a.explanations.explanation_identities() == b.explanations.explanation_identities()
        and a.explanations.evidence_pairs() == b.explanations.evidence_pairs()
        and abs(a.explanations.objective - b.explanations.objective) < 1e-9
        and {p.describe() for p in a.summary.patterns} == {p.describe() for p in b.summary.patterns}
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


@pytest.fixture(scope="module")
def partitioned_problem():
    """A problem that smart-partitions into several independent MILPs."""
    pair = generate_synthetic_pair(
        SyntheticConfig(num_tuples=40, difference_ratio=0.25, seed=7)
    )
    problem, _ = pair.build_problem()
    return problem


@pytest.fixture()
def synthetic_service():
    """A service + request pair over the multi-partition synthetic dataset."""
    pair = generate_synthetic_pair(
        SyntheticConfig(num_tuples=40, difference_ratio=0.25, seed=7)
    )
    service = ExplainService()
    service.register_database(pair.db_left, "SL")
    service.register_database(pair.db_right, "SR")
    request = ExplainRequest(
        query_left=pair.query_left,
        database_left="SL",
        query_right=pair.query_right,
        database_right="SR",
        attribute_matches=pair.attribute_matches,
        config=Explain3DConfig(partitioning="smart", batch_size=10, workers=1),
    )
    return service, request


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        deadline.check("anywhere")
        assert not deadline.bounded
        assert deadline.remaining() is None

    def test_expiry_raises_typed_error_with_site(self):
        deadline = Deadline.after(0.005)
        time.sleep(0.01)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("solve.partition")
        assert excinfo.value.site == "solve.partition"
        assert excinfo.value.elapsed >= excinfo.value.budget

    def test_cancellation_wins_over_expiry(self):
        event = threading.Event()
        event.set()
        deadline = Deadline.after(0.001, cancel_event=event)
        time.sleep(0.005)
        with pytest.raises(OperationCancelled) as excinfo:
            deadline.check("merge")
        assert excinfo.value.site == "merge"

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)


class TestFaultInjector:
    def test_known_sites_registry_is_the_contract(self):
        # Every site this suite exercises must be declared, and vice versa.
        assert KNOWN_SITES == {
            "cache.spill_load": "identical",
            "cache.spill_write": "identical",
            "plan.lower": "identical",
            "stats.analyze": "identical",
            "runs.align": "identical",
            "solve.partition": "typed-error",
            "live.apply_delta": "typed-error",
        }

    def test_unarmed_check_is_a_noop(self):
        injector = FaultInjector()
        injector.check("cache.spill_load")  # must not raise

    def test_raise_mode_and_times_limit(self):
        injector = FaultInjector()
        injector.arm("plan.lower", "raise", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.check("plan.lower")
        injector.check("plan.lower")  # budget exhausted: no fault
        assert injector.fired("plan.lower") == 2

    def test_every_nth_hit_gives_deterministic_fault_rate(self):
        injector = FaultInjector()
        injector.arm("cache.spill_load", "raise", every=10)
        fired = 0
        for _ in range(30):
            try:
                injector.check("cache.spill_load")
            except InjectedFault:
                fired += 1
        assert fired == 3  # exactly 10%

    def test_configure_spec_string_and_env(self, monkeypatch):
        injector = FaultInjector()
        injector.configure("plan.lower=raise, solve.partition=delay:0.01")
        modes = {rule.site: rule.mode for rule in injector.rules()}
        assert modes == {"plan.lower": "raise", "solve.partition": "delay"}
        env_injector = FaultInjector()
        monkeypatch.setenv("REPRO_FAULTS", "cache.spill_write=corrupt")
        assert env_injector.load_env()
        assert env_injector.rules()[0].mode == "corrupt"

    def test_corrupt_mangles_payload(self):
        injector = FaultInjector()
        injector.arm("cache.spill_write", "corrupt")
        payload = b"x" * 64
        mangled = injector.corrupt("cache.spill_write", payload)
        assert mangled != payload and len(mangled) < len(payload)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("plan.lower", "explode")


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fails_fast(self):
        breaker = CircuitBreaker("db", failure_threshold=3, reset_seconds=30.0)
        for _ in range(3):
            breaker.acquire()
            breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.acquire()
        assert excinfo.value.key == "db"
        assert excinfo.value.retry_after > 0

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker("db", failure_threshold=2, reset_seconds=30.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        breaker = CircuitBreaker("db", failure_threshold=1, reset_seconds=0.02)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.03)
        assert breaker.state == "half-open"
        breaker.acquire()  # the single probe
        with pytest.raises(CircuitOpenError):
            breaker.acquire()  # concurrent request still rejected
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.acquire()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker("db", failure_threshold=1, reset_seconds=0.02)
        breaker.record_failure()
        time.sleep(0.03)
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state == "open"


class TestRetry:
    def test_retries_transient_errors_with_backoff(self):
        sleeps: list[float] = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.1, multiplier=2.0, jitter=0.0)
        outcome = RetryOutcome()
        assert retry_call(flaky, policy, sleep=sleeps.append, outcome=outcome) == "ok"
        assert sleeps == [0.1, 0.2]  # exponential, no jitter
        assert outcome.retried == 2 and outcome.attempts == 3

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def wrong():
            calls.append(1)
            raise ValueError("a malformed request must never be retried")

        with pytest.raises(ValueError):
            retry_call(wrong, RetryPolicy(attempts=5), sleep=lambda _s: None)
        assert len(calls) == 1

    def test_exhausted_policy_raises_the_last_error(self):
        def always():
            raise TimeoutError("still down")

        with pytest.raises(TimeoutError):
            retry_call(always, RetryPolicy(attempts=2, jitter=0.0), sleep=lambda _s: None)

    def test_delay_is_capped_and_jittered(self):
        import random

        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.5)
        rng = random.Random(42)
        delay = policy.delay(5, rng)  # uncapped would be 10_000s
        assert 2.0 <= delay <= 3.0


# ---------------------------------------------------------------------------
# Crash-safe spill tier
# ---------------------------------------------------------------------------

class TestCrashSafeSpill:
    def _spilled(self, tmp_path):
        """A cache with one entry spilled to disk, and that spill's path."""
        cache = ArtifactCache("chaos", max_entries=1, spill_dir=tmp_path)
        cache.put("old", {"payload": list(range(50))})
        cache.put("new", "evicts-old")
        path = tmp_path / "chaos-old.pkl"
        assert path.exists()
        return cache, path

    def test_envelope_roundtrip(self, tmp_path):
        cache, _ = self._spilled(tmp_path)
        assert cache.get("old") == {"payload": list(range(50))}
        assert cache.stats.spill_loads == 1
        assert cache.stats.spill_errors == 0

    def test_truncated_spill_is_quarantined_miss(self, tmp_path):
        cache, path = self._spilled(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # torn write
        assert cache.get("old") is None
        assert cache.stats.spill_errors == 1
        assert not path.exists()
        assert path.with_suffix(".pkl.corrupt").exists()  # kept for post-mortems

    def test_garbage_file_is_quarantined_not_unpickled(self, tmp_path):
        cache, path = self._spilled(tmp_path)
        path.write_bytes(b"not a spill envelope at all")
        assert cache.get("old") is None
        assert cache.stats.spill_errors == 1
        assert path.with_suffix(".pkl.corrupt").exists()

    def test_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        cache, path = self._spilled(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # bit rot in the pickle payload
        path.write_bytes(bytes(raw))
        assert cache.get("old") is None
        assert cache.stats.spill_errors == 1

    def test_injected_write_corruption_is_caught_at_load(self, tmp_path):
        cache = ArtifactCache("chaos", max_entries=1, spill_dir=tmp_path)
        with inject("cache.spill_write", "corrupt"):
            cache.put("old", "value")
            cache.put("new", "evicts-old")
        # The corrupt envelope was written; the load must reject it.
        assert cache.get("old") is None
        assert cache.stats.spill_errors >= 1

    def test_injected_write_failure_drops_the_entry(self, tmp_path):
        cache = ArtifactCache("chaos", max_entries=1, spill_dir=tmp_path)
        with inject("cache.spill_write", "raise"):
            cache.put("old", "value")
            cache.put("new", "evicts-old")
        assert cache.stats.spill_errors == 1
        assert cache.stats.spill_writes == 0
        assert list(tmp_path.glob("*.tmp")) == []  # no orphaned temp files
        assert cache.get("old") is None  # an ordinary miss, not an error

    def test_injected_load_failure_is_a_miss(self, tmp_path):
        cache, _ = self._spilled(tmp_path)
        with inject("cache.spill_load", "raise"):
            assert cache.get("old") is None
        assert cache.stats.spill_errors == 1

    def test_clear_removes_quarantined_and_temp_files(self, tmp_path):
        cache, path = self._spilled(tmp_path)
        path.write_bytes(b"junk")
        cache.get("old")  # quarantines
        cache.clear()
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# The degradation ladder through the service
# ---------------------------------------------------------------------------

class TestDegradationLadder:
    def test_planner_fault_falls_back_to_naive_interpreter(
        self, figure1_service, figure1_request, figure1_db1, figure1_db2
    ):
        # Fault-free reference run on a separate service instance.
        reference = ExplainService()
        reference.register_database(figure1_db1, "D1")
        reference.register_database(figure1_db2, "D2")
        baseline = reference.explain(figure1_request)

        with inject("plan.lower", "raise"):
            result = figure1_service.explain(figure1_request)
        rungs = {(r["site"], r["fallback"]) for r in result.degraded}
        assert ("plan.lower", "naive-interpreter") in rungs
        # The ladder guarantee: identical answers, only slower.
        assert _reports_equal(result.report, baseline.report)
        assert figure1_service.stats()["degradations"][
            "plan.lower:naive-interpreter"
        ] >= 1
        assert figure1_service.health()["status"] == "degraded"

    def test_planner_fault_preserves_scalar_query_results(
        self, figure1_service, figure1_request
    ):
        # Regression: result_left/result_right are computed through the
        # optimized planner; a planner fault must degrade them to the naive
        # interpreter, not silently erase them -- the problem is cached, so a
        # None would be served to every later (fault-free) request too.
        with inject("plan.lower", "raise"):
            degraded = figure1_service.explain(figure1_request)
        assert degraded.report.problem.result_left == 7.0
        assert degraded.report.problem.result_right == 6.0
        clean = figure1_service.explain(figure1_request)
        assert clean.report.problem.result_left == 7.0
        assert clean.report.problem.result_right == 6.0

    def test_degraded_reports_never_enter_the_report_cache(
        self, figure1_service, figure1_request
    ):
        with inject("plan.lower", "raise"):
            degraded = figure1_service.explain(figure1_request)
        assert degraded.degraded
        # The very next fault-free request must re-serve (and cache) the
        # clean run, not replay the degraded one.
        clean = figure1_service.explain(figure1_request)
        assert not clean.cached_report
        assert clean.degraded == []
        warm = figure1_service.explain(figure1_request)
        assert warm.cached_report

    def test_analyze_fault_degrades_to_heuristic_cost_model(
        self, figure1_service, figure1_request
    ):
        with inject("stats.analyze", "raise"):
            payload = figure1_service.analyze("D1")
        assert payload["degraded"][0]["fallback"] == "heuristic-cost-model"
        # No half-built statistics attached: the planner stays heuristic.
        assert getattr(figure1_service.database("D1"), "statistics", None) is None
        # Requests still serve correct answers on the heuristic model.
        result = figure1_service.explain(figure1_request)
        assert result.report.explanations is not None

    def test_solver_fault_is_a_typed_error_not_a_silent_answer(
        self, figure1_service, figure1_request
    ):
        with inject("solve.partition", "raise"):
            with pytest.raises(InjectedFault) as excinfo:
                figure1_service.explain(figure1_request)
        assert excinfo.value.site == "solve.partition"
        # An unexpected pipeline failure is a dependency-health signal.
        states = figure1_service.breakers.states()
        assert states["D1"]["total_failures"] == 1
        assert states["D2"]["total_failures"] == 1


class TestRunsAlignChaos:
    def test_aligner_fault_falls_back_to_reference_identically(self):
        from repro.relational.relation import Relation
        from repro.runs import align_runs

        left = Relation.from_records(
            [{"id": 1, "v": 1.0}, {"id": 2, "v": 2.0}, {"id": 3, "v": 3.0}],
            name="L",
        )
        right = Relation.from_records(
            [{"id": 1, "v": 1.0}, {"id": 2, "v": 9.0}, {"id": 4, "v": 4.0}],
            name="R",
        )
        baseline = align_runs(left, right, ("id",))
        assert baseline.degraded == []

        with inject("runs.align", "raise") as rule:
            degraded = align_runs(left, right, ("id",))
        # The "identical" contract: same canonical alignment, only via the
        # brute-force reference indexer, with the degradation recorded.
        assert degraded.canonical() == baseline.canonical()
        assert degraded.degraded == [
            {"site": "runs.align", "fallback": "reference-aligner"}
        ]
        assert rule.fired == 1


class TestServiceBreakers:
    def _failing_service(self, figure1_db1, figure1_db2, threshold=2):
        service = ExplainService(
            ServiceConfig(breaker_failures=threshold, breaker_reset_seconds=30.0)
        )
        service.register_database(figure1_db1, "D1")
        service.register_database(figure1_db2, "D2")
        return service

    def test_breaker_opens_and_rejects_fast(
        self, figure1_db1, figure1_db2, figure1_request
    ):
        service = self._failing_service(figure1_db1, figure1_db2)
        with inject("solve.partition", "raise"):
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    service.explain(figure1_request)
            started = time.perf_counter()
            with pytest.raises(CircuitOpenError):
                service.explain(figure1_request)
            assert time.perf_counter() - started < 0.1  # fail fast, no pipeline run
        assert service.health()["status"] == "degraded"
        assert service.breakers.states()["D1"]["state"] == "open"

    def test_deadline_expiry_does_not_trip_the_breaker(
        self, figure1_db1, figure1_db2, figure1_request
    ):
        from dataclasses import replace

        service = self._failing_service(figure1_db1, figure1_db2, threshold=1)
        with inject("solve.partition", "delay:0.05"):
            with pytest.raises(DeadlineExceeded):
                service.explain(replace(figure1_request, deadline_seconds=0.02))
        assert service.breakers.states()["D1"]["state"] == "closed"

    def test_unknown_database_keeps_priority_over_open_breaker(
        self, figure1_db1, figure1_db2, figure1_request
    ):
        from dataclasses import replace

        from repro.service import UnknownDatabaseError

        service = self._failing_service(figure1_db1, figure1_db2, threshold=1)
        with inject("solve.partition", "raise"):
            with pytest.raises(InjectedFault):
                service.explain(figure1_request)
        with pytest.raises(UnknownDatabaseError):
            service.explain(replace(figure1_request, database_left="nope"))


# ---------------------------------------------------------------------------
# Deadlines end to end
# ---------------------------------------------------------------------------

class TestDeadlinesEndToEnd:
    def test_partial_solve_returns_incumbent_with_gap(self, partitioned_problem):
        full = PartitionedSolver(
            partitioned_problem, SolveConfig(partitioning="smart", batch_size=10, workers=1)
        )
        exact = full.solve()
        assert full.stats.num_partitions > 2

        FAULTS.arm("solve.partition", "delay:0.02")
        deadline = Deadline.after(0.03)
        solver = PartitionedSolver(
            partitioned_problem,
            SolveConfig(partitioning="smart", batch_size=10, workers=1),
            deadline=deadline,
            allow_partial=True,
        )
        merged = solver.solve()
        FAULTS.reset()
        assert solver.stats.partial
        assert solver.stats.unsolved_partitions > 0
        assert solver.stats.optimality_gap > 0
        # The incumbent is feasible but no better than the exact optimum
        # (the objective is maximized).
        assert merged.objective <= exact.objective + 1e-9

    def test_deadline_error_mode_raises_within_one_checkpoint(
        self, synthetic_service
    ):
        from dataclasses import replace

        service, request = synthetic_service
        service.explain(request)  # prewarm stage 1 so the budget covers solving
        hurried = replace(
            request,
            config=replace(request.config, min_summary_precision=0.7),
            deadline_seconds=0.03,
            on_deadline="error",
        )
        FAULTS.arm("solve.partition", "delay:0.02")
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            service.explain(hurried)
        elapsed = time.perf_counter() - started
        FAULTS.reset()
        # budget + one checkpoint interval (one delayed partition) + slack
        assert elapsed < 1.0

    def test_partial_mode_returns_marked_result_and_skips_cache(
        self, synthetic_service
    ):
        from dataclasses import replace

        service, request = synthetic_service
        service.explain(request)  # prewarm stage 1
        hurried = replace(
            request,
            config=replace(request.config, min_summary_precision=0.7),
            deadline_seconds=0.05,
            on_deadline="partial",
        )
        FAULTS.arm("solve.partition", "delay:0.02")
        result = service.explain(hurried)
        FAULTS.reset()
        rungs = {r["site"] for r in result.degraded}
        assert "solve.partition" in rungs
        solve_rung = next(r for r in result.degraded if r["site"] == "solve.partition")
        assert solve_rung["fallback"] == "partial-incumbent"
        assert solve_rung["unsolved_partitions"] > 0
        assert solve_rung["optimality_gap"] > 0
        assert result.report.stats.partial
        assert result.deadline["seconds"] == 0.05

        # A later unhurried request with the same key must get the full
        # answer, not the cached partial one.
        unhurried = replace(hurried, deadline_seconds=None, on_deadline="error")
        clean = service.explain(unhurried)
        assert clean.degraded == []
        assert not clean.report.stats.partial

    def test_cancellation_surfaces_as_typed_error(self, synthetic_service):
        from dataclasses import replace

        service, request = synthetic_service
        service.explain(request)
        event = threading.Event()
        event.set()  # cancelled before it even starts
        cancelled = replace(
            request,
            config=replace(request.config, min_summary_precision=0.7),
            cancel_event=event,
        )
        with pytest.raises(OperationCancelled):
            service.explain(cancelled)


# ---------------------------------------------------------------------------
# Cancel-while-running (the race the job queue must win)
# ---------------------------------------------------------------------------

class TestCancelWhileRunning:
    def test_running_job_settles_cancelled(self, synthetic_service):
        from dataclasses import replace

        service, request = synthetic_service
        service.explain(request)  # prewarm stage 1 so the job spends time solving
        slow = replace(
            request, config=replace(request.config, min_summary_precision=0.7)
        )
        queue = JobQueue(service.explain, max_workers=1)
        FAULTS.arm("solve.partition", "delay:0.1")
        try:
            job = queue.submit(slow)
            deadline = time.monotonic() + 5.0
            while job.state is not JobState.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.005)
            time.sleep(0.02)  # let it get into the solve loop
            assert queue.cancel(job.id)
            assert job.cancel_requested
            assert job.wait(10.0)
            assert job.state is JobState.CANCELLED
            assert queue.stats.cancelled == 1
            assert queue.stats.failed == 0
        finally:
            FAULTS.reset()
            queue.shutdown(wait=False)

    def test_cancelled_running_job_does_not_poison_the_cache(
        self, synthetic_service
    ):
        from dataclasses import replace

        service, request = synthetic_service
        service.explain(request)
        slow = replace(
            request, config=replace(request.config, min_summary_precision=0.65)
        )
        queue = JobQueue(service.explain, max_workers=1)
        FAULTS.arm("solve.partition", "delay:0.1")
        try:
            job = queue.submit(slow)
            deadline = time.monotonic() + 5.0
            while job.state is not JobState.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queue.cancel(job.id)
            assert job.wait(10.0)
        finally:
            FAULTS.reset()
            queue.shutdown(wait=False)
        # The same request afresh (no cancel event) must serve a clean,
        # complete answer.
        clean = service.explain(
            replace(slow, cancel_event=None)
        )
        assert clean.degraded == []
        assert not clean.report.stats.partial


# ---------------------------------------------------------------------------
# Live ingest under faults and under concurrent reads
# ---------------------------------------------------------------------------

class TestLiveIngestChaos:
    _SPECS = [{"op": "insert", "record": {"Program": "Math", "Degree": "B.S."}}]

    def test_injected_ingest_fault_is_typed_and_state_stays_pre_delta(
        self, figure1_service
    ):
        before = figure1_service.databases()["D1"]
        with inject("live.apply_delta", "raise"):
            with pytest.raises(InjectedFault) as excinfo:
                figure1_service.ingest("D1", "D1", self._SPECS)
        assert excinfo.value.site == "live.apply_delta"
        # The gate sits before any state change: fingerprint, counters and
        # the idempotency log are all pre-delta, so a retry applies cleanly.
        assert figure1_service.databases()["D1"] == before
        assert figure1_service.stats()["ingests_applied"] == 0
        summary = figure1_service.ingest("D1", "D1", self._SPECS)
        assert summary["applied"] is True
        assert figure1_service.databases()["D1"] == summary["fingerprint"] != before

    def test_concurrent_ingest_and_explain_is_pre_or_post_never_torn(
        self, figure1_request
    ):
        from repro.datasets.sql_catalog import figure1_databases
        from repro.fleet.__main__ import canonical_report
        from repro.live import apply_changes

        def fresh_service(mutate: bool = False) -> ExplainService:
            db1, db2, _ = figure1_databases()
            if mutate:
                apply_changes(db1.relation("D1"), self._SPECS)
            service = ExplainService()
            service.register_database(db1, "D1")
            service.register_database(db2, "D2")
            return service

        def canon(service: ExplainService) -> str:
            return canonical_report(service.explain(figure1_request).report.to_dict())

        pre = canon(fresh_service())
        post = canon(fresh_service(mutate=True))
        assert pre != post  # the delta visibly changes the answer

        service = fresh_service()
        assert canon(service) == pre  # warm every cache layer
        answers: list[str] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    answers.append(canon(service))
                except BaseException as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        FAULTS.arm("live.apply_delta", "delay:0.02")  # widen the swap window
        try:
            service.ingest("D1", "D1", self._SPECS)
        finally:
            FAULTS.reset()
        time.sleep(0.05)  # let readers observe the post-delta version
        stop.set()
        for thread in threads:
            thread.join(10.0)
        assert not errors
        # Every concurrent answer is the pre- or the post-delta report,
        # byte-identical to the matching cold rebuild -- never a torn mix.
        assert set(answers) <= {pre, post}
        assert canon(service) == post  # and the delta is durably visible


class TestFleetBroadcastChaos:
    """A fleet write one pod applied and another refused is reported, named
    pod by pod, logged for replay, and converged by a retry."""

    def test_partial_ingest_is_a_named_consistency_error(self):
        from repro.fleet import FleetRouter, StaticWorker, serve_router_in_background
        from repro.fleet.__main__ import demo_pair
        from repro.service import ServiceClient, ServiceClientError, serve_in_background

        def url(server) -> str:
            host, port = server.server_address[:2]
            return f"http://{host}:{port}"

        pods = [serve_in_background(ExplainService())[0] for _ in range(2)]
        router = FleetRouter(
            [StaticWorker(f"w{index}", url(pod)) for index, pod in enumerate(pods)]
        )
        http, _ = serve_router_in_background(router)
        client = ServiceClient(url(http), timeout=60.0)
        name, records, *_ = demo_pair(0)
        change = [{"op": "insert", "record": {"Program": "Live", "Degree": "B.S."}}]
        try:
            client.register_database(name, records)
            # Pods share the process-wide injector: w0 applies, w1 faults.
            FAULTS.arm("live.apply_delta", "raise", every=2)
            with pytest.raises(ServiceClientError) as excinfo:
                client.ingest(name, name, change)
            error = excinfo.value
            assert (error.status, error.error_type) == (500, "FleetConsistencyError")
            assert "applied on ['w0']" in error.detail
            assert "failed on 'w1'" in error.detail and "InjectedFault" in error.detail
            split = {pod.service.databases()[name] for pod in pods}
            assert len(split) == 2
            # w0 holds the delta, so it is logged for replay onto new pods.
            assert len(router._ingests[name]) == 1

            FAULTS.reset()
            summary = client.ingest(name, name, change)  # same delta id
            assert summary["workers"] == ["w0", "w1"]
            assert {pod.service.databases()[name] for pod in pods} == {summary["fingerprint"]}
            assert len(router._ingests[name]) == 1
        finally:
            http.shutdown()
            router.shutdown()
            for pod in pods:
                pod.shutdown()
                pod.server_close()


class TestJobRetry:
    def test_transient_runner_failures_are_retried(self):
        attempts = []

        def flaky(request):
            attempts.append(request)
            if len(attempts) < 3:
                raise ConnectionError("transient")
            return "served"

        queue = JobQueue(
            flaky,
            max_workers=1,
            retry_policy=RetryPolicy(attempts=3, base_delay=0.001, jitter=0.0),
        )
        job = queue.submit("r")
        assert job.wait(5.0)
        assert job.state is JobState.DONE
        assert job.result == "served"
        assert job.retries == 2
        assert job.status()["retries"] == 2
        queue.shutdown(wait=False)

    def test_typed_errors_are_not_retried(self):
        attempts = []

        def wrong(request):
            attempts.append(request)
            raise ValueError("bad spec")

        queue = JobQueue(
            wrong,
            max_workers=1,
            retry_policy=RetryPolicy(attempts=5, base_delay=0.001),
        )
        job = queue.submit("r")
        assert job.wait(5.0)
        assert job.state is JobState.FAILED
        assert len(attempts) == 1
        queue.shutdown(wait=False)
