"""Run the explanation service daemon: ``python -m repro.service``.

Options cover the service knobs (cache sizes, disk spill, job concurrency),
the reliability knobs (default request deadline, circuit-breaker thresholds,
job retry attempts), plus two smoke modes:

* ``--self-test`` boots the daemon on an ephemeral port, drives one full
  register + explain round trip through the HTTP client, validates the
  response shape, and exits -- the CI smoke job runs exactly that;
* ``--crash-smoke`` exercises crash recovery: it starts the daemon as a
  subprocess with a disk-spill directory, serves requests, ``kill -9``-s the
  process, corrupts a spilled cache file (plus plants an orphaned temp file,
  as a mid-write crash would), restarts on the same spill directory and
  asserts the warm answers are byte-identical to the pre-crash ones while
  the corrupt file is quarantined -- a warm cache is never worse than a
  cold one.

Chaos faults can be armed at daemon start via the ``REPRO_FAULTS``
environment variable, e.g. ``REPRO_FAULTS="cache.spill_load=raise"``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.reliability.faults import FAULTS
from repro.reliability.retry import RetryPolicy
from repro.service.api import ServiceClient, serve, serve_in_background
from repro.service.engine import ExplainService, ServiceConfig


def _build_service(args: argparse.Namespace) -> ExplainService:
    return ExplainService(
        ServiceConfig(
            cache_entries=args.cache_entries,
            report_cache_entries=args.report_cache_entries,
            spill_dir=args.spill_dir,
            spill_write_through=args.spill_write_through,
            default_deadline_seconds=args.default_deadline_seconds,
            breaker_failures=args.breaker_failures,
            breaker_reset_seconds=args.breaker_reset_seconds,
        )
    )


def self_test() -> int:
    """Boot the daemon, run one explain request end to end, validate the JSON."""
    service = ExplainService()
    server, _ = serve_in_background(service, port=0)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    try:
        assert client.health()["status"] == "ok"
        client.register_database(
            "D1",
            {
                "D1": [
                    {"Program": "Accounting", "Degree": "B.S."},
                    {"Program": "CS", "Degree": "B.A."},
                    {"Program": "CS", "Degree": "B.S."},
                    {"Program": "ECE", "Degree": "B.S."},
                ]
            },
        )
        client.register_database(
            "D2",
            {
                "D2": [
                    {"Univ": "A", "Major": "Accounting"},
                    {"Univ": "A", "Major": "CSE"},
                    {"Univ": "A", "Major": "ECE"},
                    {"Univ": "B", "Major": "Art"},
                ]
            },
        )
        payload = {
            "database_left": "D1",
            "query_left": {"name": "Q1", "kind": "count", "relation": "D1",
                           "attribute": "Program"},
            "database_right": "D2",
            "query_right": {
                "name": "Q2", "kind": "count", "relation": "D2", "attribute": "Major",
                "where": [{"column": "Univ", "op": "=", "value": "A"}],
            },
            "attribute_matches": [["Program", "Major"]],
            "config": {"partitioning": "none"},
        }
        report = client.explain(payload)
        for key in ("query_left", "query_right", "explanations", "summary",
                    "stats", "timings", "service"):
            assert key in report, f"report payload missing {key!r}"
        assert report["query_left"]["result"] == 4.0
        assert report["query_right"]["result"] == 3.0
        assert report["service"]["cached_report"] is False
        warm = client.explain(payload)
        assert warm["service"]["cached_report"] is True, "repeat request must hit the cache"
        job = client.submit_job(payload)
        final = client.wait_for_job(job["id"])
        assert final["state"] == "done", f"job failed: {final}"
        plan = client.plan(
            {"database": "D2", "query": payload["query_right"], "run": True}
        )
        assert plan["plan"]["operator"] == "AggregateExec", f"unexpected plan: {plan}"
        assert plan["rows_out"] == 1
        assert plan["cost_model"] == "heuristic", f"unexpected cost model: {plan}"
        analysis = client.analyze("D2")
        assert analysis["relations"]["D2"]["row_count"] == 4, f"bad ANALYZE: {analysis}"
        stats_plan = client.plan(
            {"database": "D2", "query": payload["query_right"], "run": True}
        )
        assert stats_plan["cost_model"] == "statistics", (
            f"ANALYZE did not switch the planner to statistics: {stats_plan}"
        )
        assert stats_plan["rows_out"] == 1
        stats = client.stats()
        assert stats["service"]["requests_served"] >= 3
        plans = stats["service"]["caches"]["plans"]
        assert plans["misses"] >= 1, f"plans cache never exercised: {plans}"
        stats_cache = stats["service"]["caches"]["stats"]
        assert stats_cache["misses"] >= 1, f"stats cache never exercised: {stats_cache}"
        print(
            "service self-test ok: cold + warm + async explain + plan + analyze "
            f"round trips passed (plans cache: {plans['hits']} hits / "
            f"{plans['misses']} misses)"
        )
        return 0
    finally:
        server.shutdown()


def crash_smoke() -> int:
    """Crash-recovery smoke: serve, ``kill -9``, corrupt a spill, restart.

    Asserts the three crash-safety guarantees end to end, across real
    processes: answers after recovery are identical to pre-crash answers;
    a corrupt spill file is quarantined (counted, renamed ``*.corrupt``)
    instead of crashing or poisoning the warm path; orphaned temp files from
    a mid-write crash are ignored.
    """
    import json
    import os
    import signal
    import subprocess
    import tempfile
    import time

    def _start_daemon(spill_dir: str) -> tuple[subprocess.Popen, ServiceClient]:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0",
                "--cache-entries", "1",   # force evictions -> disk spill
                "--spill-dir", spill_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ),
        )
        line = process.stdout.readline()
        marker = "listening on "
        assert marker in line, f"daemon did not announce its port: {line!r}"
        base_url = line.split(marker, 1)[1].split()[0]
        client = ServiceClient(base_url, timeout=10.0)
        deadline = time.monotonic() + 10.0
        while True:
            try:
                client.health()
                return process, client
            except ConnectionError:  # not listening yet
                if time.monotonic() > deadline:
                    process.kill()
                    raise AssertionError("daemon never became healthy")
                time.sleep(0.05)

    def _register_and_explain(client: ServiceClient) -> dict:
        client.register_database(
            "D1",
            {"D1": [
                {"Program": "Accounting", "Degree": "B.S."},
                {"Program": "CS", "Degree": "B.A."},
                {"Program": "CS", "Degree": "B.S."},
                {"Program": "ECE", "Degree": "B.S."},
            ]},
        )
        client.register_database(
            "D2",
            {"D2": [
                {"Univ": "A", "Major": "Accounting"},
                {"Univ": "A", "Major": "CSE"},
                {"Univ": "A", "Major": "ECE"},
                {"Univ": "B", "Major": "Art"},
            ]},
        )
        payload = {
            "database_left": "D1",
            "query_left": {"name": "Q1", "kind": "count", "relation": "D1",
                           "attribute": "Program"},
            "database_right": "D2",
            "query_right": {
                "name": "Q2", "kind": "count", "relation": "D2", "attribute": "Major",
                "where": [{"column": "Univ", "op": "=", "value": "A"}],
            },
            "attribute_matches": [["Program", "Major"]],
            "config": {"partitioning": "none"},
        }
        return client.explain(payload)

    def _answers(report: dict) -> str:
        return json.dumps(
            {"explanations": report["explanations"], "summary": report["summary"]},
            sort_keys=True,
        )

    with tempfile.TemporaryDirectory(prefix="repro-crash-smoke-") as spill_dir:
        process, client = _start_daemon(spill_dir)
        try:
            before = _register_and_explain(client)
        except BaseException:
            process.kill()
            raise
        # The crash: no shutdown hooks, no flushing -- SIGKILL.
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10)

        spills = sorted(p for p in os.listdir(spill_dir) if p.endswith(".pkl"))
        assert spills, f"no spill files written before the crash: {os.listdir(spill_dir)}"
        # Corrupt one spilled artifact (torn write / bit rot) and plant an
        # orphaned temp file, as a crash mid-spill-write would leave behind.
        victim = os.path.join(spill_dir, spills[0])
        raw = open(victim, "rb").read()
        open(victim, "wb").write(raw[: max(1, len(raw) // 2)])
        open(os.path.join(spill_dir, ".provenance-deadbeef.tmp"), "wb").write(b"torn")

        process, client = _start_daemon(spill_dir)
        try:
            after = _register_and_explain(client)
            assert _answers(before) == _answers(after), (
                "answers diverged across crash recovery"
            )
            health = client.health()
            stats = client.stats()["service"]
            spill_errors = stats["total"]["spill_errors"]
            listing = os.listdir(spill_dir)
            quarantined = [p for p in listing if p.endswith(".corrupt")]
            if spills[0] not in listing:
                # The warm path read the corrupt file: it must have been
                # quarantined and counted, never silently dropped.
                assert f"{spills[0]}.corrupt" in listing, (
                    f"corrupt spill vanished without quarantine: {listing}"
                )
                assert spill_errors >= 1
            print(
                "crash-recovery smoke ok: identical answers after kill -9 + "
                f"corrupt spill (spill_errors={spill_errors}, "
                f"quarantined={len(quarantined)}, status={health['status']})"
            )
        finally:
            process.kill()
            process.wait(timeout=10)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Explain3D explanation service daemon (JSON over HTTP)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8311)
    parser.add_argument("--job-workers", type=int, default=2,
                        help="concurrent async explain jobs")
    parser.add_argument("--cache-entries", type=int, default=128,
                        help="max in-memory entries per artifact cache")
    parser.add_argument("--report-cache-entries", type=int, default=256)
    parser.add_argument("--spill-dir", default=None,
                        help="directory for disk spill of evicted artifacts")
    parser.add_argument("--spill-write-through", action="store_true",
                        help="persist every cached artifact to --spill-dir eagerly "
                             "(shared cross-process cache tier for fleet workers)")
    parser.add_argument("--drain-seconds", type=float, default=10.0,
                        help="SIGTERM grace: bound on draining in-flight jobs "
                             "before the daemon persists its caches and exits 0")
    parser.add_argument("--default-deadline-seconds", type=float, default=None,
                        help="wall-clock budget applied to requests without one")
    parser.add_argument("--breaker-failures", type=int, default=5,
                        help="consecutive failures before a database's breaker opens")
    parser.add_argument("--breaker-reset-seconds", type=float, default=30.0,
                        help="cool-down before an open breaker admits a probe")
    parser.add_argument("--retry-attempts", type=int, default=1,
                        help="total tries per async job on transient errors (1 = no retry)")
    parser.add_argument("--self-test", action="store_true",
                        help="boot on an ephemeral port, run one request, exit")
    parser.add_argument("--crash-smoke", action="store_true",
                        help="kill -9 + corrupt-spill crash-recovery smoke, then exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.crash_smoke:
        return crash_smoke()

    if FAULTS.load_env():
        armed = ", ".join(f"{rule.site}={rule.mode}" for rule in FAULTS.rules())
        print(f"chaos faults armed from REPRO_FAULTS: {armed}")

    service = _build_service(args)
    retry_policy = (
        RetryPolicy(attempts=args.retry_attempts) if args.retry_attempts > 1 else None
    )
    server = serve(
        service,
        host=args.host,
        port=args.port,
        job_workers=args.job_workers,
        retry_policy=retry_policy,
    )
    host, port = server.server_address[:2]
    print(f"explain service listening on http://{host}:{port} (Ctrl-C to stop)",
          flush=True)

    # Graceful SIGTERM: stop accepting, drain in-flight jobs (bounded by
    # --drain-seconds), persist the cache spill, exit 0.  The handler only
    # requests shutdown from a helper thread -- calling ``server.shutdown()``
    # inside the handler would deadlock the serve_forever loop it interrupts.
    drain_requested = threading.Event()

    def _on_sigterm(signum, frame):  # noqa: ARG001 - stdlib signature
        drain_requested.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded use): skip the handler

    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
    if drain_requested.is_set():
        drained = server.jobs.drain(timeout=args.drain_seconds)
        server.jobs.shutdown(wait=False)
        persisted = service.persist_caches()
        print(
            f"SIGTERM drain: jobs {'settled' if drained else 'timed out'} "
            f"within {args.drain_seconds}s, persisted {persisted} cache "
            f"entr{'y' if persisted == 1 else 'ies'}; exiting 0",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
