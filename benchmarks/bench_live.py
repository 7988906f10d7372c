"""Live-update benchmark: incremental refresh vs. full recompute after a delta.

The scenario the live subsystem exists for: a practitioner keeps a warm
:class:`ExplainService` over a dataset pair while rows trickle in and out.
After a ~1% row-level delta, the question to answer again is the same, so the
two honest options are:

* **incremental** -- ``ingest`` the delta into the warm service (rolling
  fingerprints, incremental ANALYZE, delta-aware cache rewiring) and
  re-``explain``;
* **full recompute** -- rebuild the post-delta databases, register them with a
  fresh service, and run the pipeline cold.

Both paths must produce byte-identical canonical reports (asserted via the
fleet's ``canonical_report``); the incremental path must be at least
``MIN_INCREMENTAL_SPEEDUP`` x faster.  Two delta shapes are measured:

* an **out-of-provenance delete** (rows the query's WHERE clause excludes):
  every artifact is rewired to the new database fingerprint, nothing is
  evicted, and the refresh is a cached-report hit -- this is the gated case;
* an **in-provenance insert**: affected artifacts are evicted and recomputed,
  so the refresh does real pipeline work -- recorded, not gated, because it
  measures eviction correctness rather than reuse.

A third section micro-benchmarks ``Relation.fingerprint()``: the rolling
digest is memoized, so the steady-state call the cache layer makes on every
lookup must be orders of magnitude cheaper than rehashing the table.

The ``ingest_history`` section times one out-of-provenance ingest after 1,
100 and 400 request shapes over the ingested database (the bench question at
as many ``min_similarity`` values).  The service remembers at most as many
shapes as its problem or report cache can hold (256 by default), and each
entry reports how many it remembered.  Nothing may be evicted -- every
cached artifact of every remembered shape is rewired -- and the refreshed
answers must equal a cold rebuild.  Each shape's key material is
canonicalized once, when the shape is first seen, so the 400-shape ingest
must canonicalize no query AST (counted through
``repro.relational.query._canonical_description``): its cost per remembered
shape is key hashing only.

Results go to ``BENCH_live.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_live.py
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import Database, Explain3DConfig, Scan, col, count_query, matching
from repro.fleet.__main__ import canonical_report
from repro.live import apply_changes
from repro.relational import query as query_module
from repro.relational.relation import Relation
from repro.service import ExplainRequest, ExplainService

RESULT_PATH = ROOT / "BENCH_live.json"
MIN_INCREMENTAL_SPEEDUP = 3.0   # gated: out-of-provenance refresh vs cold rebuild
MIN_FINGERPRINT_SPEEDUP = 25.0  # memoized fingerprint() vs full-chain rehash

ROWS_PER_SIDE = 120             # distinct values -> a cold explain is real work
DELTA_ROWS = 2                  # ceil(1%) of ROWS_PER_SIDE rows per delta
RECOMPUTE_PASSES = 3            # best-of passes for the cold-rebuild side
MICRO_ROWS = 20_000             # fingerprint micro-bench table size
MICRO_CALLS = 10_000            # memoized calls timed per pass
HISTORY_ROWS = 24               # rows per side: a remembered shape is a cheap explain
HISTORY_SHAPES = (1, 100, 400)  # remembered request shapes at each timed ingest


def build_rows(rows: int = ROWS_PER_SIDE) -> tuple[list[dict], list[dict]]:
    """Left programs vs right majors; only Univ='A' rows are in Q2 provenance."""
    left = [
        {"Program": f"Prog {j}", "Degree": "B.S." if j % 2 else "B.A."}
        for j in range(rows)
    ]
    right = [
        {
            "Univ": "A" if j % 2 else "B",
            "Major": f"Prog {j}" if j % 5 else f"Major {j}",
        }
        for j in range(rows)
    ]
    return left, right


def build_service(left_rows: list[dict], right_rows: list[dict]) -> ExplainService:
    db_left = Database("bench_left")
    db_left.add_records("BL", left_rows)
    db_right = Database("bench_right")
    db_right.add_records("BR", right_rows)
    service = ExplainService()
    service.register_database(db_left, "bench_left")
    service.register_database(db_right, "bench_right")
    return service


def build_request() -> ExplainRequest:
    q1 = count_query("Q1", Scan("BL"), attribute="Program")
    q2 = count_query("Q2", Scan("BR"), predicate=(col("Univ") == "A"), attribute="Major")
    return ExplainRequest(
        query_left=q1,
        database_left="bench_left",
        query_right=q2,
        database_right="bench_right",
        attribute_matches=matching(("Program", "Major")),
    )


def canon(service: ExplainService, request: ExplainRequest):
    result = service.explain(request)
    return canonical_report(result.report.to_dict()), result


def apply_to_rows(rows: list[dict], relation: str, specs: list[dict]) -> list[dict]:
    """The raw-row oracle: what the relation holds after the delta."""
    out = list(rows)
    for spec in specs:
        if spec["op"] == "insert":
            out.append(dict(spec["record"]))
        elif spec["op"] == "delete":
            position = int(str(spec["row_id"]).rsplit(":", 1)[1])
            out[position] = None
        else:
            raise AssertionError(f"bench delta uses unsupported op {spec['op']!r}")
    return [row for row in out if row is not None]


def time_full_recompute(left_rows, right_rows, request, passes=RECOMPUTE_PASSES):
    """Best-of cold rebuilds: fresh service + registration + cold explain."""
    best_seconds, canonical = float("inf"), None
    for _ in range(passes):
        start = time.perf_counter()
        service = build_service(left_rows, right_rows)
        report, _ = canon(service, request)
        elapsed = time.perf_counter() - start
        if canonical is not None and report != canonical:
            raise AssertionError("cold rebuild is not deterministic across passes")
        canonical = report
        best_seconds = min(best_seconds, elapsed)
    return best_seconds, canonical


def run_delta_scenario(name, specs, database, relation, left_rows, right_rows):
    """One warm service + delta: incremental refresh vs best-of cold rebuild."""
    request = build_request()
    service = build_service(left_rows, right_rows)
    pre_report, _ = canon(service, request)

    start = time.perf_counter()
    summary = service.ingest(database, relation, specs)
    ingest_seconds = time.perf_counter() - start
    start = time.perf_counter()
    post_report, result = canon(service, request)
    refresh_seconds = time.perf_counter() - start
    incremental_seconds = ingest_seconds + refresh_seconds

    post_left = apply_to_rows(left_rows, "BL", specs) if relation == "BL" else left_rows
    post_right = apply_to_rows(right_rows, "BR", specs) if relation == "BR" else right_rows
    recompute_seconds, cold_report = time_full_recompute(post_left, post_right, request)

    if post_report != cold_report:
        raise AssertionError(f"{name}: incremental refresh diverged from a cold rebuild")
    speedup = recompute_seconds / incremental_seconds if incremental_seconds else float("inf")
    return {
        "delta": {
            "database": database,
            "relation": relation,
            "changes": summary["changes"],
            "stats_mode": summary["stats"],
        },
        "caches": summary["caches"],
        "cached_report_on_refresh": bool(result.cached_report),
        "report_changed": post_report != pre_report,
        "incremental_seconds": round(incremental_seconds, 6),
        "ingest_seconds": round(ingest_seconds, 6),
        "refresh_seconds": round(refresh_seconds, 6),
        "full_recompute_seconds": round(recompute_seconds, 6),
        "speedup": round(speedup, 2),
        "reports_identical_to_cold_rebuild": True,
    }


def run_fingerprint_microbench() -> dict:
    """Memoized ``fingerprint()`` vs a full-chain rehash of the same table."""
    rows = [
        {"id": index, "match_attr": f"word {index % 997}", "val": index % 10}
        for index in range(MICRO_ROWS)
    ]
    relation = Relation.from_records(rows, name="Micro")

    rehash_seconds = float("inf")
    for _ in range(3):
        relation._reset_fingerprint()
        start = time.perf_counter()
        relation.fingerprint()
        rehash_seconds = min(rehash_seconds, time.perf_counter() - start)

    relation.fingerprint()  # prime the memo
    start = time.perf_counter()
    for _ in range(MICRO_CALLS):
        relation.fingerprint()
    per_call_seconds = (time.perf_counter() - start) / MICRO_CALLS

    speedup = rehash_seconds / per_call_seconds if per_call_seconds else float("inf")
    return {
        "rows": MICRO_ROWS,
        "memoized_calls": MICRO_CALLS,
        "full_rehash_seconds": round(rehash_seconds, 6),
        "memoized_call_seconds": round(per_call_seconds, 9),
        "speedup": round(speedup, 1),
    }


def history_request(shape: int) -> ExplainRequest:
    """The bench question as its ``shape``-th remembered shape (own problem key)."""
    return replace(build_request(), config=Explain3DConfig(min_similarity=shape * 1e-4))


def run_ingest_history() -> dict:
    """One out-of-provenance ingest's latency against a growing shape history.

    The shapes share provenance, features and candidates and differ in their
    problem and report keys, so every ingest re-keys all of them.  Each timed
    ingest deletes another ``Univ = 'B'`` row, outside Q2's provenance.
    """
    left_rows, right_rows = build_rows(HISTORY_ROWS)
    service = build_service(left_rows, right_rows)
    remembered, deleted, ingests = 0, [], []
    for shapes in HISTORY_SHAPES:
        while remembered < shapes:
            service.explain(history_request(remembered))
            remembered += 1
        specs = [{"op": "delete", "row_id": f"BR:{2 * len(ingests)}"}]
        canonical_forms = 0
        original = query_module._canonical_description

        def counting(node):
            nonlocal canonical_forms
            canonical_forms += 1
            return original(node)

        query_module._canonical_description = counting
        try:
            start = time.perf_counter()
            summary = service.ingest("bench_right", "BR", specs)
            seconds = time.perf_counter() - start
        finally:
            query_module._canonical_description = original
        deleted += specs
        ingests.append({
            "explained_shapes": shapes,
            "remembered_shapes": len(service._signatures),
            "ingest_seconds": round(seconds, 6),
            "seconds_per_shape": round(seconds / len(service._signatures), 9),
            "canonical_forms": canonical_forms,
            "caches": summary["caches"],
        })

    # Identity first: refreshed answers equal a cold rebuild over the
    # post-delta rows, for the oldest, a middle and the newest shape.  The
    # newest one's report was rewired; older reports may have aged out of
    # the report cache's LRU bound and be recomputed.
    post_right = apply_to_rows(right_rows, "BR", deleted)
    for shape in (0, remembered // 2, remembered - 1):
        request = history_request(shape)
        refreshed, result = canon(service, request)
        cold, _ = canon(build_service(left_rows, post_right), request)
        if refreshed != cold:
            raise AssertionError(f"ingest_history: shape {shape} diverged from a cold rebuild")
    if not result.cached_report:
        raise AssertionError("ingest_history: the newest shape's report was not rewired")
    for ingest in ingests:
        if ingest["caches"]["evicted"] != 0:
            raise AssertionError(
                f"ingest_history: an out-of-provenance ingest must evict nothing: {ingest}"
            )
    return {
        "rows_per_side": HISTORY_ROWS,
        "ingests": ingests,
        "reports_identical_to_cold_rebuild": True,
    }


def main() -> dict:
    left_rows, right_rows = build_rows()

    # Sanity: the change-spec batches the two scenarios ingest.
    unaffected_specs = [
        {"op": "delete", "row_id": f"BR:{j}"}
        for j in (0, 2)[:DELTA_ROWS]  # even positions carry Univ='B'
    ]
    affecting_specs = [
        {"op": "insert", "record": {"Program": f"Prog new {j}", "Degree": "M.S."}}
        for j in range(DELTA_ROWS)
    ]
    # The raw-row oracle must agree with the live layer's own applicator.
    oracle = apply_to_rows(right_rows, "BR", unaffected_specs)
    shadow = Relation.from_records(right_rows, name="BR")
    apply_changes(shadow, unaffected_specs)
    if [dict(zip(("Univ", "Major"), row.values)) for row in shadow.rows] != oracle:
        raise AssertionError("bench oracle disagrees with live.apply_changes")

    unaffected = run_delta_scenario(
        "out-of-provenance delete", unaffected_specs,
        "bench_right", "BR", left_rows, right_rows,
    )
    if unaffected["caches"]["evicted"] != 0 or unaffected["caches"]["rewired"] == 0:
        raise AssertionError(
            "out-of-provenance delete should rewire everything and evict nothing: "
            f"{unaffected['caches']}"
        )
    if not unaffected["cached_report_on_refresh"]:
        raise AssertionError("refresh after an unaffected delta missed the report cache")

    affecting = run_delta_scenario(
        "in-provenance insert", affecting_specs,
        "bench_left", "BL", left_rows, right_rows,
    )
    if affecting["caches"]["evicted"] == 0 or not affecting["report_changed"]:
        raise AssertionError(
            f"in-provenance insert should evict and change the answer: {affecting}"
        )

    fingerprint = run_fingerprint_microbench()
    history = run_ingest_history()

    results = {
        "workload": {
            "rows_per_side": ROWS_PER_SIDE,
            "delta_rows": DELTA_ROWS,
            "delta_ratio": round(DELTA_ROWS / ROWS_PER_SIDE, 4),
        },
        "unaffected_delta": unaffected,
        "affecting_delta": affecting,
        "fingerprint_microbench": fingerprint,
        "ingest_history": history,
        "min_incremental_speedup": MIN_INCREMENTAL_SPEEDUP,
    }

    print(
        f"[live] out-of-provenance delete ({DELTA_ROWS}/{ROWS_PER_SIDE} rows): "
        f"incremental {unaffected['incremental_seconds']:.4f}s "
        f"(ingest {unaffected['ingest_seconds']:.4f}s + refresh "
        f"{unaffected['refresh_seconds']:.4f}s, "
        f"{unaffected['caches']['rewired']} rewired / 0 evicted) vs "
        f"full recompute {unaffected['full_recompute_seconds']:.4f}s -> "
        f"{unaffected['speedup']}x"
    )
    print(
        f"[live] in-provenance insert: incremental "
        f"{affecting['incremental_seconds']:.4f}s "
        f"({affecting['caches']['evicted']} evicted / "
        f"{affecting['caches']['retained']} retained) vs full recompute "
        f"{affecting['full_recompute_seconds']:.4f}s -> {affecting['speedup']}x, "
        f"answers byte-identical to cold rebuild"
    )
    print(
        f"[live] fingerprint: memoized call "
        f"{fingerprint['memoized_call_seconds'] * 1e9:.0f}ns vs full rehash of "
        f"{MICRO_ROWS} rows {fingerprint['full_rehash_seconds'] * 1e3:.2f}ms -> "
        f"{fingerprint['speedup']}x"
    )

    for ingest in history["ingests"]:
        print(
            f"[live] ingest with {ingest['remembered_shapes']} remembered shapes: "
            f"{ingest['ingest_seconds'] * 1e3:.2f}ms "
            f"({ingest['caches']['rewired']} rewired / 0 evicted, "
            f"{ingest['canonical_forms']} query canonical forms)"
        )

    if unaffected["speedup"] < MIN_INCREMENTAL_SPEEDUP:
        raise AssertionError(
            f"incremental refresh only {unaffected['speedup']:.2f}x faster than "
            f"full recompute (acceptance floor is {MIN_INCREMENTAL_SPEEDUP}x)"
        )
    if fingerprint["speedup"] < MIN_FINGERPRINT_SPEEDUP:
        raise AssertionError(
            f"memoized fingerprint only {fingerprint['speedup']:.1f}x faster than "
            f"a full rehash (floor {MIN_FINGERPRINT_SPEEDUP}x)"
        )

    largest = history["ingests"][-1]
    if largest["canonical_forms"]:
        raise AssertionError(
            f"the {largest['explained_shapes']}-shape ingest canonicalized query ASTs "
            f"{largest['canonical_forms']} times; re-keying must hash cached key parts only"
        )

    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    return results


if __name__ == "__main__":
    main()
