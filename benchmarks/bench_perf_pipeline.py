"""Machine-readable pipeline performance benchmark (Stages 1, 2 and 3).

Times the dominant wall-clock costs of the reproduction:

* **Stage 1 candidate matching** -- the vectorized kernel (per-tuple feature
  cache + batched NumPy/SciPy scoring) against the seed's inner loop: per-pair
  scalar scoring that re-tokenizes every attribute value for every compared
  pair.  Both paths run blocking and build the same ``CandidateMatch`` list,
  so the ratio isolates the re-tokenization + vectorization win.
* **Stage 2 partitioned solving** -- ``workers=1`` sequential solving against
  the pool-dispatched parallel path on a multi-partition workload.
* **Stage 3 summarization** -- the posting-bitset greedy of
  ``PatternSummarizer.summarize`` against its oracle twin, the record scan of
  ``summarize_reference``, on the explanation sets of a synthetic n=300 smart
  question and of the OSU academic pair.  Gate: at least ``STAGE3_GATE`` x on
  the synthetic set.

Each timed path runs ``REPEATS`` times and the best time is kept (the
problems are deterministic; the minimum removes scheduler noise).
Equivalence (identical candidates, identical merged objectives, identical
summary patterns and residuals) is asserted on every timed pair of paths --
the script fails loudly rather than report a speedup for a divergent result.

Results are written to ``BENCH_pipeline.json`` at the repository root so
future PRs have a perf trajectory to compare against.  Run with::

    PYTHONPATH=src python benchmarks/bench_perf_pipeline.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.explain3d import Explain3D, Explain3DConfig
from repro.core.partitioning import PartitionedSolver, SolveConfig
from repro.core.summarize import PatternSummarizer
from repro.datasets.academic import generate_academic_pair, osu_config
from repro.datasets.imdb import IMDbConfig, generate_imdb_workload
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.graphs.bipartite import Side
from repro.matching.blocking import TokenBlocker
from repro.matching.similarity import combined_similarity
from repro.matching.tuple_matching import CandidateMatch, generate_candidates

RESULT_PATH = ROOT / "BENCH_pipeline.json"
REPEATS = 9
STAGE3_GATE = 20.0


def _best_of(function, repeats=REPEATS):
    """Best wall-clock time of ``repeats`` runs, plus the (deterministic) result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_stage1(name, left_tuples, right_tuples, attribute_matches, *, min_similarity=0.0):
    """Time the seed's scalar candidate generation vs the vectorized kernel."""
    attribute_pairs = attribute_matches.attribute_pairs()
    left_values = [t.values for t in left_tuples]
    right_values = [t.values for t in right_tuples]
    left_keys = [t.key for t in left_tuples]
    right_keys = [t.key for t in right_tuples]

    def reference():
        # The seed inner loop: blocking, then combined_similarity per pair
        # (which re-tokenizes both tuples' values on every call).
        blocker = TokenBlocker(attribute_pairs)
        candidates = []
        for i, j in blocker.candidate_pairs(left_values, right_values):
            similarity = combined_similarity(left_values[i], right_values[j], attribute_pairs)
            if similarity > min_similarity:
                candidates.append(CandidateMatch(left_keys[i], right_keys[j], similarity))
        return candidates

    def vectorized():
        return generate_candidates(
            left_tuples,
            right_tuples,
            attribute_matches,
            min_similarity=min_similarity,
            use_blocking=True,
            block_threshold=0,
        )

    reference_seconds, reference_result = _best_of(reference)
    vectorized_seconds, vectorized_result = _best_of(vectorized)
    if reference_result != vectorized_result:
        raise AssertionError(f"{name}: vectorized candidates diverge from the scalar reference")

    entry = {
        "workload": name,
        "left_tuples": len(left_tuples),
        "right_tuples": len(right_tuples),
        "candidates": len(vectorized_result),
        "reference_seconds": round(reference_seconds, 6),
        "vectorized_seconds": round(vectorized_seconds, 6),
        "speedup": round(reference_seconds / vectorized_seconds, 2) if vectorized_seconds else None,
    }
    print(
        f"[stage1] {name}: {entry['candidates']} candidates, scalar {reference_seconds:.4f}s "
        f"-> vectorized {vectorized_seconds:.4f}s ({entry['speedup']}x)"
    )
    return entry


def bench_stage2(name, problem, *, partitioning="smart", batch_size=60):
    """Time workers=1 vs pooled solving; assert identical merged results."""
    workers = max(os.cpu_count() or 1, 2)
    sequential_solver = PartitionedSolver(
        problem, SolveConfig(partitioning=partitioning, batch_size=batch_size, workers=1)
    )
    sequential_seconds, sequential = _best_of(sequential_solver.solve, repeats=3)

    parallel_solver = PartitionedSolver(
        problem,
        SolveConfig(
            partitioning=partitioning, batch_size=batch_size, workers=workers, executor="thread"
        ),
    )
    parallel_seconds, parallel = _best_of(parallel_solver.solve, repeats=3)

    if parallel.objective != sequential.objective:
        raise AssertionError(f"{name}: parallel merged objective diverges from sequential")

    entry = {
        "workload": name,
        "partitioning": partitioning,
        "batch_size": batch_size,
        "partitions": sequential_solver.stats.num_partitions,
        "matches": len(problem.mapping),
        "sequential_seconds": round(sequential_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "parallel_workers": parallel_solver.stats.workers_used,
        "speedup": round(sequential_seconds / parallel_seconds, 2) if parallel_seconds else None,
        "objectives_equal": True,
    }
    print(
        f"[stage2] {name}: {entry['partitions']} partitions, sequential "
        f"{sequential_seconds:.4f}s -> parallel({entry['parallel_workers']}) "
        f"{parallel_seconds:.4f}s ({entry['speedup']}x)"
    )
    return entry


def bench_stage3(name, pair, config, *, gate=None):
    """Time the record-scan summarizer vs the posting-bitset one on one answer."""
    report = Explain3D(replace(config, summarize=False)).explain(
        pair.query_left,
        pair.db_left,
        pair.query_right,
        pair.db_right,
        attribute_matches=pair.attribute_matches,
    )
    summarizer = PatternSummarizer(min_precision=config.min_summary_precision)
    args = (report.explanations, report.problem.canonical_left, report.problem.canonical_right)

    def identity(summary):
        patterns = [
            (p.side, repr(p.conditions), p.covered_targets, p.covered_others)
            for p in summary.patterns
        ]
        return patterns, summary.residual_keys

    summary = summarizer.summarize(*args)
    if identity(summarizer.summarize_reference(*args)) != identity(summary):
        raise AssertionError(f"{name}: indexed summary diverges from the record-scan reference")
    reference_seconds, _ = _best_of(lambda: summarizer.summarize_reference(*args), repeats=3)
    indexed_seconds, _ = _best_of(lambda: summarizer.summarize(*args))
    speedup = reference_seconds / indexed_seconds
    entry = {
        "workload": name,
        "target_keys": sum(len(report.explanations.explained_keys(side)) for side in Side),
        "patterns": len(summary.patterns),
        "residuals": len(summary.residual_keys),
        "reference_seconds": round(reference_seconds, 6),
        "indexed_seconds": round(indexed_seconds, 6),
        "speedup": round(speedup, 1),
        "gate": gate,
        "summaries_equal": True,
    }
    print(
        f"[stage3] {name}: {entry['patterns']} patterns + {entry['residuals']} residuals, "
        f"record scan {reference_seconds:.4f}s -> indexed {indexed_seconds:.4f}s ({entry['speedup']}x)"
    )
    if gate is not None and speedup < gate:
        raise AssertionError(f"{name}: Stage 3 speedup {speedup:.1f}x is below the {gate}x gate")
    return entry


def main() -> dict:
    results = {"cpu_count": os.cpu_count(), "stage1": [], "stage2": [], "stage3": []}

    # -- Stage 1: the Section 5.3 synthetic generator at n=400 ---------------------------
    for vocabulary in (1000, 300):
        pair = generate_synthetic_pair(
            SyntheticConfig(num_tuples=400, difference_ratio=0.2, vocabulary_size=vocabulary)
        )
        problem, _ = pair.build_problem()
        results["stage1"].append(
            bench_stage1(
                f"synthetic_n400_v{vocabulary}",
                problem.canonical_left.tuples,
                problem.canonical_right.tuples,
                problem.attribute_matches,
            )
        )

    # -- Stage 1: IMDb genre view (mixed string + numeric matched attributes) -----------
    workload = generate_imdb_workload(IMDbConfig(num_movies=400, num_people=400, seed=17))
    imdb_pair = workload.pair("Q10", "Horror")
    imdb_problem, _ = imdb_pair.build_problem()
    results["stage1"].append(
        bench_stage1(
            "imdb_q10_horror",
            imdb_problem.canonical_left.tuples,
            imdb_problem.canonical_right.tuples,
            imdb_problem.attribute_matches,
            min_similarity=imdb_pair.default_min_similarity,
        )
    )

    # -- Stage 2: multi-partition synthetic solve ---------------------------------------
    solve_pair = generate_synthetic_pair(
        SyntheticConfig(num_tuples=240, difference_ratio=0.2, vocabulary_size=1000)
    )
    solve_problem, _ = solve_pair.build_problem()
    results["stage2"].append(bench_stage2("synthetic_n240", solve_problem, batch_size=60))

    # -- Stage 3: summarizing a synthetic smart answer and the OSU answer ---------------
    smart_pair = generate_synthetic_pair(
        SyntheticConfig(num_tuples=300, vocabulary_size=500, difference_ratio=0.2, seed=1)
    )
    results["stage3"].append(
        bench_stage3(
            "synthetic_n300_smart",
            smart_pair,
            Explain3DConfig(partitioning="smart", batch_size=100),
            gate=STAGE3_GATE,
        )
    )
    results["stage3"].append(bench_stage3("osu", generate_academic_pair(osu_config()), Explain3DConfig()))

    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    return results


if __name__ == "__main__":
    main()
