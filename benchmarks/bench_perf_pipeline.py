"""Machine-readable pipeline performance benchmark (Stages 1, 2 and 3).

Times the dominant wall-clock costs of the reproduction:

* **Stage 1 candidate matching** -- the vectorized kernel (per-tuple feature
  cache + batched NumPy/SciPy scoring) against the seed's inner loop: per-pair
  scalar scoring that re-tokenizes every attribute value for every compared
  pair.  Both paths run blocking and find the same ``(left, right,
  similarity)`` candidates -- plain triples on the scalar side, the scored
  mapping's columns on the vectorized side -- so the ratio isolates the
  re-tokenization + vectorization win.
* **Stage 2 partitioned solving** -- ``workers=1`` inline solving against the
  thread-pooled path on a multi-partition workload, timed warm and ungated
  (see :func:`bench_stage2`).
* **Stage 2 MILP assembly** -- ``MILPTransformation.build`` (index arrays)
  against its oracle twin ``build_reference`` (one ``LinearExpression`` row at
  a time), each followed by the ``to_arrays`` export HiGHS reads, on the
  partitions of a synthetic n=300 smart question and on the single run-diff
  MILP of two 60-row runs.  Gate: at least ``STAGE2_BUILD_GATE`` x on the
  synthetic set.
* **Stage 3 summarization** -- the posting-bitset greedy of
  ``PatternSummarizer.summarize`` against its oracle twin, the record scan of
  ``summarize_reference``, on the explanation sets of a synthetic n=300 smart
  question and of the OSU academic pair.  Gate: at least ``STAGE3_GATE`` x on
  the synthetic set.

Each timed path runs ``REPEATS`` times and the best time is kept (the
problems are deterministic; the minimum removes scheduler noise).
Equivalence (identical candidates, identical merged objectives, bit-identical
MILP exports, identical summary patterns and residuals) is asserted on every
timed pair of paths --
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

import numpy as np
from scipy import sparse

from repro.core.explain3d import Explain3D, Explain3DConfig
from repro.core.milp_model import MILPTransformation
from repro.core.partitioning import PartitionedSolver, SolveConfig, _restrict_by_partition
from repro.core.summarize import PatternSummarizer
from repro.datasets.academic import generate_academic_pair, osu_config
from repro.datasets.imdb import IMDbConfig, generate_imdb_workload
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.datasets.variants import VariantsConfig, generate_variant_runs
from repro.graphs.bipartite import Side
from repro.matching.blocking import TokenBlocker
from repro.matching.similarity import combined_similarity
from repro.matching.tuple_matching import generate_candidates
from repro.runs import build_run_problem

RESULT_PATH = ROOT / "BENCH_pipeline.json"
REPEATS = 9
STAGE2_WARMUP_SECONDS = 2.0
STAGE2_PAIRS = 6
STAGE2_BUILD_GATE = 5.0
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
                candidates.append((left_keys[i], right_keys[j], similarity))
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
    vectorized_triples = list(
        zip(
            vectorized_result.left_keys.tolist(),
            vectorized_result.right_keys.tolist(),
            vectorized_result.similarities.tolist(),
        )
    )
    if reference_result != vectorized_triples:
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
    """Time workers=1 vs pooled solving, warm; assert identical merged results.

    HiGHS releases the GIL while it solves, so two threads overlap two
    partitions.  On a VM whose vCPUs idle, though, two threads of GIL-free
    work (HiGHS solves, ``np.sort``) run at a CPU/wall ratio of ~1.0 for
    about the first second of load and ~1.9 after it.  So the pooled side
    first solves for ``STAGE2_WARMUP_SECONDS``, then the two sides alternate
    which runs first in each of ``STAGE2_PAIRS`` timed pairs, and the best
    time of each side is kept.  Ungated: a 1-vCPU or cold runner reads ~1.0x.
    """
    workers = max(os.cpu_count() or 1, 2)
    solvers = {
        "sequential": PartitionedSolver(
            problem, SolveConfig(partitioning=partitioning, batch_size=batch_size, workers=1)
        ),
        "parallel": PartitionedSolver(
            problem,
            SolveConfig(partitioning=partitioning, batch_size=batch_size, workers=workers),
        ),
    }
    warm_until = time.perf_counter() + STAGE2_WARMUP_SECONDS
    while time.perf_counter() < warm_until:
        solvers["parallel"].solve()

    best = {side: float("inf") for side in solvers}
    merged = {}
    for pair in range(STAGE2_PAIRS):
        order = ("sequential", "parallel") if pair % 2 == 0 else ("parallel", "sequential")
        for side in order:
            start = time.perf_counter()
            merged[side] = solvers[side].solve()
            best[side] = min(best[side], time.perf_counter() - start)

    sequential, parallel = merged["sequential"], merged["parallel"]
    if (
        parallel.objective != sequential.objective
        or parallel.explanation_identities() != sequential.explanation_identities()
    ):
        raise AssertionError(f"{name}: pooled merged result diverges from sequential")

    sequential_seconds, parallel_seconds = best["sequential"], best["parallel"]
    entry = {
        "workload": name,
        "partitioning": partitioning,
        "batch_size": batch_size,
        "partitions": solvers["sequential"].stats.num_partitions,
        "matches": len(problem.mapping),
        "warmup_seconds": STAGE2_WARMUP_SECONDS,
        "timed_pairs": STAGE2_PAIRS,
        "sequential_seconds": round(sequential_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "parallel_workers": solvers["parallel"].stats.workers_used,
        "speedup": round(sequential_seconds / parallel_seconds, 2) if parallel_seconds else None,
        "objectives_equal": True,
    }
    print(
        f"[stage2] {name}: {entry['partitions']} partitions, sequential "
        f"{sequential_seconds:.4f}s -> parallel({entry['parallel_workers']}) "
        f"{parallel_seconds:.4f}s ({entry['speedup']}x, warm)"
    )
    return entry


def _export_bytes(arrays: dict) -> list[bytes]:
    """A MILP export as exact bytes: ``A`` in CSC form with sorted indices."""
    matrix = sparse.csc_array(arrays["A"])
    matrix.sort_indices()
    parts = [matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64), matrix.data]
    parts += [arrays[name] for name in ("c", "row_lower", "row_upper", "lower", "upper", "integrality")]
    parts += [np.array([arrays["objective_sign"], arrays["objective_offset"]], dtype=float)]
    return [repr(matrix.shape).encode()] + [np.ascontiguousarray(part).tobytes() for part in parts]


def _partition_transformations(problem, config: SolveConfig) -> list[MILPTransformation]:
    """One transformation per partition, as the partitioned solver builds them."""
    partitions = PartitionedSolver(problem, config)._partitions()
    lefts, rights, mappings, _ = _restrict_by_partition(problem, partitions)
    return [
        MILPTransformation(left, right, mapping, problem.relation, problem.priors, name=f"part{i}")
        for i, (left, right, mapping) in enumerate(zip(lefts, rights, mappings))
    ]


def bench_stage2_build(name, transformations, *, gate=None):
    """Time the per-row reference MILP build vs the array build, export included."""
    for transformation in transformations:
        fast = _export_bytes(transformation.build().to_arrays())
        if fast != _export_bytes(transformation.build_reference().to_arrays()):
            raise AssertionError(f"{name}: array build export diverges from the per-row reference")
    reference_seconds, _ = _best_of(
        lambda: [t.build_reference().to_arrays() for t in transformations], repeats=3
    )
    array_seconds, _ = _best_of(lambda: [t.build().to_arrays() for t in transformations])
    speedup = reference_seconds / array_seconds
    entry = {
        "workload": name,
        "milps": len(transformations),
        "variables": sum(t.model.num_variables for t in transformations),
        "constraints": sum(t.model.num_constraints for t in transformations),
        "reference_seconds": round(reference_seconds, 6),
        "array_seconds": round(array_seconds, 6),
        "speedup": round(speedup, 1),
        "gate": gate,
        "exports_identical": True,
    }
    print(
        f"[stage2_build] {name}: {entry['milps']} MILPs, {entry['variables']} variables, "
        f"per-row {reference_seconds:.4f}s -> arrays {array_seconds:.4f}s ({entry['speedup']}x)"
    )
    if gate is not None and speedup < gate:
        raise AssertionError(f"{name}: Stage 2 build speedup {speedup:.1f}x is below the {gate}x gate")
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
    results = {
        "cpu_count": os.cpu_count(), "stage1": [], "stage2": [], "stage2_build": [], "stage3": [],
    }

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

    # -- Stage 2 assembly: a synthetic smart question's partitions, one run-diff MILP ----
    smart_pair = generate_synthetic_pair(
        SyntheticConfig(num_tuples=300, vocabulary_size=500, difference_ratio=0.2, seed=1)
    )
    smart_problem, _ = smart_pair.build_problem()
    results["stage2_build"].append(
        bench_stage2_build(
            "synthetic_n300_smart",
            _partition_transformations(smart_problem, SolveConfig(partitioning="smart", batch_size=100)),
            gate=STAGE2_BUILD_GATE,
        )
    )
    scenario = generate_variant_runs(VariantsConfig(num_rows=60))
    runs = build_run_problem(
        scenario.relation("single_thread"), scenario.relation("shared_state"), key=scenario.key
    )
    runs_problem = Explain3D(Explain3DConfig()).build_problem(
        runs.query_left, runs.database_left, runs.query_right, runs.database_right,
        attribute_matches=runs.attribute_matches,
    )
    results["stage2_build"].append(
        bench_stage2_build("runs60_shared_state", _partition_transformations(runs_problem, SolveConfig()))
    )

    # -- Stage 3: summarizing a synthetic smart answer and the OSU answer ---------------
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
