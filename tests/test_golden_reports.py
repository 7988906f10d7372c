"""Whole reports pinned by digest on a fixed corpus of questions.

Each digest is the SHA-256 of ``canonical_report(report.to_dict())``: the
objective, every explanation, the evidence with its probabilities, the
summary, the Stage 1 statistics and the solve statistics (wall-clock fields
stripped).  Any change to what a question answers shows here, so a change
meant to keep answers identical must leave every digest as it is.

The corpus covers each Stage 1 path: calibrated and uncalibrated candidates,
a supplied mapping, labeled pairs, the service's cached unfiltered candidates
cut at several thresholds (0.1 drops no candidate of seed 1, 0.25 most of
them), and each partitioning mode inline and on threads.
The digests do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import Explain3D, Explain3DConfig, Priors, Scan, col, count_query, matching
from repro.datasets.imdb import IMDbConfig, generate_imdb_workload
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.datasets.sql_catalog import figure1_databases
from repro.datasets.variants import VariantsConfig, generate_variant_runs
from repro.fleet.__main__ import canonical_report
from repro.matching.tuple_matching import TupleMapping, TupleMatch
from repro.runs import build_run_problem
from repro.service import ExplainRequest, ExplainService

GOLDEN = {
    "figure1": {
        "labeled": "cc028fdf2e4d864cfbb4e8bfcd82c0b80a685d962077b8915ae7c71a41d018d8",
        "mapping": "0c24c3d013ddb3c2708310d76f3d154b27c5fde3e1a2ec20221a29a131c3ebe2",
        "scored": "ffb3786333130d206e9029f5c40122a15ae5445a05b181733c355a223743714b",
    },
    "imdb-u17": {
        "Q1": "f38950c89411b41109c55845420df7f81c76d0ae3ff8e70f60764fec3fda53f8",
        "Q3": "c15c6988a6069b2a31347064d6bb4ea25d0f6bd04dd208897faddfef63b06935",
        "Q5": "859a1b2dba1f123c3b748d99128595b0fbb8353fcb87359608765c40d46e6e98",
    },
    "runs60-1": {
        "shared_state": "052b4476979822bd8af4836d2731d5035312eeeba728ba1e18f9df8b4201c383",
    },
    "service": {
        "0-min0.0": "a841c628cb66211dced5edd4faf30b3b217ac9aeb9f4f96963e0a9fefe40e5b4",
        "1-min0.1": "a841c628cb66211dced5edd4faf30b3b217ac9aeb9f4f96963e0a9fefe40e5b4",
        "2-min0.25": "02480ae7ef6ec7e39a6d06446093c2f610280f2ead53b6cc5789232b97da0e2f",
        "3-min0.0": "a841c628cb66211dced5edd4faf30b3b217ac9aeb9f4f96963e0a9fefe40e5b4",
    },
    "synthetic-1": {
        "calibrated-components-w1": "468591a6cad05866edda558725a61c3c78e7a97f238e0a192a0b7023d754e735",
        "calibrated-components-w2": "468591a6cad05866edda558725a61c3c78e7a97f238e0a192a0b7023d754e735",
        "calibrated-none-w1": "1699f6252bae9f1e155a6ca355e02f106e556835b84dba9f319ca5903c70e9b9",
        "calibrated-none-w2": "1699f6252bae9f1e155a6ca355e02f106e556835b84dba9f319ca5903c70e9b9",
        "calibrated-smart100-w1": "150f385979bb2e7786e81bbcd593c71041ebf31a3c3dda051fe92bd8048d4b1b",
        "calibrated-smart100-w2": "962956246cbe02166db12bb9ae40cfec00a055788849cde61784ef7106f00966",
        "uncalibrated-smart100-w1": "a841c628cb66211dced5edd4faf30b3b217ac9aeb9f4f96963e0a9fefe40e5b4",
    },
    "synthetic-2": {
        "calibrated-components-w1": "75b96655b29df3978896c78d65afe46ba44c5227932b70bf482f72e391248d73",
        "calibrated-components-w2": "75b96655b29df3978896c78d65afe46ba44c5227932b70bf482f72e391248d73",
        "calibrated-none-w1": "1cd4d837592367be6d062c49627700d247a2ba421575d79bb2c12ee16364232a",
        "calibrated-none-w2": "1cd4d837592367be6d062c49627700d247a2ba421575d79bb2c12ee16364232a",
        "calibrated-smart100-w1": "9efa94d230d101f665d076283488522a82afbbda75eb03c194b4e033ba8a5dfe",
        "calibrated-smart100-w2": "e8b81cf5d47f24f59a081a57c026e7203f8397af6dfe3bc46b7e7d9aa54d71fa",
        "uncalibrated-smart100-w1": "e2f3a5ba9f43059badeb9daf041dc5edd83460f72fc1dee92e1bc0e829085c55",
    },
    "synthetic-3": {
        "calibrated-components-w1": "44746b8151a6cb967ade56926c2ebf1bad5feca721a9c1d870ae183c8cbbbeb8",
        "calibrated-components-w2": "44746b8151a6cb967ade56926c2ebf1bad5feca721a9c1d870ae183c8cbbbeb8",
        "calibrated-none-w1": "d07ba5cf533892c3ad6ab8f126c9591d5217d222ddef46d5d5ec37c305b96409",
        "calibrated-none-w2": "d07ba5cf533892c3ad6ab8f126c9591d5217d222ddef46d5d5ec37c305b96409",
        "calibrated-smart100-w1": "ccb25ce1c4b085a9e8ab889c4e8619c437638f1c6f3717ce89a79fdbef76590e",
        "calibrated-smart100-w2": "1122b95a972d98ee2c9583ac60d968cde857ae70dcaab42c1d1fbc4272c25adb",
        "uncalibrated-smart100-w1": "6fd337b797748fa61e6a47896a5237ea3711f286a0fa686b342668e2c9adf9bd",
    },
}


def digest(report) -> str:
    return hashlib.sha256(canonical_report(report.to_dict()).encode()).hexdigest()


def synthetic_pair(seed: int):
    return generate_synthetic_pair(
        SyntheticConfig(num_tuples=300, vocabulary_size=500, difference_ratio=0.2, seed=seed)
    )


SYNTHETIC_CONFIGS = {
    "smart100": {"partitioning": "smart", "batch_size": 100},
    "components": {"partitioning": "components", "batch_size": 100},
    "none": {"partitioning": "none"},
}


def synthetic_digests(seed: int) -> dict[str, str]:
    pair = synthetic_pair(seed)
    _, gold = pair.build_problem(calibrate_with_gold=False)
    inputs = (pair.query_left, pair.db_left, pair.query_right, pair.db_right)
    digests = {}
    for name, overrides in SYNTHETIC_CONFIGS.items():
        for workers in (1, 2):
            report = Explain3D(Explain3DConfig(workers=workers, **overrides)).explain(
                *inputs, attribute_matches=pair.attribute_matches,
                labeled_pairs=gold.evidence_pairs,
            )
            digests[f"calibrated-{name}-w{workers}"] = digest(report)
    report = Explain3D(Explain3DConfig(workers=1, **SYNTHETIC_CONFIGS["smart100"])).explain(
        *inputs, attribute_matches=pair.attribute_matches
    )
    digests["uncalibrated-smart100-w1"] = digest(report)
    return digests


def service_digests() -> dict[str, str]:
    pair = synthetic_pair(1)
    service = ExplainService()
    service.register_database(pair.db_left, "left")
    service.register_database(pair.db_right, "right")
    digests = {}
    for step, min_similarity in enumerate((0.0, 0.1, 0.25, 0.0)):
        request = ExplainRequest(
            query_left=pair.query_left,
            database_left="left",
            query_right=pair.query_right,
            database_right="right",
            attribute_matches=pair.attribute_matches,
            config=Explain3DConfig(
                partitioning="smart", batch_size=100, workers=1, min_similarity=min_similarity
            ),
        )
        digests[f"{step}-min{min_similarity}"] = digest(service.explain(request).report)
    return digests


def figure1_digests() -> dict[str, str]:
    db_left, db_right, _ = figure1_databases()
    q1 = count_query("Q1", Scan("D1"), attribute="Program")
    q2 = count_query("Q2", Scan("D2"), predicate=(col("Univ") == "A"), attribute="Major")
    pipeline = Explain3D(Explain3DConfig(priors=Priors(0.9, 0.9), workers=1))
    pairs = [(f"T1:{i}", f"T2:{i}") for i in range(6)]
    mapping = TupleMapping(
        TupleMatch(left, right, 0.9 if left == "T1:1" else 0.95) for left, right in pairs
    )
    matches = matching(("Program", "Major"))
    return {
        way: digest(pipeline.explain(q1, db_left, q2, db_right, attribute_matches=matches, **extra))
        for way, extra in (
            ("mapping", {"tuple_mapping": mapping}),
            ("scored", {}),
            ("labeled", {"labeled_pairs": set(pairs[:3])}),
        )
    }


def imdb_digests() -> dict[str, str]:
    workload = generate_imdb_workload(IMDbConfig(num_movies=400, seed=17))
    digests = {}
    for template in ("Q1", "Q3", "Q5"):
        pair = workload.pair(template, 1994)
        config = Explain3DConfig(min_similarity=pair.default_min_similarity, workers=1)
        report = Explain3D(config).explain(
            pair.query_left, pair.db_left, pair.query_right, pair.db_right,
            attribute_matches=pair.attribute_matches,
        )
        digests[template] = digest(report)
    return digests


def runs_digests() -> dict[str, str]:
    scenario = generate_variant_runs(VariantsConfig(num_rows=60, seed=1))
    problem = build_run_problem(
        scenario.relation("single_thread"), scenario.relation("shared_state"), key=scenario.key
    )
    return {"shared_state": digest(problem.explain(Explain3DConfig(workers=1)))}


QUESTIONS = {
    "synthetic-1": lambda: synthetic_digests(1),
    "synthetic-2": lambda: synthetic_digests(2),
    "synthetic-3": lambda: synthetic_digests(3),
    "service": service_digests,
    "figure1": figure1_digests,
    "imdb-u17": imdb_digests,
    "runs60-1": runs_digests,
}


@pytest.mark.parametrize("group", sorted(QUESTIONS))
def test_reports_match_their_golden_digests(group):
    assert QUESTIONS[group]() == GOLDEN[group]
