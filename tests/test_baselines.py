"""Unit tests for the baseline methods of Section 5.1.3."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

from repro.baselines import (
    ExactCoverBaseline,
    Explain3DMethod,
    FormalExpBaseline,
    GreedyBaseline,
    RSwooshBaseline,
    ThresholdBaseline,
    all_methods,
)
from repro.core.scoring import ExplanationScorer, mapping_is_valid
from repro.matching.tuple_matching import TupleMapping, TupleMatch


class TestLineup:
    def test_all_methods_names(self):
        names = [method.name for method in all_methods()]
        assert names[0] == "Exp3D"
        assert any("Greedy" in name for name in names)
        assert any("FormalExp" in name for name in names)

    def test_include_unoptimized(self):
        names = [method.name for method in all_methods(include_unoptimized=True)]
        assert "Exp3D-NoOpt" in names

    def test_explain_timed(self, figure1_problem):
        timed = ThresholdBaseline(0.9).explain_timed(figure1_problem)
        assert timed.seconds >= 0.0
        assert timed.explanations is not None


class TestThreshold:
    def test_threshold_filters_matches(self, figure1_problem):
        explanations = ThresholdBaseline(0.93).explain(figure1_problem)
        # Only the 0.95 matches survive; CS/CSE (0.9) is dropped.
        assert len(explanations.evidence) == 5
        assert ("L", "T1:1") in explanations.provenance_identities()

    def test_low_threshold_keeps_everything(self, figure1_problem):
        explanations = ThresholdBaseline(0.5).explain(figure1_problem)
        assert len(explanations.evidence) == 6

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ThresholdBaseline(0.0)

    def test_cardinality_enforced(self, figure1_problem):
        explanations = ThresholdBaseline(0.5).explain(figure1_problem)
        assert mapping_is_valid(explanations.evidence, figure1_problem.relation)


class TestGreedy:
    def test_greedy_respects_validity(self, figure1_problem):
        explanations = GreedyBaseline().explain(figure1_problem)
        assert mapping_is_valid(explanations.evidence, figure1_problem.relation)

    def test_greedy_solves_figure1(self, figure1_problem):
        explanations = GreedyBaseline().explain(figure1_problem)
        assert len(explanations.evidence) == 6
        assert len(explanations.value) == 1

    def test_greedy_never_selects_negative_gain_matches(self):
        """A single very unlikely match is worse than two removals only when
        its probability is low enough; the greedy gain test must respect that."""
        from tests.test_milp_and_solving import make_problem

        problem = make_problem({"a": 1.0}, {"b": 1.0}, [("a", "b", 0.001)])
        explanations = GreedyBaseline().explain(problem)
        assert len(explanations.evidence) == 0
        assert len(explanations.provenance) == 2

    def test_greedy_objective_not_above_milp(self, figure1_problem):
        greedy = GreedyBaseline().explain(figure1_problem)
        milp = Explain3DMethod(partitioning="none").explain(figure1_problem)
        scorer = ExplanationScorer(
            figure1_problem.canonical_left,
            figure1_problem.canonical_right,
            figure1_problem.mapping,
            figure1_problem.priors,
        )
        assert scorer.score(greedy) <= scorer.score(milp) + 1e-6


class TestRSwoosh:
    def test_merges_identical_names(self, figure1_problem):
        explanations = RSwooshBaseline(threshold=0.75).explain(figure1_problem)
        # Accounting/ECE/EE/Management/Design match exactly; CS vs CSE does not.
        assert len(explanations.evidence) == 5
        assert ("L", "T1:1") in explanations.provenance_identities()

    def test_jaro_variant(self, figure1_problem):
        explanations = RSwooshBaseline(threshold=0.8, similarity="jaro").explain(figure1_problem)
        assert len(explanations.evidence) >= 5

    def test_invalid_similarity(self):
        with pytest.raises(ValueError):
            RSwooshBaseline(similarity="levenshtein")

    def test_transitive_merging(self):
        from tests.test_milp_and_solving import make_problem

        problem = make_problem(
            {"alpha beta": 1.0},
            {"alpha beta gamma": 1.0, "unrelated": 1.0},
            [("alpha beta", "alpha beta gamma", 0.9)],
        )
        explanations = RSwooshBaseline(threshold=0.6).explain(problem)
        assert ("T1:0", "T2:0") in explanations.evidence_pairs()


class TestExactCover:
    def test_exact_cover_covers_elements_at_most_once(self, figure1_problem):
        explanations = ExactCoverBaseline().explain(figure1_problem)
        left_counts = {}
        for left_key, _ in explanations.evidence_pairs():
            left_counts[left_key] = left_counts.get(left_key, 0) + 1
        assert all(count == 1 for count in left_counts.values())

    def test_exact_cover_empty_mapping(self):
        from tests.test_milp_and_solving import make_problem

        problem = make_problem({"a": 1.0}, {"b": 1.0}, [])
        explanations = ExactCoverBaseline().explain(problem)
        assert len(explanations.provenance) == 2


class TestFormalExp:
    def test_returns_provenance_only(self, figure1_problem):
        explanations = FormalExpBaseline(top_k=5).explain(figure1_problem)
        assert len(explanations.evidence) == 0
        assert explanations.value == []
        assert explanations.provenance  # it always proposes something

    def test_top_k_limits_predicates(self, small_academic_problem):
        problem, _ = small_academic_problem
        small = FormalExpBaseline(top_k=1).explain(problem)
        large = FormalExpBaseline(top_k=15).explain(problem)
        assert len(small.provenance) <= len(large.provenance)

    def test_predicate_explanations_reduce_the_gap(self, figure1_problem):
        baseline = FormalExpBaseline(top_k=3)
        explanations = baseline.explain(figure1_problem)
        # The disagreement is 7 vs 6, so any proposed predicate covers left tuples.
        assert all(identity[0] in {"L", "R"} for identity in explanations.provenance_identities())


#: Figure 1's left side is 7 rows against 6: every predicate covering one
#: left row closes the gap, so they all tie and ``top_k=2`` keeps the first
#: two in candidate order.
_FORMALEXP_TIE_SCRIPT = """
import json
from repro import Priors, Scan, TupleMapping, TupleMatch, col, count_query, matching
from repro.baselines.formalexp import FormalExpBaseline
from repro.core.problem import build_problem
from repro.datasets.sql_catalog import figure1_databases

db1, db2 = figure1_databases()[:2]
problem = build_problem(
    count_query("Q1", Scan("D1"), attribute="Program"), db1,
    count_query("Q2", Scan("D2"), predicate=(col("Univ") == "A"), attribute="Major"), db2,
    attribute_matches=matching(("Program", "Major")),
    tuple_mapping=TupleMapping([TupleMatch(f"T1:{i}", f"T2:{i}", 0.95) for i in range(6)]),
    priors=Priors(0.9, 0.9),
)
explanations = FormalExpBaseline(top_k=2).explain(problem)
print(json.dumps(sorted(explanations.provenance_identities())))
"""


def _formalexp_tie(hash_seed: int) -> list:
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (source, env.get("PYTHONPATH", "")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _FORMALEXP_TIE_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_formalexp_ties_do_not_depend_on_string_hashing():
    with ThreadPoolExecutor(max_workers=4) as pool:
        answers = list(pool.map(_formalexp_tie, range(8)))
    assert len(answers[0]) == 2, answers[0]
    assert all(answer == answers[0] for answer in answers), answers


class TestExplain3DMethod:
    def test_default_name_and_config(self):
        assert Explain3DMethod().name == "Exp3D"
        assert Explain3DMethod(partitioning="none").name == "Exp3D-NoOpt"
        assert Explain3DMethod(name="custom").name == "custom"

    def test_solves_figure1(self, figure1_problem):
        explanations = Explain3DMethod().explain(figure1_problem)
        assert len(explanations.value) == 1
