"""Unit tests for canonicalization (Stage 1) and the probabilistic scoring model."""

import math

import pytest

from repro.core.canonical import canonicalize
from repro.core.explanations import ExplanationSet, ProvenanceExplanation, ValueExplanation
from repro.core.scoring import (
    ExplanationScorer,
    MatchLogProbability,
    Priors,
    derive_explanations_from_mapping,
    impact_equality_holds,
    is_complete,
    mapping_is_valid,
)
from repro.graphs.bipartite import Side
from repro.matching.attribute_match import SemanticRelation, matching
from repro.matching.tuple_matching import TupleMapping, TupleMatch
from repro.relational.executor import Database
from repro.relational.provenance import provenance_relation
from repro.relational.query import AggregateFunction, Scan, aggregate_query, count_query


@pytest.fixture()
def figure3_canonicals(figure1_db1, figure1_db2, figure1_queries):
    """The canonical relations of Figure 3 (T1 with CS impact 2, T2 all impact 1)."""
    q1, q2 = figure1_queries
    attrs = matching(("Program", "Major"))
    p1 = provenance_relation(q1, figure1_db1)
    p2 = provenance_relation(q2, figure1_db2)
    t1 = canonicalize(p1, attrs, Side.LEFT, label="T1")
    t2 = canonicalize(p2, attrs, Side.RIGHT, label="T2")
    return t1, t2


class TestCanonicalization:
    def test_figure3_grouping(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        assert len(t1) == 6  # 7 provenance tuples, CS grouped
        assert len(t2) == 6
        impacts = {t.value("Program"): t.impact for t in t1}
        assert impacts["CS"] == 2.0
        assert impacts["Accounting"] == 1.0

    def test_total_impact_preserved(self, figure3_canonicals):
        t1, _ = figure3_canonicals
        assert t1.total_impact() == 7.0

    def test_members_recorded(self, figure3_canonicals):
        t1, _ = figure3_canonicals
        cs = next(t for t in t1 if t.value("Program") == "CS")
        assert len(cs.members) == 2

    def test_provenance_members_lookup(self, figure3_canonicals):
        t1, _ = figure3_canonicals
        cs = next(t for t in t1 if t.value("Program") == "CS")
        members = t1.provenance_members(cs.key)
        assert {m.value("Degree") for m in members} == {"B.S.", "B.A."}

    def test_avg_queries_stay_one_to_one(self):
        db = Database("d")
        db.add_records("T", [{"name": "a", "v": 1}, {"name": "a", "v": 3}])
        query = aggregate_query("q", AggregateFunction.AVG, Scan("T"), "v")
        provenance = provenance_relation(query, db)
        canonical = canonicalize(provenance, matching(("name", "name")), Side.LEFT)
        assert len(canonical) == 2  # not grouped

    def test_missing_matching_attribute_raises(self, figure1_db1, figure1_queries):
        q1, _ = figure1_queries
        provenance = provenance_relation(q1, figure1_db1)
        with pytest.raises(ValueError):
            canonicalize(provenance, matching(("NotThere", "Major")), Side.LEFT)

    def test_empty_matching_raises(self, figure1_db1, figure1_queries):
        from repro.matching.attribute_match import AttributeMatching

        q1, _ = figure1_queries
        provenance = provenance_relation(q1, figure1_db1)
        with pytest.raises(ValueError):
            canonicalize(provenance, AttributeMatching(), Side.LEFT)

    def test_lookup_helpers(self, figure3_canonicals):
        t1, _ = figure3_canonicals
        key = t1.keys()[0]
        assert key in t1
        assert t1.get("nope") is None
        assert t1.impacts()[key] == t1[key].impact


class TestPriors:
    def test_constants(self):
        priors = Priors(0.9, 0.9)
        assert priors.removed == pytest.approx(math.log(0.1))
        assert priors.kept_unchanged == pytest.approx(math.log(0.9) + math.log(0.9))
        assert priors.kept_changed == pytest.approx(math.log(0.9) + math.log(0.1))

    def test_validation(self):
        with pytest.raises(ValueError):
            Priors(alpha=0.4)
        with pytest.raises(ValueError):
            Priors(beta=1.5)

    def test_alpha_one_is_clamped(self):
        assert math.isfinite(Priors(alpha=1.0, beta=1.0).removed)

    def test_match_log_probability_clamped(self):
        terms = MatchLogProbability.of(1.0)
        assert math.isfinite(terms.rejected)
        assert terms.selected > terms.rejected

    def test_match_log_probability_rejects_nan(self):
        with pytest.raises(ValueError):
            MatchLogProbability.of(float("nan"))


class TestValidityAndCompleteness:
    def test_mapping_validity_equivalence(self):
        mapping = [TupleMatch("a", "x", 1.0), TupleMatch("a", "y", 1.0)]
        assert not mapping_is_valid(mapping, SemanticRelation.EQUIVALENT)
        assert mapping_is_valid(mapping, SemanticRelation.MORE_GENERAL)

    def test_mapping_validity_many_to_one(self):
        mapping = [TupleMatch("a", "x", 1.0), TupleMatch("b", "x", 1.0)]
        assert mapping_is_valid(mapping, SemanticRelation.LESS_GENERAL)
        assert not mapping_is_valid(mapping, SemanticRelation.MORE_GENERAL)

    def test_impact_equality(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        pairs = list(zip(t1.keys(), t2.keys()))
        evidence = TupleMapping([TupleMatch(l, r, 1.0) for l, r in pairs])
        explanations = ExplanationSet(evidence=evidence)
        # CS has impact 2 on the left but CSE has 1 on the right -> not equal.
        assert not impact_equality_holds(t1, t2, explanations)
        # Correct the CS component with a value explanation.
        cs_key = next(t.key for t in t1 if t.value("Program") == "CS")
        explanations.value.append(ValueExplanation(Side.LEFT, cs_key, 2.0, 1.0))
        assert impact_equality_holds(t1, t2, explanations)

    def test_is_complete(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        pairs = list(zip(t1.keys(), t2.keys()))
        evidence = TupleMapping([TupleMatch(l, r, 1.0) for l, r in pairs])
        cs_key = next(t.key for t in t1 if t.value("Program") == "CS")
        explanations = ExplanationSet(
            value=[ValueExplanation(Side.LEFT, cs_key, 2.0, 1.0)], evidence=evidence
        )
        assert is_complete(t1, t2, explanations, SemanticRelation.EQUIVALENT)


class TestScorer:
    def test_score_matches_manual_computation(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        priors = Priors(0.9, 0.9)
        mapping = TupleMapping([TupleMatch(t1.keys()[0], t2.keys()[0], 0.8)])
        scorer = ExplanationScorer(t1, t2, mapping, priors)
        explanations = ExplanationSet(
            provenance=[ProvenanceExplanation(Side.LEFT, t1.keys()[1])],
            evidence=TupleMapping([TupleMatch(t1.keys()[0], t2.keys()[0], 0.8)]),
        )
        expected = (
            priors.removed  # the one removed tuple
            + 11 * priors.kept_unchanged  # remaining 11 tuples unchanged
            + math.log(0.8)  # the selected match
        )
        assert scorer.score(explanations) == pytest.approx(expected)

    def test_removed_and_changed_is_impossible(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        scorer = ExplanationScorer(t1, t2, TupleMapping())
        key = t1.keys()[0]
        explanations = ExplanationSet(
            provenance=[ProvenanceExplanation(Side.LEFT, key)],
            value=[ValueExplanation(Side.LEFT, key, 1.0, 2.0)],
        )
        assert scorer.score(explanations) == -math.inf

    def test_score_mapping_prefers_better_evidence(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        good_pairs = list(zip(t1.keys(), t2.keys()))
        mapping = TupleMapping([TupleMatch(l, r, 0.9) for l, r in good_pairs])
        scorer = ExplanationScorer(t1, t2, mapping)
        full = scorer.score_mapping(mapping, SemanticRelation.EQUIVALENT)
        empty = scorer.score_mapping(TupleMapping(), SemanticRelation.EQUIVALENT)
        assert full > empty


class TestDerivedExplanations:
    def test_unmatched_tuples_become_provenance(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        mapping = TupleMapping([TupleMatch(t1.keys()[0], t2.keys()[0], 1.0)])
        explanations = derive_explanations_from_mapping(t1, t2, mapping, SemanticRelation.EQUIVALENT)
        assert len(explanations.provenance) == 10  # 5 unmatched on each side

    def test_impact_mismatch_becomes_value_explanation(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        cs_left = next(t.key for t in t1 if t.value("Program") == "CS")
        cse_right = next(t.key for t in t2 if t.value("Major") == "CSE")
        mapping = TupleMapping([TupleMatch(cs_left, cse_right, 1.0)])
        explanations = derive_explanations_from_mapping(t1, t2, mapping, SemanticRelation.EQUIVALENT)
        assert len(explanations.value) == 1
        value = explanations.value[0]
        assert value.side is Side.RIGHT
        assert value.old_impact == 1.0
        assert value.new_impact == 2.0

    def test_anchor_side_follows_relation(self, figure3_canonicals):
        t1, t2 = figure3_canonicals
        cs_left = next(t.key for t in t1 if t.value("Program") == "CS")
        cse_right = next(t.key for t in t2 if t.value("Major") == "CSE")
        mapping = TupleMapping([TupleMatch(cs_left, cse_right, 1.0)])
        explanations = derive_explanations_from_mapping(t1, t2, mapping, SemanticRelation.MORE_GENERAL)
        assert explanations.value[0].side is Side.LEFT


class TestExplanationSet:
    def test_merge(self):
        first = ExplanationSet(
            provenance=[ProvenanceExplanation(Side.LEFT, "a")],
            evidence=TupleMapping([TupleMatch("a", "b", 0.5)]),
            objective=-1.0,
        )
        second = ExplanationSet(
            value=[ValueExplanation(Side.RIGHT, "c", 1.0, 2.0)],
            evidence=TupleMapping([TupleMatch("c", "d", 0.25, 0.7), TupleMatch("e", "f", 0.5)]),
            objective=-2.0,
        )
        merged = ExplanationSet.merge_all([first, ExplanationSet(), second])
        assert merged.size == 2
        assert merged.objective == -3.0
        # The evidence columns are concatenated in part order.
        assert merged.evidence.left_keys.tolist() == ["a", "c", "e"]
        assert merged.evidence.probabilities.tolist() == [0.5, 0.25, 0.5]
        assert list(merged.evidence)[1] == TupleMatch("c", "d", 0.25, 0.7)
        assert ExplanationSet.merge_all([]).objective == 0.0

    def test_identity_views(self):
        explanations = ExplanationSet(
            provenance=[ProvenanceExplanation(Side.LEFT, "a")],
            value=[ValueExplanation(Side.RIGHT, "b", 1.0, 2.0)],
        )
        assert explanations.provenance_identities() == {("L", "a")}
        assert explanations.value_identities() == {("R", "b")}
        assert ("provenance", "L", "a") in explanations.explanation_identities()
        assert explanations.explained_keys(Side.RIGHT) == {"b"}

    def test_describe_mentions_counts(self):
        explanations = ExplanationSet(provenance=[ProvenanceExplanation(Side.LEFT, "a")])
        assert "1 provenance-based" in explanations.describe()
