"""Unit tests for similarity, blocking, tuple matching and calibration."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.matching.attribute_match import AttributeMatch, AttributeMatching, SemanticRelation, matching
from repro.matching.blocking import TokenBlocker, all_pairs
from repro.matching.calibration import SimilarityCalibrator, calibrate_matches
from repro.matching.similarity import (
    combined_similarity,
    jaro_similarity,
    normalized_euclidean_similarity,
    token_containment,
    token_jaccard,
    tokenize,
    value_similarity,
)
from repro.matching.tuple_matching import TupleMapping, TupleMatch, generate_candidates


class TestSimilarity:
    def test_tokenize(self):
        assert tokenize("Computer Science, B.S.") == frozenset({"computer", "science", "b", "s"})
        assert tokenize(None) == frozenset()

    def test_jaccard_identical(self):
        assert token_jaccard("Computer Science", "computer science") == 1.0

    def test_jaccard_disjoint(self):
        assert token_jaccard("Math", "Biology") == 0.0

    def test_jaccard_partial(self):
        assert token_jaccard("Food Science", "Food Business") == pytest.approx(1 / 3)

    def test_jaccard_both_empty(self):
        assert token_jaccard("", "") == 1.0

    def test_euclidean(self):
        assert normalized_euclidean_similarity(3, 3) == 1.0
        assert normalized_euclidean_similarity(3, 4) == pytest.approx(0.5)
        assert normalized_euclidean_similarity(None, 4) == 0.0

    def test_non_finite_values_follow_the_aligner_equality(self):
        nan, inf = math.nan, math.inf
        # NaN agrees with NaN, an infinity only with itself.
        for value in (nan, inf, -inf):
            assert value_similarity(value, value) == 1.0
            assert normalized_euclidean_similarity(value, float(value)) == 1.0
        for left, right in [(inf, -inf), (nan, 1.0), (2, nan), (nan, inf), (inf, 1e308), (-inf, 0)]:
            assert value_similarity(left, right) == 0.0
            assert value_similarity(right, left) == 0.0
        # A finite difference too large for a float overflows to similarity 0.
        assert value_similarity(1e308, -1e308) == 0.0

    def test_combined_similarity_mixes_types(self):
        left = {"title": "Alpha Movie", "year": 1999}
        right = {"title": "Alpha Movie", "year": 2000}
        score = combined_similarity(left, right, [("title", "title"), ("year", "year")])
        assert score == pytest.approx((1.0 + 0.5) / 2)

    def test_combined_similarity_empty_pairs(self):
        assert combined_similarity({}, {}, []) == 0.0

    def test_containment(self):
        assert token_containment("Food Science", "Applied Food Science Studies") == 1.0
        assert token_containment("Food Science", "Food Business") == 0.5

    def test_jaro_identity_and_bounds(self):
        assert jaro_similarity("martha", "martha") == 1.0
        assert jaro_similarity("", "abc") == 0.0
        assert 0.0 < jaro_similarity("martha", "marhta") < 1.0

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_jaccard_properties(self, a, b):
        score = token_jaccard(a, b)
        assert 0.0 <= score <= 1.0
        assert score == token_jaccard(b, a)


class TestBlocking:
    def test_all_pairs(self):
        assert list(all_pairs([1, 2], [1, 2, 3])) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_token_blocker_finds_shared_tokens(self):
        left = [{"name": "Computer Science"}, {"name": "History"}]
        right = [{"name": "Computer Engineering"}, {"name": "Art History"}]
        blocker = TokenBlocker([("name", "name")])
        pairs = set(blocker.candidate_pairs(left, right))
        assert (0, 0) in pairs
        assert (1, 1) in pairs
        assert (0, 1) not in pairs

    def test_token_blocker_covers_every_nonzero_similarity_pair(self):
        left = [{"name": f"prog {i} alpha"} for i in range(10)]
        right = [{"name": f"prog {i} beta"} for i in range(10)]
        blocker = TokenBlocker([("name", "name")])
        blocked = set(blocker.candidate_pairs(left, right))
        for i, lrec in enumerate(left):
            for j, rrec in enumerate(right):
                if token_jaccard(lrec["name"], rrec["name"]) > 0:
                    assert (i, j) in blocked

    def test_token_blocker_numeric_fallback(self):
        left = [{"v": 1}, {"v": 2}]
        right = [{"v": 1}, {"v": 3}]
        blocker = TokenBlocker([("v", "v")])
        assert set(blocker.candidate_pairs(left, right)) == set(all_pairs(left, right))


class TestTupleMapping:
    def make(self) -> TupleMapping:
        return TupleMapping(
            [
                TupleMatch("a", "x", 0.9),
                TupleMatch("a", "y", 0.4),
                TupleMatch("b", "y", 0.8),
            ]
        )

    def test_len_and_contains(self):
        mapping = self.make()
        assert len(mapping) == 3
        assert ("a", "x") in mapping
        assert ("b", "x") not in mapping

    def test_duplicate_pairs_ignored(self):
        mapping = self.make()
        mapping.add(TupleMatch("a", "x", 0.1))
        assert len(mapping) == 3
        assert mapping.probability("a", "x") == 0.9

    def test_indexes(self):
        mapping = self.make()
        assert mapping.probability("a", "y") == 0.4
        assert mapping.probability("b", "x") is None
        left, right = mapping.positions({"a": 0}, {"x": 5, "y": 6})
        assert left.tolist() == [0, 0, -1]
        assert right.tolist() == [5, 6, 6]

    def test_columns(self):
        mapping = self.make()
        assert mapping.left_keys.tolist() == ["a", "a", "b"]
        assert mapping.right_keys.tolist() == ["x", "y", "y"]
        assert mapping.probabilities.tolist() == [0.9, 0.4, 0.8]
        assert [m.pair for m in mapping.take([2, 0])] == [("b", "y"), ("a", "x")]
        added = mapping.take([0])
        added.add(TupleMatch("c", "z", 0.3, 0.6))
        assert list(added) == [TupleMatch("a", "x", 0.9), TupleMatch("c", "z", 0.3, 0.6)]

    def test_above(self):
        assert {m.pair for m in self.make().above(0.8)} == {("a", "x"), ("b", "y")}

    def test_sorted_by_probability(self):
        ordered = self.make().sorted_by_probability()
        assert [m.probability for m in ordered] == [0.9, 0.8, 0.4]


class _Entity:
    def __init__(self, key, values):
        self.key = key
        self.values = values


class TestCandidateGeneration:
    def test_generate_candidates_scores_pairs(self):
        left = [_Entity("l0", {"name": "Computer Science"}), _Entity("l1", {"name": "History"})]
        right = [_Entity("r0", {"name": "Computer Science"}), _Entity("r1", {"name": "Art"})]
        candidates = generate_candidates(left, right, matching(("name", "name")))
        pairs = {(c.left_key, c.right_key): c.similarity for c in candidates}
        assert pairs[("l0", "r0")] == 1.0
        assert ("l1", "r1") not in pairs  # zero similarity is dropped

    def test_min_similarity_threshold(self):
        left = [_Entity("l0", {"name": "Food Science"})]
        right = [_Entity("r0", {"name": "Food Business"})]
        weak = generate_candidates(left, right, matching(("name", "name")), min_similarity=0.5)
        assert len(weak) == 0


class TestCalibration:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            SimilarityCalibrator().probability(0.5)

    def test_fit_learns_bucket_fractions(self):
        calibrator = SimilarityCalibrator(num_buckets=2)
        sims = [0.1, 0.2, 0.3, 0.8, 0.9, 0.95]
        labels = [False, False, True, True, True, True]
        calibrator.fit(sims, labels)
        assert calibrator.probability(0.1) == pytest.approx(1 / 3, abs=1e-6)
        assert calibrator.probability(0.9) > 0.9

    def test_probabilities_are_clamped(self):
        calibrator = SimilarityCalibrator(num_buckets=2).fit([0.1, 0.9], [False, True])
        assert 0.0 < calibrator.probability(0.05) < 1.0
        assert 0.0 < calibrator.probability(0.95) < 1.0

    def test_empty_bucket_interpolation(self):
        calibrator = SimilarityCalibrator(num_buckets=10).fit([0.05, 0.95], [False, True])
        middle = calibrator.probability(0.5)
        assert calibrator.probability(0.05) < middle < calibrator.probability(0.95)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SimilarityCalibrator().fit([0.5], [True, False])

    @staticmethod
    def scored(*triples) -> TupleMapping:
        return TupleMapping(TupleMatch(left, right, 0.5, score) for left, right, score in triples)

    def test_calibrate_matches_builds_mapping(self):
        candidates = self.scored(("l0", "r0", 0.9), ("l1", "r1", 0.9), ("l0", "r1", 0.1))
        mapping = calibrate_matches(candidates, {("l0", "r0"), ("l1", "r1")}, num_buckets=5)
        assert len(mapping) == 3
        assert mapping.probability("l0", "r0") > mapping.probability("l0", "r1")

    def test_calibrate_matches_min_probability_filters(self):
        candidates = self.scored(("l0", "r0", 0.9), ("l0", "r1", 0.05))
        mapping = calibrate_matches(candidates, {("l0", "r0")}, min_probability=0.5)
        assert mapping.pairs() == {("l0", "r0")}

    def test_calibrate_matches_empty(self):
        assert len(calibrate_matches(TupleMapping(), set())) == 0


class TestAttributeMatches:
    def test_semantic_relation_flip(self):
        assert SemanticRelation.LESS_GENERAL.flipped() is SemanticRelation.MORE_GENERAL
        assert SemanticRelation.EQUIVALENT.flipped() is SemanticRelation.EQUIVALENT

    def test_degree_limits(self):
        assert SemanticRelation.LESS_GENERAL.left_degree_limited
        assert not SemanticRelation.LESS_GENERAL.right_degree_limited
        assert SemanticRelation.EQUIVALENT.left_degree_limited
        assert SemanticRelation.EQUIVALENT.right_degree_limited

    def test_match_split(self):
        match = AttributeMatch(("zip", "city"), ("county",), SemanticRelation.LESS_GENERAL)
        pieces = match.split()
        assert len(pieces) == 2
        assert all(piece.relation is SemanticRelation.LESS_GENERAL for piece in pieces)

    def test_matching_constructor_and_pairs(self):
        attribute_matches = matching(("Program", "Major"), ("School", "College", "<="))
        assert attribute_matches.comparable
        assert attribute_matches.attribute_pairs() == [("Program", "Major"), ("School", "College")]
        assert attribute_matches.left_attributes() == ("Program", "School")

    def test_dominant_relation(self):
        assert matching(("a", "b")).dominant_relation() is SemanticRelation.EQUIVALENT
        assert matching(("a", "b"), ("c", "d", "<=")).dominant_relation() is SemanticRelation.LESS_GENERAL

    def test_flipped_matching(self):
        flipped = matching(("a", "b", "<=")).flipped()
        first = list(flipped)[0]
        assert first.left == ("b",)
        assert first.relation is SemanticRelation.MORE_GENERAL

    def test_empty_matching_not_comparable(self):
        assert not AttributeMatching().comparable
