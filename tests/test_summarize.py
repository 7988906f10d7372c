"""Unit tests for Stage 3 summarization."""

import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

from repro.core.canonical import CanonicalRelation, CanonicalTuple, canonicalize
from repro.core.explanations import ExplanationSet, ProvenanceExplanation
from repro.core.summarize import PatternSummarizer, SummaryPattern
from repro.graphs.bipartite import Side
from repro.matching.attribute_match import matching
from repro.relational.executor import Database
from repro.relational.provenance import ProvenanceRelation, ProvenanceTuple, provenance_relation
from repro.relational.query import Scan, count_query


@pytest.fixture()
def degree_canonicals():
    """A listing where all explained majors share Degree = 'Associate degree'."""
    db = Database("d")
    records = []
    for index in range(8):
        records.append({"Major": f"Assoc Major {index}", "Degree": "Associate degree"})
    for index in range(12):
        records.append({"Major": f"Bachelor Major {index}", "Degree": "B.S."})
    db.add_records("Major", records)
    query = count_query("q", Scan("Major"), attribute="Major")
    provenance = provenance_relation(query, db)
    canonical = canonicalize(provenance, matching(("Major", "Program")), Side.LEFT, label="T1")
    right = canonicalize(provenance, matching(("Major", "Program")), Side.LEFT, label="T2")
    return canonical, right


class TestPatternSummarizer:
    def test_common_attribute_is_summarized(self, degree_canonicals):
        canonical, right = degree_canonicals
        targets = [t.key for t in canonical if t.value("Major").startswith("Assoc")]
        explanations = ExplanationSet(
            provenance=[ProvenanceExplanation(Side.LEFT, key) for key in targets]
        )
        summary = PatternSummarizer().summarize(explanations, canonical, right)
        assert summary.patterns, "expected at least one pattern"
        best = summary.patterns[0]
        assert ("Degree", "Associate degree") in best.conditions
        assert best.covered_targets == len(targets)
        assert summary.size < len(targets)

    def test_no_explanations_empty_summary(self, degree_canonicals):
        canonical, right = degree_canonicals
        summary = PatternSummarizer().summarize(ExplanationSet(), canonical, right)
        assert summary.size == 0
        assert "no explanations" in summary.describe()

    def test_low_precision_patterns_rejected(self, degree_canonicals):
        canonical, right = degree_canonicals
        # Explain only 2 of the 12 B.S. majors: the Degree=B.S. pattern would have
        # precision 2/12 and must be rejected, leaving residual singletons.
        targets = [t.key for t in canonical if t.value("Major").startswith("Bachelor")][:2]
        explanations = ExplanationSet(
            provenance=[ProvenanceExplanation(Side.LEFT, key) for key in targets]
        )
        summary = PatternSummarizer(min_precision=0.9).summarize(explanations, canonical, right)
        degree_patterns = [
            p for p in summary.patterns if ("Degree", "B.S.") in p.conditions and len(p.conditions) == 1
        ]
        assert not degree_patterns
        assert len(summary.residual_keys) >= 1

    def test_pattern_match_and_describe(self):
        pattern = SummaryPattern(Side.LEFT, (("Degree", "B.S."),), 3, 1)
        assert pattern.matches({"Degree": "B.S.", "x": 1})
        assert not pattern.matches({"Degree": "B.A."})
        assert pattern.precision == pytest.approx(0.75)
        assert "Degree" in pattern.describe()

    def test_summary_size_counts_patterns_and_residuals(self, degree_canonicals):
        canonical, right = degree_canonicals
        targets = [t.key for t in canonical if t.value("Major").startswith("Assoc")]
        lone_target = [t.key for t in canonical if t.value("Major") == "Bachelor Major 0"]
        explanations = ExplanationSet(
            provenance=[ProvenanceExplanation(Side.LEFT, key) for key in targets + lone_target]
        )
        summary = PatternSummarizer().summarize(explanations, canonical, right)
        assert summary.size == len(summary.patterns) + len(summary.residual_keys)
        assert summary.size <= len(targets) + 1

    def test_max_patterns_respected(self, degree_canonicals):
        canonical, right = degree_canonicals
        targets = [t.key for t in canonical]
        explanations = ExplanationSet(
            provenance=[ProvenanceExplanation(Side.LEFT, key) for key in targets]
        )
        summary = PatternSummarizer(max_patterns=1).summarize(explanations, canonical, right)
        assert len(summary.patterns) <= 1


#: Two explained rows share four single-condition patterns that tie exactly
#: (2 targets, 0 others each); the greedy must break the tie the same way
#: under every string-hash seed.
_TIE_SCRIPT = """
import json
from repro.core.canonical import canonicalize
from repro.core.explanations import ExplanationSet, ProvenanceExplanation
from repro.core.summarize import PatternSummarizer
from repro.graphs.bipartite import Side
from repro.matching.attribute_match import matching
from repro.relational.executor import Database
from repro.relational.provenance import provenance_relation
from repro.relational.query import Scan, count_query

shared = {"color": "red", "shape": "cube", "size": "big", "mood": "calm"}
records = [dict(shared, k=f"t{i}") for i in range(2)]
records += [{"k": f"o{i}", "color": "blue", "shape": "ball", "size": "small", "mood": "wild"}
            for i in range(4)]
db = Database("d")
db.add_records("R", records)
provenance = provenance_relation(count_query("q", Scan("R"), attribute="k"), db)
canonical = canonicalize(provenance, matching(("k", "k")), Side.LEFT, label="T1")
targets = [t.key for t in canonical if t.value("k").startswith("t")]
explanations = ExplanationSet(provenance=[ProvenanceExplanation(Side.LEFT, key) for key in targets])
summary = PatternSummarizer().summarize(explanations, canonical, canonical)
print(json.dumps([[list(c) for c in p.conditions] for p in summary.patterns]))
"""


def _summarize_tie(hash_seed: int) -> list:
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (source, env.get("PYTHONPATH", "")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _TIE_SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_tied_patterns_do_not_depend_on_string_hashing():
    with ThreadPoolExecutor(max_workers=4) as pool:
        summaries = list(pool.map(_summarize_tie, range(8)))
    assert len(summaries[0]) == 1, summaries[0]  # one pattern covers both targets
    assert all(summary == summaries[0] for summary in summaries), summaries


#: Typed column pools.  The float column mixes ``1`` and ``1.0``: equal keys
#: whose reprs differ, so the kept (first-seen) one shows in the summary.
_FUZZ_POOLS = {"s": ["x", "y", "z"], "i": [0, 1, 2], "f": [0.5, 1.0, 1, 2.5]}


def _fuzz_case(rng: random.Random):
    """A random one-side summarization problem over typed columns.

    Values are drawn from the column pool or are ``None``, one NaN object
    shared by the whole table (as ``json.loads`` returns) or a fresh NaN.
    Canonical tuples group zero to three provenance records; a tuple with
    none is summarized by its own values.
    """
    shared_nan = float("nan")

    def value(column):
        roll = rng.random()
        if roll < 0.15:
            return None
        if roll < 0.3:
            return shared_nan
        if roll < 0.35:
            return float("nan")
        return rng.choice(_FUZZ_POOLS[column])

    provenance_tuples, canonical_tuples = [], []
    for index in range(rng.randint(2, 30)):
        members = []
        for _ in range(rng.randint(0, 3)):
            key = f"P:{len(provenance_tuples)}"
            provenance_tuples.append(ProvenanceTuple(key, {c: value(c) for c in _FUZZ_POOLS}, 1.0))
            members.append(key)
        values = {c: value(c) for c in _FUZZ_POOLS}
        canonical_tuples.append(CanonicalTuple(f"T:{index}", Side.LEFT, values, 1.0, tuple(members)))
    provenance = ProvenanceRelation(count_query("q", Scan("R")), list(_FUZZ_POOLS), provenance_tuples)
    relation = CanonicalRelation(Side.LEFT, list(_FUZZ_POOLS), canonical_tuples, provenance=provenance)
    keys = relation.keys()
    targets = set(rng.sample(keys, rng.randint(1, len(keys))))
    summarizer = PatternSummarizer(
        min_precision=rng.choice((0.5, 0.75, 0.9, 1.0)), max_patterns=rng.choice((1, 2, 50))
    )
    return summarizer, relation, targets


def _side_identity(patterns, residuals):
    # repr tells ``1`` from ``1.0``, which ``==`` does not.
    return [(p.side, repr(p.conditions), p.covered_targets, p.covered_others) for p in patterns], residuals


def test_indexed_greedy_matches_the_record_scan():
    """The posting-bitset greedy equals its oracle twin, the record scan."""
    rng = random.Random(1903)
    chosen = 0
    for _ in range(300):
        summarizer, relation, targets = _fuzz_case(rng)
        fast = summarizer._summarize_side(relation, targets, Side.LEFT)
        reference = summarizer._summarize_side_reference(relation, targets, Side.LEFT)
        assert _side_identity(*fast) == _side_identity(*reference)
        chosen += len(fast[0])
    assert chosen >= 100, chosen  # the greedy really picks patterns, not only residuals


def test_summarize_equals_the_reference(degree_canonicals):
    canonical, right = degree_canonicals
    targets = [t.key for t in canonical if t.value("Major").startswith("Assoc")]
    targets += [t.key for t in canonical if t.value("Major") == "Bachelor Major 0"]
    explanations = ExplanationSet(
        provenance=[ProvenanceExplanation(Side.LEFT, key) for key in targets]
    )
    summarizer = PatternSummarizer()
    fast = summarizer.summarize(explanations, canonical, right)
    reference = summarizer.summarize_reference(explanations, canonical, right)
    assert fast.patterns and fast.patterns == reference.patterns
    assert fast.residual_keys == reference.residual_keys
