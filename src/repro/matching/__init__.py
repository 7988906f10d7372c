"""Schema matching and record linkage substrate.

Explain3D takes two kinds of matching information as input (Section 2.1):

* **Attribute matches** ``M_attr = (A_i phi A_j)`` with a semantic relation
  phi in {equivalent, less-general, more-general}.  The paper treats these as
  given; :mod:`repro.matching.schema_matcher` additionally derives them
  automatically from attribute names and value overlap so the full pipeline can
  run end-to-end.
* **Initial tuple mapping** ``M_tuple = {(t_i, t_j, p), ...}`` -- probabilistic
  tuple matches produced by record-linkage style similarity scoring
  (:mod:`repro.matching.tuple_matching`) calibrated into probabilities with the
  similarity-to-probability bucketing method of Section 5.1.2
  (:mod:`repro.matching.calibration`).
"""

from repro.matching.attribute_match import (
    AttributeMatch,
    AttributeMatching,
    SemanticRelation,
)
from repro.matching.similarity import (
    combined_similarity,
    normalized_euclidean_similarity,
    token_jaccard,
    tokenize,
    value_similarity,
)
from repro.matching.blocking import TokenBlocker, all_pairs
from repro.matching.features import (
    BatchScorer,
    TupleFeatureCache,
    batch_similarity,
    pair_similarity,
)
from repro.matching.tuple_matching import (
    TupleMatch,
    TupleMapping,
    generate_candidates,
)
from repro.matching.calibration import SimilarityCalibrator, calibrate_matches
from repro.matching.schema_matcher import SchemaMatcher, infer_attribute_matches

__all__ = [
    "SemanticRelation",
    "AttributeMatch",
    "AttributeMatching",
    "tokenize",
    "token_jaccard",
    "normalized_euclidean_similarity",
    "value_similarity",
    "combined_similarity",
    "TokenBlocker",
    "all_pairs",
    "TupleFeatureCache",
    "BatchScorer",
    "batch_similarity",
    "pair_similarity",
    "TupleMatch",
    "TupleMapping",
    "generate_candidates",
    "SimilarityCalibrator",
    "calibrate_matches",
    "SchemaMatcher",
    "infer_attribute_matches",
]
