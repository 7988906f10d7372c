"""Stage 2 assembly: the array build against its oracle twin, and its input guard.

``MILPTransformation.build`` assembles each MILP from index arrays;
``build_reference`` builds the same model one ``LinearExpression`` row at a
time.  Their exports must agree bit for bit, so HiGHS solves the identical
model whichever path built it.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from scipy import sparse

from repro.core.canonical import CanonicalRelation, CanonicalTuple
from repro.core.explain3d import Explain3D, Explain3DConfig
from repro.core.milp_model import MILPTransformation, NonFiniteImpactError
from repro.core.partitioning import PartitionedSolver, SolveConfig, _restrict_by_partition
from repro.core.scoring import Priors
from repro.datasets.imdb import IMDbConfig, generate_imdb_workload
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.datasets.variants import VariantsConfig, generate_variant_runs
from repro.graphs.bipartite import Side
from repro.matching.attribute_match import SemanticRelation
from repro.matching.tuple_matching import TupleMapping, TupleMatch
from repro.runs import build_run_problem

#: Impacts whose float arithmetic is easy to get subtly wrong: signed zeros,
#: an int, a sum that is not exactly 0.3, a tiny value.
IMPACTS = (0.0, -0.0, 1.0, 2, -1.0, -3.5, 0.1 + 0.2, 1e-9, -1e-9, 7.25, 100.0)
PROBABILITIES = (0.0, 1.0, 0.5, 0.9, 0.3)


def _bits(array: np.ndarray) -> tuple:
    return str(array.dtype), array.shape, np.ascontiguousarray(array).tobytes()


def export_fingerprint(arrays: dict) -> dict:
    """Every exported array by its exact bytes, ``A`` in CSC form with sorted indices."""
    matrix = sparse.csc_array(arrays["A"])
    matrix.sort_indices()
    fingerprint = {
        "A.shape": matrix.shape,
        "A.indptr": _bits(matrix.indptr.astype(np.int64)),
        "A.indices": _bits(matrix.indices.astype(np.int64)),
        "A.data": _bits(matrix.data),
        "objective_sign": float(arrays["objective_sign"]).hex(),
        "objective_offset": float(arrays["objective_offset"]).hex(),
    }
    for name in ("c", "row_lower", "row_upper", "lower", "upper", "integrality"):
        fingerprint[name] = _bits(arrays[name])
    return fingerprint


def assert_exports_identical(transformation: MILPTransformation) -> None:
    fast = export_fingerprint(transformation.build().to_arrays())
    reference = export_fingerprint(transformation.build_reference().to_arrays())
    differing = [name for name in reference if fast[name] != reference[name]]
    assert not differing, f"{transformation.name}: build() differs from build_reference() in {differing}"


def random_transformation(rng: random.Random, index: int) -> MILPTransformation:
    def relation(side: Side, label: str) -> CanonicalRelation:
        tuples = [
            CanonicalTuple(f"{label}:{i}", side, {"name": i}, rng.choice(IMPACTS))
            for i in range(rng.randint(0, 6))
        ]
        return CanonicalRelation(side, ("name",), tuples, label=label)

    left, right = relation(Side.LEFT, "T1"), relation(Side.RIGHT, "T2")
    # Keys one past each relation's end model endpoints outside the partition.
    matches = [
        TupleMatch(
            f"T1:{rng.randint(0, len(left))}",
            f"T2:{rng.randint(0, len(right))}",
            rng.choice(PROBABILITIES + (rng.random(),)),
        )
        for _ in range(rng.randint(0, 16))
    ]
    if matches and rng.random() < 0.3:  # a repeated pair with another probability
        repeated = rng.choice(matches)
        matches.append(TupleMatch(repeated.left_key, repeated.right_key, rng.random()))
    priors = Priors(rng.uniform(0.51, 1.0), rng.uniform(0.51, 1.0))
    return MILPTransformation(
        left, right, TupleMapping(matches), rng.choice(list(SemanticRelation)), priors,
        name=f"fuzz{index}",
    )


def test_array_build_matches_the_reference_on_random_problems():
    rng = random.Random(2024)
    for index in range(1200):
        assert_exports_identical(random_transformation(rng, index))


def partition_transformations(problem, config: SolveConfig) -> list[MILPTransformation]:
    """One transformation per partition, as ``PartitionedSolver`` builds them."""
    partitions = PartitionedSolver(problem, config)._partitions()
    lefts, rights, mappings, _ = _restrict_by_partition(problem, partitions)
    return [
        MILPTransformation(left, right, mapping, problem.relation, problem.priors, name=f"part{i}")
        for i, (left, right, mapping) in enumerate(zip(lefts, rights, mappings))
    ]


def test_array_build_matches_the_reference_on_figure1(figure1_problem):
    for transformation in partition_transformations(figure1_problem, SolveConfig(batch_size=4)):
        assert_exports_identical(transformation)


def test_array_build_matches_the_reference_on_a_synthetic_smart_question():
    pair = generate_synthetic_pair(
        SyntheticConfig(num_tuples=300, vocabulary_size=500, difference_ratio=0.2, seed=1)
    )
    problem, _ = pair.build_problem()
    transformations = partition_transformations(
        problem, SolveConfig(partitioning="smart", batch_size=100)
    )
    assert len(transformations) > 1
    for transformation in transformations:
        assert_exports_identical(transformation)


def test_array_build_matches_the_reference_on_imdb_templates():
    workload = generate_imdb_workload(IMDbConfig(num_movies=400, num_people=400, seed=17))
    for template in workload.TEMPLATES:
        pair = workload.pair(template, "Horror" if template == "Q10" else 1994)
        problem, _ = pair.build_problem()
        for transformation in partition_transformations(problem, SolveConfig()):
            assert_exports_identical(transformation)


def test_array_build_matches_the_reference_on_a_run_diff():
    scenario = generate_variant_runs(VariantsConfig(num_rows=60))
    runs = build_run_problem(
        scenario.relation("single_thread"), scenario.relation("shared_state"), key=scenario.key
    )
    problem = Explain3D(Explain3DConfig()).build_problem(
        runs.query_left, runs.database_left, runs.query_right, runs.database_right,
        attribute_matches=runs.attribute_matches,
    )
    (transformation,) = partition_transformations(problem, SolveConfig())
    assert transformation.build().num_variables == 3840
    assert_exports_identical(transformation)


@pytest.mark.parametrize("impact", [math.nan, math.inf])
@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_non_finite_impact_is_a_typed_error_naming_the_tuple(impact, side):
    def relation(relation_side: Side, label: str) -> CanonicalRelation:
        tuples = [
            CanonicalTuple(f"{label}:{i}", relation_side, {"name": i}, value)
            for i, value in enumerate(
                (1.0, impact) if relation_side is side else (1.0, 2.0)
            )
        ]
        return CanonicalRelation(relation_side, ("name",), tuples, label=label)

    mapping = TupleMapping([TupleMatch("T1:0", "T2:0", 0.9), TupleMatch("T1:1", "T2:1", 0.9)])
    with pytest.raises(NonFiniteImpactError) as excinfo:
        MILPTransformation(
            relation(Side.LEFT, "T1"), relation(Side.RIGHT, "T2"), mapping,
            SemanticRelation.EQUIVALENT,
        )
    error = excinfo.value
    key = "T1:1" if side is Side.LEFT else "T2:1"
    assert (error.side, error.key) == (side, key)
    assert math.isnan(error.impact) if math.isnan(impact) else error.impact == impact
    assert key in str(error) and side.name.lower() in str(error) and repr(impact) in str(error)
