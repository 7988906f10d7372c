"""The service's ``solutions`` tier: each distinct partition MILP is solved once.

Stage 2 reads only a partition's canonical impacts and its tuple mapping, so
different questions over one slice of data hand HiGHS identical models.  The
tier maps a model's content and the HiGHS options to the vector HiGHS
returned; a hit decodes that vector instead of solving again.  These tests pin
what is a hit, what is stored, and that every answer stays what a fresh solve
gives.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro import Explain3D, Explain3DConfig, matching
from repro.core.milp_model import MILPTransformation
from repro.core.partitioning import TieredHighs
from repro.datasets.imdb import IMDbConfig, generate_imdb_workload
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.fleet.__main__ import canonical_report
from repro.reliability.faults import inject
from repro.service import ExplainRequest, ExplainService
from repro.service.cache import ArtifactCache
from repro.solver.backends import BnBSolverBackend, HighsSolver, SolverError
from repro.solver.model import MILPModel, ObjectiveSense, VariableType


def tier_counts(service: ExplainService) -> tuple[int, int]:
    stats = service.stats()["caches"]["solutions"]
    return stats["hits"], stats["misses"]


def answers(report) -> str:
    """The explanations and summary of a report: what workers must not change."""
    payload = report.to_dict()
    return json.dumps([payload["explanations"], payload["summary"]], sort_keys=True)


class TestIMDbAggregatesShareOneModel:
    """SUM, MAX and AVG of ``gross`` over one year build one partition model."""

    def test_three_questions_solve_once(self):
        workload = generate_imdb_workload(IMDbConfig(num_movies=400, seed=17))
        service = ExplainService()
        service.register_database(workload.db_view1, "view1")
        service.register_database(workload.db_view2, "view2")
        for template in ("Q5", "Q6", "Q8"):
            pair = workload.pair(template, 1994)
            config = Explain3DConfig(min_similarity=pair.default_min_similarity, workers=1)
            served = service.explain(
                ExplainRequest(
                    pair.query_left, "view1", pair.query_right, "view2",
                    attribute_matches=pair.attribute_matches, config=config,
                )
            )
            assert not served.cached_report and served.report.stats.num_partitions == 1
            direct = Explain3D(config).explain(
                pair.query_left, pair.db_left, pair.query_right, pair.db_right,
                attribute_matches=pair.attribute_matches,
            )
            assert canonical_report(served.report.to_dict()) == canonical_report(
                direct.to_dict()
            ), template
        assert tier_counts(service) == (2, 1)
        assert service.health()["caches"]["tiers"]["solutions"] == {"hits": 2, "misses": 1}


def small_model(
    *,
    coefficient: float = 3.0,
    constant: float = 0.5,
    sense: ObjectiveSense = ObjectiveSense.MAXIMIZE,
    rhs: float = 4.0,
    upper: float = 5.0,
    integral: bool = True,
    name: str = "m",
    prefix: str = "",
) -> MILPModel:
    model = MILPModel(name)
    x = model.add_variable(
        f"{prefix}x",
        vartype=VariableType.INTEGER if integral else VariableType.CONTINUOUS,
        lower=0.0,
        upper=upper,
    )
    y = model.add_binary(f"{prefix}y")
    model.add_constraint(x + 2.0 * y, "<=", rhs)
    model.set_objective(coefficient * x + y + constant, sense)
    return model


class TestKeys:
    """A hit needs the same model content and the same HiGHS options."""

    VARIANTS = {
        "objective coefficient": {"coefficient": 2.0},
        "objective constant": {"constant": 0.25},
        "objective sense": {"sense": ObjectiveSense.MINIMIZE},
        "row bound": {"rhs": 3.0},
        "column bound": {"upper": 6.0},
        "integrality": {"integral": False},
    }

    def test_names_are_not_content(self):
        tier = ArtifactCache("solutions")
        solver = TieredHighs(HighsSolver(), tier)
        first = solver.solve(small_model())
        again = solver.solve(small_model(name="other", prefix="renamed_"))
        assert (tier.stats.hits, tier.stats.misses) == (1, 1)
        assert again.objective == first.objective
        assert again.x.tobytes() == first.x.tobytes()
        assert again.value("renamed_x") == first.value("x")

    @pytest.mark.parametrize("change", sorted(VARIANTS))
    def test_a_model_differing_in_one_part_misses(self, change):
        tier = ArtifactCache("solutions")
        solver = TieredHighs(HighsSolver(), tier)
        solver.solve(small_model())
        variant = small_model(**self.VARIANTS[change])
        assert variant.fingerprint() != small_model().fingerprint()
        solution = solver.solve(variant)
        assert (tier.stats.hits, tier.stats.misses) == (0, 2)
        fresh = HighsSolver().solve(small_model(**self.VARIANTS[change]))
        assert solution.objective == fresh.objective
        assert solution.x.tobytes() == fresh.x.tobytes()

    @pytest.mark.parametrize(
        "options", [{"mip_rel_gap": 1e-4}, {"time_limit": 60.0}], ids=["mip_rel_gap", "time_limit"]
    )
    def test_other_highs_options_miss(self, options):
        tier = ArtifactCache("solutions")
        TieredHighs(HighsSolver(), tier).solve(small_model())
        TieredHighs(HighsSolver(**options), tier).solve(small_model())
        assert (tier.stats.hits, tier.stats.misses) == (0, 2)
        assert len(tier) == 2

    def test_failed_and_empty_solves_are_not_stored(self):
        tier = ArtifactCache("solutions")
        solver = TieredHighs(HighsSolver(), tier)
        infeasible = small_model()
        infeasible.add_constraint(infeasible.add_binary("z") * 1.0, ">=", 2.0)
        with pytest.raises(SolverError):
            solver.solve(infeasible)
        empty = MILPModel("empty")
        empty.set_objective_terms([], [], 1.5)
        assert solver.solve(empty).objective == 1.5
        assert len(tier) == 0 and tier.stats.hits == 0


class TestConcurrentSolves:
    def test_threads_sharing_one_tier_lose_no_lookup(self):
        bounds = (2.0, 3.0, 4.0, 5.0)
        expected = {rhs: HighsSolver().solve(small_model(rhs=rhs)) for rhs in bounds}
        tier = ArtifactCache("solutions")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    (rhs, pool.submit(TieredHighs(HighsSolver(), tier).solve, small_model(rhs=rhs)))
                    for _ in range(25)
                    for rhs in bounds
                ]
                results = [(rhs, future.result(timeout=60)) for rhs, future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert tier.stats.hits + tier.stats.misses == len(results)
        assert tier.stats.misses >= len(bounds) and len(tier) == len(bounds)
        for rhs, solution in results:
            assert solution.objective == expected[rhs].objective
            assert solution.x.tobytes() == expected[rhs].x.tobytes()


class TestStoredVectorsAreReadOnly:
    def _transformation(self, problem, solver):
        return MILPTransformation(
            problem.canonical_left, problem.canonical_right, problem.mapping,
            problem.relation, problem.priors, solver=solver,
        )

    def test_a_hit_cannot_change_later_hits(self, figure1_problem):
        tier = ArtifactCache("solutions")
        solver = TieredHighs(HighsSolver(), tier)
        transformation = self._transformation(figure1_problem, solver)
        first = transformation.solve()
        hit = solver.solve(transformation.model)
        with pytest.raises(ValueError):
            hit.x[0] = 1.0 - hit.x[0]
        again = self._transformation(figure1_problem, solver).solve()
        assert (tier.stats.hits, tier.stats.misses) == (2, 1)
        assert again.objective == first.objective
        assert again.provenance == first.provenance
        assert again.value == first.value
        assert list(again.evidence) == list(first.evidence)

    def test_a_spilled_vector_stays_read_only(self, tmp_path):
        tier = ArtifactCache("solutions", max_entries=1, spill_dir=tmp_path)
        solver = TieredHighs(HighsSolver(), tier)
        expected = solver.solve(small_model())
        solver.solve(small_model(rhs=3.0))  # evicts the first model to disk
        hit = solver.solve(small_model())
        assert tier.stats.spill_loads == 1
        assert not hit.x.flags.writeable
        assert np.array_equal(hit.x, expected.x)


def figure1_service(figure1_db1, figure1_db2) -> ExplainService:
    service = ExplainService()
    service.register_database(figure1_db1, "D1")
    service.register_database(figure1_db2, "D2")
    return service


class TestDirectAndTwinSolvesBypassTheTier:
    def test_a_direct_explain_solves_every_partition(
        self, figure1_db1, figure1_db2, figure1_queries, monkeypatch
    ):
        q1, q2 = figure1_queries
        config = Explain3DConfig(partitioning="components", batch_size=2, workers=1)
        matches = matching(("Program", "Major"))
        service = figure1_service(figure1_db1, figure1_db2)
        served = service.explain(
            ExplainRequest(q1, "D1", q2, "D2", attribute_matches=matches, config=config)
        )
        before = service.stats()["caches"]["solutions"]
        assert before["misses"] >= 1

        solves = []
        original = HighsSolver.solve
        monkeypatch.setattr(
            HighsSolver, "solve", lambda self, model: solves.append(model) or original(self, model)
        )
        direct = Explain3D(config).explain(
            q1, figure1_db1, q2, figure1_db2, attribute_matches=matches
        )
        assert direct.stats.num_partitions > 1
        assert len(solves) == direct.stats.num_partitions
        assert service.stats()["caches"]["solutions"] == before
        assert canonical_report(direct.to_dict()) == canonical_report(served.report.to_dict())

    def test_the_branch_and_bound_twin_always_solves(
        self, figure1_db1, figure1_db2, figure1_queries, monkeypatch
    ):
        q1, q2 = figure1_queries
        matches = matching(("Program", "Major"))
        config = Explain3DConfig(partitioning="none", workers=1, solver=BnBSolverBackend())
        solves = []
        original = BnBSolverBackend.solve
        monkeypatch.setattr(
            BnBSolverBackend, "solve",
            lambda self, model: solves.append(model) or original(self, model),
        )
        service = figure1_service(figure1_db1, figure1_db2)
        reports = []
        for suffix in ("", "b"):
            request = ExplainRequest(
                replace(q1, name=f"Q1{suffix}"), "D1", q2, "D2",
                attribute_matches=matches, config=config,
            )
            served = service.explain(request)
            assert not served.cached_report
            reports.append(served.report)
        assert len(solves) == 2
        assert tier_counts(service) == (0, 0) and len(service.caches.cache("solutions")) == 0
        direct = Explain3D(config).explain(
            q1, figure1_db1, q2, figure1_db2, attribute_matches=matches
        )
        assert answers(reports[0]) == answers(reports[1]) == answers(direct)


class TestWorkers:
    def test_inline_and_pooled_solves_hit_alike(self, small_synthetic_pair):
        pair = small_synthetic_pair
        renamed = (replace(pair.query_left, name="L2"), replace(pair.query_right, name="R2"))
        seen = {}
        for workers in (1, 2):
            service = ExplainService()
            service.register_database(pair.db_left, "left")
            service.register_database(pair.db_right, "right")
            config = Explain3DConfig(partitioning="smart", batch_size=40, workers=workers)
            counts, texts = [], []
            for query_left, query_right in ((pair.query_left, pair.query_right), renamed):
                served = service.explain(
                    ExplainRequest(
                        query_left, "left", query_right, "right",
                        attribute_matches=pair.attribute_matches, config=config,
                    )
                )
                assert not served.cached_report
                counts.append(tier_counts(service))
                texts.append(answers(served.report))
            partitions = served.report.stats.num_partitions
            assert partitions > 1
            # The renamed question builds the same partition models.
            assert counts == [(0, partitions), (partitions, partitions)]
            assert texts[0] == texts[1]
            seen[workers] = (counts, texts[0])
        assert seen[1] == seen[2]


class TestPartialSolves:
    def test_only_solved_partitions_are_stored(self):
        pair = generate_synthetic_pair(
            SyntheticConfig(num_tuples=40, difference_ratio=0.25, seed=7)
        )
        service = ExplainService()
        service.register_database(pair.db_left, "left")
        service.register_database(pair.db_right, "right")
        config = Explain3DConfig(partitioning="smart", batch_size=10, workers=1)
        request = ExplainRequest(
            pair.query_left, "left", pair.query_right, "right",
            attribute_matches=pair.attribute_matches, config=config,
        )
        # The first partition starts well inside the budget and outlasts it,
        # so every later one is skipped at its deadline checkpoint.
        with inject("solve.partition", "delay:0.6"):
            partial = service.explain(
                replace(request, deadline_seconds=0.4, on_deadline="partial")
            )
        stats = partial.report.stats
        assert stats.partial and stats.num_partitions > 2
        assert stats.unsolved_partitions == stats.num_partitions - 1
        assert tier_counts(service) == (0, 1) and len(service.caches.cache("solutions")) == 1

        full = service.explain(request)
        assert not full.cached_report and not full.report.stats.partial
        partitions = full.report.stats.num_partitions
        assert tier_counts(service) == (1, partitions)
        direct = Explain3D(config).explain(
            pair.query_left, pair.db_left, pair.query_right, pair.db_right,
            attribute_matches=pair.attribute_matches,
        )
        assert canonical_report(full.report.to_dict()) == canonical_report(direct.to_dict())
