"""Unit tests for the graph substrate (Section 4)."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_pair
from repro.graphs.bipartite import MatchGraph
from repro.graphs.coarsen import contract, heavy_edge_matching, prepartition
from repro.graphs.partitioner import GraphPartitioner, WeightedGraph
from repro.graphs.refine import cut_weight, refine_partition
from repro.graphs.smart_partition import SmartPartitioner
from repro.graphs.weighting import WeightingParams, adjust_weight
from repro.matching.tuple_matching import TupleMapping, TupleMatch


def sample_graph() -> MatchGraph:
    mapping = TupleMapping(
        [
            TupleMatch("l0", "r0", 0.95),
            TupleMatch("l1", "r0", 0.3),
            TupleMatch("l1", "r1", 0.92),
            TupleMatch("l2", "r2", 0.05),
        ]
    )
    return MatchGraph(["l0", "l1", "l2", "l3"], ["r0", "r1", "r2", "r3"], mapping)


class TestMatchGraph:
    def test_counts(self):
        graph = sample_graph()
        assert graph.num_nodes == 8
        assert graph.num_edges == 4

    def test_edge_arrays_follow_mapping_order(self):
        graph = sample_graph()
        assert graph.edge_left.tolist() == [0, 1, 1, 2]
        assert graph.edge_right.tolist() == [0, 0, 1, 2]
        assert graph.edge_probability.tolist() == [0.95, 0.3, 0.92, 0.05]

    def test_a_match_naming_an_unknown_key_raises(self):
        for pair in (("a", "r0"), ("l0", "b")):
            with pytest.raises(KeyError, match="outside the graph's nodes"):
                MatchGraph(["l0"], ["r0"], TupleMapping([TupleMatch(*pair, 0.5)]))


class TestComponents:
    @staticmethod
    def all_edges(graph: MatchGraph) -> np.ndarray:
        return np.ones(graph.num_edges, dtype=bool)

    def test_connected_components(self):
        graph = sample_graph()
        count, labels = graph.components(self.all_edges(graph))
        # {l0,l1,r0,r1}, {l2,r2}, and two isolated singletons, numbered in
        # first-node order (left keys, then right keys).
        assert count == 4
        assert labels.tolist() == [0, 0, 1, 2, 0, 0, 1, 3]
        assert graph.groups(labels, count)[0] == (["l0", "l1"], ["r0", "r1"])

    def test_all_nodes_covered_once(self):
        graph = sample_graph()
        count, labels = graph.components(self.all_edges(graph))
        groups = graph.groups(labels, count)
        left_total = sum(len(left) for left, _ in groups)
        right_total = sum(len(right) for _, right in groups)
        assert left_total == len(graph.left_keys)
        assert right_total == len(graph.right_keys)

    def test_edge_subset_and_endpoint_labels(self):
        graph = sample_graph()
        count, labels = graph.components(graph.edge_probability >= 0.9)
        assert count == 6
        # Only the 0.3 and 0.05 matches join different groups.
        left, right = graph.endpoint_labels(labels)
        assert (left != right).tolist() == [False, True, False, True]


class TestWeighting:
    def test_adjustment_regimes(self):
        params = WeightingParams(theta_low=0.1, theta_high=0.9, reward=100.0)
        assert adjust_weight(0.95, params) == pytest.approx(95.0)
        assert adjust_weight(0.05, params) == pytest.approx(0.0005)
        assert adjust_weight(0.5, params) == 0.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WeightingParams(theta_low=0.9, theta_high=0.1)
        with pytest.raises(ValueError):
            WeightingParams(reward=0.5)


class TestPrepartition:
    def test_high_probability_edges_merge(self):
        coarse = prepartition(sample_graph(), WeightingParams())
        # l0-r0 (0.95) merge; l1-r1 (0.92) merge; but l1-r0 (0.3) keeps them apart.
        assert coarse.sizes == [2, 2, 1, 1, 1, 1]
        assert coarse.num_nodes == 6
        # The 0.3 edge now connects two supernodes.
        assert coarse.num_edges >= 1

    def test_internal_edges_removed(self):
        coarse = prepartition(sample_graph(), WeightingParams())
        for (a, b), _ in coarse.edges.items():
            assert a != b

    def test_linear_weights_adjusted(self):
        coarse = prepartition(sample_graph(), WeightingParams())
        weights = sorted(coarse.edges.values())
        # The 0.05 edge is penalized to 0.0005.
        assert weights[0] == pytest.approx(0.0005)


class TestCoarsening:
    def test_heavy_edge_matching_respects_size(self):
        adjacency = [{1: 5.0}, {0: 5.0, 2: 1.0}, {1: 1.0}]
        sizes = [3.0, 3.0, 1.0]
        coarse_of = heavy_edge_matching(adjacency, sizes, max_merged_size=4.0)
        # Nodes 0 and 1 cannot merge (size 6 > 4).
        assert coarse_of[0] != coarse_of[1]

    def test_contract_accumulates(self):
        adjacency = [{1: 2.0, 2: 1.0}, {0: 2.0, 2: 3.0}, {0: 1.0, 1: 3.0}]
        sizes = [1.0, 1.0, 1.0]
        coarse_adj, coarse_sizes = contract(adjacency, sizes, [0, 0, 1])
        assert coarse_sizes == [2.0, 1.0]
        assert coarse_adj[0][1] == pytest.approx(4.0)


class TestPartitioner:
    def make_graph(self, num_nodes=60, cluster=10) -> WeightedGraph:
        edges = {}
        for start in range(0, num_nodes, cluster):
            for i in range(start, start + cluster - 1):
                edges[(i, i + 1)] = 10.0
        # weak links between clusters
        for start in range(cluster - 1, num_nodes - 1, cluster):
            edges[(start, start + 1)] = 0.1
        return WeightedGraph.from_edges(num_nodes, edges)

    def test_partition_respects_size_bound(self):
        graph = self.make_graph()
        partition = GraphPartitioner(coarsen_threshold=10).partition(graph, 6, 12)
        assert partition.max_part_size <= 12

    def test_partition_covers_all_nodes(self):
        graph = self.make_graph()
        partition = GraphPartitioner().partition(graph, 6, 12)
        assert sorted(n for members in partition.members() for n in members) == list(range(60))

    def test_partition_prefers_weak_edges(self):
        graph = self.make_graph()
        partition = GraphPartitioner().partition(graph, 6, 12)
        # Perfect partitioning cuts only the six 0.1-weight bridges (total 0.5);
        # allow some slack but far less than cutting any strong edge.
        assert partition.cut < 10.0

    def test_single_partition(self):
        graph = self.make_graph(10, 5)
        partition = GraphPartitioner().partition(graph, 1, 100)
        assert set(partition.assignment) == {0}

    def test_refine_never_worsens_cut(self):
        graph = self.make_graph(30, 5)
        assignment = [i % 3 for i in range(30)]
        before = cut_weight(graph.adjacency, assignment)
        refined = refine_partition(graph.adjacency, graph.sizes, assignment, 3, 15)
        after = cut_weight(graph.adjacency, refined)
        assert after <= before

    def test_weighted_graph_validation(self):
        with pytest.raises(ValueError):
            WeightedGraph([{}, {}], [1.0])


class TestSmartPartitioner:
    def test_partitions_cover_all_tuples_disjointly(self):
        graph = sample_graph()
        result = SmartPartitioner(batch_size=4).partition(graph)
        left_seen = [key for p in result for key in p.left_keys]
        right_seen = [key for p in result for key in p.right_keys]
        assert sorted(left_seen) == sorted(graph.left_keys)
        assert sorted(right_seen) == sorted(graph.right_keys)
        assert len(left_seen) == len(set(left_seen))

    def test_small_graph_single_partition(self):
        graph = sample_graph()
        result = SmartPartitioner(batch_size=100).partition(graph)
        assert len(result) == 1

    def test_num_partitions_formula(self):
        graph = sample_graph()
        assert SmartPartitioner(batch_size=3).num_partitions(graph) == 3

    def test_by_connected_components(self):
        result = SmartPartitioner.by_connected_components(sample_graph())
        assert len(result) == 4

    def test_partition_sizes_bounded(self):
        mapping = TupleMapping(
            [TupleMatch(f"l{i}", f"r{i}", 0.5) for i in range(40)]
        )
        graph = MatchGraph([f"l{i}" for i in range(40)], [f"r{i}" for i in range(40)], mapping)
        result = SmartPartitioner(batch_size=20).partition(graph)
        assert len(result) >= 3
        assert max(p.size for p in result) <= 25  # small tolerance over the batch size

    def test_prepartitioning_keeps_high_probability_pairs_together(self):
        mapping = TupleMapping(
            [TupleMatch(f"l{i}", f"r{i}", 0.99) for i in range(30)]
            + [TupleMatch(f"l{i}", f"r{(i + 1) % 30}", 0.05) for i in range(30)]
        )
        graph = MatchGraph([f"l{i}" for i in range(30)], [f"r{i}" for i in range(30)], mapping)
        result = SmartPartitioner(batch_size=12).partition(graph)
        partition_of = {}
        for partition in result:
            for key in partition.left_keys:
                partition_of[("L", key)] = partition.index
            for key in partition.right_keys:
                partition_of[("R", key)] = partition.index
        for i in range(30):
            assert partition_of[("L", f"l{i}")] == partition_of[("R", f"r{i}")]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            SmartPartitioner(batch_size=1)

    @given(st.integers(2, 6), st.integers(10, 40))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_fully_covered(self, batch, n):
        mapping = TupleMapping(
            [TupleMatch(f"l{i}", f"r{(i * 7) % n}", 0.1 + 0.8 * ((i * 13) % 10) / 10) for i in range(n)]
        )
        graph = MatchGraph([f"l{i}" for i in range(n)], [f"r{i}" for i in range(n)], mapping)
        result = SmartPartitioner(batch_size=batch * 5).partition(graph)
        assert sorted(k for p in result for k in p.left_keys) == sorted(graph.left_keys)
        assert sorted(k for p in result for k in p.right_keys) == sorted(graph.right_keys)


def partition_digest(result) -> list:
    return [
        [[p.index, sorted(p.left_keys), sorted(p.right_keys)] for p in result.partitions],
        result.num_supernodes,
        result.cut_edges,
        repr(result.cut_weight),
    ]


class TestGoldenPartitions:
    """Partitions and their statistics are pinned on synthetic n=300 pairs.

    Every solve statistic and every per-partition MILP follows from these
    partitions, so a change to the grouping, the coarse edge order or the
    cut count shows here first.  The digests were recorded from the
    object-graph implementation this array form replaced.
    """

    GOLDEN = {
        1: "4660130b6b1c5ea5b525cf50f8e4f839a5fa45a7fcd4f9a80c46361351547c16",
        2: "a566ff36d4de5e1ffa736746edd8e20046c26ecdfad25b9d827de0d0f8d05e63",
        3: "e0c30153b7bbec7bfc91d318b5b66695c0efc2437514c997a697cefd162b01df",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_smart_and_components_digest(self, seed):
        pair = generate_synthetic_pair(
            SyntheticConfig(num_tuples=300, vocabulary_size=500, difference_ratio=0.2, seed=seed)
        )
        graph = pair.build_problem()[0].match_graph()
        digests = {
            f"smart-{batch}-{prepartitioning}": partition_digest(
                SmartPartitioner(batch_size=batch, use_prepartitioning=prepartitioning).partition(graph)
            )
            for batch in (60, 100)
            for prepartitioning in (True, False)
        }
        digests["components"] = partition_digest(SmartPartitioner.by_connected_components(graph))
        blob = json.dumps(digests, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.GOLDEN[seed]
