"""The smart-partitioning algorithm (Algorithm 3).

Given the bipartite match graph, the smart partitioner

1. runs the pre-partitioning step (Algorithm 2) to merge tuples connected by
   high-probability matches into supernodes,
2. partitions the resulting coarse graph with the balanced min-cut
   partitioner of :mod:`repro.graphs.partitioner`, and
3. expands each coarse partition back into a set of left/right canonical
   tuple keys.

The number of partitions follows the paper's experiments: ``k = ceil((|T1| +
|T2|) / batch_size)`` for a fixed batch size, with ``L_max = batch_size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.bipartite import MatchGraph
from repro.graphs.coarsen import merge_tuples, prepartition
from repro.graphs.partitioner import GraphPartitioner, WeightedGraph
from repro.graphs.weighting import WeightingParams


@dataclass(frozen=True)
class TuplePartition:
    """One sub-problem: the canonical tuple keys assigned to a partition."""

    index: int
    left_keys: frozenset[str]
    right_keys: frozenset[str]

    @property
    def size(self) -> int:
        return len(self.left_keys) + len(self.right_keys)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TuplePartition(#{self.index}, {len(self.left_keys)}+{len(self.right_keys)} tuples)"


@dataclass
class SmartPartitionResult:
    """Partitions plus diagnostics about the partitioning run."""

    partitions: list[TuplePartition]
    num_supernodes: int = 0
    cut_weight: float = 0.0
    cut_edges: int = 0

    def __iter__(self):
        return iter(self.partitions)

    def __len__(self):
        return len(self.partitions)


class SmartPartitioner:
    """Algorithm 3: pre-partition, partition, and expand back to tuples."""

    def __init__(
        self,
        *,
        batch_size: int = 1000,
        weighting: WeightingParams = WeightingParams(),
        use_prepartitioning: bool = True,
    ):
        if batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        self.batch_size = batch_size
        self.weighting = weighting
        self.use_prepartitioning = use_prepartitioning

    # -- helpers ------------------------------------------------------------------
    def num_partitions(self, graph: MatchGraph) -> int:
        """``k = ceil((|T1| + |T2|) / batch_size)`` as in Section 5.3."""
        return max(1, math.ceil(graph.num_nodes / self.batch_size))

    @staticmethod
    def by_connected_components(graph: MatchGraph) -> SmartPartitionResult:
        """The exact, accuracy-preserving split along connected components."""
        count, component_of = graph.components(np.ones(graph.num_edges, dtype=bool))
        partitions = [
            TuplePartition(index, frozenset(left), frozenset(right))
            for index, (left, right) in enumerate(graph.groups(component_of, count))
        ]
        return SmartPartitionResult(partitions, num_supernodes=count)

    # -- main entry point ---------------------------------------------------------
    def partition(self, graph: MatchGraph) -> SmartPartitionResult:
        """Split the match graph into bounded-size sub-problems."""
        if graph.num_nodes == 0:
            return SmartPartitionResult([])

        k = self.num_partitions(graph)
        if k <= 1:
            everything = TuplePartition(
                0, frozenset(graph.left_keys), frozenset(graph.right_keys)
            )
            return SmartPartitionResult([everything], num_supernodes=graph.num_nodes)

        # Line 1: pre-partition (Algorithm 2).  When disabled, no match merges
        # its tuples: every node is its own supernode, which reduces to plain
        # graph partitioning.
        if self.use_prepartitioning:
            coarse = prepartition(graph, self.weighting)
        else:
            coarse = merge_tuples(graph, np.zeros(graph.num_edges, dtype=bool), self.weighting)
        weighted = WeightedGraph.from_edges(coarse.num_nodes, coarse.edges, coarse.sizes)

        # Line 2: partition the coarse graph.
        partition = GraphPartitioner().partition(weighted, k, float(self.batch_size))

        # Lines 3-6: expand supernodes back into tuple partitions.
        part_of = np.asarray(partition.assignment, dtype=np.intp)[coarse.supernode_of]
        partitions = [
            TuplePartition(index, frozenset(left), frozenset(right))
            for index, (left, right) in enumerate(graph.groups(part_of, k))
            if left or right
        ]
        left_part, right_part = graph.endpoint_labels(part_of)
        return SmartPartitionResult(
            partitions,
            num_supernodes=coarse.num_nodes,
            cut_weight=partition.cut,
            cut_edges=int(np.count_nonzero(left_part != right_part)),
        )
