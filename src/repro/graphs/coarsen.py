"""Coarsening: pre-partitioning (Algorithm 2) and heavy-edge matching.

Algorithm 2 merges tuples connected by high-probability matches into
supernodes before running the graph partitioner.  Those matches must never be
cut (their adjusted weight is ``p * R``), so collapsing them shrinks the
partitioning problem drastically -- the paper reports a 200x speedup on 10K
tuples -- without affecting partition quality.

Heavy-edge matching is the classic multilevel coarsening step used by the
partitioner itself when the (pre-partitioned) graph is still large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.bipartite import MatchGraph
from repro.graphs.weighting import WeightingParams, adjust_weight


@dataclass
class CoarseGraph:
    """The simplified graph ``G_c = (C1, C2, M_c)`` produced by Algorithm 2.

    ``supernode_of`` labels every match-graph node with its supernode,
    ``sizes`` counts the tuples of each supernode (the balancing measure),
    and ``edges`` sums the re-weighted matches between two supernodes, keyed
    ``(min, max)`` in order of their first match.
    """

    supernode_of: np.ndarray
    sizes: list[int]
    edges: dict[tuple[int, int], float]

    @property
    def num_nodes(self) -> int:
        return len(self.sizes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def prepartition(graph: MatchGraph, params: WeightingParams = WeightingParams()) -> CoarseGraph:
    """Algorithm 2: merge tuples connected by high-probability matches."""
    return merge_tuples(graph, graph.edge_probability >= params.theta_high, params)


def merge_tuples(graph: MatchGraph, merged: np.ndarray, params: WeightingParams) -> CoarseGraph:
    """Supernodes over the ``merged`` edge mask, plus the edges between them.

    Lines 2-7 of Algorithm 2 are one connected-components labelling; lines
    8-10 sum the re-weighted remaining matches between distinct supernodes
    in mapping order (a match inside a supernode can never be cut).
    """
    count, supernode_of = graph.components(merged)
    a, b = graph.endpoint_labels(supernode_of)
    between = a != b
    pairs = zip(np.minimum(a, b)[between].tolist(), np.maximum(a, b)[between].tolist())
    edges: dict[tuple[int, int], float] = {}
    for key, probability in zip(pairs, graph.edge_probability[between].tolist()):
        edges[key] = edges.get(key, 0.0) + adjust_weight(probability, params)
    sizes = np.bincount(supernode_of, minlength=count).tolist()
    return CoarseGraph(supernode_of, sizes, edges)


def heavy_edge_matching(
    adjacency: list[dict[int, float]],
    sizes: list[float],
    *,
    max_merged_size: float,
) -> list[int]:
    """One level of heavy-edge-matching coarsening.

    Returns ``coarse_id[i]`` for every node ``i``.  Each node is matched with
    its heaviest unmatched neighbour, provided the merged size stays within
    ``max_merged_size`` (so coarsening never creates nodes that cannot fit in
    a partition).
    """
    n = len(adjacency)
    matched = [False] * n
    coarse_of = [-1] * n
    next_id = 0

    # Visit nodes in ascending degree order: low-degree nodes have fewer
    # chances to be matched later, the classic METIS heuristic.
    order = sorted(range(n), key=lambda i: len(adjacency[i]))
    for node in order:
        if matched[node]:
            continue
        best_neighbor = -1
        best_weight = 0.0
        for neighbor, weight in adjacency[node].items():
            if matched[neighbor] or neighbor == node:
                continue
            if sizes[node] + sizes[neighbor] > max_merged_size:
                continue
            if weight > best_weight:
                best_weight = weight
                best_neighbor = neighbor
        matched[node] = True
        coarse_of[node] = next_id
        if best_neighbor >= 0:
            matched[best_neighbor] = True
            coarse_of[best_neighbor] = next_id
        next_id += 1
    return coarse_of


def contract(
    adjacency: list[dict[int, float]],
    sizes: list[float],
    coarse_of: list[int],
) -> tuple[list[dict[int, float]], list[float]]:
    """Contract a graph according to a coarse-node assignment."""
    num_coarse = max(coarse_of) + 1 if coarse_of else 0
    coarse_adjacency: list[dict[int, float]] = [dict() for _ in range(num_coarse)]
    coarse_sizes = [0.0] * num_coarse
    for node, coarse in enumerate(coarse_of):
        coarse_sizes[coarse] += sizes[node]
        for neighbor, weight in adjacency[node].items():
            coarse_neighbor = coarse_of[neighbor]
            if coarse_neighbor == coarse:
                continue
            coarse_adjacency[coarse][coarse_neighbor] = (
                coarse_adjacency[coarse].get(coarse_neighbor, 0.0) + weight
            )
    return coarse_adjacency, coarse_sizes
