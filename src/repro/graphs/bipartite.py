"""The bipartite match graph ``G = (T1, T2, M_tuple)`` in array form."""

from __future__ import annotations

import enum
from typing import Iterable

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from repro.matching.tuple_matching import TupleMapping


class Side(enum.Enum):
    """Which canonical relation a node belongs to."""

    LEFT = "L"
    RIGHT = "R"

    def other(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class MatchGraph:
    """Bipartite graph over left/right canonical tuple keys with match edges.

    Node ``i`` is ``left_keys[i]`` for ``i < len(left_keys)`` and
    ``right_keys[i - len(left_keys)]`` after that.  Edge ``e`` (mapping order)
    joins left position ``edge_left[e]`` to right position ``edge_right[e]``
    with probability ``edge_probability[e]``; a match naming a key outside the
    key lists is a ``KeyError``.  Nodes without any incident edge are
    kept: they correspond to tuples that can only be explained as
    provenance-based explanations, and they must still be assigned to a
    partition.
    """

    def __init__(
        self,
        left_keys: Iterable[str],
        right_keys: Iterable[str],
        mapping: TupleMapping,
    ):
        left = {key: position for position, key in enumerate(dict.fromkeys(left_keys))}
        right = {key: position for position, key in enumerate(dict.fromkeys(right_keys))}
        self.edge_left, self.edge_right = mapping.positions(left, right)
        unknown = np.flatnonzero((self.edge_left < 0) | (self.edge_right < 0))
        if unknown.size:
            pair = (mapping.left_keys[unknown[0]], mapping.right_keys[unknown[0]])
            raise KeyError(f"match {pair} names a key outside the graph's nodes")
        self.left_keys = list(left)
        self.right_keys = list(right)
        self.edge_probability = mapping.probabilities

    @property
    def num_nodes(self) -> int:
        return len(self.left_keys) + len(self.right_keys)

    @property
    def num_edges(self) -> int:
        return len(self.edge_probability)

    # -- grouping -----------------------------------------------------------------
    def components(self, edges: np.ndarray) -> tuple[int, np.ndarray]:
        """Label every node by its connected component over the ``edges`` mask.

        Returns the component count and one label per node; components are
        numbered in order of their first node (left keys, then right keys).
        """
        size = self.num_nodes
        rows = self.edge_left[edges]
        columns = self.edge_right[edges] + len(self.left_keys)
        adjacency = coo_array((np.ones(len(rows)), (rows, columns)), shape=(size, size))
        return connected_components(adjacency, directed=False)

    def endpoint_labels(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The labels of every edge's left and right endpoints."""
        return labels[self.edge_left], labels[self.edge_right + len(self.left_keys)]

    def groups(self, labels: np.ndarray, count: int) -> list[tuple[list[str], list[str]]]:
        """The left and right keys carrying each label ``0 .. count - 1``."""
        groups: list[tuple[list[str], list[str]]] = [([], []) for _ in range(count)]
        split = len(self.left_keys)
        for key, label in zip(self.left_keys, labels[:split].tolist()):
            groups[label][0].append(key)
        for key, label in zip(self.right_keys, labels[split:].tolist()):
            groups[label][1].append(key)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchGraph({len(self.left_keys)} left, {len(self.right_keys)} right, "
            f"{self.num_edges} edges)"
        )
