"""Graph substrate for the smart-partitioning optimizer (Section 4).

The bipartite graph formed by canonical tuples and their probabilistic matches
is the input to the partitioning optimization.  This subpackage provides:

* :mod:`repro.graphs.bipartite` -- the match graph as key lists plus edge
  arrays, with one grouping helper that labels tuples by the connected
  components of a chosen subset of the matches: all of them (the exact
  "free" split), those with ``p >= theta_h`` (Algorithm 2's supernodes) or
  none (plain partitioning);
* :mod:`repro.graphs.weighting` -- the paper's edge re-weighting that rewards
  high-probability matches and penalizes low-probability ones;
* :mod:`repro.graphs.coarsen` -- Algorithm 2 (pre-partitioning by merging
  nodes connected by high-probability matches) and heavy-edge-matching
  coarsening for the multilevel partitioner;
* :mod:`repro.graphs.partitioner` / :mod:`repro.graphs.refine` -- a multilevel
  balanced min-edge-cut partitioner (Problem 2), standing in for METIS;
* :mod:`repro.graphs.smart_partition` -- Algorithm 3, gluing the above into
  bounded-size sub-problems of canonical tuples, or splitting along connected
  components.
"""

from repro.graphs.bipartite import MatchGraph, Side
from repro.graphs.weighting import WeightingParams, adjust_weight
from repro.graphs.coarsen import CoarseGraph, prepartition
from repro.graphs.partitioner import GraphPartitioner, Partition, WeightedGraph
from repro.graphs.refine import refine_partition
from repro.graphs.smart_partition import SmartPartitioner, TuplePartition

__all__ = [
    "Side",
    "MatchGraph",
    "WeightingParams",
    "adjust_weight",
    "CoarseGraph",
    "prepartition",
    "WeightedGraph",
    "Partition",
    "GraphPartitioner",
    "refine_partition",
    "SmartPartitioner",
    "TuplePartition",
]
