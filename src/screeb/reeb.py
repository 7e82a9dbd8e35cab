"""Diffusion Reeb graphs and the condensation tower.

``screeb`` builds a symmetrized kNN graph, computes the Fiedler filter per
connected component, tracks connected components of the filter's level sets
across midpoint thresholds, and reduces the resulting multigraph.
``screeb_tower`` repeats the construction on successively condensed copies
of the cloud, yielding one reduced graph per granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from . import graph as graphmod
from .errors import DegenerateInputError, InvalidDataError
from .geometry import (
    NeighborGraph,
    PointCloud,
    adaptive_affinity,
    affinity_components,
    condense,
    fiedler_filter,
    induced_neighbor_subgraph,
    knn_graph,
    row_dots,
)
from .graph import Edge, Multigraph


@dataclass(frozen=True)
class ReebParams:
    """Construction parameters.

    ``k`` is the kNN neighbor count, ``levels`` the number of condensation
    iterations (0 disables the tower), ``k_smooth`` the condensation
    neighbor count (None means min(80, n - 1)), ``t`` the diffusion steps
    per condensation iteration, and ``k_bw`` the condensation kernel
    bandwidth rank (None means min(32, k_smooth)).
    """

    k: int = 15
    levels: int = 2
    k_smooth: Optional[int] = None
    t: int = 1
    k_bw: Optional[int] = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if self.k_smooth is not None and self.k_smooth < 2:
            raise ValueError("k_smooth must be >= 2")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.k_bw is not None and self.k_bw < 1:
            raise ValueError("k_bw must be >= 1")

    def resolve_k_smooth(self, n: int) -> int:
        return min(80 if self.k_smooth is None else self.k_smooth, n - 1)

    def resolve_k_bw(self, n: int) -> int:
        # Kernel bandwidth rank for condensation. The default caps it below
        # the smoothing support: the 80th-neighbor scale on dense tube
        # samples reaches across distinct nearby structures and bridges
        # them, while rank 32 still smooths noise at the canonical scales.
        return min(self.k_bw, n - 1) if self.k_bw is not None else min(32, self.resolve_k_smooth(n))


@dataclass(frozen=True)
class ReebTower:
    """Condensation tower: one (level, condensed cloud, reduced graph) entry
    per granularity; entry 0 is the base graph on the raw data."""

    entries: tuple[tuple[int, PointCloud, Multigraph], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def graph(self, level: int) -> Multigraph:
        return self.entries[level][2]


# Slices are swept in blocks of consecutive slices holding about this many
# (slice, edge) crossings: the summed slice span grows faster than n.
_BLOCK_CROSSINGS = 1 << 16


def reeb_graph(nbrs: NeighborGraph, filter_values: np.ndarray, positions: PointCloud) -> Multigraph:
    """Reeb graph of a filter over a connected neighbor graph.

    A slice sits between each pair of consecutive distinct filter values;
    its level set is the subgraph of edges crossing it. Each component of a
    level set is a node at the mean of its data points, taken in the order
    the slice's edges (ascending) first touch them, and nodes are numbered
    by (slice, smallest vertex). Nodes at adjacent slices that share a data
    point are joined, with the distance between centroids as length. A
    constant filter yields the single-vertex graph at the data centroid.
    """
    f = np.asarray(filter_values, dtype=float)
    pts = positions.points
    n = nbrs.n
    if f.shape != (n,):
        raise ValueError("filter must assign one value per vertex")
    distinct = np.unique(f)
    if distinct.size == 1:
        return Multigraph(1, (), pts.mean(axis=0, keepdims=True))

    edges, _ = nbrs.undirected_edges()
    # Slice s sits between distinct values s and s+1; an edge crosses every
    # slice in [rank(min f), rank(max f)).
    lo, hi = np.searchsorted(distinct, np.sort(f[edges], axis=1)).T
    opened = np.bincount(lo, minlength=distinct.size) - np.bincount(hi, minlength=distinct.size)
    per_slice = np.cumsum(opened)[:-1]
    if not per_slice.all():  # a connected graph has an edge across every value cut
        raise InvalidDataError("level set between consecutive filter values has no crossing "
                               "edges; the neighbor graph is disconnected")
    # A block starts where the running crossing count passes a multiple of the block size.
    starts = np.flatnonzero(np.diff(np.cumsum(per_slice) // _BLOCK_CROSSINGS, prepend=-1))

    centroids, joins, n_nodes = [], [], 0
    prev_keys, prev_nodes = np.zeros(0, dtype=int), np.zeros(0, dtype=int)  # the slice before the block
    for s0, s1 in zip(starts, np.append(starts[1:], per_slice.size)):
        first = np.maximum(lo, s0)
        span = np.maximum(np.minimum(hi, s1) - first, 0)
        eid = np.repeat(np.arange(len(edges)), span)
        slices = np.repeat(first - np.cumsum(span) + span, span) + np.arange(eid.size)
        # Crossing j of edge e lies at slice s = first[e] + j and puts keys s * n + u
        # and s * n + v in its level set. Entries go by edge, so a key's first
        # entry ranks it in its slice's touched order.
        flat = np.repeat(slices, 2) * n + edges[eid].ravel()
        keys, touched, inv = np.unique(flat, return_index=True, return_inverse=True)
        level_sets = coo_matrix((np.ones(eid.size), (inv[0::2], inv[1::2])), shape=(keys.size, keys.size))
        labels = connected_components(level_sets, directed=False)[1]
        # Keys ascend, so a component's first key is its (slice, smallest vertex).
        node = np.argsort(np.argsort(np.unique(labels, return_index=True)[1]))[labels]
        # One mean over all nodes of a size sums each node's rows in touched
        # order, exactly as ``pts[members].mean(axis=0)`` does.
        members = keys[np.lexsort((touched, node))] % n
        sizes = np.bincount(node)
        offsets = np.cumsum(sizes) - sizes
        block = np.empty((sizes.size, pts.shape[1]))
        for size in np.unique(sizes):
            ids = np.flatnonzero(sizes == size)
            block[ids] = pts[members[offsets[ids, None] + np.arange(size)]].mean(axis=1)
        centroids.append(block)
        node += n_nodes
        n_nodes += sizes.size
        # Join each node to the nodes one slice down holding its vertices: look up key - n
        # in the sorted keys of the block and the slice before it (it sorts before key, so
        # the index stays in range). Codes ascend by (down, up) node pair.
        all_keys, all_nodes = np.append(prev_keys, keys), np.append(prev_nodes, node)
        at = np.searchsorted(all_keys, keys - n)
        up = np.flatnonzero(all_keys[at] == keys - n)
        joins.append(np.divmod(np.unique(all_nodes[at[up]] * n_nodes + node[up]), n_nodes))
        top = keys >= (s1 - 1) * n
        prev_keys, prev_nodes = keys[top], node[top]

    centroids = np.concatenate(centroids)
    a, b = np.concatenate(joins, axis=1)
    gaps = centroids[a] - centroids[b]
    out_edges = tuple(map(Edge, a.tolist(), b.tolist(), np.sqrt(row_dots(gaps, gaps)).tolist()))
    return Multigraph(n_nodes, out_edges, centroids)


def screeb(cloud: PointCloud, params: ReebParams = ReebParams()) -> Multigraph:
    """Reduced Reeb graph of a point cloud under the Fiedler filter.

    Builds a symmetrized kNN graph, splits it into connected components,
    computes the Fiedler filter of each component's transition matrix,
    runs the Reeb construction per component, and returns the disjoint union
    of the reduced pieces (the reduction of the union, built piece by piece).
    """
    if cloud.n < 2:
        raise DegenerateInputError("screeb requires at least two points")
    nbrs = knn_graph(cloud, params.k, symmetrize=True)
    affinity = adaptive_affinity(cloud, nbrs, min(params.k, cloud.n - 1))
    pieces = []
    for comp in affinity_components(affinity):
        f = fiedler_filter(affinity, comp)
        raw = reeb_graph(induced_neighbor_subgraph(nbrs, comp), f, PointCloud(cloud.points[comp]))
        pieces.append(graphmod.reduce(raw))
    return graphmod.disjoint_union(pieces)


def screeb_tower(cloud: PointCloud, params: ReebParams = ReebParams()) -> ReebTower:
    """Condensation tower of reduced Reeb graphs.

    Entry 0 is ``screeb`` on the raw cloud; each further entry condenses the
    previous cloud with a fresh operator (a non-homogeneous diffusion
    process) and re-runs the construction.
    """
    entries = [(0, cloud, screeb(cloud, params))]
    current = cloud
    k_smooth = params.resolve_k_smooth(cloud.n)
    k_bw = params.resolve_k_bw(cloud.n)
    for level in range(1, params.levels + 1):
        current = condense(current, k_smooth, params.t, k_bw=k_bw)
        entries.append((level, current, screeb(current, params)))
    return ReebTower(tuple(entries))
