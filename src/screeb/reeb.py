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
        if self.k_smooth is not None:
            return min(self.k_smooth, n - 1)
        return min(80, n - 1)

    def resolve_k_bw(self, n: int) -> int:
        # Kernel bandwidth rank for condensation. The default caps it below
        # the smoothing support: the 80th-neighbor scale on dense tube
        # samples reaches across distinct nearby structures and bridges
        # them, while rank 32 still smooths noise at the canonical scales.
        if self.k_bw is not None:
            return min(self.k_bw, n - 1)
        return min(32, self.resolve_k_smooth(n))


@dataclass(frozen=True)
class ReebTower:
    """Condensation tower: one (level, condensed cloud, reduced graph) entry
    per granularity; entry 0 is the base graph on the raw data."""

    entries: tuple[tuple[int, PointCloud, Multigraph], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def graph(self, level: int) -> Multigraph:
        return self.entries[level][2]


def reeb_graph(nbrs: NeighborGraph, filter_values: np.ndarray, positions: PointCloud) -> Multigraph:
    """Reeb graph of a filter over a connected neighbor graph.

    One threshold is placed between each pair of consecutive distinct filter
    values; the level set at a threshold is the subgraph of edges crossing
    it, each connected component becomes a node at the centroid of the data
    points incident to its crossing edges, and nodes at adjacent thresholds
    are joined when their components share a data point. Edge length is the
    distance between node centroids. A constant filter yields the
    single-vertex graph at the data centroid.
    """
    f = np.asarray(filter_values, dtype=float)
    pts = positions.points
    n = nbrs.n
    if f.shape != (n,):
        raise ValueError("filter must assign one value per vertex")
    distinct = np.unique(f)
    if distinct.size == 1:
        centroid = pts.mean(axis=0, keepdims=True)
        return Multigraph(1, (), centroid)

    edges, _ = nbrs.undirected_edges()
    fu = f[edges[:, 0]]
    fv = f[edges[:, 1]]
    # Slice s sits between distinct values s and s+1; an edge crosses every
    # slice in [rank(min f), rank(max f)).
    lo = np.searchsorted(distinct, np.minimum(fu, fv))
    hi = np.searchsorted(distinct, np.maximum(fu, fv))
    n_slices = distinct.size - 1

    slice_edges: list[list[int]] = [[] for _ in range(n_slices)]
    for ei in range(len(edges)):
        for s in range(lo[ei], hi[ei]):
            slice_edges[s].append(ei)

    node_centroids: list[np.ndarray] = []
    # vertex_node[s] maps touched data vertices of slice s to a Reeb node id.
    prev_assign: dict[int, int] = {}
    reeb_edges: set[tuple[int, int]] = set()

    for s in range(n_slices):
        eids = slice_edges[s]
        if not eids:
            # A connected graph always has an edge across every value cut.
            raise InvalidDataError(
                "level set between consecutive filter values has no crossing "
                "edges; the neighbor graph is disconnected"
            )
        touched: list[int] = []
        local: dict[int, int] = {}
        for ei in eids:
            for vtx in (int(edges[ei, 0]), int(edges[ei, 1])):
                if vtx not in local:
                    local[vtx] = len(touched)
                    touched.append(vtx)
        uf = graphmod.UnionFind(len(touched))
        for ei in eids:
            uf.union(local[int(edges[ei, 0])], local[int(edges[ei, 1])])
        # Members keep touched order, which fixes the centroid sums; nodes
        # are numbered by their smallest vertex.
        groups = [[touched[i] for i in group] for group in uf.groups()]
        assign: dict[int, int] = {}
        for members in sorted(groups, key=min):
            node_id = len(node_centroids)
            node_centroids.append(pts[members].mean(axis=0))
            for vtx in members:
                assign[vtx] = node_id
        for vtx, node_id in assign.items():
            prev_node = prev_assign.get(vtx)
            if prev_node is not None:
                reeb_edges.add((prev_node, node_id))
        prev_assign = assign

    centroids = np.array(node_centroids)
    out_edges = tuple(
        Edge(a, b, float(np.linalg.norm(centroids[a] - centroids[b])), 1)
        for a, b in sorted(reeb_edges)
    )
    return Multigraph(len(node_centroids), out_edges, centroids)


def screeb(cloud: PointCloud, params: ReebParams = ReebParams()) -> Multigraph:
    """Reduced Reeb graph of a point cloud under the Fiedler filter.

    Builds a symmetrized kNN graph, splits it into connected components,
    computes the Fiedler filter of each component's transition matrix,
    runs the Reeb construction per component, and reduces the disjoint
    union.
    """
    if cloud.n < 2:
        raise DegenerateInputError("screeb requires at least two points")
    nbrs = knn_graph(cloud, params.k, symmetrize=True)
    affinity = adaptive_affinity(cloud, nbrs, min(params.k, cloud.n - 1))
    pieces: list[Multigraph] = []
    for comp in affinity_components(affinity):
        f = fiedler_filter(affinity, comp)
        sub_nbrs = induced_neighbor_subgraph(nbrs, comp)
        sub_cloud = PointCloud(cloud.points[comp])
        pieces.append(reeb_graph(sub_nbrs, f, sub_cloud))
    union = graphmod.disjoint_union(pieces)
    return graphmod.reduce(union)


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
