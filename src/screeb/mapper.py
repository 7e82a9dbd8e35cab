"""Mapper baseline: PCA lens, cubical cover, per-cell DBSCAN, nerve graph.

The cover uses six equal-width intervals per lens dimension, each expanded
by the overlap fraction on both sides; clustering inside cover cells uses
DBSCAN with a radius derived once from the cloud's distinct points (1.5 x
the median third-neighbor distance). Cluster nodes sit at member
centroids, nodes sharing a data point are joined, duplicate nodes
(identical member sets) are removed, and the nerve is reduced.
"""

from __future__ import annotations

import itertools
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from . import graph as graphmod
from .errors import DegenerateInputError
from .geometry import PointCloud, straight_graph
from .graph import Multigraph


@dataclass(frozen=True)
class MapperParams:
    n_intervals: int = 6
    overlap: float = 0.35
    min_samples: int = 3
    eps_factor: float = 1.5
    d_lens: Optional[int] = None  # None: min(2, ambient dim, n)

    def __post_init__(self):
        for name in ("n_intervals", "min_samples", "d_lens"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if not (0.0 <= self.overlap < 1.0):
            raise ValueError("overlap fraction must lie in [0, 1)")
        if self.n_intervals < 1:
            raise ValueError("intervals per lens dimension must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be positive")

    def resolve_d_lens(self, n: int, ambient_dim: int) -> int:
        if self.d_lens is not None:
            return self.d_lens
        return min(2, ambient_dim, n)


def pca_lens(cloud: PointCloud, d_lens: int) -> np.ndarray:
    """Projections of the mean-centered cloud onto its top principal components.

    Component signs are fixed (largest-magnitude loading positive) so the
    lens is deterministic. If the data rank is below ``d_lens`` the missing
    columns are zero-padded with a warning.
    """
    x = cloud.points
    n, m = x.shape
    if not (1 <= d_lens <= min(n, m)):
        raise ValueError("d_lens must satisfy 1 <= d_lens <= min(n, m)")
    centered = x - x.mean(axis=0, keepdims=True)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    tol = svals[0] * max(n, m) * np.finfo(float).eps if svals.size else 0.0
    rank = int(np.sum(svals > tol))
    lens = np.zeros((n, d_lens))
    for j in range(min(d_lens, rank)):
        comp = vt[j]
        if comp[np.argmax(np.abs(comp))] < 0:
            comp = -comp
        lens[:, j] = centered @ comp
    if rank < d_lens:
        warnings.warn(
            f"data rank {rank} is below the requested lens dimension {d_lens}; "
            "padding with zero columns",
            stacklevel=2,
        )
    return lens


def dbscan(points: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Density-based clustering; returns per-point labels with noise = -1.

    Core points have at least ``min_samples`` neighbors within ``eps``
    (inclusive, counting the point itself); clusters are connected
    components of core points plus reachable border points. Cluster ids are
    assigned by smallest core index, and a border point reachable from
    several clusters joins the lowest-id one.
    """
    points = np.asarray(points, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = len(points)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    tree = cKDTree(points)
    neighborhoods = tree.query_ball_point(points, r=eps)
    core = np.array([len(nbh) >= min_samples for nbh in neighborhoods])

    cluster = 0
    for seed_idx in range(n):
        if not core[seed_idx] or labels[seed_idx] != -1:
            continue
        labels[seed_idx] = cluster
        frontier = [seed_idx]
        while frontier:
            p = frontier.pop()
            for q in neighborhoods[p]:
                if core[q] and labels[q] == -1:
                    labels[q] = cluster
                    frontier.append(q)
        cluster += 1
    # Border points join the lowest-id cluster among reachable cores.
    for p in range(n):
        if core[p] or labels[p] != -1:
            continue
        reachable = [labels[q] for q in neighborhoods[p] if core[q]]
        if reachable:
            labels[p] = min(reachable)
    return labels


def third_neighbor_eps(points: np.ndarray, factor: float = 1.5) -> float:
    """DBSCAN radius rule: ``factor`` x median distance to the third-nearest
    other point."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    k = min(3, n - 1)
    if k < 1:
        raise ValueError("radius rule requires at least two points")
    tree = cKDTree(points)
    dists, _ = tree.query(points, k=k + 1)
    return factor * float(np.median(dists[:, -1]))


def mapper_graph(cloud: PointCloud, params: MapperParams = MapperParams()) -> Multigraph:
    """Mapper nerve of a point cloud, reduced.

    Empty cover cells are skipped and all-noise cells contribute no nodes;
    every clustered point appears in at least one node, noise points in
    none.
    """
    if cloud.n < 2:
        raise DegenerateInputError("mapper requires at least two points")
    d_lens = params.resolve_d_lens(cloud.n, cloud.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rank deficiency is fine for a lens
        lens = pca_lens(cloud, d_lens)
    # Copies cannot shrink the radius of the distinct points to 0. Coincident points,
    # or points closer than float distances resolve, cluster at any positive radius.
    distinct = np.unique(cloud.points, axis=0)
    eps = (len(distinct) > 1 and third_neighbor_eps(distinct, params.eps_factor)) or 1.0

    mins = lens.min(axis=0)
    maxs = lens.max(axis=0)
    widths = (maxs - mins) / params.n_intervals
    pad = params.overlap * widths

    members_by_cell: list[np.ndarray] = []
    for cell in itertools.product(range(params.n_intervals), repeat=d_lens):
        mask = np.ones(cloud.n, dtype=bool)
        for axis, idx in enumerate(cell):
            lo = mins[axis] + idx * widths[axis] - pad[axis]
            hi = mins[axis] + (idx + 1) * widths[axis] + pad[axis]
            mask &= (lens[:, axis] >= lo) & (lens[:, axis] <= hi)
        if mask.any():
            members_by_cell.append(np.flatnonzero(mask))

    node_members: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for members in members_by_cell:
        labels = dbscan(cloud.points[members], eps, params.min_samples)
        for cluster_id in range(labels.max() + 1 if labels.size else 0):
            member_set = tuple(members[labels == cluster_id].tolist())
            if member_set and member_set not in seen:
                seen.add(member_set)
                node_members.append(member_set)

    n_nodes = len(node_members)
    if n_nodes == 0:
        return Multigraph(0, ())
    centroids = np.array([cloud.points[list(m)].mean(axis=0) for m in node_members])
    # Nodes a < b share a data point where B B^T has an entry, B the node x point incidence.
    indptr = np.cumsum([0] + [len(m) for m in node_members])
    incidence = sp.csr_matrix((np.ones(indptr[-1]), np.concatenate(node_members), indptr), shape=(n_nodes, cloud.n))
    nerve = sp.triu(incidence @ incidence.T, k=1)
    return graphmod.reduce(straight_graph(nerve.row, nerve.col, centroids))
