"""Mapper baseline: PCA lens, cubical cover, per-cell DBSCAN, nerve graph.

The cover uses six equal-width intervals per lens dimension, each expanded
by the overlap fraction on both sides. Every cover cell is clustered by
DBSCAN, with the semantics of the public :func:`dbscan`, at one radius
derived from the cloud's distinct points (1.5 x the median third-neighbor
distance); one ε-pair query of the cloud and one component labelling serve
all cells at once. Cluster nodes sit at member centroids, nodes sharing a
data point are joined, duplicate nodes (identical member sets) are
removed, and the nerve is reduced.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from . import graph as graphmod
from .errors import DegenerateInputError
from .geometry import PointCloud, straight_graph
from .graph import Multigraph, _is_number


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
            if value is not None and not _is_number(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (_is_number(self.overlap, numbers.Real) and 0.0 <= self.overlap < 1.0):
            raise ValueError(f"overlap fraction must lie in [0, 1), not {self.overlap!r}")
        if not (_is_number(self.eps_factor, numbers.Real) and self.eps_factor > 0):
            raise ValueError(f"eps_factor must be a finite positive number, not {self.eps_factor!r}")

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
    (inclusive, counting the point itself; a pair is within ``eps`` when its
    squared distance is at most ``eps**2``, the kd-tree's rule); clusters are connected
    components of core points plus reachable border points. Cluster ids are
    assigned by smallest core index, and a border point reachable from
    several clusters joins the lowest-id one.
    """
    points = np.asarray(points, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    one_cell = np.zeros((len(points), 1), dtype=int)
    _, labels = _cell_dbscan(points, eps, min_samples, one_cell, one_cell + 1)
    labels[labels >= 0] = np.unique(labels[labels >= 0], return_inverse=True)[1]
    return labels


def _products(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row's cells, the products of its ranges ``first[r, a] +
    arange(count[r, a])`` over the axes a: each cell's row and indices, rows in
    order and a row's cells lexicographic."""
    rows, cells = np.arange(len(first)), np.zeros((len(first), 0), dtype=int)
    for axis in range(first.shape[1]):
        c = count[rows, axis]
        pick = np.repeat(np.arange(rows.size), c)
        rows = rows[pick]
        cells = np.c_[cells[pick], first[rows, axis] + np.arange(pick.size) - (np.cumsum(c) - c)[pick]]
    return rows, cells


def _cell_dbscan(points: np.ndarray, eps: float, min_samples: int, first: np.ndarray, stop: np.ndarray):
    """:func:`dbscan` in every cover cell at once, point p lying in intervals
    ``first[p, a]`` to ``stop[p, a] - 1`` of lens axis a. A pair counts in each
    cell holding both ends. Returns the point and label of each (cell, point)
    key: the rank, in (cell, point) order, of its cluster's first core key, or -1."""
    count = stop - first
    key_point, cells = _products(first, count)
    # Point p's keys run lexicographically from base[p]: (cell, p) is base[p] + (cell - first[p]) . stride[p].
    base = np.searchsorted(key_point, np.arange(len(first)))
    stride = np.c_[np.cumprod(count[:, :0:-1], axis=1)[:, ::-1], np.ones(len(first), dtype=int)]
    i, j = cKDTree(points).query_pairs(eps, output_type="ndarray").reshape(-1, 2).T
    lo = np.maximum(first[i], first[j])
    pair, shared = _products(lo, np.maximum(np.minimum(stop[i], stop[j]) - lo, 0))
    a, b = (base[p] + ((shared - first[p]) * stride[p]).sum(axis=1) for p in (i[pair], j[pair]))
    n_keys = key_point.size
    core = np.bincount(np.r_[a, b], minlength=n_keys) + 1 >= min_samples
    rank = np.empty(n_keys, dtype=int)
    rank[np.lexsort((key_point, *cells.T[::-1]))] = np.arange(n_keys)
    both = core[a] & core[b]
    n_comp, comp = connected_components(sp.coo_matrix((np.ones(both.sum()), (a[both], b[both])), (n_keys, n_keys)))
    lead = np.full(n_comp, n_keys)
    np.minimum.at(lead, comp[core], rank[core])
    labels = np.where(core, lead[comp], n_keys)
    for x, y in ((a, b), (b, a)):  # a border key joins the lowest-id cluster among its core neighbors
        reach = core[x] & ~core[y]
        np.minimum.at(labels, y[reach], labels[x[reach]])
    labels[labels == n_keys] = -1
    return key_point, labels


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

    # Point p lies in intervals first[p, a] to stop[p, a] - 1 of axis a, those
    # with lo <= lens[p, a] <= hi; both bounds rise with the interval.
    mins, maxs = lens.min(axis=0), lens.max(axis=0)
    widths = (maxs - mins) / params.n_intervals
    pad = params.overlap * widths
    idx = np.arange(params.n_intervals)[:, None]
    lo, hi = mins + idx * widths - pad, mins + (idx + 1) * widths + pad
    first = np.array([np.searchsorted(bound, x) for bound, x in zip(hi.T, lens.T)]).T
    stop = np.array([np.searchsorted(bound, x, side="right") for bound, x in zip(lo.T, lens.T)]).T
    key_point, labels = _cell_dbscan(cloud.points, eps, params.min_samples, first, stop)

    # Clusters in node order (by cell, then by smallest core member), each
    # member set kept at its first cluster.
    order = np.lexsort((key_point, labels))[np.count_nonzero(labels < 0) :]
    clusters = np.split(key_point[order], np.flatnonzero(np.diff(labels[order])) + 1)
    node_members = [m for m in dict.fromkeys(tuple(c.tolist()) for c in clusters) if m]

    n_nodes = len(node_members)
    if n_nodes == 0:
        return Multigraph(0, ())
    centroids = np.array([cloud.points[list(m)].mean(axis=0) for m in node_members])
    # Nodes a < b share a data point where B B^T has an entry, B the node x point incidence.
    indptr = np.cumsum([0] + [len(m) for m in node_members])
    incidence = sp.csr_matrix((np.ones(indptr[-1]), np.concatenate(node_members), indptr), shape=(n_nodes, cloud.n))
    nerve = sp.triu(incidence @ incidence.T, k=1)
    return graphmod.reduce(straight_graph(nerve.row, nerve.col, centroids))
