"""Point-cloud geometry: kNN graphs, adaptive Gaussian affinities, the
Markov transition matrix, the Fiedler filter, and diffusion condensation.

The affinity between graph-adjacent points is

    w_ij = exp(-||x_i - x_j||^2 / (sigma_i * sigma_j))

with ``sigma_i`` the distance from ``x_i`` to its ``k_bw``-th nearest
neighbor, so the kernel bandwidth adapts to local density. Row-normalizing
the affinity matrix gives the transition matrix ``P = D^-1 W``; the
Fiedler filter used for Reeb-graph construction is P's second eigenvector
(by eigenvalue magnitude) on each connected component, computed through
the symmetric conjugate ``D^-1/2 W D^-1/2``. Iterating ``X <- P^t X`` with
a fresh matrix each round is diffusion condensation.

Neighbor graphs are built from the ``(n, k + 1)`` cKDTree query with array
operations on flat ``(u, v, distance)`` entries; each vertex's list is a
read-only view into one shared array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cs_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.spatial import cKDTree

from .errors import DegenerateInputError, InvalidDataError, IsolatedPointError, SolverError

# Above this size the Fiedler solve switches from a dense eigendecomposition
# to ARPACK with a fixed start vector.
_DENSE_EIG_LIMIT = 384


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable n x m sample matrix (rows are points)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InvalidDataError("points must be a 2-D array")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidDataError("point cloud must have n >= 1 and m >= 1")
        if not np.all(np.isfinite(pts)):
            raise InvalidDataError("point cloud contains non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Per-vertex neighbor lists with Euclidean distances.

    When ``symmetrized`` the lists hold the union of directed kNN edges, so
    adjacency is a symmetric relation.
    """

    n: int
    neighbor_ids: tuple[np.ndarray, ...]
    neighbor_dists: tuple[np.ndarray, ...]
    symmetrized: bool

    def undirected_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges as ((E, 2) index array, (E,) distances),
        sorted by (u, v). A pair listed by both endpoints keeps the distance
        from the smaller endpoint's list."""
        u, v, d = _entries(self.neighbor_ids, self.neighbor_dists)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        _, first = np.unique(lo * self.n + hi, return_index=True)
        return np.column_stack([lo[first], hi[first]]), d[first]


def _entries(ids, dists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (list index, neighbor id, distance) arrays of neighbor lists."""
    rows = np.repeat(np.arange(len(ids)), [len(a) for a in ids])
    # The leading empty arrays fix the dtypes and allow an empty list of lists.
    ids = np.concatenate([np.zeros(0, dtype=int), *ids])
    return rows, ids, np.concatenate([np.zeros(0), *dists])


def _neighbor_graph(n: int, u, v, d, symmetrized: bool) -> NeighborGraph:
    """NeighborGraph from flat entries grouped by ascending ``u``."""
    v, d = v.astype(int), d.astype(float)
    v.setflags(write=False)
    d.setflags(write=False)
    # The last cut is len(v); [:n] drops the empty piece np.split leaves after it.
    cuts = np.cumsum(np.bincount(u, minlength=n))
    ids, dists = tuple(np.split(v, cuts)[:n]), tuple(np.split(d, cuts)[:n])
    return NeighborGraph(n, ids, dists, bool(symmetrized))


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Symmetric sparse affinity matrix with unit diagonal and the per-point
    bandwidths used to build it."""

    matrix: sp.csr_matrix
    bandwidths: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _symmetric_spectrum(m: sp.csr_matrix, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Top ``rank + 1`` eigenpairs of a symmetric sparse matrix by magnitude."""
    n = m.shape[0]
    k = rank + 1
    if n <= _DENSE_EIG_LIMIT or k >= n - 1:
        vals, vecs = scipy.linalg.eigh(m.toarray())
        order = np.argsort(-np.abs(vals), kind="stable")[:k]
        return vals[order], vecs[:, order]
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        vals, vecs = eigsh(m, k=k, which="LM", v0=v0, maxiter=max(2000, 40 * n))
    except ArpackNoConvergence as exc:
        if n <= 4096:
            vals, vecs = scipy.linalg.eigh(m.toarray())
            order = np.argsort(-np.abs(vals), kind="stable")[:k]
            return vals[order], vecs[:, order]
        raise SolverError(
            f"eigensolver failed to converge: {exc} "
            f"(converged {len(exc.eigenvalues)} of {k} pairs)"
        ) from exc
    order = np.argsort(-np.abs(vals), kind="stable")
    return vals[order], vecs[:, order]


def knn_graph(cloud: PointCloud, k: int, symmetrize: bool = True) -> NeighborGraph:
    """Exact k-nearest-neighbor graph under Euclidean distance.

    ``k`` is clamped to ``n - 1``. With ``symmetrize`` the union of directed
    edges is returned, so every vertex list contains both its own neighbors
    and the vertices that selected it.
    """
    n = cloud.n
    if n < 2:
        raise DegenerateInputError("kNN graph requires at least two points")
    if k < 1:
        raise ValueError("k must be positive")
    k = min(k, n - 1)
    tree = cKDTree(cloud.points)
    dists, ids = tree.query(cloud.points, k=k + 1)
    # Drop each row's first self hit. Duplicates can push the query point out
    # of its own row; the row's last (farthest) hit is dropped instead.
    is_self = ids == np.arange(n)[:, None]
    drop = np.where(is_self.any(axis=1), is_self.argmax(axis=1), k)
    keep = np.arange(k + 1) != drop[:, None]
    u, v, d = np.repeat(np.arange(n), k), ids[keep], dists[keep]
    if symmetrize:
        # Union with the reversed edges; a pair in both directions keeps the
        # distance from its own row. Each list is ordered by (distance, id).
        u, v, d = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([d, d])
        _, first = np.unique(u * n + v, return_index=True)
        u, v, d = u[first], v[first], d[first]
        order = np.lexsort((v, d, u))
        u, v, d = u[order], v[order], d[order]
    return _neighbor_graph(n, u, v, d, symmetrize)


def _smallest_positive_distance(points: np.ndarray) -> float:
    """Smallest positive pairwise distance, or 0.0 if all points coincide."""
    n = points.shape[0]
    tree = cKDTree(points)
    best = np.inf
    k = min(n, 8)
    while True:
        dists, _ = tree.query(points, k=k)
        positive = dists[:, 1:][dists[:, 1:] > 0]
        if positive.size:
            best = min(best, float(positive.min()))
        if np.all(dists[:, -1] > 0) or k == n:
            break
        k = min(n, k * 2)
    return 0.0 if not np.isfinite(best) else best


def adaptive_affinity(cloud: PointCloud, nbrs: NeighborGraph, k_bw: int) -> AffinityMatrix:
    """Adaptive Gaussian affinities on the kNN support.

    ``sigma_i`` is the distance from point i to its ``k_bw``-th nearest
    neighbor; zero bandwidths (duplicate points) are clamped to the smallest
    positive pairwise distance. The matrix carries an explicit unit diagonal
    and is exactly symmetric.
    """
    n = cloud.n
    if nbrs.n != n:
        raise InvalidDataError("neighbor graph does not match the point cloud")
    if not (1 <= k_bw <= n - 1):
        raise ValueError("k_bw must satisfy 1 <= k_bw <= n - 1")
    tree = cKDTree(cloud.points)
    dists, _ = tree.query(cloud.points, k=k_bw + 1)
    sigmas = dists[:, -1].astype(float)
    if np.any(sigmas <= 0):
        clamp = _smallest_positive_distance(cloud.points)
        if clamp <= 0:
            if np.all(cloud.points == cloud.points[0]):
                raise InvalidDataError("all points are identical; affinities are undefined")
            raise InvalidDataError(
                "distances between distinct points are below floating-point resolution; affinities are undefined"
            )
        sigmas = np.where(sigmas > 0, sigmas, clamp)

    edges, edge_d = nbrs.undirected_edges()
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.ones(n)]
    if len(edges):
        u, v = edges[:, 0], edges[:, 1]
        w = np.exp(-(edge_d**2) / (sigmas[u] * sigmas[v]))
        rows.extend([u, v])
        cols.extend([v, u])
        vals.extend([w, w])
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    # Duplicate (i, i) entries cannot arise: the diagonal is added once and
    # undirected_edges never reports u == v.
    sigmas.setflags(write=False)
    return AffinityMatrix(matrix, sigmas)


def transition_matrix(affinity: AffinityMatrix) -> sp.csr_matrix:
    """Row-normalize an affinity matrix into the Markov transition matrix
    ``P = D^-1 W``."""
    w = affinity.matrix
    degrees = np.asarray(w.sum(axis=1)).ravel()
    if np.any(degrees <= 0):
        raise IsolatedPointError("affinity matrix has a zero-degree row")
    return (sp.diags(1.0 / degrees) @ w).tocsr()


def affinity_components(affinity: AffinityMatrix) -> list[np.ndarray]:
    """Connected components of the affinity graph, ordered by smallest id."""
    n_comp, labels = _cs_components(affinity.matrix, directed=False)
    out = [np.flatnonzero(labels == c) for c in range(n_comp)]
    out.sort(key=lambda idx: idx[0])
    return out


def fiedler_filter(affinity: AffinityMatrix, component: np.ndarray) -> np.ndarray:
    """Fiedler filter values on a connected component.

    Returns the right eigenvector of the component's transition matrix with
    second-largest eigenvalue magnitude, sign-fixed so the entry of largest
    absolute value is positive. A single-vertex component gets the constant
    filter 0.
    """
    component = np.asarray(component, dtype=int)
    if component.size == 1:
        return np.zeros(1)
    sub_w = affinity.matrix[component][:, component].tocsr()
    n_comp, _ = _cs_components(sub_w, directed=False)
    if n_comp != 1:
        raise InvalidDataError(
            "fiedler_filter requires a connected component "
            f"(got {n_comp} pieces); split components upstream"
        )
    degrees = np.asarray(sub_w.sum(axis=1)).ravel()
    inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    m = (inv_sqrt @ sub_w @ inv_sqrt).tocsr()
    _, vecs = _symmetric_spectrum(m, 1)
    phi = vecs[:, 1] / np.sqrt(degrees)
    imax = int(np.argmax(np.abs(phi)))
    if phi[imax] < 0:
        phi = -phi
    return phi


def condense(cloud: PointCloud, k_smooth: int, t: int, k_bw: Optional[int] = None) -> PointCloud:
    """One diffusion-condensation round: ``X <- P^t X`` with a fresh adaptive
    kNN transition matrix built on the input. ``t = 0`` returns the cloud
    unchanged.

    ``k_bw`` sets the bandwidth neighbor rank for the adaptive kernel and
    defaults to ``k_smooth`` (kernel reach matches the smoothing support);
    callers whose local scale is narrower than the smoothing support may
    pass it explicitly.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return cloud
    k_smooth = min(k_smooth, cloud.n - 1)
    k_bw = k_smooth if k_bw is None else min(k_bw, cloud.n - 1)
    nbrs = knn_graph(cloud, k_smooth, symmetrize=True)
    affinity = adaptive_affinity(cloud, nbrs, k_bw)
    p = transition_matrix(affinity)
    x = cloud.points
    for _ in range(t):
        x = p @ x
    return PointCloud(x)


# -- point-cloud file format ------------------------------------------------
#
# CSV, one row per point, plain decimal float text, no header. Loaders
# reject ragged rows.


def save_points_csv(cloud: PointCloud, path) -> None:
    with open(path, "w") as fh:
        for row in cloud.points:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def load_points_csv(path) -> PointCloud:
    rows: list[list[float]] = []
    width = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise InvalidDataError(
                    f"ragged CSV row at line {line_no}: expected {width} fields, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise InvalidDataError(f"non-numeric value at line {line_no}") from exc
    if not rows:
        raise InvalidDataError("empty point-cloud file")
    return PointCloud(np.array(rows))


def induced_neighbor_subgraph(nbrs: NeighborGraph, vertices: np.ndarray) -> NeighborGraph:
    """Restrict a neighbor graph to ``vertices`` (reindexed 0..len-1)."""
    vertices = np.asarray(vertices, dtype=int)
    relabel = np.full(nbrs.n, -1)
    relabel[vertices] = np.arange(len(vertices))
    rows = vertices.tolist()
    u, v, d = _entries([nbrs.neighbor_ids[i] for i in rows], [nbrs.neighbor_dists[i] for i in rows])
    v = relabel[v]
    keep = v >= 0
    return _neighbor_graph(len(vertices), u[keep], v[keep], d[keep], nbrs.symmetrized)
