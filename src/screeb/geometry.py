"""Point-cloud geometry: kNN graphs, adaptive Gaussian affinities, the
Markov transition matrix, the Fiedler filter, and diffusion condensation.

The affinity between graph-adjacent points is

    w_ij = exp(-||x_i - x_j||^2 / (sigma_i * sigma_j))

with ``sigma_i`` the distance from ``x_i`` to its ``k_bw``-th nearest
neighbor, so the kernel bandwidth adapts to local density. Row-normalizing
the affinity matrix gives the transition matrix ``P = D^-1 W``; the
Fiedler filter used for Reeb-graph construction is P's second eigenvector
(by eigenvalue magnitude) on each connected component, computed through
the symmetric conjugate ``M = D^-1/2 W D^-1/2`` by one shift-invert
``eigsh`` near 1. Its pairs, the largest by value, are the largest by
magnitude once the smallest exceeds ``c = 1 - 2/d_max``: ``W + cD`` is
diagonally dominant (``W`` is non-negative with unit diagonal), so M has no
eigenvalue below ``-c``. Otherwise a dense ``eigh`` decides, at once if the
bound ``sqrt(||M||_F^2 - 1)`` on the other eigenvalues is below ``c``. M is
normalised once per matrix; a component given as a range of rows slices it.
Iterating ``X <- P^t X`` with a fresh matrix each round is diffusion condensation.

The shift-invert factor is one SuperLU LU in symmetric mode; see ``_symmetric_spectrum``.

A neighbor graph stores the own lists of its ``(n, k + 1)`` cKDTree query
(see ``NeighborGraph``); its undirected edges and the bandwidths are derived
from them with array operations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cs_components
from scipy.sparse.linalg import LinearOperator, eigsh, splu
from scipy.spatial import cKDTree

from .errors import DegenerateInputError, InvalidDataError, IsolatedPointError, SolverError
from .graph import Multigraph

_DENSE_FALLBACK_LIMIT = 4096  # rows; above it a failed or uncertified Fiedler solve raises SolverError
_ROUNDING_MARGIN = 1e-6  # between the Frobenius bound and c before a certificate is known to fail


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable n x m sample matrix (rows are points). Coordinates are finite,
    and so is the squared diagonal of their bounding box, which bounds every
    squared distance."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InvalidDataError("points must be a 2-D array")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidDataError("point cloud must have n >= 1 and m >= 1")
        if not np.all(np.isfinite(pts)):
            raise InvalidDataError("point cloud contains non-finite coordinates")
        with np.errstate(over="ignore"):  # column order: the per-axis reductions then read contiguous memory
            spread = np.sum(np.square(np.ptp(np.asfortranarray(pts), axis=0)))
        if not np.isfinite(spread):
            raise InvalidDataError("point cloud spreads too far: its squared distances overflow float64")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, d) arrays. Each row is one BLAS
    ``ddot``, the call a 1-D ``x @ y`` or ``np.linalg.norm`` makes, so the
    values match those bit for bit; ``einsum`` or hand-expanded sums do not
    where BLAS fuses multiply-adds."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def straight_graph(u, v, positions: np.ndarray, multiplicity=None) -> Multigraph:
    """The multigraph on ``positions`` whose entries ``(u[i], v[i])`` are
    straight segments, each as long as its ends are apart (by ``row_dots``)."""
    gaps = positions[u] - positions[v]
    return Multigraph.from_arrays(len(positions), u, v, np.sqrt(row_dots(gaps, gaps)), multiplicity, positions)


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    new = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=new[1:])
    return new


def _sorted_unique(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(key, return_index=True)`` for keys below ``n * n`` (pairs
    of ids below ``n`` packed as ``a * n + b``), by one ``np.sort`` of
    ``key * len(key) + position``: equal keys sort by position, so each run
    of a key starts at its first position.

    Every packed value is below ``n**2 * len(key)``, and an ``InvalidDataError``
    naming n is raised when that exceeds 2**63. Its one caller,
    ``NeighborGraph.undirected_edges``, packs (lo, hi) with positions over the
    m own entries, below n^2 m; m = nk in a kNN graph (n about 4.8e5 at k = 80).
    ``reeb_graph`` packs its own codes below the same n^2 m and relies on
    this refusal for them.
    """
    m = len(key)
    if int(n) ** 2 * m > 1 << 63:
        raise InvalidDataError(f"n = {n} is too large: {m} sort keys below n^2 overflow int64 with their positions")
    # In place where possible: on condense's k = 80 graphs copies set peak memory.
    packed = np.asarray(key, dtype=np.int64) * m
    packed += np.arange(m)
    packed.sort()
    pos = packed % m
    packed //= m
    new = _run_starts(packed)
    return packed[new], pos[new]


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Own neighbor lists as a kNN query returns them, in CSR form: vertex
    ``i``'s are ``own_indices[own_indptr[i]:own_indptr[i + 1]]`` by distance,
    at the same slice of ``own_distances``. The graph's edges are the
    undirected pairs these lists name (see ``undirected_edges``)."""

    n: int
    own_indptr: np.ndarray
    own_indices: np.ndarray
    own_distances: np.ndarray

    # perfbench/tracer.py reads it to count each edge of neighbor_ids once.
    symmetrized = True

    @cached_property
    def neighbor_ids(self) -> tuple[np.ndarray, ...]:
        """Each vertex's neighbors, both ends of every undirected edge, in
        ascending order, as read-only views. Only perfbench/tracer.py reads it."""
        n, (u, v) = self.n, self.undirected_edges()[0].T
        rows, ids = np.divmod(np.sort(np.concatenate([u * n + v, v * n + u])), n)
        ids.setflags(write=False)
        # n cuts leave an empty last piece, which [:n] drops.
        return tuple(np.split(ids, np.cumsum(np.bincount(rows, minlength=n)))[:n])

    def undirected_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges as ((E, 2) index array, (E,) distances),
        sorted by (u, v), from the own lists. A pair listed by both endpoints
        keeps the distance from the smaller endpoint's list, the first listed."""
        n, v = self.n, self.own_indices
        u = np.repeat(np.arange(n), np.diff(self.own_indptr))
        keys, first = _sorted_unique(np.minimum(u, v) * n + np.maximum(u, v), n)
        return np.column_stack(np.divmod(keys, n)), self.own_distances[first]


def _check_ids(lo: int, hi: int, n: int) -> None:
    """Refuse vertex ids, given by the smallest and the largest, outside ``0..n-1``
    (numpy would wrap a negative one)."""
    if lo < 0 or hi >= n:
        raise InvalidDataError(f"vertex id {lo if lo < 0 else hi} is outside 0..{n - 1} of a {n}-vertex graph")


def _csr(n: int, u, v, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only CSR arrays (indptr, v, d) of flat entries grouped by ascending ``u``."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(u, minlength=n))])
    for a in (indptr, v, d):
        a.setflags(write=False)
    return indptr, v, d


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Symmetric sparse affinity matrix with unit diagonal and the per-point
    bandwidths used to build it."""

    matrix: sp.csr_matrix
    bandwidths: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def operator(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """``(M = D^-1/2 W D^-1/2, degrees)``. On a component's rows, M is its own normalised block."""
        degrees = np.asarray(self.matrix.sum(axis=1)).ravel()
        inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
        return (inv_sqrt @ self.matrix @ inv_sqrt).tocsr(), degrees


def _symmetric_spectrum(m: sp.csr_matrix, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Top ``rank + 1`` eigenpairs by magnitude of ``M = D^-1/2 W D^-1/2``
    (``W`` symmetric, non-negative, unit diagonal): one shift-invert ``eigsh``
    at sigma = 1 + 1e-6, accepted if its smallest eigenvalue exceeds
    ``c = 1 - 2 min diag(M) = 1 - 2/d_max`` (``W + cD`` is diagonally dominant,
    so ``M >= -c``), else a dense ``eigh`` up to ``_DENSE_FALLBACK_LIMIT`` rows.
    A singular factor or an ARPACK failure takes the same fallback, and raises
    ``SolverError`` above it.

    The squared eigenvalues sum to ``||M||_F^2`` and the top one is 1, so no
    other exceeds ``sqrt(||M||_F^2 - 1)``. When that is below ``c`` by more than
    rounding, the certificate must fail: the dense ``eigh`` runs without ``eigsh``.

    ``eigsh`` gets ``M - sigma I`` factored once by SuperLU in symmetric mode
    (ordering ``MMD_AT_PLUS_A``, no pivoting) as ``OPinv``. ``sigma I - M`` is
    positive definite, so no pivot is needed and none breaks the symmetric
    ordering; the fill is about half that of scipy's default COLAMD with partial
    pivoting (3.5M against 7.1M L + U entries on a noisy circle at n = 32 000).
    Against that default the pairs move at rounding level only; ``reeb_graph``
    reads only the filter's order and ties."""
    n, k = m.shape[0], rank + 1
    c = 1.0 - 2.0 * m.diagonal().min()
    uncertifiable = n <= _DENSE_FALLBACK_LIMIT and np.sqrt(max(m.data @ m.data - 1.0, 0.0)) < c - _ROUNDING_MARGIN
    if k < n - 1 and not uncertifiable:
        sigma = 1.0 + 1e-6
        try:
            lu = splu((m - sigma * sp.eye(n)).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
            shift_invert = LinearOperator((n, n), matvec=lu.solve, dtype=float)
            vals, vecs = eigsh(m, k=k, sigma=sigma, which="LM", v0=np.full(n, 1.0 / np.sqrt(n)), OPinv=shift_invert)
        except RuntimeError as exc:  # ArpackNoConvergence, or SuperLU's "exactly singular"
            failure = str(exc)
        else:
            if vals.min() > c:
                order = np.argsort(-np.abs(vals), kind="stable")
                return vals[order], vecs[:, order]
            failure = f"eigenvalue {vals.min():.6g} is under the magnitude bound"
        if n > _DENSE_FALLBACK_LIMIT:
            raise SolverError(f"{n}-row Fiedler solve: {failure}; no dense fallback above {_DENSE_FALLBACK_LIMIT}")
    vals, vecs = scipy.linalg.eigh(m.toarray())
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    return vals[order], vecs[:, order]


def knn_graph(cloud: PointCloud, k: int) -> NeighborGraph:
    """Exact k-nearest-neighbor graph under Euclidean distance.

    ``k`` is clamped to ``n - 1``. Each vertex's own list holds its k nearest
    other points; the graph's edges are the union of these directed choices.
    """
    n = cloud.n
    if n < 2:
        raise DegenerateInputError("kNN graph requires at least two points")
    if k < 1:
        raise ValueError("k must be positive")
    k = min(k, n - 1)
    dists, ids = cKDTree(cloud.points).query(cloud.points, k=k + 1)
    # Drop each row's first self hit. Duplicates can push the query point out
    # of its own row; the row's last (farthest) hit is dropped instead.
    is_self = ids == np.arange(n)[:, None]
    drop = np.where(is_self.any(axis=1), is_self.argmax(axis=1), k)
    keep = np.arange(k + 1) != drop[:, None]
    return NeighborGraph(n, *_csr(n, np.repeat(np.arange(n), k), ids[keep], dists[keep]))


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

    ``sigma_i`` is the ``k_bw``-th distance in point i's own list, which in a
    kNN graph is the distance to its ``k_bw``-th nearest neighbor; zero
    bandwidths (duplicate points) are clamped to the smallest positive
    pairwise distance. The matrix carries an explicit unit diagonal and is
    exactly symmetric.
    """
    n = cloud.n
    if nbrs.n != n:
        raise InvalidDataError("neighbor graph does not match the point cloud")
    ptr, shortest = nbrs.own_indptr, np.diff(nbrs.own_indptr).min()
    if not (1 <= k_bw <= shortest):
        raise ValueError(f"k_bw must satisfy 1 <= k_bw <= {shortest}, the length of the shortest own list")
    sigmas = nbrs.own_distances[ptr[:-1] + k_bw - 1]
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
    u, v, diag = edges[:, 0], edges[:, 1], np.arange(n)
    w = np.exp(-(edge_d**2) / (sigmas[u] * sigmas[v]))
    matrix = sp.csr_matrix(
        (np.concatenate([np.ones(n), w, w]), (np.concatenate([diag, u, v]), np.concatenate([diag, v, u]))),
        shape=(n, n),
    )
    # Duplicate (i, i) entries cannot arise: the diagonal is added once and
    # undirected_edges never reports u == v.
    sigmas.setflags(write=False)
    return AffinityMatrix(matrix, sigmas)


def transition_matrix(affinity: AffinityMatrix) -> sp.csr_matrix:
    """Row-normalize an affinity matrix into the transition matrix ``P = D^-1 W``."""
    w = affinity.matrix
    degrees = np.asarray(w.sum(axis=1)).ravel()
    if np.any(degrees <= 0):
        raise IsolatedPointError("affinity matrix has a zero-degree row")
    return (sp.diags(1.0 / degrees) @ w).tocsr()


def affinity_components(affinity: AffinityMatrix) -> list[np.ndarray]:
    """Connected components of the affinity graph, ordered by smallest id."""
    _, labels = _cs_components(affinity.matrix, directed=False)
    out = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    out.sort(key=lambda idx: idx[0])
    return out


def fiedler_filter(affinity: AffinityMatrix, component: np.ndarray) -> np.ndarray:
    """Fiedler filter values on a connected component.

    Returns the right eigenvector of the transition matrix restricted to the
    component (a component of ``affinity_components`` has no other entries) with
    second-largest eigenvalue magnitude, sign-fixed so the entry of largest
    absolute value is positive. A single-vertex component gets the constant
    filter 0. A range of ids is sliced from ``affinity.operator``. An id
    outside the affinity's rows raises ``InvalidDataError``.
    """
    component = np.asarray(component, dtype=int)
    a = component[0] if component.size else 0
    ranged = np.array_equal(component, np.arange(a, a + component.size))
    # A range (the empty one too) is checked by its ends.
    lo, hi = (a, a + component.size - 1) if ranged else (component.min(), component.max())
    _check_ids(lo, hi, affinity.n)
    if component.size == 1:
        return np.zeros(1)
    m, degrees = affinity.operator
    if ranged:
        rows = slice(a, a + component.size)
        sub_w, sub_m = affinity.matrix[rows, rows], m[rows, rows]
    else:
        rows = component
        sub_w, sub_m = affinity.matrix[rows][:, rows], m[rows][:, rows]
    n_comp, _ = _cs_components(sub_w, directed=False)
    if n_comp != 1:
        raise InvalidDataError(
            "fiedler_filter requires a connected component "
            f"(got {n_comp} pieces); split components upstream"
        )
    _, vecs = _symmetric_spectrum(sub_m, 1)
    phi = vecs[:, 1] / np.sqrt(degrees[rows])
    return -phi if phi[np.argmax(np.abs(phi))] < 0 else phi


def condense(cloud: PointCloud, k_smooth: int, t: int, k_bw: Optional[int] = None) -> PointCloud:
    """One diffusion-condensation round: ``X <- P^t X`` with a fresh adaptive
    kNN transition matrix built on the input. ``t = 0`` returns the cloud
    unchanged.

    ``k_bw`` sets the bandwidth neighbor rank for the adaptive kernel and
    defaults to ``k_smooth`` (kernel reach matches the smoothing support);
    callers whose local scale is narrower than the smoothing support may
    pass a smaller one. It is read from the ``k_smooth`` lists, so a larger
    one raises ``ValueError``.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return cloud
    k_smooth = min(k_smooth, cloud.n - 1)
    k_bw = k_smooth if k_bw is None else min(k_bw, cloud.n - 1)
    nbrs = knn_graph(cloud, k_smooth)
    affinity = adaptive_affinity(cloud, nbrs, k_bw)
    p = transition_matrix(affinity)
    x = cloud.points
    for _ in range(t):
        x = p @ x
    return PointCloud(x)


# -- point-cloud file format ------------------------------------------------
#
# CSV, one row per point, plain decimal float text, no header. The loader
# skips empty lines and rejects ragged rows.


def save_points_csv(cloud: PointCloud, path) -> None:
    with open(path, "w") as fh:
        for row in cloud.points.tolist():
            fh.write(",".join(map(repr, row)))
            fh.write("\n")


def load_points_csv(path) -> PointCloud:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:  # a ragged row or a field that is no number
            raise InvalidDataError(f"{path}: {exc}") from exc
    if not rows.size:
        raise InvalidDataError(f"{path}: empty point-cloud file")
    return PointCloud(rows)


def induced_neighbor_subgraph(nbrs: NeighborGraph, vertices: np.ndarray) -> NeighborGraph:
    """Restrict a neighbor graph to ``vertices``, reindexed 0..len-1: row r
    keeps the entries of ``vertices[r]``'s own list inside ``vertices``, in order.
    An id outside ``0..nbrs.n-1`` raises ``InvalidDataError``."""
    vertices = np.asarray(vertices, dtype=int)
    if vertices.size:
        _check_ids(vertices.min(), vertices.max(), nbrs.n)
    ptr, relabel = nbrs.own_indptr, np.full(nbrs.n, -1)
    relabel[vertices] = np.arange(len(vertices))
    # Gather the rows of ``vertices`` in order: row r's entries start at ptr[vertices[r]].
    counts = np.diff(ptr)[vertices]
    at = np.repeat(ptr[vertices] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    u, v = np.repeat(np.arange(len(vertices)), counts), relabel[nbrs.own_indices[at]]
    keep = v >= 0
    return NeighborGraph(len(vertices), *_csr(len(vertices), u[keep], v[keep], nbrs.own_distances[at][keep]))
