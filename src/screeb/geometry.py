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
eigenvalue below ``-c``. Otherwise a dense ``eigh`` decides. Pieces of up to
200 rows take their top pairs from one dense solve instead of ``eigsh``. Each
component's M is normalised from its own block of W, with the degrees of W's full rows.
Iterating ``X <- P^t X`` with a fresh matrix each round is diffusion condensation.

The shift-invert factor is one SuperLU LU in symmetric mode; see ``_symmetric_spectrum``.

A neighbor graph stores the own lists of its ``(n, k + 1)`` cKDTree query
(see ``NeighborGraph``); its undirected edges and the bandwidths are derived
from them with array operations.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cs_components
from scipy.sparse.linalg import LinearOperator, eigsh, splu
from scipy.spatial import cKDTree

from .errors import DegenerateInputError, InvalidDataError, IsolatedPointError, SolverError
from .graph import Multigraph, _is_number

_DENSE_FALLBACK_LIMIT = 4096  # rows; above it a failed or uncertified Fiedler solve raises SolverError
_DENSE_PAIR_LIMIT = 200  # rows; up to it one dense top-pair solve replaces shift-invert (see _symmetric_spectrum)
_DEGENERATE_GAP = 1e-12  # 1 - lambda_2 below it: the Fiedler vector is not unique, and the solver picks one


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
    """Row-wise dot products of two (..., m, d) arrays. Each row is one BLAS
    ``ddot``, the call a 1-D ``x @ y`` or ``np.linalg.norm`` makes, so the
    values match those bit for bit; ``einsum`` or hand-expanded sums do not
    where BLAS fuses multiply-adds."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


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
        key = np.repeat(np.arange(n), np.diff(self.own_indptr))  # u, then min(u, v) * n + max(u, v) in place,
        keys, first = _sorted_unique(np.add(np.minimum(key, v) * n, np.maximum(key, v, out=key), out=key), n)
        del key  # before the edge arrays: on condense's k = 80 graphs each n * k array raises the peak memory
        return np.column_stack(np.divmod(keys, n)), self.own_distances[first]


def _vertex_ids(ids, n: int) -> np.ndarray:
    """``ids`` as an int array of vertex ids in ``0..n-1``. A nonempty array of
    another dtype is refused (a cast would truncate 0.5 to 0), and so is an
    id outside (numpy would wrap a negative one)."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise InvalidDataError(f"vertex ids must be integers, not {ids.dtype}")
    lo, hi = (ids.min(), ids.max()) if ids.size else (0, -1)
    if lo < 0 or hi >= n:
        raise InvalidDataError(f"vertex id {lo if lo < 0 else hi} is outside 0..{n - 1} of a {n}-vertex graph")
    return ids.astype(int, copy=False)


def _counts(**counts) -> None:
    """Refuse each named count that is no integer (a bool is none), as ``_vertex_ids`` refuses ids."""
    for name, value in counts.items():
        if not _is_number(value, numbers.Integral):
            raise InvalidDataError(f"{name} must be an integer, not {value!r}")


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _gather_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows ``rows`` of a square CSR structure in order, each column relabelled to its place in
    ``rows`` (-1 if none): (indptr, indices, where in the source each gathered entry lies)."""
    counts = np.diff(indptr)[rows]
    ptr = np.concatenate(([0], np.cumsum(counts)))
    at = np.repeat(indptr[rows] - ptr[:-1], counts) + np.arange(ptr[-1])
    relabel = np.full(len(indptr) - 1, -1, dtype=indices.dtype)
    relabel[rows] = np.arange(len(rows))
    return ptr, relabel[indices[at]], at


def _dense_eigh(m: sp.csr_matrix, **subset) -> tuple[np.ndarray, np.ndarray]:
    try:
        return scipy.linalg.eigh(m.toarray(), **subset)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{m.shape[0]}-row dense Fiedler solve: {exc}") from exc


def _symmetric_spectrum(m: sp.csr_matrix, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Top ``rank + 1`` eigenpairs by magnitude of ``M = D^-1/2 W D^-1/2``
    (``W`` symmetric, non-negative, unit diagonal): one shift-invert ``eigsh``
    at sigma = 1 + 1e-6, accepted if its smallest eigenvalue exceeds
    ``c = 1 - 2 min diag(M) = 1 - 2/d_max`` (``W + cD`` is diagonally dominant,
    so ``M >= -c``), else a dense ``eigh`` up to ``_DENSE_FALLBACK_LIMIT`` rows.
    A singular factor or an ARPACK failure takes the same fallback, and raises
    ``SolverError`` above it, as a failed LAPACK solve does at any size.

    Up to ``_DENSE_PAIR_LIMIT`` rows one dense solve of the top ``rank + 1`` pairs alone
    (LAPACK's MRRR driver) replaces shift-invert: a whole ``fiedler_filter`` on the pieces
    of a 6405-point clustered cloud took 0.36 / 1.13 / 1.53 / 2.34 ms at n = 71 / 168 /
    206 / 254, against 0.93 / 1.49 / 1.52 / 1.77 ms. Its pairs must pass the certificate
    and keep ``1 - lambda_2`` at least ``_DEGENERATE_GAP``; below it the top eigenspace is
    two-dimensional to rounding (blobs joined only by underflowed weights; von Luxburg,
    2007), the solver picks the Fiedler vector, and the piece keeps shift-invert and its bytes.

    ``eigsh`` gets ``M - sigma I`` factored once by SuperLU in symmetric mode
    (ordering ``MMD_AT_PLUS_A``, no pivoting) as ``OPinv``. ``sigma I - M`` is
    positive definite, so no pivot is needed and none breaks the symmetric
    ordering; the fill is about half that of scipy's default COLAMD with partial
    pivoting (3.5M against 7.1M L + U entries on a noisy circle at n = 32 000).
    Against that default the pairs move at rounding level only; ``reeb_graph``
    reads only the filter's order and ties."""
    n, k, diagonal = m.shape[0], rank + 1, m.diagonal()
    c, failure = 1.0 - 2.0 * diagonal.min(), None
    if k < n - 1:
        if n <= _DENSE_PAIR_LIMIT:
            vals, vecs = _dense_eigh(m, subset_by_index=[n - k, n - 1])
        if n > _DENSE_PAIR_LIMIT or (vals.min() > c and 1.0 - vals[-2] < _DEGENERATE_GAP):
            sigma = 1.0 + 1e-6
            try:
                shifted = m.tocsc(copy=True)  # (m - sigma I).tocsc() for an m with its diagonal and no stored zeros
                shifted.setdiag(diagonal - sigma)
                lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
                shift_invert = LinearOperator((n, n), matvec=lu.solve, dtype=float)
                vals, vecs = eigsh(m, k=k, sigma=sigma, which="LM", v0=np.full(n, 1.0 / np.sqrt(n)), OPinv=shift_invert)
            except RuntimeError as exc:  # ArpackNoConvergence, or SuperLU's "exactly singular"
                failure = str(exc)
        if failure is None and vals.min() > c:
            order = np.argsort(-np.abs(vals), kind="stable")
            return vals[order], vecs[:, order]
        if n > _DENSE_FALLBACK_LIMIT:
            failure = f"eigenvalue {vals.min():.6g} is under the magnitude bound" if failure is None else failure
            raise SolverError(f"{n}-row Fiedler solve: {failure}; no dense fallback above {_DENSE_FALLBACK_LIMIT}")
    vals, vecs = _dense_eigh(m)
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    return vals[order], vecs[:, order]


def knn_graph(cloud: PointCloud, k: int) -> NeighborGraph:
    """Exact k-nearest-neighbor graph under Euclidean distance.

    ``k`` is clamped to ``n - 1``. Each vertex's own list holds its k nearest
    other points; the graph's edges are the union of these directed choices.
    """
    _counts(k=k)
    n = cloud.n
    if n < 2:
        raise DegenerateInputError("kNN graph requires at least two points")
    if k < 1:
        raise ValueError("k must be positive")
    k = min(k, n - 1)
    dists, ids = cKDTree(cloud.points).query(cloud.points, k=k + 1)
    if np.array_equal(ids[:, 0], np.arange(n)):  # every row's first hit is its own point
        return NeighborGraph(n, *_frozen(np.arange(0, n * k + 1, k), ids[:, 1:].ravel(), dists[:, 1:].ravel()))
    # Drop each row's first self hit. Duplicates can push the query point out
    # of its own row; the row's last (farthest) hit is dropped instead.
    is_self = ids == np.arange(n)[:, None]
    drop = np.where(is_self.any(axis=1), is_self.argmax(axis=1), k)
    keep = np.arange(k + 1) != drop[:, None]
    return NeighborGraph(n, *_frozen(np.arange(0, n * k + 1, k), ids[keep], dists[keep]))


def _smallest_positive_distance(points: np.ndarray) -> float:
    """Smallest positive pairwise distance, or 0.0 if all points coincide. It is
    searched among the distinct points, so copies do not push k up to their count."""
    points = np.unique(points, axis=0)
    n = points.shape[0]
    if n < 2:
        return 0.0
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


def adaptive_affinity(cloud: PointCloud, nbrs: NeighborGraph, k_bw: int) -> sp.csr_matrix:
    """Adaptive Gaussian affinities W on the kNN support.

    ``sigma_i`` is the ``k_bw``-th distance in point i's own list, which in a
    kNN graph is the distance to its ``k_bw``-th nearest neighbor; zero
    bandwidths (duplicate points) are clamped to the smallest positive
    pairwise distance. W carries an explicit unit diagonal, keeps affinities
    that underflow as explicit zeros, and is exactly symmetric.
    """
    _counts(k_bw=k_bw)
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
    u, v = edges.T
    w = np.exp(-(edge_d**2) / (sigmas[u] * sigmas[v]))
    # Canonical rows from the sorted edges: column i of the upper triangle, the unit diagonal, row i.
    upper = sp.csr_matrix((w, v, np.searchsorted(u, np.arange(n + 1))), shape=(n, n))
    del edges, edge_d, u, v  # upper holds the rest; the edge arrays would raise the peak below
    lower = upper.tocsc()
    counts = np.column_stack([np.diff(lower.indptr), np.ones(n, dtype=int), np.diff(upper.indptr)])
    part = np.repeat(np.tile(np.arange(3, dtype=np.int8), n), counts.ravel())
    indices, data = np.empty(part.size, dtype=upper.indices.dtype), np.empty(part.size)
    for p, (ids, values) in enumerate([(lower.indices, lower.data), (np.arange(n), 1.0), (upper.indices, upper.data)]):
        indices[part == p], data[part == p] = ids, values
    return sp.csr_matrix((data, indices, lower.indptr + upper.indptr + np.arange(n + 1)), shape=(n, n))


def transition_matrix(affinity: sp.csr_matrix) -> sp.csr_matrix:
    """Row-normalize an affinity matrix into ``P = D^-1 W`` by a sparse product: it lists each row in descending
    column order, and ``P @ X`` sums in that order (a gather doing the same was about 2x slower at k = 80)."""
    degrees = np.asarray(affinity.sum(axis=1)).ravel()
    if np.any(degrees <= 0):
        raise IsolatedPointError("affinity matrix has a zero-degree row")
    return (sp.diags(1.0 / degrees) @ affinity).tocsr()


def affinity_components(affinity: sp.csr_matrix) -> list[np.ndarray]:
    """Connected components of the affinity graph (stored zeros included), ordered by smallest id."""
    _, labels = _cs_components(affinity, directed=False)  # numbered as the scan meets each smallest id
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])


def fiedler_filter(affinity: sp.csr_matrix, component: np.ndarray) -> np.ndarray:
    """Fiedler filter values on a connected component.

    Returns the right eigenvector of the transition matrix restricted to the
    component (a component of ``affinity_components`` has no other entries) with
    second-largest eigenvalue magnitude, sign-fixed so the entry of largest
    absolute value is positive. A single-vertex component gets the constant
    filter 0. The component's block of W is normalised to M with the degrees
    of its full rows. An id that is no integer, or lies outside the
    affinity's rows, raises ``InvalidDataError``.
    """
    component = _vertex_ids(component, affinity.shape[0])
    if component.size == 1:
        return np.zeros(1)
    a = int(component[0]) if component.size else 0
    b = a + component.size
    ptr, data = affinity.indptr[a : b + 1], affinity.data
    cols = affinity.indices[ptr[0] : ptr[-1]]
    # A range whose entries stay inside it, as a component's do: its rows are its block, read where W holds them.
    if np.array_equal(component, np.arange(a, b)) and cols.size and a <= cols.min() and cols.max() < b:
        m = sp.csr_matrix((data[ptr[0] : ptr[-1]].copy(), cols - a, ptr - ptr[0]), shape=(b - a, b - a))
    else:
        full = affinity[component]
        m, ptr, data = full[:, component], full.indptr, full.data
    n_comp, _ = _cs_components(m, directed=False)
    if n_comp != 1:
        raise InvalidDataError(
            "fiedler_filter requires a connected component "
            f"(got {n_comp} pieces); split components upstream"
        )
    degrees = np.add.reduceat(data[: ptr[-1]], ptr[:-1])  # W's full rows, summed as sum(axis=1) sums them
    inv_sqrt = 1.0 / np.sqrt(degrees)
    m.data = np.repeat(inv_sqrt, np.diff(m.indptr)) * m.data * inv_sqrt[m.indices]  # (inv_i * w_ij) * inv_j
    m.eliminate_zeros()  # and no stored zeros: what the products diag @ W @ diag give
    phi = _symmetric_spectrum(m, 1)[1][:, 1] / np.sqrt(degrees)
    return -phi if phi[np.argmax(np.abs(phi))] < 0 else phi


def condense(cloud: PointCloud, k_smooth: int, t: int, k_bw: int) -> PointCloud:
    """One diffusion-condensation round: ``X <- P^t X`` with a fresh adaptive
    kNN transition matrix built on the input. ``t = 0`` returns the cloud
    unchanged.

    ``k_smooth`` is the neighbor count of the kNN graph and ``k_bw`` the
    bandwidth neighbor rank of its adaptive kernel; both are clamped to
    ``n - 1``. ``k_bw`` is read from the ``k_smooth`` lists, so a larger one
    raises ``ValueError``. A count that is no integer raises ``InvalidDataError``.
    """
    _counts(k_smooth=k_smooth, t=t, k_bw=k_bw)
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return cloud
    # knn_graph clamps k_smooth to n - 1 itself. P alone outlives this line: the graph and W are freed.
    p = transition_matrix(adaptive_affinity(cloud, knn_graph(cloud, k_smooth), min(k_bw, cloud.n - 1)))
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
    An id that is no integer, or lies outside ``0..nbrs.n-1``, raises ``InvalidDataError``."""
    vertices = _vertex_ids(vertices, nbrs.n)
    ptr, v, at = _gather_rows(nbrs.own_indptr, nbrs.own_indices, vertices)
    keep = v >= 0  # a column outside ``vertices`` reads -1
    return NeighborGraph(len(vertices), *_frozen(np.r_[0, keep].cumsum()[ptr], v[keep], nbrs.own_distances[at[keep]]))
