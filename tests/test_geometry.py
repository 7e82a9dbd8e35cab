"""Geometry: kNN graphs, adaptive affinities, the transition matrix, Fiedler
filter, condensation, and the points.csv format."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

from screeb import (
    GeneratorConfig,
    PointCloud,
    ReebParams,
    adaptive_affinity,
    condense,
    fiedler_filter,
    generate_sample,
    graph_to_json,
    knn_graph,
    load_points_csv,
    save_points_csv,
    screeb,
    screeb_tower,
    transition_matrix,
)
from screeb import geometry, reeb
from screeb.errors import DegenerateInputError, InvalidDataError, IsolatedPointError, SolverError
from screeb.geometry import _symmetric_spectrum, affinity_components, induced_neighbor_subgraph

from conftest import default_factor_eigsh, disk_points, own_block_filter, separated_clusters

CI_SEED = 20260422  # the shipped preset's benchmark seed


def own_rows(nbrs):
    """Per-vertex (id, distance) pairs of a neighbor graph's own lists."""
    ptr = nbrs.own_indptr
    return [
        list(zip(nbrs.own_indices[a:b].tolist(), nbrs.own_distances[a:b].tolist()))
        for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())
    ]


def uniform_affinity(adjacency):
    """Affinity matrix with unit weights on the given 0/1 adjacency."""
    w = np.asarray(adjacency, dtype=float)
    np.fill_diagonal(w, 1.0)
    return sp.csr_matrix(w)


def pdist_bandwidths(pts, k_bw):
    """sigma_i as the (k_bw + 1)-th smallest entry of row i of the distance
    matrix, self included; zeros clamped to the smallest positive distance."""
    dmat = squareform(pdist(pts))
    raw = np.sort(dmat, axis=1)[:, k_bw]
    return np.where(raw > 0, raw, dmat[dmat > 0].min()), dmat


# -- PointCloud ----------------------------------------------------------------


def test_cloud_rejects_nonfinite():
    with pytest.raises(InvalidDataError):
        PointCloud(np.array([[0.0], [np.inf]]))


@pytest.mark.parametrize(
    "points, message", [(np.zeros(5), "points must be a 2-D array"), (np.zeros((0, 2)), "must have n >= 1 and m >= 1")]
)
def test_cloud_refuses_arrays_that_hold_no_cloud(points, message):
    with pytest.raises(InvalidDataError, match=message):
        PointCloud(points)


def test_cloud_immutable():
    cloud = PointCloud(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


# -- knn_graph -------------------------------------------------------------------


def test_knn_refuses_k_below_one():
    with pytest.raises(ValueError, match="k must be positive"):
        knn_graph(PointCloud(np.arange(6.0).reshape(3, 2)), 0)


def test_knn_line_three_points():
    cloud = PointCloud(np.array([[0.0], [1.0], [3.0]]))
    nbrs = knn_graph(cloud, 1)
    edges, dists = nbrs.undirected_edges()
    assert edges.tolist() == [[0, 1], [1, 2]]
    assert dists.tolist() == [1.0, 2.0]


def test_knn_unit_square():
    cloud = PointCloud(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    edges, _ = knn_graph(cloud, 2).undirected_edges()
    assert edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]  # sides, no diagonals


def test_knn_requires_two_points():
    with pytest.raises(DegenerateInputError):
        knn_graph(PointCloud(np.zeros((1, 2))), 1)


def test_knn_clamps_k():
    cloud = PointCloud(np.arange(3, dtype=float).reshape(-1, 1))
    nbrs = knn_graph(cloud, 10)
    assert np.diff(nbrs.own_indptr).tolist() == [2, 2, 2]


def test_knn_matches_brute_force_oracle(rng):
    cases = [(int(rng.integers(10, 60)), int(rng.integers(1, 8)), "normal") for _ in range(5)]
    cases.append((50, 5, "cube"))   # uniform points in the unit cube
    cases.append((200, 6, "cube"))
    for n, k, kind in cases:
        pts = rng.uniform(size=(n, 3)) if kind == "cube" else rng.normal(size=(n, 3))
        nbrs = knn_graph(PointCloud(pts), k)
        dmat = squareform(pdist(pts))
        np.fill_diagonal(dmat, np.inf)
        for i, row in enumerate(own_rows(nbrs)):
            expect = set(np.argsort(dmat[i], kind="stable")[:k].tolist())
            assert set(dict(row)) == expect


def test_knn_symmetrized_distances_exact(rng):
    # The duplicate-heavy cloud repeats each point 8 > k + 1 times, so the
    # query point can be missing from its own kNN row.
    normal = rng.normal(size=(50, 3))
    duplicated = np.repeat(rng.normal(size=(10, 3)), 8, axis=0)[rng.permutation(80)]
    for pts in (normal, duplicated):
        nbrs = knn_graph(PointCloud(pts), 5)
        for u, row in enumerate(own_rows(nbrs)):
            assert u not in dict(row)
            for v, d in row:
                assert d == pytest.approx(np.linalg.norm(pts[u] - pts[v]), rel=1e-12)
        # Every edge joins two distinct points at their exact distance.
        edges, edge_d = nbrs.undirected_edges()
        assert np.all(edges[:, 0] < edges[:, 1])
        for (u, v), d in zip(edges.tolist(), edge_d.tolist()):
            assert d == pytest.approx(np.linalg.norm(pts[u] - pts[v]), rel=1e-12)


class _SkewedTree:
    """cKDTree whose distances carry a relative skew of 1e-12 per query row,
    so a pair listed by both endpoints gets two different distances: nothing
    guarantees cKDTree's d(i, j) and d(j, i) agree to the bit."""

    def __init__(self, points):
        self.tree = cKDTree(points)

    def query(self, x, k):
        d, i = self.tree.query(x, k=k)
        return d * (1.0 + 1e-12 * np.arange(len(x)))[:, None], i


def test_neighbor_graph_matches_loop_reference(rng, monkeypatch):
    # Per-vertex loop reference for the array-built lists: the kNN row minus
    # its first self hit (else its last hit); an undirected edge listed twice
    # keeps the first-listed distance; an induced subgraph keeps list order.
    # The grid and the evenly spaced line tie many distances exactly; k >= n/2
    # is condense's regime on small clouds.
    def pairs(ids, dists):
        return list(zip(ids.tolist(), dists.tolist()))

    grid = np.indices((7, 6)).reshape(2, -1).T.astype(float)
    cases = [
        (rng.normal(size=(60, 2)), 6, cKDTree),
        (np.repeat(rng.normal(size=(12, 2)), 5, axis=0), 6, cKDTree),
        (grid, 8, cKDTree),
        (0.25 * np.arange(40.0)[:, None], 5, cKDTree),
        (rng.normal(size=(20, 3)), 12, cKDTree),
        (rng.normal(size=(30, 2)), 80, cKDTree),  # k clamps to n - 1
        (rng.normal(size=(60, 2)), 6, _SkewedTree),
        (grid, 8, _SkewedTree),
    ]
    for pts, k, tree in cases:
        monkeypatch.setattr(geometry, "cKDTree", tree)
        n, k = len(pts), min(k, len(pts) - 1)
        dists, ids = tree(pts).query(pts, k=k + 1)
        own = []
        for i in range(n):
            row = pairs(ids[i], dists[i])
            if i in ids[i]:
                row.pop(ids[i].tolist().index(i))
            own.append(row[:k])
        nbrs = knn_graph(PointCloud(pts), k)
        assert own_rows(nbrs) == own

        first = {}
        for i in range(n):
            for j, d in own[i]:
                first.setdefault((min(i, j), max(i, j)), d)
        edges, edge_d = nbrs.undirected_edges()
        assert edges.tolist() == [list(e) for e in sorted(first)]
        assert edge_d.tolist() == [first[e] for e in sorted(first)]

        sub = rng.permutation(n)[: n // 2]
        relabel = {old: new for new, old in enumerate(sub.tolist())}
        part_rows = own_rows(induced_neighbor_subgraph(nbrs, sub))
        for new, old in enumerate(sub.tolist()):
            assert part_rows[new] == [(relabel[j], d) for j, d in own[old] if j in relabel]
    empty = induced_neighbor_subgraph(nbrs, [])
    assert empty.n == 0 and empty.own_indptr.tolist() == [0] and empty.undirected_edges()[0].shape == (0, 2)


def test_knn_graph_fast_path_matches_the_self_hit_search(rng):
    # When every row's first hit is its own point, column 0 is dropped by a
    # slice; rows that copies displace keep the search. Either way the own lists
    # are those of the search over every row, to the dtype and the byte.
    def searched(pts, k):
        dists, ids = cKDTree(pts).query(pts, k=k + 1)
        is_self = ids == np.arange(len(pts))[:, None]
        keep = np.arange(k + 1) != np.where(is_self.any(axis=1), is_self.argmax(axis=1), k)[:, None]
        return ids[keep], dists[keep], bool(np.all(ids[:, 0] == np.arange(len(pts))))

    base, fast = rng.normal(size=(200, 3)), []
    for pts in (base, np.vstack([base, base[:10]]), np.repeat(base[:20], 6, axis=0)):
        for k in (3, 15):
            ids, dists, first_is_self = searched(pts, k)
            nbrs = knn_graph(PointCloud(pts), k)
            assert nbrs.own_indices.dtype == ids.dtype and nbrs.own_indices.tobytes() == ids.tobytes()
            assert nbrs.own_distances.dtype == dists.dtype and nbrs.own_distances.tobytes() == dists.tobytes()
            fast.append(first_is_self)
    assert fast[:2] == [True, True] and not all(fast)  # both paths ran


def test_sorted_unique_matches_np_unique_up_to_int64_bound(rng):
    for key in (rng.integers(0, 50, size=300), np.zeros(0, dtype=np.int64), np.array([7])):
        got = geometry._sorted_unique(key, 50)
        want = np.unique(key, return_index=True)
        assert len(got) == 2 and all(np.array_equal(a, b) for a, b in zip(got, want))
    # key * len + position tops out at n^2 * len - 1: 2^63 - 1 here, still exact.
    n = 1 << 31
    keys, first = geometry._sorted_unique(np.array([n * n - 1, 0]), n)
    assert keys.tolist() == [0, n * n - 1] and first.tolist() == [1, 0]
    with pytest.raises(InvalidDataError, match=f"n = {n} "):
        geometry._sorted_unique(np.array([0, 0, 1]), n)


def test_neighbor_graph_csr_views(rng):
    # The own lists are read-only CSR arrays, here and on an induced piece.
    normal = rng.normal(size=(50, 3))
    duplicated = np.repeat(rng.normal(size=(10, 3)), 8, axis=0)[rng.permutation(80)]
    for pts in (normal, duplicated):
        nbrs = knn_graph(PointCloud(pts), 5)
        for g in (nbrs, induced_neighbor_subgraph(nbrs, rng.permutation(nbrs.n)[:30])):
            ptr = g.own_indptr
            assert len(ptr) == g.n + 1 and ptr[0] == 0 and np.all(np.diff(ptr) >= 0)
            assert ptr[-1] == len(g.own_indices) == len(g.own_distances)
            for a in (ptr, g.own_indices, g.own_distances):
                assert not a.flags.writeable


def test_induced_subgraph_unsorted_and_empty_selections(rng):
    # Loop reference: row r lists the kept neighbors of vertices[r]'s own
    # list, relabeled, in the parent's list order.
    nbrs = knn_graph(PointCloud(rng.normal(size=(40, 2))), 4)
    selections = (
        rng.permutation(40)[:15],
        np.arange(40)[::-1],
        [39, 0, 20, 5],  # unsorted, with the smallest and largest ids
        np.sort(np.append(nbrs.own_indices[:3], 0))[::-1],  # vertex 0 and its neighbors, descending
        [7, 3],
        [11],
        [],
        np.zeros(0, dtype=int),
    )

    rows = own_rows(nbrs)
    for sub in selections:
        sub = list(map(int, sub))
        relabel = {old: new for new, old in enumerate(sub)}
        part = induced_neighbor_subgraph(nbrs, sub)
        assert part.n == len(sub) and len(part.own_indptr) == len(sub) + 1
        part_rows = own_rows(part)
        for new, old in enumerate(sub):
            assert part_rows[new] == [(relabel[j], d) for j, d in rows[old] if j in relabel]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 200])
def test_row_dots_match_linalg_norm_bitwise(rng, dim):
    # Spread magnitudes so rounding differs wherever the summation order would.
    x = rng.normal(size=(400, dim)) * 10.0 ** rng.uniform(-8, 8, size=(400, 1))
    y = rng.normal(size=(400, dim))
    assert np.sqrt(geometry.row_dots(x, x)).tolist() == [np.linalg.norm(row) for row in x]
    assert geometry.row_dots(x, y).tolist() == [a @ b for a, b in zip(x, y)]


# -- adaptive_affinity --------------------------------------------------------


def test_affinity_refuses_a_neighbor_graph_of_another_cloud(rng):
    cloud, other = PointCloud(rng.normal(size=(20, 2))), PointCloud(rng.normal(size=(25, 2)))
    with pytest.raises(InvalidDataError, match="neighbor graph does not match the point cloud"):
        adaptive_affinity(cloud, knn_graph(other, 5), 3)


def test_affinity_two_points_exp_minus_one():
    cloud = PointCloud(np.array([[0.0], [2.0]]))
    aff = adaptive_affinity(cloud, knn_graph(cloud, 1), 1)
    assert aff[0, 1] == aff[1, 0] == np.exp(-4.0 / (2.0 * 2.0))  # both bandwidths are 2
    assert aff[0, 1] == pytest.approx(np.exp(-1), abs=1e-12)


def test_affinity_duplicate_points_weight_one():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    cloud = PointCloud(pts)
    aff = adaptive_affinity(cloud, knn_graph(cloud, 2), 1)
    assert aff[0, 1] == pytest.approx(1.0)
    # The copies' zero bandwidths are clamped to the smallest positive distance, 1.
    assert aff[0, 2] == aff[1, 2] == np.exp(-1.0 / (1.0 * 1.0))


def test_affinity_all_identical_rejected():
    cloud = PointCloud(np.zeros((4, 2)))
    with pytest.raises(InvalidDataError):
        adaptive_affinity(cloud, knn_graph(cloud, 2), 2)


def test_affinity_invariants(rng):
    for _ in range(10):
        pts = rng.normal(size=(40, 3))
        cloud = PointCloud(pts)
        aff = adaptive_affinity(cloud, knn_graph(cloud, 6), 6)
        w = aff.toarray()
        assert np.allclose(w, w.T, atol=1e-12)
        assert w.min() >= 0 and w.max() <= 1 + 1e-15
        assert np.all(np.diag(w) == 1.0)


def test_affinity_bandwidths_match_pdist_rank(rng):
    # Every stored w_ij off the diagonal is exp(-d_ij^2 / (sigma_i sigma_j)),
    # with sigma_i read from the kNN graph's own lists at the pdist rank (see
    # ``pdist_bandwidths``), and the diagonal is 1. The duplicated cloud repeats
    # each point 8 > k + 1 times, so a point can be missing from its own row;
    # the grid ties distances exactly.
    normal = rng.normal(size=(60, 3))
    duplicated = np.repeat(rng.normal(size=(12, 3)), 8, axis=0)[rng.permutation(96)]
    grid = np.indices((7, 6)).reshape(2, -1).T.astype(float)
    for pts in (normal, duplicated, grid):
        for k, k_bw in ((6, 6), (6, 2), (12, 1), (12, 10)):
            cloud = PointCloud(pts)
            w = adaptive_affinity(cloud, knn_graph(cloud, k), k_bw).tocoo()
            sigmas, dmat = pdist_bandwidths(pts, k_bw)
            off, i, j = w.row != w.col, w.row, w.col
            want = np.exp(-(dmat[i, j] ** 2) / (sigmas[i] * sigmas[j]))
            assert w.data[off].tolist() == want[off].tolist() and np.all(w.data[~off] == 1.0)
            assert np.array_equal(np.sort(i[~off]), np.arange(cloud.n))


def test_affinity_rejects_k_bw_beyond_own_lists(rng):
    cloud = PointCloud(rng.normal(size=(30, 2)))
    nbrs = knn_graph(cloud, 4)
    adaptive_affinity(cloud, nbrs, 4)
    for k_bw in (0, 5, 29):
        with pytest.raises(ValueError, match="k_bw"):
            adaptive_affinity(cloud, nbrs, k_bw)


def test_affinity_components_many_tiny_components(rng):
    # Reference: one scan of the labels per component, ordered by smallest id.
    n = 3000
    pairs = rng.permutation(n)[: 2 * (n // 5)].reshape(-1, 2)  # 600 pairs, 1800 singletons
    adj = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    aff = (adj + adj.T + sp.identity(n)).tocsr()
    _, labels = connected_components(aff, directed=False)
    want = sorted((np.flatnonzero(labels == c) for c in range(labels.max() + 1)), key=lambda idx: idx[0])
    got = affinity_components(aff)
    assert len(got) == len(want) == n - len(pairs)
    assert all(a.tolist() == b.tolist() for a, b in zip(got, want))


def exactness_clouds(rng):
    """Clouds whose affinities include explicit zeros: clusters of 6 to 12 points
    100 apart, so a k = 15 list reaches across a gap where, at a bandwidth rank
    inside the cluster, exp underflows; some with copied points."""
    for copies in (0, 0, 5, 20):
        pts = separated_clusters(rng, rng.integers(6, 13, size=6))
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), size=copies)]])
        yield PointCloud(pts[rng.permutation(len(pts))])


def coo_affinity(cloud, nbrs, k_bw):
    """W built as the COO concatenation of the diagonal and both triangles, summed into CSR by scipy."""
    n, (edges, edge_d) = cloud.n, nbrs.undirected_edges()
    u, v, diag, sigmas = edges[:, 0], edges[:, 1], np.arange(n), pdist_bandwidths(cloud.points, k_bw)[0]
    w = np.exp(-(edge_d**2) / (sigmas[u] * sigmas[v]))
    rows, cols = np.concatenate([diag, u, v]), np.concatenate([diag, v, u])
    return sp.csr_matrix((np.concatenate([np.ones(n), w, w]), (rows, cols)), shape=(n, n))


def assert_same_csr(got, want):
    # Same format, index dtypes, entry order and data bits, explicit zeros included.
    assert got.format == want.format and got.shape == want.shape
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_affinity_rows_match_coo_reference_bit_for_bit(rng):
    zeros = 0
    for cloud in exactness_clouds(rng):
        for k, k_bw in ((15, 15), (15, 4), (3, 2)):
            nbrs = knn_graph(cloud, k)
            want = coo_affinity(cloud, nbrs, k_bw)
            assert want.indices.dtype == np.int32
            assert_same_csr(adaptive_affinity(cloud, nbrs, k_bw), want)
            zeros += int(np.sum(want.data == 0))
    assert zeros > 0  # the explicit zeros were exercised


def block_operator(w, ids):
    """``M = D^-1/2 W_block D^-1/2`` for the rows and columns ``ids`` of W, with
    the degrees of W's full rows, by two sparse products."""
    inv_sqrt = sp.diags(1.0 / np.sqrt(np.asarray(w.sum(axis=1)).ravel()[ids]))
    return (inv_sqrt @ w[ids][:, ids] @ inv_sqrt).tocsr()


def spectrum_inputs(monkeypatch):
    """The matrices ``fiedler_filter`` hands to ``_symmetric_spectrum``, as it hands them."""
    handed, spectrum = [], geometry._symmetric_spectrum
    monkeypatch.setattr(geometry, "_symmetric_spectrum", lambda m, rank: handed.append(m.copy()) or spectrum(m, rank))
    return handed


def test_operator_matches_diagonal_products_bit_for_bit(rng, monkeypatch):
    # Each component's M, from W's rows and from the permuted W's range of rows.
    handed, dropped = spectrum_inputs(monkeypatch), 0
    for cloud in exactness_clouds(rng):
        w = adaptive_affinity(cloud, knn_graph(cloud, 15), 4)
        comps = [c for c in affinity_components(w) if len(c) > 1]
        order = np.concatenate(comps)
        ranged, start = w[order][:, order], 0
        for comp in comps:
            fiedler_filter(w, comp)
            fiedler_filter(ranged, np.arange(start, start + len(comp)))
            start += len(comp)
            want = block_operator(w, comp)
            assert_same_csr(handed[-2], want)
            assert_same_csr(handed[-1], want)
            dropped += w[comp][:, comp].nnz - want.nnz
    assert dropped > 0  # the products drop W's zeros, and so does fiedler_filter


def test_shifted_factor_input_matches_subtracted_identity(rng, monkeypatch):
    factored, sigma, splu = [], 1.0 + 1e-6, geometry.splu

    def recording_splu(a, **kwargs):
        factored.append(a.copy())
        return splu(a, **kwargs)

    monkeypatch.setattr(geometry, "splu", recording_splu)
    monkeypatch.setattr(geometry, "_DENSE_PAIR_LIMIT", 0)  # small pieces reach the factor too
    for cloud in exactness_clouds(rng):
        aff = adaptive_affinity(cloud, knn_graph(cloud, 15), 4)
        for comp in affinity_components(aff):
            if len(comp) < 4:
                continue
            m = block_operator(aff, comp)
            before = len(factored)
            _symmetric_spectrum(m, 1)
            if len(factored) > before:
                assert_same_csr(factored[-1], (m - sigma * sp.eye(len(comp))).tocsc())
    assert factored  # the shift-invert path ran


def test_condense_peak_memory_stays_under_recorded_bound():
    # A noisy 3-D loop of 4000 points at k = 80 and bandwidth rank 32, as a
    # tower level condenses. Recorded with numpy 2.4.6 and scipy 1.17.1: peak
    # 16.2 MB of traced allocations, against 28.2 MB when W was summed from
    # COO triplets and scaled by two sparse products.
    import tracemalloc

    rng = np.random.default_rng(4000)
    theta = rng.uniform(0.0, 2.0 * np.pi, 4000)
    cloud = PointCloud(np.c_[np.cos(theta), np.sin(theta), np.zeros(4000)] + rng.normal(0.0, 0.05, (4000, 3)))
    tracemalloc.start()
    try:
        condense(cloud, 80, 1, k_bw=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18.0e6, f"condense peaked at {peak / 1e6:.1f} MB"


# -- transition_matrix ----------------------------------------------------------


def test_operator_two_by_two_uniform():
    p = transition_matrix(uniform_affinity(np.ones((2, 2))))
    assert np.allclose(p.toarray(), 0.5 * np.ones((2, 2)))


def test_operator_identity_from_isolated_loops():
    p = transition_matrix(uniform_affinity(np.eye(2)))
    assert np.allclose(p.toarray(), np.eye(2))


def test_transition_matrix_rejects_zero_degree_row():
    with pytest.raises(IsolatedPointError):
        transition_matrix(sp.csr_matrix((2, 2)))


def test_operator_rows_and_spectrum_oracle(rng):
    for _ in range(5):
        w = rng.uniform(0.1, 1.0, size=(10, 10))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 1.0)
        p = transition_matrix(sp.csr_matrix(w))
        rows = np.asarray(p.sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0, atol=1e-10)
        # dense eigensolver oracle on P itself
        eigvals = np.linalg.eigvals(p.toarray())
        assert np.max(np.abs(eigvals)) == pytest.approx(1.0, abs=1e-8)
        # the Fiedler solver's spectrum of the symmetric conjugate D^-1/2 W D^-1/2
        inv_sqrt = np.diag(1.0 / np.sqrt(w.sum(axis=1)))
        vals, _ = _symmetric_spectrum(sp.csr_matrix(inv_sqrt @ w @ inv_sqrt), 3)
        assert abs(vals[0]) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(np.abs(vals)) <= 1e-12)
        oracle = np.sort(np.abs(eigvals))[::-1][:4]
        assert np.allclose(np.abs(vals), oracle, atol=1e-10)


# -- fiedler_filter ---------------------------------------------------------------


def test_fiedler_monotone_on_path():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    f = fiedler_filter(uniform_affinity(adj), np.arange(3))
    diffs = np.diff(f)
    assert np.all(diffs > 0) or np.all(diffs < 0)
    assert np.max(np.abs(f)) == f[np.argmax(np.abs(f))]  # sign fix


def test_fiedler_complete_graph_orthogonal_to_stationary():
    aff = uniform_affinity(np.ones((6, 6)) - np.eye(6))
    f = fiedler_filter(aff, np.arange(6))
    degrees = np.asarray(aff.sum(axis=1)).ravel()
    assert abs(np.dot(degrees, f)) < 1e-8


def test_fiedler_rejects_disconnected():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    with pytest.raises(InvalidDataError):
        fiedler_filter(uniform_affinity(adj), np.arange(4))


def test_fiedler_singleton_component():
    assert fiedler_filter(uniform_affinity(np.eye(3)), np.array([1])).tolist() == [0.0]


def test_fiedler_matches_dense_oracle(rng):
    # |cos theta| > 1 - 1e-6 against a dense nonsymmetric eigensolve of P.
    for trial in range(20):
        n = int(rng.integers(10, 100))
        pts = rng.normal(size=(n, 3))
        cloud = PointCloud(pts)
        aff = adaptive_affinity(cloud, knn_graph(cloud, min(8, n - 1)), min(8, n - 1))
        comps = affinity_components(aff)
        comp = max(comps, key=len)
        f = fiedler_filter(aff, comp)
        sub = transition_matrix(aff).toarray()[np.ix_(comp, comp)]
        vals, vecs = np.linalg.eig(sub)
        order = np.argsort(-np.abs(vals))
        oracle = np.real(vecs[:, order[1]])
        cos = abs(np.dot(f, oracle)) / (np.linalg.norm(f) * np.linalg.norm(oracle))
        assert cos > 1 - 1e-6


def _no_convergence(m, k, **kwargs):
    raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((m.shape[0], 0)))


def _singular_factor(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


# (name patched in geometry, replacement): ARPACK fails, or the shift-invert factor is singular.
_SOLVER_FAILURES = (("eigsh", _no_convergence), ("splu", _singular_factor))


def _dense_pairs(m, k):
    vals, vecs = scipy.linalg.eigh(m.toarray())
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    return vals[order], vecs[:, order]


def _normalized(w):
    """``D^-1/2 W D^-1/2`` and the degrees of a dense affinity ``w``."""
    d = w.sum(axis=1)
    return sp.csr_matrix(w / np.sqrt(np.outer(d, d))), d


def test_arpack_failure_falls_back_to_dense_eigh(rng, monkeypatch):
    # n <= 4096: a shift-invert solve that does not converge, or whose LU is
    # singular, gives exactly the dense eigh pairs.
    cloud = PointCloud(disk_points(rng, 500, 1.0, (0.0, 0.0)))
    aff = adaptive_affinity(cloud, knn_graph(cloud, 10), 10)
    comp = np.arange(cloud.n)
    shift_invert = fiedler_filter(aff, comp)
    m = sp.random(500, 500, density=0.02, random_state=1, format="csr")
    m = (m + m.T).tocsr()
    for name, failure in _SOLVER_FAILURES:
        with monkeypatch.context() as patched:
            patched.setattr(geometry, name, failure)
            np.testing.assert_allclose(fiedler_filter(aff, comp), shift_invert, atol=1e-8)
            vals, vecs = _symmetric_spectrum(m, 1)
        dense_vals, dense_vecs = _dense_pairs(m, 2)
        assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)


def test_arpack_failure_above_dense_limit_raises_solver_error(rng, monkeypatch):
    # n > 4096 has no dense fallback; screeb surfaces the SolverError.
    m = sp.diags(np.arange(1.0, 4098.0)).tocsr()
    cloud = PointCloud(disk_points(rng, 4097, 1.0, (0.0, 0.0)))
    for name, failure in _SOLVER_FAILURES:
        message = "no convergence" if failure is _no_convergence else "exactly singular"
        with monkeypatch.context() as patched:
            patched.setattr(geometry, name, failure)
            with pytest.raises(SolverError, match=message):
                _symmetric_spectrum(m, 1)
            with pytest.raises(SolverError, match=message):
                screeb(cloud)


def test_magnitude_certificate_bounds_bottom_eigenvalue(rng):
    # W non-negative with unit diagonal: lambda_min(D^-1/2 W D^-1/2) >= -1 + 2/d_max.
    for trial in range(40):
        n = int(rng.integers(2, 40))
        scale = 10.0 ** rng.uniform(-2, 3)
        w = rng.uniform(0, scale, (n, n)) * (rng.uniform(size=(n, n)) < rng.uniform(0.1, 1))
        if trial % 2:  # bipartite support pushes the bottom eigenvalue towards -1
            side = rng.uniform(size=n) < 0.5
            w *= side[:, None] != side[None, :]
        w = np.triu(w, 1)
        w = w + w.T + np.eye(n)
        m, d = _normalized(w)
        assert scipy.linalg.eigvalsh(m.toarray()).min() >= -1 + 2 / d.max() - 1e-12


def test_uncertified_shift_invert_falls_back_to_dense(monkeypatch):
    # Even cycle with weak self-loops: the bottom eigenvalue (about -0.99) beats
    # the second largest (about 0.95) by magnitude, so the shift-invert pairs
    # (the largest by value) fail the certificate and the dense pairs come back.
    # A pendant vertex of degree 2 makes the bound from d_min (0) accept them.
    n = 20
    cycle = np.roll(np.eye(n), 1, axis=1)
    w = np.eye(n + 1)
    w[:n, :n] += 100.0 * (cycle + cycle.T)
    w[0, n] = w[n, 0] = 1.0
    # The uncertified top-pair solve below _DENSE_PAIR_LIMIT goes dense the same way, with no eigsh.
    m, d = _normalized(w)
    calls = []
    monkeypatch.setattr(geometry, "eigsh", lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
    dense_vals, dense_vecs = _dense_pairs(m, 2)
    for limit in (0, geometry._DENSE_PAIR_LIMIT):
        monkeypatch.setattr(geometry, "_DENSE_PAIR_LIMIT", limit)
        vals, vecs = _symmetric_spectrum(m, 1)
        assert calls == [1] and dense_vals[1] < -0.98
        assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)


def test_lapack_failure_raises_solver_error(rng, monkeypatch):
    # A LAPACK failure of a dense solve (the full one, the top-pair one, or the
    # fallback after a failed shift-invert) names the row count and LAPACK's message.
    def internal_error(*args, **kwargs):
        raise np.linalg.LinAlgError("Internal Error.")

    monkeypatch.setattr(scipy.linalg, "eigh", internal_error)
    for n, solver_failure in ((3, None), (50, None), (500, _no_convergence)):
        w = rng.uniform(0.1, 1.0, (n, n))
        m, _ = _normalized(w + w.T + np.eye(n))
        with monkeypatch.context() as patched:
            if solver_failure:
                patched.setattr(geometry, "eigsh", solver_failure)
            with pytest.raises(SolverError, match=f"^{n}-row dense Fiedler solve: Internal Error"):
                _symmetric_spectrum(m, 1)


def _captured_pieces(monkeypatch, run):
    """The (affinity, range) of every ``fiedler_filter`` call ``screeb`` makes in ``run()``."""
    pieces, fiedler = [], reeb.fiedler_filter
    with monkeypatch.context() as patched:
        patched.setattr(reeb, "fiedler_filter", lambda aff, comp: pieces.append((aff, comp)) or fiedler(aff, comp))
        run()
    return pieces


def test_top_pair_filters_order_ci_and_union_pieces_as_shift_invert(monkeypatch):
    # On every piece of the union cloud and of the first ten CI towers at or
    # under the limit, the top-pair filter has the shift-invert filter's order
    # and ties, which is all reeb_graph reads.
    from test_golden import union_cloud

    runs = [lambda: screeb(union_cloud())]
    runs += [lambda i=i: screeb_tower(generate_sample(GeneratorConfig(), CI_SEED, i).cloud) for i in range(10)]
    solves = []
    monkeypatch.setattr(geometry, "eigsh", lambda *a, **kw: solves.append(1) or eigsh(*a, **kw))
    top_pair = 0
    for run in runs:
        for aff, comp in _captured_pieces(monkeypatch, run):
            if not 3 < len(comp) <= geometry._DENSE_PAIR_LIMIT:
                continue
            before = len(solves)
            f = fiedler_filter(aff, comp)
            top_pair += len(solves) == before
            with monkeypatch.context() as patched:
                patched.setattr(geometry, "_DENSE_PAIR_LIMIT", 0)
                g = fiedler_filter(aff, comp)
            assert np.array_equal(np.argsort(f, kind="stable"), np.argsort(g, kind="stable"))
            assert np.array_equal(np.unique(f, return_counts=True)[1], np.unique(g, return_counts=True)[1])
    assert top_pair > 20


def test_blobs_joined_by_underflowed_weights_keep_the_shift_invert_path(rng, monkeypatch):
    # Two blobs 1e3 apart share kNN entries (k = 6 > 4 mates), but at bandwidth
    # rank 2 their affinities underflow to stored zeros: one piece whose M splits
    # in two, so 1 - lambda_2 is 0 to rounding. The top pair is certified but
    # degenerate, and the piece goes to eigsh, with the bytes of limit 0.
    cloud = PointCloud(np.vstack([rng.normal(size=(5, 2)), rng.normal(size=(5, 2)) + [1e3, 0.0]]))
    aff = adaptive_affinity(cloud, knn_graph(cloud, 6), 2)
    (comp,) = affinity_components(aff)
    handed, solves = spectrum_inputs(monkeypatch), []
    monkeypatch.setattr(geometry, "eigsh", lambda m, *a, **kw: solves.append(m.shape[0]) or eigsh(m, *a, **kw))
    f = fiedler_filter(aff, comp)
    vals = scipy.linalg.eigh(handed[-1].toarray(), subset_by_index=[8, 9], eigvals_only=True)
    assert 1.0 - vals[0] < geometry._DEGENERATE_GAP and vals.min() > 1.0 - 2.0 * handed[-1].diagonal().min()
    assert solves == [10]
    monkeypatch.setattr(geometry, "_DENSE_PAIR_LIMIT", 0)
    assert fiedler_filter(aff, comp).tobytes() == f.tobytes()


def clustered_cloud(seed):
    """5-39 Gaussian 3-D clusters of 2-79 points, 100 apart along axis 0, with
    noise 0.05, 0.3 or 1.0 by seed, the first 10 points copied on every fourth
    seed, shuffled."""
    rng = np.random.default_rng(seed)
    noise = (0.05, 0.3, 1.0)[seed % 3]
    sizes = rng.integers(2, 80, size=int(rng.integers(5, 40)))
    pts = np.vstack([rng.normal(0.0, noise, (s, 3)) + [100.0 * i, 0.0, 0.0] for i, s in enumerate(sizes)])
    if seed % 4 == 0:
        pts = np.vstack([pts, pts[:10]])
    return PointCloud(pts[rng.permutation(len(pts))])


def test_clustered_graphs_keep_their_bytes_without_the_top_pair_solve(monkeypatch):
    # 40 clustered clouds (10 seeds at k = 3, 5, 8, 15): the graph bytes are
    # those of every piece through shift-invert, and some degenerate piece
    # under the limit reached eigsh.
    small = []
    eigsh_calls = lambda m, *a, **kw: small.append(m.shape[0] <= geometry._DENSE_PAIR_LIMIT) or eigsh(m, *a, **kw)
    monkeypatch.setattr(geometry, "eigsh", eigsh_calls)
    for seed in range(100, 110):
        cloud = clustered_cloud(seed)
        for k in (3, 5, 8, 15):
            got = graph_to_json(screeb(cloud, ReebParams(k=k)))
            with monkeypatch.context() as patched:
                patched.setattr(geometry, "_DENSE_PAIR_LIMIT", 0)
                assert got == graph_to_json(screeb(cloud, ReebParams(k=k)))
    assert any(small)


def test_fiedler_filter_order_matches_dense_on_large_circle(rng, monkeypatch):
    # n = 1000 noisy circle, as screeb builds it: the shift-invert filter has
    # the dense filter's order and ties, which is all reeb_graph reads.
    theta = rng.uniform(0, 2 * np.pi, 1000)
    cloud = PointCloud(np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0, 0.05, (1000, 2)))
    aff = adaptive_affinity(cloud, knn_graph(cloud, 15), 15)
    comp = np.arange(cloud.n)
    m, d = _normalized(aff.toarray())
    assert _dense_pairs(m, 2)[0][1] > 1 - 2 / d.max()  # the certificate accepts the sparse pairs
    f = fiedler_filter(aff, comp)
    monkeypatch.setattr(geometry, "eigsh", _no_convergence)
    dense = fiedler_filter(aff, comp)
    assert np.array_equal(np.argsort(f, kind="stable"), np.argsort(dense, kind="stable"))
    assert np.array_equal(np.unique(f, return_counts=True)[1], np.unique(dense, return_counts=True)[1])
    assert abs(np.dot(f, dense)) / (np.linalg.norm(f) * np.linalg.norm(dense)) > 1 - 1e-9


def _filters_and_certificates(monkeypatch, solve, run):
    """``run()``'s output, each filter ``fiedler_filter`` returns in it, and
    whether each shift-invert solve, made by ``solve`` as ``geometry.eigsh``,
    passed the magnitude certificate."""
    filters, certified = [], []

    def certifying(m, k, **kwargs):
        vals, vecs = solve(m, k, **kwargs)
        certified.append(bool(vals.min() > 1.0 - 2.0 * m.diagonal().min()))
        return vals, vecs

    def recording(*args):
        filters.append(fiedler_filter(*args))
        return filters[-1]

    with monkeypatch.context() as patched:
        patched.setattr(geometry, "eigsh", certifying)
        patched.setattr(reeb, "fiedler_filter", recording)
        out = run()
    return out, filters, certified


def test_symmetric_factor_matches_default_factor_oracle(monkeypatch):
    # The symmetric-mode factor moves filter bits at rounding level only: every
    # filter has the oracle's order, ties and signs, every solve the same
    # certificate decision, on noisy circles and every piece of the first
    # ten CI samples' towers. Every piece takes the shift-invert path.
    monkeypatch.setattr(geometry, "_DENSE_PAIR_LIMIT", 0)

    def circle(n, seed):
        rng = np.random.default_rng((seed, n))
        theta = rng.uniform(0, 2 * np.pi, n)
        return PointCloud(np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0, 0.05, (n, 2)))

    def tower(i):
        return [g for _, _, g in screeb_tower(generate_sample(GeneratorConfig(), CI_SEED, i).cloud).entries]

    runs = [lambda c=circle(n, seed): [screeb(c)] for n in (1000, 2000) for seed in (1, 2, 3)]
    runs += [lambda i=i: tower(i) for i in range(10)]
    solves = 0
    for run in runs:
        out, got, got_certified = _filters_and_certificates(monkeypatch, eigsh, run)
        want_out, want, want_certified = _filters_and_certificates(monkeypatch, default_factor_eigsh, run)
        assert got_certified == want_certified and len(got) == len(want)
        for f, g in zip(got, want):
            assert np.array_equal(np.argsort(f, kind="stable"), np.argsort(g, kind="stable"))
            assert np.array_equal(np.unique(f, return_counts=True)[1], np.unique(g, return_counts=True)[1])
            assert np.array_equal(np.signbit(f), np.signbit(g))
        assert list(map(graph_to_json, out)) == list(map(graph_to_json, want_out))
        solves += len(got_certified)
    assert solves > len(runs)


def _shuffled_pieces(rng):
    """A shuffled affinity whose components are kNN clusters of several sizes,
    some holding exact copies of points, and a hand-built 2-point and 1-point piece."""
    pts = separated_clusters(rng, (40, 9, 4, 4, 25))
    cloud = PointCloud(np.vstack([pts, pts[:6], pts[45:47]]))
    aff = adaptive_affinity(cloud, knn_graph(cloud, 3), 3)
    w = sp.block_diag([aff, [[1.0, 0.25], [0.25, 1.0]], [[1.0]]], format="csr")
    p = rng.permutation(w.shape[0])
    return w[p][:, p].tocsr()


def test_range_sliced_filters_match_own_block_filters(rng):
    # Permuted into component order, each component is a range of rows. Its
    # filter, normalised from that range's block, has the bytes of the filter
    # normalised on the component's own block and of fiedler_filter on the
    # unpermuted components.
    aff = _shuffled_pieces(rng)
    comps = affinity_components(aff)
    assert sorted(map(len, comps))[:2] == [1, 2]
    order = np.concatenate(comps)
    ranged = aff[order][:, order]
    start = 0
    for comp in comps:
        f = fiedler_filter(ranged, np.arange(start, start + len(comp)))
        start += len(comp)
        assert f.tobytes() == own_block_filter(aff, comp).tobytes() == fiedler_filter(aff, comp).tobytes()


def test_filter_of_ids_short_of_a_component_uses_full_row_degrees(rng, monkeypatch):
    # A run of an unshuffled circle's points is connected but not a component.
    # Its filter is that of the transition matrix restricted to the run: its
    # block of W normalised with the degrees of W's full rows, which differ
    # from the block's own near the run's ends.
    theta = np.sort(rng.uniform(0, 2 * np.pi, 300))
    cloud = PointCloud(np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0, 0.02, (300, 2)))
    w = adaptive_affinity(cloud, knn_graph(cloud, 10), 10)
    degrees = np.asarray(w.sum(axis=1)).ravel()
    handed = spectrum_inputs(monkeypatch)
    for ids in (np.arange(40, 160), rng.permutation(np.arange(100, 180))):
        f = fiedler_filter(w, ids)
        assert not np.array_equal(np.asarray(w[ids][:, ids].sum(axis=1)).ravel(), degrees[ids])
        assert_same_csr(handed[-1], block_operator(w, ids))
        _, vecs = _symmetric_spectrum(block_operator(w, ids), 1)
        phi = vecs[:, 1] / np.sqrt(degrees[ids])
        assert f.tobytes() == (-phi if phi[np.argmax(np.abs(phi))] < 0 else phi).tobytes()
        assert f.tobytes() != own_block_filter(w, ids).tobytes()
        vals, vecs = np.linalg.eig(transition_matrix(w).toarray()[np.ix_(ids, ids)])
        oracle = np.real(vecs[:, np.argsort(-np.abs(vals))[1]])
        assert abs(np.dot(f, oracle)) / (np.linalg.norm(f) * np.linalg.norm(oracle)) > 1 - 1e-6


# -- condense -----------------------------------------------------------------------


def test_condense_t0_identity(rng):
    cloud = PointCloud(rng.normal(size=(30, 2)))
    assert condense(cloud, 5, 0, 5) is cloud
    with pytest.raises(ValueError, match="t must be non-negative"):
        condense(cloud, 5, -1, 5)


def test_condense_preserves_row_count(rng):
    cloud = PointCloud(rng.normal(size=(50, 3)))
    assert condense(cloud, 10, 2, 10).n == 50


def test_condense_blob_contracts(rng):
    cloud = PointCloud(rng.normal(size=(100, 3)))
    d0 = pdist(cloud.points).max()
    x = cloud
    for _ in range(20):
        k = min(80, x.n - 1)
        x = condense(x, k, 1, k)
    assert pdist(x.points).max() < 0.1 * d0


def test_condense_separated_blobs_stay_separated(rng):
    a = disk_points(rng, 50, 0.5, (0.0, 0.0))
    b = disk_points(rng, 50, 0.5, (10.0, 0.0))
    cloud = PointCloud(np.vstack([a, b]))
    out = condense(cloud, 20, 1, 20)
    assert out.points[:50, 0].max() < 5.0
    assert out.points[50:, 0].min() > 5.0


def test_condense_clamps_both_counts_to_n_minus_one(rng):
    cloud = PointCloud(rng.normal(size=(50, 3)))
    want = condense(cloud, 49, 1, 49).points
    for k_smooth, k_bw in ((80, 80), (80, 49), (49, 80)):
        np.testing.assert_array_equal(condense(cloud, k_smooth, 1, k_bw).points, want)
    np.testing.assert_array_equal(condense(cloud, 80, 1, 32).points, condense(cloud, 49, 1, 32).points)
    with pytest.raises(ValueError, match="k_bw"):
        condense(cloud, 10, 1, 11)  # bandwidths are read from the k_smooth lists


def test_condense_diameter_never_increases(rng):
    cloud = PointCloud(rng.normal(size=(80, 2)))
    prev = pdist(cloud.points).max()
    x = cloud
    for _ in range(5):
        x = condense(x, 20, 1, 20)
        cur = pdist(x.points).max()
        assert cur <= prev + 1e-12
        prev = cur


# -- points.csv -------------------------------------------------------------------


def test_points_csv_round_trip(tmp_path, rng):
    cloud = PointCloud(rng.normal(size=(20, 4)))
    path = tmp_path / "points.csv"
    save_points_csv(cloud, path)
    loaded = load_points_csv(path)
    assert np.array_equal(loaded.points, cloud.points)


def test_points_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InvalidDataError):
        load_points_csv(path)


def test_points_csv_rejects_nonnumeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,a\n")
    with pytest.raises(InvalidDataError):
        load_points_csv(path)


def test_points_csv_round_trip_is_bit_exact_at_extreme_exponents(tmp_path, rng):
    points = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-150, 151, size=(300, 5))
    points[0, :2] = -0.0, 5e-324
    path = tmp_path / "points.csv"
    save_points_csv(PointCloud(points), path)
    assert load_points_csv(path).points.tobytes() == points.tobytes()


def test_points_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("\n1.5,-2\n\n3,4e-3\n\n")
    assert load_points_csv(path).points.tolist() == [[1.5, -2.0], [3.0, 0.004]]
    path.write_text("7\n")
    assert load_points_csv(path).points.shape == (1, 1)


@pytest.mark.parametrize(
    "text",
    ["1.0,2.0\n3.0\n", "1.0,a\n", "1.0,,2.0\n", "#x,y\n1,2\n", "", "\n\n", "1,2\n   \n3,4\n"],
    ids=["ragged", "nonnumeric", "empty-field", "hash-prefixed", "empty", "blank-lines-only", "spaces-only-line"],
)
def test_points_csv_refuses_malformed_files_naming_them(tmp_path, text):
    # The empty file leaks no numpy warning; a line of only spaces is a ragged row.
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDataError) as exc:
            load_points_csv(path)
    assert str(path) in str(exc.value)
