"""Geometry: kNN graphs, adaptive affinities, the transition matrix, Fiedler
filter, condensation, and the points.csv format."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

from screeb import (
    AffinityMatrix,
    PointCloud,
    adaptive_affinity,
    condense,
    fiedler_filter,
    knn_graph,
    load_points_csv,
    save_points_csv,
    screeb,
    transition_matrix,
)
from screeb import geometry
from screeb.errors import DegenerateInputError, InvalidDataError, IsolatedPointError, SolverError
from screeb.geometry import _symmetric_spectrum, affinity_components, induced_neighbor_subgraph

from conftest import disk_points


def uniform_affinity(adjacency):
    """Affinity matrix with unit weights on the given 0/1 adjacency."""
    w = np.asarray(adjacency, dtype=float)
    np.fill_diagonal(w, 1.0)
    return AffinityMatrix(sp.csr_matrix(w), np.ones(len(w)))


# -- PointCloud ----------------------------------------------------------------


def test_cloud_rejects_nonfinite():
    with pytest.raises(InvalidDataError):
        PointCloud(np.array([[0.0], [np.inf]]))


def test_cloud_immutable():
    cloud = PointCloud(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


# -- knn_graph -------------------------------------------------------------------


def test_knn_line_three_points():
    cloud = PointCloud(np.array([[0.0], [1.0], [3.0]]))
    nbrs = knn_graph(cloud, 1, symmetrize=True)
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
    assert all(len(ids) == 2 for ids in nbrs.neighbor_ids)


def test_knn_matches_brute_force_oracle(rng):
    cases = [(int(rng.integers(10, 60)), int(rng.integers(1, 8)), "normal") for _ in range(5)]
    cases.append((50, 5, "cube"))   # uniform points in the unit cube
    cases.append((200, 6, "cube"))
    for n, k, kind in cases:
        pts = rng.uniform(size=(n, 3)) if kind == "cube" else rng.normal(size=(n, 3))
        nbrs = knn_graph(PointCloud(pts), k, symmetrize=False)
        dmat = squareform(pdist(pts))
        np.fill_diagonal(dmat, np.inf)
        for i in range(n):
            expect = set(np.argsort(dmat[i], kind="stable")[:k].tolist())
            assert set(nbrs.neighbor_ids[i].tolist()) == expect


def test_knn_symmetrized_distances_exact(rng):
    # The duplicate-heavy cloud repeats each point 8 > k + 1 times, so the
    # query point can be missing from its own kNN row.
    normal = rng.normal(size=(50, 3))
    duplicated = np.repeat(rng.normal(size=(10, 3)), 8, axis=0)[rng.permutation(80)]
    for pts in (normal, duplicated):
        n = len(pts)
        nbrs = knn_graph(PointCloud(pts), 5)
        for u in range(n):
            assert u not in nbrs.neighbor_ids[u]
            for v, d in zip(nbrs.neighbor_ids[u], nbrs.neighbor_dists[u]):
                true = np.linalg.norm(pts[u] - pts[v])
                assert d == pytest.approx(true, rel=1e-12)
        # symmetric relation
        for u in range(n):
            for v in nbrs.neighbor_ids[u]:
                assert u in nbrs.neighbor_ids[v]


def test_neighbor_graph_matches_loop_reference(rng):
    # Per-vertex loop reference for the array-built lists: the kNN row minus
    # its first self hit (else its last hit), united with the vertices that
    # selected the point, ordered by (distance, id); a pair listed twice keeps
    # the first-listed distance; an induced subgraph keeps list order.
    def pairs(ids, dists):
        return list(zip(ids.tolist(), dists.tolist()))

    for pts in (rng.normal(size=(60, 2)), np.repeat(rng.normal(size=(12, 2)), 5, axis=0)):
        n, k = len(pts), 6
        dists, ids = cKDTree(pts).query(pts, k=k + 1)
        own = []
        for i in range(n):
            row = pairs(ids[i], dists[i])
            if i in ids[i]:
                row.pop(ids[i].tolist().index(i))
            own.append(row[:k])
        lists = [dict(row) for row in own]
        for i in range(n):
            for j, d in own[i]:
                lists[j].setdefault(i, d)
        nbrs = knn_graph(PointCloud(pts), k)
        for i in range(n):
            expect = sorted(lists[i].items(), key=lambda jd: (jd[1], jd[0]))
            assert pairs(nbrs.neighbor_ids[i], nbrs.neighbor_dists[i]) == expect

        first = {}
        for i in range(n):
            for j, d in pairs(nbrs.neighbor_ids[i], nbrs.neighbor_dists[i]):
                first.setdefault((min(i, j), max(i, j)), d)
        edges, edge_d = nbrs.undirected_edges()
        assert edges.tolist() == [list(e) for e in sorted(first)]
        assert edge_d.tolist() == [first[e] for e in sorted(first)]

        sub = rng.permutation(n)[: n // 2]
        relabel = {old: new for new, old in enumerate(sub.tolist())}
        part = induced_neighbor_subgraph(nbrs, sub)
        for new, old in enumerate(sub.tolist()):
            row = pairs(nbrs.neighbor_ids[old], nbrs.neighbor_dists[old])
            expect = [(relabel[j], d) for j, d in row if j in relabel]
            assert pairs(part.neighbor_ids[new], part.neighbor_dists[new]) == expect
    empty = induced_neighbor_subgraph(nbrs, [])
    assert empty.n == 0 and empty.neighbor_ids == () and empty.undirected_edges()[0].shape == (0, 2)


def test_neighbor_graph_csr_views(rng):
    # The per-vertex views are the indptr slices of the flat CSR arrays.
    normal = rng.normal(size=(50, 3))
    duplicated = np.repeat(rng.normal(size=(10, 3)), 8, axis=0)[rng.permutation(80)]
    for pts in (normal, duplicated):
        for symmetrize in (True, False):
            nbrs = knn_graph(PointCloud(pts), 5, symmetrize=symmetrize)
            ptr = nbrs.indptr
            assert len(ptr) == nbrs.n + 1 and ptr[0] == 0 and np.all(np.diff(ptr) >= 0)
            assert ptr[-1] == len(nbrs.indices) == len(nbrs.distances)
            assert len(nbrs.neighbor_ids) == len(nbrs.neighbor_dists) == nbrs.n
            for i in range(nbrs.n):
                assert nbrs.neighbor_ids[i].tolist() == nbrs.indices[ptr[i] : ptr[i + 1]].tolist()
                assert nbrs.neighbor_dists[i].tolist() == nbrs.distances[ptr[i] : ptr[i + 1]].tolist()
            for a in (ptr, nbrs.indices, nbrs.distances, nbrs.neighbor_ids[0], nbrs.neighbor_dists[0]):
                assert not a.flags.writeable


def test_induced_subgraph_unsorted_and_empty_selections(rng):
    # Loop reference: row r lists the kept neighbors of vertices[r], relabeled,
    # in the parent's list order.
    nbrs = knn_graph(PointCloud(rng.normal(size=(40, 2))), 4)
    selections = (rng.permutation(40)[:15], np.arange(40)[::-1], [7, 3], [11], [], np.zeros(0, dtype=int))
    for sub in selections:
        sub = list(map(int, sub))
        relabel = {old: new for new, old in enumerate(sub)}
        part = induced_neighbor_subgraph(nbrs, sub)
        assert part.n == len(sub) and part.symmetrized and len(part.indptr) == len(sub) + 1
        for new, old in enumerate(sub):
            row = zip(nbrs.neighbor_ids[old].tolist(), nbrs.neighbor_dists[old].tolist())
            expect = [(relabel[j], d) for j, d in row if j in relabel]
            row = slice(part.indptr[new], part.indptr[new + 1])
            assert list(zip(part.indices[row].tolist(), part.distances[row].tolist())) == expect


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 200])
def test_row_dots_match_linalg_norm_bitwise(rng, dim):
    # Spread magnitudes so rounding differs wherever the summation order would.
    x = rng.normal(size=(400, dim)) * 10.0 ** rng.uniform(-8, 8, size=(400, 1))
    y = rng.normal(size=(400, dim))
    assert np.sqrt(geometry.row_dots(x, x)).tolist() == [np.linalg.norm(row) for row in x]
    assert geometry.row_dots(x, y).tolist() == [a @ b for a, b in zip(x, y)]


# -- adaptive_affinity --------------------------------------------------------


def test_affinity_two_points_exp_minus_one():
    cloud = PointCloud(np.array([[0.0], [2.0]]))
    aff = adaptive_affinity(cloud, knn_graph(cloud, 1), 1)
    assert aff.matrix[0, 1] == pytest.approx(np.exp(-1), abs=1e-12)
    assert aff.bandwidths.tolist() == [2.0, 2.0]


def test_affinity_duplicate_points_weight_one():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    cloud = PointCloud(pts)
    aff = adaptive_affinity(cloud, knn_graph(cloud, 2), 1)
    assert aff.matrix[0, 1] == pytest.approx(1.0)
    assert np.all(aff.bandwidths > 0)  # clamped to smallest positive distance


def test_affinity_all_identical_rejected():
    cloud = PointCloud(np.zeros((4, 2)))
    with pytest.raises(InvalidDataError):
        adaptive_affinity(cloud, knn_graph(cloud, 2), 2)


def test_affinity_invariants(rng):
    for _ in range(10):
        pts = rng.normal(size=(40, 3))
        cloud = PointCloud(pts)
        aff = adaptive_affinity(cloud, knn_graph(cloud, 6), 6)
        w = aff.matrix.toarray()
        assert np.allclose(w, w.T, atol=1e-12)
        assert w.min() >= 0 and w.max() <= 1 + 1e-15
        assert np.all(np.diag(w) == 1.0)


# -- transition_matrix ----------------------------------------------------------


def test_operator_two_by_two_uniform():
    p = transition_matrix(uniform_affinity(np.ones((2, 2))))
    assert np.allclose(p.toarray(), 0.5 * np.ones((2, 2)))


def test_operator_identity_from_isolated_loops():
    p = transition_matrix(uniform_affinity(np.eye(2)))
    assert np.allclose(p.toarray(), np.eye(2))


def test_transition_matrix_rejects_zero_degree_row():
    with pytest.raises(IsolatedPointError):
        transition_matrix(AffinityMatrix(sp.csr_matrix((2, 2)), np.ones(2)))


def test_operator_rows_and_spectrum_oracle(rng):
    for _ in range(5):
        w = rng.uniform(0.1, 1.0, size=(10, 10))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 1.0)
        p = transition_matrix(AffinityMatrix(sp.csr_matrix(w), np.ones(10)))
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
    degrees = np.asarray(aff.matrix.sum(axis=1)).ravel()
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


def _singular_factor(m, k, **kwargs):
    raise RuntimeError("Factor is exactly singular")


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
    for failure in (_no_convergence, _singular_factor):
        monkeypatch.setattr(geometry, "eigsh", failure)
        np.testing.assert_allclose(fiedler_filter(aff, comp), shift_invert, atol=1e-8)
        vals, vecs = _symmetric_spectrum(m, 1)
        dense_vals, dense_vecs = _dense_pairs(m, 2)
        assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)


def test_arpack_failure_above_dense_limit_raises_solver_error(rng, monkeypatch):
    # n > 4096 has no dense fallback; screeb surfaces the SolverError.
    m = sp.diags(np.arange(1.0, 4098.0)).tocsr()
    for failure, message in ((_no_convergence, "no convergence"), (_singular_factor, "exactly singular")):
        monkeypatch.setattr(geometry, "eigsh", failure)
        with pytest.raises(SolverError, match=message):
            _symmetric_spectrum(m, 1)
    with pytest.raises(SolverError):
        screeb(PointCloud(disk_points(rng, 4097, 1.0, (0.0, 0.0))))


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
    m, d = _normalized(w)
    calls = []
    monkeypatch.setattr(geometry, "eigsh", lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
    vals, vecs = _symmetric_spectrum(m, 1)
    dense_vals, dense_vecs = _dense_pairs(m, 2)
    assert calls and dense_vals[1] < -0.98
    assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)


def test_fiedler_filter_order_matches_dense_on_large_circle(rng, monkeypatch):
    # n = 1000 noisy circle, as screeb builds it: the shift-invert filter has
    # the dense filter's order and ties, which is all reeb_graph reads.
    theta = rng.uniform(0, 2 * np.pi, 1000)
    cloud = PointCloud(np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0, 0.05, (1000, 2)))
    aff = adaptive_affinity(cloud, knn_graph(cloud, 15), 15)
    comp = np.arange(cloud.n)
    m, d = _normalized(aff.matrix.toarray())
    assert _dense_pairs(m, 2)[0][1] > 1 - 2 / d.max()  # the certificate accepts the sparse pairs
    f = fiedler_filter(aff, comp)
    monkeypatch.setattr(geometry, "eigsh", _no_convergence)
    dense = fiedler_filter(aff, comp)
    assert np.array_equal(np.argsort(f, kind="stable"), np.argsort(dense, kind="stable"))
    assert np.array_equal(np.unique(f, return_counts=True)[1], np.unique(dense, return_counts=True)[1])
    assert abs(np.dot(f, dense)) / (np.linalg.norm(f) * np.linalg.norm(dense)) > 1 - 1e-9


# -- condense -----------------------------------------------------------------------


def test_condense_t0_identity(rng):
    cloud = PointCloud(rng.normal(size=(30, 2)))
    assert condense(cloud, 5, 0) is cloud


def test_condense_preserves_row_count(rng):
    cloud = PointCloud(rng.normal(size=(50, 3)))
    assert condense(cloud, 10, 2).n == 50


def test_condense_blob_contracts(rng):
    cloud = PointCloud(rng.normal(size=(100, 3)))
    d0 = pdist(cloud.points).max()
    x = cloud
    for _ in range(20):
        x = condense(x, min(80, x.n - 1), 1)
    assert pdist(x.points).max() < 0.1 * d0


def test_condense_separated_blobs_stay_separated(rng):
    a = disk_points(rng, 50, 0.5, (0.0, 0.0))
    b = disk_points(rng, 50, 0.5, (10.0, 0.0))
    cloud = PointCloud(np.vstack([a, b]))
    out = condense(cloud, 20, 1)
    assert out.points[:50, 0].max() < 5.0
    assert out.points[50:, 0].min() > 5.0


def test_condense_diameter_never_increases(rng):
    cloud = PointCloud(rng.normal(size=(80, 2)))
    prev = pdist(cloud.points).max()
    x = cloud
    for _ in range(5):
        x = condense(x, 20, 1)
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
