"""Mapper baseline: PCA lens, DBSCAN, radius rule, nerve construction."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from screeb import (
    MapperParams,
    PointCloud,
    betti,
    dbscan,
    graph_to_json,
    mapper_graph,
    pca_lens,
    third_neighbor_eps,
)
from screeb import mapper as mapper_module
from screeb.errors import DegenerateInputError

from conftest import circle_cloud, disk_points


def brute_force_dbscan(points, eps, min_samples):
    """Reachability oracle: core sets from pairwise distances, clusters as
    transitive closure over cores, border points to the lowest cluster id."""
    n = len(points)
    d = squareform(pdist(points)) if n > 1 else np.zeros((n, n))
    neighbors = [set(np.flatnonzero(d[i] <= eps).tolist()) for i in range(n)]
    core = [len(neighbors[i]) >= min_samples for i in range(n)]
    labels = [-1] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        stack = [i]
        labels[i] = cluster
        while stack:
            p = stack.pop()
            for q in neighbors[p]:
                if core[q] and labels[q] == -1:
                    labels[q] = cluster
                    stack.append(q)
        cluster += 1
    for i in range(n):
        if core[i] or labels[i] != -1:
            continue
        reachable = [labels[q] for q in neighbors[i] if core[q]]
        if reachable:
            labels[i] = min(reachable)
    return np.array(labels)


# -- params -----------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        MapperParams(overlap=1.0)
    with pytest.raises(ValueError):
        MapperParams(n_intervals=0)
    assert MapperParams().resolve_d_lens(100, 5) == 2
    assert MapperParams().resolve_d_lens(100, 1) == 1


def test_mapper_rejects_single_point():
    with pytest.raises(DegenerateInputError):
        mapper_graph(PointCloud(np.zeros((1, 2))))


# -- pca_lens ------------------------------------------------------------------


def test_lens_one_dimensional_identity(rng):
    x = rng.normal(size=(30, 1))
    lens = pca_lens(PointCloud(x), 1)
    centered = (x - x.mean()).ravel()
    assert np.allclose(lens.ravel(), centered, atol=1e-12) or np.allclose(
        lens.ravel(), -centered, atol=1e-12
    )


def test_lens_rank_deficient_pads_zero():
    x = np.zeros((20, 3))
    x[:, 0] = np.linspace(0, 1, 20)
    with pytest.warns(UserWarning):
        lens = pca_lens(PointCloud(x), 2)
    assert np.all(lens[:, 1] == 0.0)


def test_lens_matches_svd_oracle(rng):
    x = rng.normal(size=(50, 5))
    lens = pca_lens(PointCloud(x), 2)
    centered = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    for j in range(2):
        proj = centered @ vt[j]
        assert np.allclose(np.abs(lens[:, j]), np.abs(proj), atol=1e-8)
    # projections reproduce the top-2 reconstruction
    recon_oracle = np.outer(centered @ vt[0], vt[0]) + np.outer(centered @ vt[1], vt[1])
    comps = []
    for j in range(2):
        c = vt[j]
        if c[np.argmax(np.abs(c))] < 0:
            c = -c
        comps.append(c)
    recon = np.outer(lens[:, 0], comps[0]) + np.outer(lens[:, 1], comps[1])
    assert np.allclose(recon, recon_oracle, atol=1e-8)


def test_lens_sign_deterministic(rng):
    x = rng.normal(size=(40, 3))
    a = pca_lens(PointCloud(x), 2)
    b = pca_lens(PointCloud(x), 2)
    assert np.array_equal(a, b)


# -- dbscan ------------------------------------------------------------------------


def test_dbscan_coincident_points_single_cluster():
    labels = dbscan(np.zeros((5, 2)), eps=0.1, min_samples=3)
    assert labels.tolist() == [0] * 5


def test_dbscan_two_sparse_points_noise():
    labels = dbscan(np.array([[0.0], [1.0]]), eps=0.5, min_samples=2)
    assert labels.tolist() == [-1, -1]


def test_dbscan_blobs_and_outliers_match_oracle(rng):
    pts = np.vstack(
        [
            disk_points(rng, 20, 0.5, (0, 0)),
            disk_points(rng, 20, 0.5, (10, 0)),
            np.array([[30.0, 30.0], [40.0, -40.0], [-35.0, 20.0]]),
        ]
    )
    labels = dbscan(pts, eps=1.0, min_samples=3)
    oracle = brute_force_dbscan(pts, 1.0, 3)
    assert labels.tolist() == oracle.tolist()
    assert set(labels[:40]) == {0, 1}
    assert labels[40:].tolist() == [-1, -1, -1]


def test_dbscan_matches_oracle_random(rng):
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(5, 40)), 2))
        eps = float(rng.uniform(0.2, 1.5))
        ms = int(rng.integers(2, 6))
        assert dbscan(pts, eps, ms).tolist() == brute_force_dbscan(pts, eps, ms).tolist()


# -- radius rule -----------------------------------------------------------------


def test_eps_rule_regular_simplex():
    # All pairwise distances c: every third-neighbor distance is c.
    c = 2.0
    simplex = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0], [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3]]) * c
    d = pdist(simplex)
    assert np.allclose(d, c)
    assert third_neighbor_eps(simplex) == pytest.approx(1.5 * c)


# -- mapper_graph ----------------------------------------------------------------


def test_mapper_single_blob_single_node():
    # A blob tight enough to span a single cover cell degenerates the lens
    # range to zero width; all cells then hold the same member set and the
    # duplicates collapse to one node.
    cloud = PointCloud(np.tile([[1.0, 2.0]], (12, 1)))
    g = mapper_graph(cloud)
    assert g.n_vertices == 1
    assert g.edge_count() == 0


def test_mapper_segment_reduces_to_edge():
    # Noiseless segment: evenly spaced samples so the third-neighbor radius
    # covers all along-segment gaps.
    cloud = PointCloud(np.linspace(0.0, 1.0, 200).reshape(-1, 1))
    g = mapper_graph(cloud)
    assert betti(g) == (1, 0)


def test_mapper_circle_has_loop(rng):
    cloud = circle_cloud(rng, n=300)
    g = mapper_graph(cloud)
    assert betti(g).b1 >= 1


def test_mapper_duplicated_cloud_scale_invariant(rng, monkeypatch):
    # Every point has 3 copies, so the third-neighbor radius of the raw cloud
    # is 0; the radius must be that of the distinct points, which scales
    # with the data.
    base = circle_cloud(rng, n=100).points
    radii = []

    def recording_dbscan(points, eps, min_samples):
        radii.append(eps)
        return dbscan(points, eps, min_samples)

    monkeypatch.setattr(mapper_module, "dbscan", recording_dbscan)
    shapes = []
    for scale in (1e-3, 1e3):
        radii.clear()
        g = mapper_graph(PointCloud(scale * np.repeat(base, 4, axis=0)))
        shapes.append((g.n_vertices, betti(g)))
        assert radii and set(radii) == {third_neighbor_eps(scale * base)}
    assert shapes[0] == shapes[1]
    # A fully coincident cloud still clusters, at a positive radius.
    radii.clear()
    g = mapper_graph(PointCloud(np.ones((12, 2))))
    assert g.n_vertices == 1 and radii and min(radii) > 0


def test_mapper_deterministic(rng):
    cloud = circle_cloud(rng, n=120)
    assert graph_to_json(mapper_graph(cloud)) == graph_to_json(mapper_graph(cloud))


def test_mapper_membership_invariants(rng):
    # Rebuild the cover/clusters to check: clustered points appear in >= 1
    # node, noise in none, and nodes within one cell have disjoint members.
    import itertools

    from screeb.mapper import third_neighbor_eps as eps_rule

    cloud = circle_cloud(rng, n=150)
    params = MapperParams()
    d_lens = params.resolve_d_lens(cloud.n, cloud.dim)
    lens = pca_lens(cloud, d_lens)
    eps = eps_rule(cloud.points, params.eps_factor)
    mins, maxs = lens.min(axis=0), lens.max(axis=0)
    widths = (maxs - mins) / params.n_intervals
    pad = params.overlap * widths
    covered = set()
    noise = set(range(cloud.n))
    for cell in itertools.product(range(params.n_intervals), repeat=d_lens):
        mask = np.ones(cloud.n, dtype=bool)
        for axis, idx in enumerate(cell):
            lo = mins[axis] + idx * widths[axis] - pad[axis]
            hi = mins[axis] + (idx + 1) * widths[axis] + pad[axis]
            mask &= (lens[:, axis] >= lo) & (lens[:, axis] <= hi)
        members = np.flatnonzero(mask)
        if len(members) == 0:
            continue
        labels = dbscan(cloud.points[members], eps, params.min_samples)
        cell_sets = []
        for cid in range(labels.max() + 1 if labels.size else 0):
            ms = set(members[labels == cid].tolist())
            for other in cell_sets:
                assert not (ms & other)
            cell_sets.append(ms)
            covered |= ms
            noise -= ms
    assert covered
    assert covered | noise == set(range(cloud.n))
