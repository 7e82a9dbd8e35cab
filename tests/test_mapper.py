"""Mapper baseline: PCA lens, DBSCAN, radius rule, nerve construction."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from screeb import (
    MapperParams,
    Multigraph,
    PointCloud,
    betti,
    dbscan,
    graph_to_json,
    mapper_graph,
    pca_lens,
    reduce,
    third_neighbor_eps,
)
from screeb import mapper as mapper_module
from screeb.errors import DegenerateInputError

from conftest import circle_cloud, disk_points


def brute_force_dbscan(points, eps, min_samples):
    """Reachability oracle: core sets from pairwise distances, clusters as
    transitive closure over cores, border points to the lowest cluster id.
    Like the kd-tree, it compares squared distances with eps**2, which can
    differ from ``distance <= eps`` at an exact tie (6000*sqrt(2) against
    1.5 * 4000*sqrt(2))."""
    n = len(points)
    d = squareform(pdist(points, "sqeuclidean")) if n > 1 else np.zeros((n, n))
    neighbors = [set(np.flatnonzero(d[i] <= eps * eps).tolist()) for i in range(n)]
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
    for overlap in (1.0, False, "0.3", float("nan")):
        with pytest.raises(ValueError, match="overlap fraction must lie in"):
            MapperParams(overlap=overlap)
    with pytest.raises(ValueError):
        MapperParams(n_intervals=0)
    assert MapperParams().resolve_d_lens(100, 5) == 2
    assert MapperParams().resolve_d_lens(100, 1) == 1
    for field, value in (("n_intervals", 2.5), ("min_samples", True), ("d_lens", 1.0)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MapperParams(**{field: value})
    assert MapperParams(n_intervals=np.int64(4)).n_intervals == 4


@pytest.mark.parametrize("value", [0, 0.0, -1.5, float("nan"), float("inf"), "1.5", True, None])
def test_params_refuse_eps_factor_that_is_no_finite_positive_number(value):
    # 0 clustered at radius 1.0, NaN gave an empty graph, "1.5" raised TypeError on every cloud.
    with pytest.raises(ValueError, match="eps_factor must be a finite positive number"):
        MapperParams(eps_factor=value)
    assert MapperParams(eps_factor=np.float64(0.5)).eps_factor == 0.5 and MapperParams(eps_factor=2).eps_factor == 2


@pytest.mark.parametrize("value", [0, -1])
def test_params_refuse_d_lens_below_one(value):
    with pytest.raises(ValueError, match="d_lens must be >= 1"):
        MapperParams(d_lens=value)
    assert MapperParams(d_lens=1).resolve_d_lens(100, 5) == 1


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


def test_lens_refuses_more_axes_than_the_cloud_has(rng):
    with pytest.raises(ValueError, match=r"d_lens must satisfy 1 <= d_lens <= min\(n, m\)"):
        pca_lens(PointCloud(rng.normal(size=(10, 2))), 3)


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


@pytest.mark.parametrize("eps", [0, -1.0])
def test_dbscan_refuses_a_radius_that_is_not_positive(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        dbscan(np.zeros((3, 2)), eps=eps, min_samples=2)


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


def test_eps_rule_refuses_a_single_point():
    with pytest.raises(ValueError, match="radius rule requires at least two points"):
        third_neighbor_eps(np.zeros((1, 2)))


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
    cell_dbscan = mapper_module._cell_dbscan

    def recording_cell_dbscan(points, eps, *args):
        radii.append(eps)
        return cell_dbscan(points, eps, *args)

    monkeypatch.setattr(mapper_module, "_cell_dbscan", recording_cell_dbscan)
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


def dict_nerve_mapper(cloud, params=MapperParams(), cluster=dbscan):
    """``mapper_graph`` with its nerve taken pair by pair: a dict from each
    point to the nodes that hold it, and every pair of those nodes. The
    cover, the node order and, with ``cluster=dbscan``, the clusters are
    ``mapper_graph``'s own; each cover cell is built from its own mask and
    clustered on its own by ``cluster``."""
    d_lens = params.resolve_d_lens(cloud.n, cloud.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lens = pca_lens(cloud, d_lens)
    distinct = np.unique(cloud.points, axis=0)
    eps = (len(distinct) > 1 and third_neighbor_eps(distinct, params.eps_factor)) or 1.0
    mins, maxs = lens.min(axis=0), lens.max(axis=0)
    widths = (maxs - mins) / params.n_intervals
    pad = params.overlap * widths
    node_members, seen = [], set()
    for cell in itertools.product(range(params.n_intervals), repeat=d_lens):
        mask = np.ones(cloud.n, dtype=bool)
        for axis, idx in enumerate(cell):
            lo = mins[axis] + idx * widths[axis] - pad[axis]
            hi = mins[axis] + (idx + 1) * widths[axis] + pad[axis]
            mask &= (lens[:, axis] >= lo) & (lens[:, axis] <= hi)
        members = np.flatnonzero(mask)
        if not members.size:
            continue
        labels = cluster(cloud.points[members], eps, params.min_samples)
        for cluster_id in range(labels.max() + 1):
            member_set = tuple(members[labels == cluster_id].tolist())
            if member_set not in seen:
                seen.add(member_set)
                node_members.append(member_set)
    if not node_members:
        return Multigraph(0, ())
    centroids = np.array([cloud.points[list(m)].mean(axis=0) for m in node_members])
    point_to_nodes = {}
    for node_id, member_set in enumerate(node_members):
        for p in member_set:
            point_to_nodes.setdefault(p, []).append(node_id)
    pairs = set()
    for nodes in point_to_nodes.values():
        for a, b in itertools.combinations(nodes, 2):
            pairs.add((min(a, b), max(a, b)))
    a, b = np.array(sorted(pairs), dtype=int).reshape(-1, 2).T
    lengths = [float(np.linalg.norm(centroids[i] - centroids[j])) for i, j in zip(a.tolist(), b.tolist())]
    return reduce(Multigraph.from_arrays(len(node_members), a, b, lengths, positions=centroids))


def reference_mapper(cloud, params=MapperParams()):
    """Mapper from a mask per cover cell, :func:`brute_force_dbscan` on each
    cell and the pairwise nerve: no tree, pair query or labelling of
    ``mapper_graph``'s."""
    return dict_nerve_mapper(cloud, params, cluster=brute_force_dbscan)


@st.composite
def clouds_with_copies(draw, scales=(0.25, 1.0, 1e3)):
    """Points on a coarse grid (so coordinates tie), some of them repeated."""
    dim = draw(st.integers(1, 4))
    base = draw(st.lists(st.lists(st.integers(-12, 12), min_size=dim, max_size=dim), min_size=2, max_size=70))
    copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=30))
    scale = draw(st.sampled_from(scales))
    return PointCloud(scale * np.array(base + [base[i] for i in copies], dtype=float))


@given(clouds_with_copies(), st.integers(1, 8), st.sampled_from([0.0, 0.2, 0.35, 0.6]))
@settings(max_examples=200, deadline=None)
def test_sparse_nerve_matches_pairwise_nerve(cloud, n_intervals, overlap):
    params = MapperParams(n_intervals=n_intervals, overlap=overlap)
    assert graph_to_json(mapper_graph(cloud, params)) == graph_to_json(dict_nerve_mapper(cloud, params))


@given(clouds_with_copies(), st.integers(1, 8), st.sampled_from([0.0, 0.2, 0.35, 0.6]), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_mapper_matches_per_cell_brute_force_reference(cloud, n_intervals, overlap, d_lens):
    # Grid clouds tie coordinates and put pairs exactly at the radius; copies make coincident points.
    # A PCA lens has at most min(n, dim) axes; more is refused by both graphs alike.
    params = MapperParams(n_intervals=n_intervals, overlap=overlap, d_lens=min(d_lens, cloud.n, cloud.dim))
    assert graph_to_json(mapper_graph(cloud, params)) == graph_to_json(reference_mapper(cloud, params))


@given(clouds_with_copies(scales=(1.0,)), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_dbscan_matches_oracle_with_ties_and_copies(cloud, eps, min_samples):
    # Integer points: many pairs sit exactly at an integer radius.
    labels = dbscan(cloud.points, eps, min_samples)
    assert labels.tolist() == brute_force_dbscan(cloud.points, eps, min_samples).tolist()


def test_many_cell_cover_matches_reference_in_memory_free_of_the_cell_count(rng):
    # 40 intervals on 3 lens axes make 64 000 cells, nearly all empty. The peak
    # is about 2 MB and falls as cells get more and smaller; a table of cells x
    # points would take 128 MB of booleans at n = 2000.
    import tracemalloc

    params = MapperParams(n_intervals=40, d_lens=3)
    cloud = PointCloud(rng.normal(size=(2000, 3)) * [3.0, 2.0, 1.0])
    sub = PointCloud(cloud.points[:800])
    want = reference_mapper(sub, params)
    assert want.n_vertices > 10 and graph_to_json(mapper_graph(sub, params)) == graph_to_json(want)
    tracemalloc.start()
    try:
        g = mapper_graph(cloud, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_vertices > 0
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
