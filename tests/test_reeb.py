"""Reeb construction, the full screeb pipeline, and the condensation tower."""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screeb import (
    PointCloud,
    ReebParams,
    betti,
    graph_to_json,
    knn_graph,
    reeb_graph,
    screeb,
    screeb_tower,
)
from screeb import graph as graphmod
from screeb import reeb as reeb_module
from screeb.errors import DegenerateInputError, InvalidDataError

from conftest import add_noise, circle_cloud, segment_cloud, two_blob_cloud, ytree_cloud


def test_params_validation():
    with pytest.raises(ValueError):
        ReebParams(k=1)
    with pytest.raises(ValueError):
        ReebParams(levels=-1)
    with pytest.raises(ValueError):
        ReebParams(t=0)
    assert ReebParams().resolve_k_smooth(1000) == 80
    assert ReebParams().resolve_k_smooth(50) == 49
    assert ReebParams().resolve_k_bw(1000) == 32
    assert ReebParams(k_bw=10).resolve_k_bw(1000) == 10


# -- reeb_graph ---------------------------------------------------------------


def test_reeb_three_node_path_by_hand():
    # f = (0, 1, 2) on a path: thresholds 0.5 and 1.5, one component each,
    # linked by the shared middle vertex; reduces to a single edge.
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    nbrs = knn_graph(pts, 1, symmetrize=True)
    g = reeb_graph(nbrs, np.array([0.0, 1.0, 2.0]), pts)
    assert g.n_vertices == 2
    assert len(g.edges) == 1
    r = graphmod.reduce(g)
    assert r.n_vertices == 2 and r.edge_count() == 1


def test_reeb_constant_filter_single_vertex():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    nbrs = knn_graph(pts, 1, symmetrize=True)
    g = reeb_graph(nbrs, np.zeros(3), pts)
    assert g.n_vertices == 1
    assert g.edges == ()
    np.testing.assert_allclose(g.positions[0], [1.0, 0.0])


def test_reeb_circle_betti(rng):
    cloud = circle_cloud(rng, n=200)
    g = screeb(cloud, ReebParams(k=10, levels=0))
    assert betti(g) == (1, 1)


def test_reeb_connected_input_connected_output(rng):
    for _ in range(5):
        cloud = circle_cloud(rng, n=120)
        g = screeb(cloud, ReebParams(k=12, levels=0))
        assert betti(g).b0 == 1


def test_reeb_negation_invariance(rng):
    from screeb.geometry import adaptive_affinity, affinity_components, fiedler_filter

    cloud = ytree_cloud(rng, per_arm=60)
    nbrs = knn_graph(cloud, 10)
    aff = adaptive_affinity(cloud, nbrs, 10)
    comp = affinity_components(aff)[0]
    f = fiedler_filter(aff, comp)
    g_pos = graphmod.reduce(reeb_graph(nbrs, f, cloud))
    g_neg = graphmod.reduce(reeb_graph(nbrs, -f, cloud))
    assert betti(g_pos) == betti(g_neg)
    assert g_pos.degree_sequence() == g_neg.degree_sequence()


def test_reeb_monotone_hamiltonian_filter_single_edge(rng):
    # Injective filter, monotone along the sampled segment: one component per
    # slice, so the reduced output is a single edge. Bounded jitter keeps the
    # k=4 graph connected (the construction's precondition).
    t = np.sort(np.arange(80) + 0.3 * rng.uniform(size=80))
    cloud = PointCloud(np.column_stack([t, np.zeros(80)]))
    nbrs = knn_graph(cloud, 4)
    g = graphmod.reduce(reeb_graph(nbrs, t, cloud))
    assert g.n_vertices == 2
    assert g.edge_count() == 1


def test_reeb_rejects_disconnected_neighbor_graph():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0], [51.0, 0.0]]))
    nbrs = knn_graph(pts, 1, symmetrize=True)
    from screeb.errors import InvalidDataError

    with pytest.raises(InvalidDataError):
        reeb_graph(nbrs, np.array([0.0, 1.0, 2.0, 3.0]), pts)


def brute_force_reeb(nbrs, f, pts):
    """Slice-by-slice oracle: BFS over the edges crossing each slice, node
    centroids by ``pts[members].mean(axis=0)`` with members in the order the
    slice's ascending edges first touch them, nodes by (slice, smallest
    vertex), joins through shared vertices. None if a slice has no edge; a
    constant filter gives the data centroid."""
    edges, _ = nbrs.undirected_edges()
    fmin, fmax = np.minimum(f[edges[:, 0]], f[edges[:, 1]]), np.maximum(f[edges[:, 0]], f[edges[:, 1]])
    distinct = np.unique(f)
    if distinct.size == 1:
        return pts.mean(axis=0, keepdims=True), []
    positions, pairs, prev = [], set(), {}
    for below, above in zip(distinct[:-1], distinct[1:]):
        crossing = edges[(fmin <= below) & (fmax >= above)].tolist()
        if not crossing:
            return None
        touched, adjacent = [], {}
        for u, v in crossing:
            for x in (u, v):
                if x not in adjacent:
                    touched.append(x)
                    adjacent[x] = []
            adjacent[u].append(v)
            adjacent[v].append(u)
        root = {}
        for start in touched:
            if start not in root:
                root[start] = start
                queue = [start]
                for x in queue:
                    for y in adjacent[x]:
                        if y not in root:
                            root[y] = start
                            queue.append(y)
        groups = {}
        for x in touched:
            groups.setdefault(root[x], []).append(x)
        current = {}
        for members in sorted(groups.values(), key=min):
            current.update((x, len(positions)) for x in members)
            positions.append(pts[members].mean(axis=0))
        pairs |= {(prev[x], node) for x, node in current.items() if x in prev}
        prev = current
    return np.array(positions), sorted(pairs)


def assert_matches_oracle(cloud, f, k):
    nbrs = knn_graph(cloud, k, symmetrize=True)
    want = brute_force_reeb(nbrs, f, cloud.points)
    if want is None:
        with pytest.raises(InvalidDataError):
            reeb_graph(nbrs, f, cloud)
        return
    g = reeb_graph(nbrs, f, cloud)
    positions, pairs = want
    assert g.n_vertices == len(positions)
    assert g.positions.shape == positions.shape
    assert g.positions.tobytes() == positions.tobytes()
    assert [(e.u, e.v, e.multiplicity) for e in g.edges] == [(a, b, 1) for a, b in pairs]
    for e in g.edges:
        assert e.length == float(np.linalg.norm(positions[e.u] - positions[e.v]))


@st.composite
def reeb_inputs(draw):
    """Small clouds drawn from a few distinct points (duplicates) with a
    filter drawn from a few distinct values (ties)."""
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 3))
    coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=n))
    values = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=n))
    pick = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    points = np.array(pool)[np.array(draw(pick)) % len(pool)]
    f = np.array(values)[np.array(draw(pick)) % len(values)]
    k = draw(st.integers(1, min(6, n - 1)))
    return PointCloud(points), f, k


@pytest.mark.parametrize("block", [None, 1, 3])
@given(reeb_inputs())
@settings(max_examples=60, deadline=None)
def test_reeb_matches_brute_force_oracle(block, inputs):
    # Tiny blocks make every join cross a block boundary.
    cloud, f, k = inputs
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block or reeb_module._BLOCK_CROSSINGS):
        assert_matches_oracle(cloud, f, k)


@pytest.mark.parametrize("block", [None, 1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reeb_matches_brute_force_oracle_on_path(block, sign):
    # Growing gaps make the 1-NN graph a path, and a monotone filter makes
    # consecutive slices share one vertex: the largest (or smallest) vertex
    # of the slice before, which a block boundary must carry over.
    cloud = PointCloud(np.c_[np.cumsum(1.0 + 0.1 * np.arange(12)), np.zeros(12)])
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block or reeb_module._BLOCK_CROSSINGS):
        assert_matches_oracle(cloud, sign * np.arange(12.0), 1)


@pytest.mark.parametrize("block", [None, 7, 500])
def test_reeb_matches_brute_force_oracle_on_fiedler_filter(rng, block):
    from screeb import adaptive_affinity, fiedler_filter

    cloud = add_noise(circle_cloud(rng, n=300), rng, 0.05)
    nbrs = knn_graph(cloud, 15, symmetrize=True)
    f = fiedler_filter(adaptive_affinity(cloud, nbrs, 15), np.arange(cloud.n))
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block or reeb_module._BLOCK_CROSSINGS):
        assert_matches_oracle(cloud, f, 15)


# -- screeb ------------------------------------------------------------------------


def test_screeb_requires_two_points():
    with pytest.raises(DegenerateInputError):
        screeb(PointCloud(np.zeros((1, 3))))


def test_screeb_segment(rng):
    g = screeb(segment_cloud(rng), ReebParams(levels=0))
    assert betti(g) == (1, 0)
    assert g.degree_sequence() == (1, 1)


def test_screeb_two_blobs(rng):
    g = screeb(two_blob_cloud(rng), ReebParams(levels=0))
    assert betti(g) == (2, 0)


def test_screeb_two_gaussian_blobs(rng):
    # Gaussian blobs separated by 10x their radius: the kNN graph splits and
    # each blob's Reeb graph reduces independently.
    a = rng.normal(scale=0.5, size=(40, 2))
    b = rng.normal(scale=0.5, size=(40, 2)) + [5.0, 0.0]
    g = screeb(PointCloud(np.vstack([a, b])), ReebParams(levels=0))
    assert betti(g) == (2, 0)


def test_screeb_ytree(rng):
    g = screeb(ytree_cloud(rng), ReebParams(levels=0))
    assert g.degree_sequence() == (1, 1, 1, 3)


def test_screeb_deterministic_bytes(rng):
    cloud = circle_cloud(rng, n=150)
    a = graph_to_json(screeb(cloud, ReebParams(levels=0)))
    b = graph_to_json(screeb(cloud, ReebParams(levels=0)))
    assert a == b


# -- screeb_tower ----------------------------------------------------------------


def test_tower_zero_levels_matches_screeb(rng):
    cloud = segment_cloud(rng, n=100)
    tower = screeb_tower(cloud, ReebParams(levels=0))
    assert len(tower) == 1
    assert graph_to_json(tower.graph(0)) == graph_to_json(screeb(cloud, ReebParams(levels=0)))


def test_tower_levels_count(rng):
    cloud = segment_cloud(rng, n=100)
    tower = screeb_tower(cloud, ReebParams(levels=3))
    assert len(tower) == 4
    assert [entry[0] for entry in tower.entries] == [0, 1, 2, 3]
    assert all(entry[1].n == 100 for entry in tower.entries)


def test_tower_noisy_circle_denoised_at_level_three(rng):
    # Deep-tower configuration: noise ratio 0.1, levels=3; the deepest
    # level reports (1, 1) even when the base level picks up spurious loops.
    for seed in range(3):
        local = np.random.default_rng(seed)
        cloud = add_noise(circle_cloud(local, n=300), local, 0.1)
        tower = screeb_tower(cloud, ReebParams(levels=3))
        assert betti(tower.graph(3)) == (1, 1)


def test_tower_diameters_non_increasing(rng):
    cloud = PointCloud(rng.normal(size=(150, 2)))
    tower = screeb_tower(cloud, ReebParams(levels=3))

    def diameter(c):
        pts = c.points
        center = pts.mean(axis=0)
        return 2 * np.max(np.linalg.norm(pts - center, axis=1))

    diams = [diameter(entry[1]) for entry in tower.entries]
    assert all(diams[i + 1] <= diams[i] + 1e-9 for i in range(len(diams) - 1))


def test_reeb_post_eigen_stage_complexity(rng):
    # Doubling n at fixed k must not blow up the level-set stage. Timing is
    # noisy, so allow a wide factor over the ~2x ideal.
    def stage_time(n):
        local = np.random.default_rng(7)
        t = np.sort(local.uniform(size=n))
        cloud = PointCloud(np.column_stack([t, 0.01 * local.normal(size=n)]))
        nbrs = knn_graph(cloud, 10)
        f = t + 1e-6 * local.normal(size=n)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            reeb_graph(nbrs, f, cloud)
            best = min(best, time.perf_counter() - t0)
        return best

    small = stage_time(800)
    large = stage_time(1600)
    assert large <= 10 * small + 0.05
