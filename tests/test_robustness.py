"""Adversarial inputs: every public entry point returns a graph or raises a
``screeb.errors`` type, never a bare numpy, scipy or Python error. The clouds
are duplicate-heavy, collinear, 1-D, 200-dimensional, many 2-point
components, or extremely anisotropic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screeb import (
    Multigraph,
    PointCloud,
    ReebParams,
    adaptive_affinity,
    errors,
    fiedler_filter,
    knn_graph,
    mapper_graph,
    reeb_graph,
    screeb,
    screeb_tower,
)
from screeb.geometry import condense, induced_neighbor_subgraph

ERRORS = tuple(
    obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)
)
coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def duplicate_heavy(draw):
    dim = draw(st.integers(1, 3))
    pool = np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=5)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=40))
    return pool[picks]


@st.composite
def collinear(draw):
    dim = draw(st.integers(2, 4))
    t = np.array(draw(st.lists(coords, min_size=2, max_size=40)))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    return np.outer(t, direction) + np.array(draw(st.lists(coords, min_size=dim, max_size=dim)))


@st.composite
def one_dimensional(draw):
    return np.array(draw(st.lists(coords, min_size=2, max_size=40)))[:, None]


@st.composite
def high_ambient(draw):
    n = draw(st.integers(2, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).normal(size=(n, 200))


@st.composite
def two_point_components(draw):
    pairs = draw(st.integers(1, 15))
    gap = draw(st.floats(1e-6, 1.0))
    centers = np.c_[100.0 * np.arange(pairs), np.zeros(pairs)]
    return np.vstack([centers, centers + [gap, 0.0]])


@st.composite
def anisotropic(draw):
    # Axis scales span 1e-8 to 1e4: the thin axes sit far below the kNN spacing.
    dim = draw(st.integers(2, 5))
    inner = draw(st.lists(st.floats(-8.0, 4.0), min_size=dim - 2, max_size=dim - 2))
    scales = 10.0 ** np.array([-8.0, *inner, 4.0])
    n = draw(st.integers(2, 40))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, dim)) * scales


clouds = st.one_of(
    duplicate_heavy(), collinear(), one_dimensional(), high_ambient(), two_point_components(), anisotropic()
)


def assert_graph_or_package_error(call, points):
    try:
        out = call(PointCloud(points))
    except ERRORS:
        return
    graphs = [out.graph(i) for i in range(len(out))] if hasattr(out, "entries") else [out]
    assert all(isinstance(g, Multigraph) for g in graphs)


@given(clouds)
@settings(max_examples=60, deadline=None)
def test_screeb_adversarial_clouds(points):
    assert_graph_or_package_error(screeb, points)


@given(clouds)
@settings(max_examples=40, deadline=None)
def test_screeb_tower_adversarial_clouds(points):
    assert_graph_or_package_error(lambda cloud: screeb_tower(cloud, ReebParams(levels=1)), points)


@given(clouds)
@settings(max_examples=60, deadline=None)
def test_mapper_adversarial_clouds(points):
    assert_graph_or_package_error(mapper_graph, points)


def test_mapper_points_closer_than_distances_resolve():
    # Distinct points whose squared distances underflow make the radius rule 0.
    points = np.c_[np.arange(6) * 1e-200, np.zeros(6)]
    assert isinstance(mapper_graph(PointCloud(points)), Multigraph)


def test_screeb_points_closer_than_distances_resolve():
    # Distinct points whose squared distances underflow are not "identical".
    points = np.c_[np.arange(6) * 1e-200, np.zeros(6)]
    with pytest.raises(errors.InvalidDataError, match="below floating-point resolution"):
        screeb(PointCloud(points))
    with pytest.raises(errors.InvalidDataError, match="all points are identical"):
        screeb(PointCloud(np.ones((6, 2))))


def test_many_copies_of_one_point_keep_screeb_small():
    # 4000 copies of one point plus 50 others. The bandwidth clamp's search for
    # the smallest positive distance doubled its k up to n on the copies:
    # 397 MB traced, where the distinct points need a few.
    import tracemalloc

    points = np.vstack([np.zeros((4000, 2)), np.random.default_rng(2).normal(size=(50, 2))])
    tracemalloc.start()
    try:
        screeb(PointCloud(points))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"screeb peaked at {peak / 1e6:.1f} MB"


ENTRY_POINTS = (screeb, screeb_tower, mapper_graph, lambda cloud: condense(cloud, 80, 1, 80))


@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_coordinates_whose_squared_spread_overflows_are_refused(scale):
    # The kNN query overflows here and names the missing neighbour n.
    points = np.random.default_rng(0).normal(size=(100, 2)) * scale
    for call in ENTRY_POINTS:
        with pytest.raises(errors.InvalidDataError, match="squared distances overflow"):
            call(PointCloud(points))


def test_coordinates_just_below_squared_spread_overflow_resolve():
    points = np.random.default_rng(0).normal(size=(100, 2)) * 1e153
    assert np.isfinite(np.sum(np.ptp(points, axis=0) ** 2))
    for call in ENTRY_POINTS:
        out = call(PointCloud(points))
        assert isinstance(out.graph(0) if hasattr(out, "entries") else out, (Multigraph, PointCloud))


def _thirty_points():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(30, 2)))
    nbrs = knn_graph(cloud, 5)
    affinity = adaptive_affinity(cloud, nbrs, 5)
    return cloud, nbrs, affinity, fiedler_filter(affinity, np.arange(30))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reeb_graph_refuses_non_finite_filters(bad):
    # NaN would sort as the largest rank and a graph would come back.
    cloud, nbrs, _, f = _thirty_points()
    with pytest.raises(errors.InvalidDataError, match="non-finite"):
        reeb_graph(nbrs, np.where(np.arange(30) == 3, bad, f), cloud)


def test_out_of_range_ids_and_sizes_name_the_size():
    # Each of these raised a bare IndexError, or named the wrong fault: scipy
    # cuts a range past the end short, and numpy wraps a negative id.
    cloud, nbrs, affinity, f = _thirty_points()
    calls = (
        lambda: reeb_graph(nbrs, f, PointCloud(cloud.points[:12])),
        lambda: fiedler_filter(affinity, [0, 40]),
        lambda: fiedler_filter(affinity, np.arange(25, 31)),  # a range, checked by its ends
        lambda: fiedler_filter(affinity, [-1, 0]),
        lambda: induced_neighbor_subgraph(nbrs, [0, 31]),
        lambda: induced_neighbor_subgraph(nbrs, [-1, 3]),
    )
    for call in calls:
        with pytest.raises(errors.InvalidDataError, match="30"):
            call()


@pytest.mark.parametrize("ids", [[0.5, 1.5], np.array([0.0, 1.0]), [True, False]])
def test_vertex_ids_that_are_no_integers_are_refused(ids):
    # A cast to int truncated them: fiedler_filter(W, [0.5, 1.5]) solved on [0, 1].
    _, nbrs, affinity, _ = _thirty_points()
    with pytest.raises(errors.InvalidDataError, match="vertex ids must be integers"):
        fiedler_filter(affinity, ids)
    with pytest.raises(errors.InvalidDataError, match="vertex ids must be integers"):
        induced_neighbor_subgraph(nbrs, ids)
    # An empty id list has no dtype to hold against it.
    assert induced_neighbor_subgraph(nbrs, []).n == 0
    with pytest.raises(errors.InvalidDataError, match="got 0 pieces"):
        fiedler_filter(affinity, [])


NO_INTEGER_COUNTS = {
    "knn_graph-k-2.5": (lambda cloud, nbrs: knn_graph(cloud, 2.5), "k"),  # built a graph with a float64 own_indptr
    "knn_graph-k-True": (lambda cloud, nbrs: knn_graph(cloud, True), "k"),  # built a k = 1 graph
    "knn_graph-k-float64": (lambda cloud, nbrs: knn_graph(cloud, np.float64(3.0)), "k"),
    "adaptive_affinity-k_bw-2.5": (lambda cloud, nbrs: adaptive_affinity(cloud, nbrs, 2.5), "k_bw"),  # a bare IndexError
    "condense-k_smooth-2.5": (lambda cloud, nbrs: condense(cloud, 2.5, 1, 2), "k_smooth"),  # a bare IndexError
    "condense-t-1.5": (lambda cloud, nbrs: condense(cloud, 5, 1.5, 2), "t"),  # a bare TypeError
    "condense-t-False": (lambda cloud, nbrs: condense(cloud, 5, False, 2), "t"),  # returned the cloud
    "condense-k_bw-2.5": (lambda cloud, nbrs: condense(cloud, 5, 1, 2.5), "k_bw"),
}


@pytest.mark.parametrize("case", NO_INTEGER_COUNTS)
def test_counts_that_are_no_integers_are_refused(case):
    call, name = NO_INTEGER_COUNTS[case]
    cloud, nbrs, _, _ = _thirty_points()
    with pytest.raises(errors.InvalidDataError, match=f"^{name} must be an integer"):
        call(cloud, nbrs)


def test_counts_of_numpy_integer_types_are_taken():
    cloud, _, _, _ = _thirty_points()
    assert np.array_equal(knn_graph(cloud, np.int64(5)).own_indices, knn_graph(cloud, 5).own_indices)
    assert np.array_equal(condense(cloud, np.int32(5), np.int64(1), np.uint8(2)).points, condense(cloud, 5, 1, 2).points)
