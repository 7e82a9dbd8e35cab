"""Adversarial inputs: every public entry point returns a graph or raises a
``screeb.errors`` type, never a bare numpy, scipy or Python error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screeb import Multigraph, PointCloud, ReebParams, errors, mapper_graph, screeb, screeb_tower

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


clouds = st.one_of(duplicate_heavy(), collinear(), one_dimensional(), high_ambient(), two_point_components())


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
