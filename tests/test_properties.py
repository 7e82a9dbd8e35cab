"""Property-based checks of the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from screeb import (
    Edge,
    Multigraph,
    PersistenceDiagram,
    betti,
    edge_length_diagram,
    graph_to_json,
    persistence_similarity,
    wasserstein_distance,
)
from screeb import graph as graphmod

from conftest import per_copy_reduce


@st.composite
def multigraphs(draw, max_vertices=12, max_edges=18):
    n = draw(st.integers(1, max_vertices))
    n_edges = draw(st.integers(0, max_edges))
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        length = draw(st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))
        mult = draw(st.integers(1, 3))
        edges.append(Edge(u, v, length, mult))
    return Multigraph(n, tuple(edges))


@st.composite
def reeb_pieces(draw):
    """Graphs of the shapes ``screeb`` reduces piece by piece: pure cycles
    (one vertex is a self-loop, two a parallel pair), self-loops with a tail,
    isolated vertices and random multigraphs; all with positions or none."""
    lengths = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    out = []
    for kind in draw(st.lists(st.sampled_from(["cycle", "loop", "isolated", "random"]), max_size=5)):
        if kind == "cycle":
            k = draw(st.integers(1, 6))
            out.append(Multigraph(k, tuple(Edge(i, (i + 1) % k, draw(lengths)) for i in range(k))))
        elif kind == "loop":
            loop = Edge(0, 0, draw(lengths), draw(st.integers(1, 3)))
            out.append(Multigraph(3, (loop, Edge(0, 1, draw(lengths)), Edge(1, 2, draw(lengths)))))
        elif kind == "isolated":
            out.append(Multigraph(draw(st.integers(1, 3)), ()))
        else:
            out.append(draw(multigraphs()))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        out = [Multigraph(g.n_vertices, g.edges, rng.normal(size=(g.n_vertices, 2))) for g in out]
    return out


@st.composite
def diagrams(draw):
    deaths = sorted(draw(st.lists(st.floats(0.01, 1.0, allow_nan=False), max_size=5)))
    births = sorted(draw(st.lists(st.floats(0.0, 0.99, allow_nan=False), max_size=3)))
    essential = draw(st.integers(1, 4))
    return PersistenceDiagram(np.array(deaths), essential, np.array(births))


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_reduce_invariants(g):
    r = graphmod.reduce(g)
    assert betti(r) == betti(g)
    assert r.n_vertices <= g.n_vertices
    assert r.edge_count() <= g.edge_count()
    assert abs(r.total_length() - g.total_length()) <= 1e-9 * max(1.0, g.total_length())
    assert graph_to_json(graphmod.reduce(r)) == graph_to_json(r)
    assert graph_to_json(r) == graph_to_json(per_copy_reduce(g))


@given(reeb_pieces())
@settings(max_examples=150, deadline=None)
def test_reduce_per_piece_matches_reduce_of_union(pieces):
    # screeb reduces each piece and unions the results instead of reducing the union.
    per_piece = graphmod.disjoint_union([graphmod.reduce(g) for g in pieces])
    assert graph_to_json(per_piece) == graph_to_json(graphmod.reduce(graphmod.disjoint_union(pieces)))


@given(multigraphs())
@settings(max_examples=100, deadline=None)
def test_diagram_counts(g):
    d = edge_length_diagram(g)
    b = betti(g)
    assert d.h0_essential == b.b0
    assert len(d.h1_births) == b.b1
    assert len(d.h0_deaths) == g.n_vertices - b.b0
    if d.h0_deaths.size:
        assert d.h0_deaths.max() <= 1.0 + 1e-12


@given(diagrams(), diagrams())
@settings(max_examples=150, deadline=None)
def test_wasserstein_symmetry_and_identity(d1, d2):
    assert wasserstein_distance(d1, d1) == 0.0
    a = wasserstein_distance(d1, d2)
    b = wasserstein_distance(d2, d1)
    assert abs(a - b) <= 1e-12
    assert a >= 0.0


@given(diagrams(), diagrams(), diagrams())
@settings(max_examples=80, deadline=None)
def test_wasserstein_triangle(d1, d2, d3):
    d12 = wasserstein_distance(d1, d2)
    d23 = wasserstein_distance(d2, d3)
    d13 = wasserstein_distance(d1, d3)
    assert d13 <= d12 + d23 + 1e-9


@given(st.floats(0.0, 1e6, allow_nan=False))
def test_similarity_bounds(d):
    s = persistence_similarity(d)
    assert 0.0 < s <= 1.0
    if d == 0.0:
        assert s == 1.0
    if s == 1.0:  # s rounds to 1 only when d vanishes at float precision
        assert d < 1e-15
    if d >= 1e-12:
        assert s < 1.0
