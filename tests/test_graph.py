"""Multigraph core: components, Betti numbers, reduction, serialization."""

import numpy as np
import pytest

from screeb import Edge, Multigraph, betti, connected_components, graph_from_json, graph_to_json
from screeb import graph as graphmod

from conftest import per_copy_reduce, random_multigraph


def path_graph(n, length=1.0):
    return Multigraph(n, tuple(Edge(i, i + 1, length) for i in range(n - 1)))


def cycle_graph(n, length=1.0):
    return Multigraph(n, tuple(Edge(i, (i + 1) % n, length) for i in range(n)))


def theta_graph():
    # Two hub vertices joined by three internally subdivided paths of 2, 3, 4
    # unit edges.
    edges = []
    vid = 2
    for n_seg in (2, 3, 4):
        prev = 0
        for _ in range(n_seg - 1):
            edges.append(Edge(prev, vid, 1.0))
            prev = vid
            vid += 1
        edges.append(Edge(prev, 1, 1.0))
    return Multigraph(vid, tuple(edges))


# -- construction invariants -------------------------------------------------


def test_edges_canonicalized():
    g = Multigraph(3, (Edge(2, 0, 1.0), Edge(0, 2, 1.0), Edge(1, 0, 0.5)))
    assert g.edges == (Edge(0, 1, 0.5, 1), Edge(0, 2, 1.0, 2))


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 5, 1.0),))
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 1, -1.0),))
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 1, np.nan),))
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 1, 1.0, 0),))


def test_degrees_count_multiplicity_and_loops():
    g = Multigraph(2, (Edge(0, 1, 1.0, 3), Edge(0, 0, 2.0, 2)))
    assert g.degrees().tolist() == [3 + 4, 3]
    assert g.self_loop_counts().tolist() == [2, 0]
    assert g.edge_count() == 5
    assert g.total_length() == pytest.approx(3.0 + 4.0)


# -- connected components ------------------------------------------------------


def test_components_empty_graph():
    assert connected_components(Multigraph(0, ())) == []


def test_components_isolated_vertices():
    parts = connected_components(Multigraph(5, ()))
    assert parts == [[0], [1], [2], [3], [4]]


def test_components_match_reachability_oracle(rng):
    # Floyd-Warshall boolean closure as the independent oracle.
    for _ in range(25):
        n = 30
        g = random_multigraph(rng, max_vertices=n, max_edges=45)
        n = g.n_vertices
        reach = np.eye(n, dtype=bool)
        for e in g.edges:
            reach[e.u, e.v] = reach[e.v, e.u] = True
        for k in range(n):
            reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
        parts = connected_components(g)
        labels = np.zeros(n, dtype=int)
        for ci, part in enumerate(parts):
            labels[part] = ci
        for i in range(n):
            for j in range(n):
                assert (labels[i] == labels[j]) == reach[i, j]


# -- betti ---------------------------------------------------------------------


def test_betti_four_cycle():
    assert betti(cycle_graph(4)) == (1, 1)


def test_betti_self_loop():
    assert betti(Multigraph(1, (Edge(0, 0, 1.0),))) == (1, 1)


def test_betti_two_triangles_sharing_vertex():
    edges = (
        Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 0, 1.0),
        Edge(0, 3, 1.0), Edge(3, 4, 1.0), Edge(4, 0, 1.0),
    )
    assert betti(Multigraph(5, edges)) == (1, 2)


# -- reduce ----------------------------------------------------------------------


def test_reduce_path():
    r = graphmod.reduce(path_graph(5))
    assert r.n_vertices == 2
    assert r.edges == (Edge(0, 1, 4.0, 1),)


def test_reduce_pure_cycle():
    r = graphmod.reduce(cycle_graph(6))
    assert r.n_vertices == 1
    assert r.edges == (Edge(0, 0, 6.0, 1),)
    assert betti(r) == (1, 1)


def test_reduce_theta():
    g = theta_graph()
    r = graphmod.reduce(g)
    assert r.n_vertices == 2
    assert sorted(e.length for e in r.edges) == [2.0, 3.0, 4.0]
    assert betti(r) == betti(g) == (1, 2)


def test_reduce_preserves_self_loop_vertices():
    # Degree-2 vertex carrying a self-loop must not be contracted away.
    g = Multigraph(3, (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(1, 1, 0.5)))
    r = graphmod.reduce(g)
    assert betti(r) == betti(g)
    assert any(e.u == e.v for e in r.edges)


def test_reduce_double_edge_cycle():
    # Two vertices joined by a parallel pair is a pure cycle.
    g = Multigraph(2, (Edge(0, 1, 1.0, 2),))
    r = graphmod.reduce(g)
    assert r.n_vertices == 1
    assert r.edges == (Edge(0, 0, 2.0, 1),)


def test_reduce_properties_random(rng):
    for _ in range(300):
        g = random_multigraph(rng)
        r = graphmod.reduce(g)
        assert betti(r) == betti(g)
        assert r.n_vertices <= g.n_vertices
        assert r.edge_count() <= g.edge_count()
        assert r.total_length() == pytest.approx(g.total_length(), abs=1e-9)
        rr = graphmod.reduce(r)
        assert graph_to_json(rr) == graph_to_json(r)
        assert graph_to_json(r) == graph_to_json(per_copy_reduce(g))


def _path(ids, lengths):
    # Edges along the vertex sequence ids, one length per step.
    return [Edge(int(a), int(b), float(ln)) for a, b, ln in zip(ids[:-1], ids[1:], lengths)]


def test_reduce_float_summation_order(rng):
    # Random lengths make every other summation order change some bytes.
    for _ in range(100):
        k = int(rng.integers(3, 10))
        ids = rng.permutation(k)
        cycle = Multigraph(k, tuple(_path([*ids, ids[0]], rng.uniform(0, 10, k))))
        total = 0.0
        for e in cycle.edges:  # canonical edge order
            total += e.length
        assert graphmod.reduce(cycle).edges == (Edge(0, 0, total, 1),)

        # Vertex 0 is kept by its self-loop; each loop chain leaves and
        # re-enters it through shuffled degree-2 vertices.
        loops = [Edge(0, 0, float(rng.uniform(0, 10)))]
        for a in range(1, 13, 4):
            loops += _path([0, *(a + rng.permutation(4)), 0], rng.uniform(0, 10, 5))
        # Hubs 0 and 1 (each degree >= 3): parallel classes of equal and of
        # different lengths, and subdivided paths between them.
        hubs = [Edge(0, 1, 2.5, 3), Edge(0, 1, float(rng.uniform(0, 10)), 2)]
        for a in (2, 5):
            hubs += _path([0, *(a + rng.permutation(3)), 1], rng.uniform(0, 10, 4))
        length = float(rng.uniform(0, 10))
        double = [Edge(0, 1, length, 2), Edge(0, 2, 1.0)]  # a loop of 2 * length at 0
        for g in (cycle, Multigraph(13, tuple(loops)), Multigraph(8, tuple(hubs)), Multigraph(3, tuple(double))):
            assert graph_to_json(graphmod.reduce(g)) == graph_to_json(per_copy_reduce(g))
        assert Edge(0, 0, 2 * length, 1) in graphmod.reduce(Multigraph(3, tuple(double))).edges


def test_reduce_keeps_multiplicity_whole():
    # One entry stands for all its copies: 2**53 parallel edges reduce at once.
    big = Multigraph(2, (Edge(0, 1, 0.7, 2**53),))
    r = graphmod.reduce(big)
    assert r.n_vertices == 2 and r.edges == big.edges
    # Both copies of a multiplicity-2 entry into a degree-2 vertex form one loop.
    r = graphmod.reduce(Multigraph(3, (Edge(0, 1, 0.7, 2), Edge(0, 2, 1.5))))
    assert r.n_vertices == 2
    assert r.edges == (Edge(0, 0, 1.4, 1), Edge(0, 1, 1.5, 1))


# -- serialization ------------------------------------------------------------


def test_json_round_trip(rng):
    for _ in range(20):
        g = random_multigraph(rng, positions=True)
        doc = graph_to_json(g)
        h = graph_from_json(doc)
        assert graph_to_json(h) == doc


def test_json_positions_all_or_none():
    with pytest.raises(ValueError):
        graph_from_json('{"vertices": [[0.0, 0.0], null], "edges": []}')


def test_json_canonical_vertex_order():
    pos = np.array([[1.0, 0.0], [0.0, 0.0]])
    g = Multigraph(2, (Edge(0, 1, 2.5),), pos)
    doc = graph_to_json(g)
    h = graph_from_json(doc)
    # Canonical order sorts by position, so vertex 0 is the one at the origin.
    assert h.positions[0].tolist() == [0.0, 0.0]
    assert h.edges[0].length == 2.5


def test_json_17_digit_lengths():
    length = 1.0 / 3.0
    g = Multigraph(2, (Edge(0, 1, length),))
    doc = graph_to_json(g)
    assert "0.33333333333333331" in doc
    assert graph_from_json(doc).edges[0].length == length


@pytest.mark.parametrize(
    "edge",
    [
        "[0.9, 1, 1.0, 1.7]",  # fractional ids and multiplicity
        "[true, 1, 1.0, 1]",  # a boolean id
        "[0, 1, 1.0, 1e30]",  # integral, but past what a float64 holds exactly
        "[0, 1, null, 1]",
        '[0, 1, "1.0", 1]',
        "[5]",
        "5",
        "[0, 2, 1.0, 1]",  # endpoint out of range
        "[0, 1, NaN, 1]",
        "[0, 1, 1.0, 0]",
        pytest.param("[0, 1, 1" + "0" * 400 + ", 1]", id="integer-length-past-float64"),
    ],
)
def test_json_rejects_malformed_edges(edge):
    doc = '{"vertices": [null, null], "edges": [[0, 1, 1.0, 1], ' + edge + "]}"
    with pytest.raises(ValueError, match="^edge 1: "):
        graph_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        '{"vertices": {"0": null}, "edges": []}',
        '{"vertices": [null], "edges": {}}',
        '{"vertices": [[0.0], ["x"]], "edges": []}',
        '{"vertices": [[0.0], [{}]], "edges": []}',
        pytest.param('{"vertices": [[0.0], [1' + "0" * 400 + ']], "edges": []}', id="integer-coordinate-past-float64"),
        '{"vertices": [null]}',
        "[]",
        "{not json",
    ],
)
def test_json_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        graph_from_json(doc)


def test_json_accepts_integral_floats():
    g = graph_from_json('{"vertices": [null, null], "edges": [[1.0, 0, 2, 3.0]]}')
    assert g.edges == (Edge(0, 1, 2.0, 3),)
    assert [type(x) for x in g.edges[0]] == [int, int, float, int]


def test_disjoint_union():
    a = path_graph(3)
    b = cycle_graph(3)
    u = graphmod.disjoint_union([a, b])
    assert u.n_vertices == 6
    assert betti(u) == (2, 1)
