"""Multigraph core: components, Betti numbers, reduction, serialization."""

import math
import warnings

import numpy as np
import pytest

from screeb import Edge, Multigraph, betti, connected_components, graph_from_json, graph_to_json
from screeb import graph as graphmod

from conftest import dict_canonical_edges, per_copy_reduce, random_multigraph


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


@pytest.mark.parametrize(
    "n, positions, message",
    [
        (-1, None, "vertex count must be non-negative"),
        (3, np.zeros((2, 2)), "positions must be a finite"),
        (3, np.zeros(3), "positions must be a finite"),
    ],
)
def test_multigraph_refuses_bad_vertex_counts_and_positions(n, positions, message):
    with pytest.raises(ValueError, match=message):
        Multigraph(n, (), positions)


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 5, 1.0),))
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 1, -1.0),))
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 1, np.nan),))
    with pytest.raises(ValueError):
        Multigraph(2, (Edge(0, 1, 1.0, 0),))


def signed(edges):
    # Entries with each length's sign spelled out, since 0.0 == -0.0.
    return [(e.u, e.v, math.copysign(1.0, e.length), e.length, e.multiplicity) for e in edges]


def assert_canonical_like_dict(n, edges, positions=None):
    """Both constructors hold the dict oracle's entries, as Python scalars in
    read-only arrays, and relabel by position as a sort of coordinate tuples does."""
    want = dict_canonical_edges(n, edges)
    columns = [[e[i] for e in edges] for i in range(4)]
    for g in (Multigraph(n, tuple(edges), positions), Multigraph.from_arrays(n, *columns, positions=positions)):
        assert signed(g.edges) == signed(want)
        assert all(list(map(type, e)) == [int, int, float, int] for e in g.edges)
        assert not any(a.flags.writeable for a in (g.u, g.v, g.length, g.multiplicity))
        order = sorted(range(n), key=lambda x: (tuple(positions[x]), x)) if positions is not None else list(range(n))
        rank = {old: new for new, old in enumerate(order)}
        relabeled = [Edge(rank[e.u], rank[e.v], e.length, e.multiplicity) for e in want]
        assert signed(graphmod.canonicalize(g).edges) == signed(dict_canonical_edges(n, relabeled))


def test_canonical_entries_match_dict_oracle(rng):
    assert_canonical_like_dict(0, [])
    assert_canonical_like_dict(0, [], np.zeros((0, 2)))
    assert_canonical_like_dict(3, [], rng.normal(size=(3, 2)))
    # Reversed endpoints and duplicate triples merge.
    assert_canonical_like_dict(4, [Edge(3, 1, 2.0), Edge(1, 3, 2.0), Edge(2, 0, 0.5, 3), Edge(0, 2, 0.5), Edge(1, 1, 1.0)])
    # 0.0 and -0.0 are one length, whichever comes first is kept.
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        assert_canonical_like_dict(2, [Edge(1, 0, first), Edge(0, 1, second, 2), Edge(0, 0, second), Edge(0, 0, first)])
    # Multiplicities up to 2**53, alone and merged.
    assert_canonical_like_dict(3, [Edge(0, 1, 1.0, 2**53), Edge(2, 1, 0.0, 2**52), Edge(1, 2, -0.0, 2**52)])
    for _ in range(200):
        n = int(rng.integers(1, 12))
        draws = rng.integers(0, n, size=(int(rng.integers(0, 30)), 2)).tolist()
        lengths = rng.choice([0.0, -0.0, 0.5, 1.0, 2.5], size=len(draws)).tolist()
        edges = [Edge(a, b, ln, int(rng.integers(1, 4))) for (a, b), ln in zip(draws, lengths)]
        # Coarse positions, so that coordinate ties fall back to vertex ids.
        positions = rng.integers(-2, 3, size=(n, 2)).astype(float) if rng.random() < 0.5 else None
        assert_canonical_like_dict(n, edges, positions)


def test_multiplicity_cap_matches_graph_json(tmp_path):
    # graph.json holds multiplicities up to 2**53; a merged entry may reach it.
    top = Multigraph(2, (Edge(0, 1, 1.0, 2**52), Edge(1, 0, 1.0, 2**52)))
    assert top.edges == (Edge(0, 1, 1.0, 2**53),)
    graphmod.save_graph(top, tmp_path / "graph.json")
    assert graphmod.load_graph(tmp_path / "graph.json").edges == top.edges
    # Past it the graph is refused, not written for load_graph to refuse.
    with pytest.raises(ValueError, match="above 2\\*\\*53"):
        Multigraph(2, (Edge(0, 1, 1.0, 2**53), Edge(0, 1, 1.0, 2**53)))
    # A total of 2**63 used to reach degrees() and raise a bare OverflowError there.
    for edges in ((Edge(0, 1, 1.0, 2**62), Edge(1, 0, 1.0, 2**62)), (Edge(0, 0, 1.0, 2**63),)):
        with pytest.raises(ValueError):
            Multigraph(2, edges)
    # Distinct entries within the cap may not total past 2**61, so no degree wraps int64.
    many = tuple(Edge(0, 1, float(i), 2**53) for i in range(257))
    with pytest.raises(ValueError):
        Multigraph(2, many)
    assert Multigraph(2, many[:256]).degrees().tolist() == [2**61, 2**61]


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
        assert graphmod.reduce(g) is r  # kept on g, not computed again
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

        # Long runs, 9 to 300 entries, where a pairwise sum (numpy's, from 8
        # terms) changes bytes: a chain between two kept vertices, a pure
        # cycle, and loop chains at a kept vertex, each walked from its end
        # entry to the smaller vertex, once from either end of the path.
        k = int(rng.integers(9, 301))
        lengths = rng.uniform(0, 10, k).tolist()
        inner = (1 + rng.permutation(k - 1)).tolist()
        chain = Multigraph(k + 1, (Edge(0, 0, 1.0), Edge(k, k, 1.0), *_path([0, *inner, k], lengths)))
        assert Edge(0, 1, running_total(lengths), 1) in graphmod.reduce(chain).edges
        loops = []
        for ids in (inner, inner[::-1]):
            loops.append(Multigraph(k, (Edge(0, 0, 1.0), *_path([0, *ids, 0], lengths))))
            walk = lengths if ids[0] < ids[-1] else lengths[::-1]
            assert Edge(0, 0, running_total(walk), 1) in graphmod.reduce(loops[-1]).edges
        ids = rng.permutation(k).tolist()
        ring = Multigraph(k, tuple(_path([*ids, ids[0]], lengths)))
        assert graphmod.reduce(ring).edges == (Edge(0, 0, running_total([0.0] + [e.length for e in ring.edges]), 1),)
        for g in (chain, *loops, ring):
            assert graph_to_json(graphmod.reduce(g)) == graph_to_json(per_copy_reduce(g))
    # Signs of zero: a chain of -0.0 sums to -0.0, a pure cycle (from 0.0) to 0.0.
    chain = Multigraph(4, (Edge(0, 0, 1.0), Edge(3, 3, 1.0), *_path([0, 1, 2, 3], [-0.0] * 3)))
    ring = Multigraph(3, tuple(_path([0, 1, 2, 0], [-0.0] * 3)))
    assert '[0, 1, -0, 1]' in graph_to_json(graphmod.reduce(chain))
    assert graph_to_json(graphmod.reduce(ring)) == '{"vertices": [null], "edges": [[0, 0, 0, 1]]}'


def running_total(values):
    # Python's sum() of floats is compensated from 3.12; this adds in sequence.
    total = values[0]
    for x in values[1:]:
        total += x
    return total


def test_reduce_long_subdivided_path_matches_per_copy_reduce(rng):
    n = 10_001
    ids = rng.permutation(n).tolist()
    lengths = rng.uniform(0, 10, n - 1).tolist()
    g = Multigraph(n, tuple(_path(ids, lengths)))
    walk = lengths if ids[0] < ids[-1] else lengths[::-1]
    assert graphmod.reduce(g).edges == (Edge(0, 1, running_total(walk), 1),)
    assert graph_to_json(graphmod.reduce(g)) == graph_to_json(per_copy_reduce(g))


def test_reduce_keeps_multiplicity_whole():
    # One entry stands for all its copies: 2**53 parallel edges reduce at once.
    big = Multigraph(2, (Edge(0, 1, 0.7, 2**53),))
    r = graphmod.reduce(big)
    assert r.n_vertices == 2 and r.edges == big.edges
    # Both copies of a multiplicity-2 entry into a degree-2 vertex form one loop.
    r = graphmod.reduce(Multigraph(3, (Edge(0, 1, 0.7, 2), Edge(0, 2, 1.5))))
    assert r.n_vertices == 2
    assert r.edges == (Edge(0, 0, 1.4, 1), Edge(0, 1, 1.5, 1))


@pytest.mark.parametrize("edges", [(Edge(0, 1, 1.7e308), Edge(1, 2, 1.7e308)), (Edge(0, 1, 1.7e308, 2),)])
def test_reduce_refuses_a_chain_longer_than_float64_without_a_warning(edges):
    # A path through a degree-2 vertex, and a cycle of two parallel copies.
    g = Multigraph(max(max(e.u, e.v) for e in edges) + 1, edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="a contracted chain is longer than float64 holds"):
            graphmod.reduce(g)


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
