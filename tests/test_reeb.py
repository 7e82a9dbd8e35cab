"""Reeb construction, the full screeb pipeline, and the condensation tower."""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screeb import (
    NeighborGraph,
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
from screeb.geometry import adaptive_affinity, affinity_components, induced_neighbor_subgraph

from conftest import (
    add_noise,
    circle_cloud,
    own_block_filter,
    segment_cloud,
    separated_clusters,
    sorted_key_reeb,
    two_blob_cloud,
    ytree_cloud,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ReebParams(k=1)
    with pytest.raises(ValueError):
        ReebParams(levels=-1)
    with pytest.raises(ValueError):
        ReebParams(t=0)
    with pytest.raises(ValueError, match="k_smooth must be >= 2"):
        ReebParams(k_smooth=1)
    with pytest.raises(ValueError, match="k_bw must be >= 1"):
        ReebParams(k_bw=0)
    for k_smooth, k_bw in ((10, 11), (None, 81)):
        with pytest.raises(ValueError, match="k_bw must not exceed k_smooth"):
            ReebParams(k_smooth=k_smooth, k_bw=k_bw)
    # Resolved once, when built; condense clamps both to n - 1 (test_geometry).
    assert (ReebParams().k_smooth, ReebParams().k_bw) == (80, 32)
    assert ReebParams(k_smooth=10).k_bw == 10 and ReebParams(k_smooth=40).k_bw == 32
    assert ReebParams(k_bw=10).k_bw == 10
    assert ReebParams(k_smooth=None, k_bw=None) == ReebParams(k_smooth=80, k_bw=32)  # a config section's nulls
    for field, value in (("k", 2.5), ("levels", True), ("k_smooth", 10.0), ("t", "1"), ("k_bw", False)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ReebParams(**{field: value})
    assert ReebParams(k=np.int64(5)).k == 5


# -- reeb_graph ---------------------------------------------------------------


def test_reeb_three_node_path_by_hand():
    # f = (0, 1, 2) on a path: thresholds 0.5 and 1.5, one component each,
    # linked by the shared middle vertex; reduces to a single edge.
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    nbrs = knn_graph(pts, 1)
    g = reeb_graph(nbrs, np.array([0.0, 1.0, 2.0]), pts)
    assert g.n_vertices == 2
    assert len(g.edges) == 1
    r = graphmod.reduce(g)
    assert r.n_vertices == 2 and r.edge_count() == 1


def test_reeb_constant_filter_single_vertex():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    nbrs = knn_graph(pts, 1)
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


def test_reeb_refuses_a_filter_of_another_length():
    cloud = PointCloud(np.arange(8.0).reshape(4, 2))
    with pytest.raises(ValueError, match="filter must assign one value per vertex"):
        reeb_graph(knn_graph(cloud, 2), np.arange(3.0), cloud)


def test_reeb_rejects_disconnected_neighbor_graph():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0], [51.0, 0.0]]))
    nbrs = knn_graph(pts, 1)
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
    assert_matches_brute_force(knn_graph(cloud, k), f, cloud)


def assert_matches_brute_force(nbrs, f, cloud):
    want = brute_force_reeb(nbrs, f, cloud.points)
    if want is None:
        with pytest.raises(InvalidDataError):
            reeb_graph(nbrs, f, cloud)
        return
    assert_graph_is(reeb_graph(nbrs, f, cloud), *want)


def assert_graph_is(g, positions, pairs):
    """``g`` has exactly the oracle's node positions and single joins, with
    the distance between centroids as each join's length."""
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
    nbrs = knn_graph(cloud, 15)
    f = fiedler_filter(adaptive_affinity(cloud, nbrs, 15), np.arange(cloud.n))
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block or reeb_module._BLOCK_CROSSINGS):
        assert_matches_oracle(cloud, f, 15)


def test_reeb_numbering_ignores_component_label_order(rng):
    # Nodes are numbered by (slice, smallest vertex) in whatever order
    # connected_components labels the level-set components.
    from screeb import adaptive_affinity, fiedler_filter

    cloud = add_noise(circle_cloud(rng, n=300), rng, 0.05)
    f = fiedler_filter(adaptive_affinity(cloud, knn_graph(cloud, 15), 15), np.arange(cloud.n))
    label = reeb_module.connected_components

    def shuffled(*args, **kwargs):
        n_comp, labels = label(*args, **kwargs)
        return n_comp, rng.permutation(n_comp)[labels]

    with mock.patch.object(reeb_module, "connected_components", shuffled):
        for block in (7, reeb_module._BLOCK_CROSSINGS):
            with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block):
                assert_matches_oracle(cloud, f, 15)


def assert_matches_sorted_key(nbrs, f, cloud, block=None):
    """``reeb_graph`` writes the sorted-key sweep's ``graph_to_json`` bytes,
    or refuses the input as it does, at the same block size."""
    block = block or reeb_module._BLOCK_CROSSINGS
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block):
        try:
            want = graph_to_json(sorted_key_reeb(nbrs, f, cloud, block))
        except InvalidDataError:
            with pytest.raises(InvalidDataError):
                reeb_graph(nbrs, f, cloud)
            return
        assert graph_to_json(reeb_graph(nbrs, f, cloud)) == want


def listed_neighbor_graph(n, pairs):
    """Neighbor graph listing each pair once, under its first vertex."""
    own = [[v for u, v in pairs if u == i] for i in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in own])
    return NeighborGraph(n, indptr, np.array(sum(own, []), dtype=np.intp), np.ones(indptr[-1]))


@pytest.mark.parametrize("block", [None, 1, 3])
@given(reeb_inputs())
@settings(max_examples=60, deadline=None)
def test_reeb_matches_sorted_key_oracle(block, inputs):
    cloud, f, k = inputs
    assert_matches_sorted_key(knn_graph(cloud, k), f, cloud, block)


@pytest.mark.parametrize("n", [300, 2000])
@pytest.mark.parametrize("block", [None, 7, 500])
def test_reeb_matches_sorted_key_oracle_on_noisy_circles(n, block):
    from screeb import adaptive_affinity, fiedler_filter

    local = np.random.default_rng(n)
    cloud = add_noise(circle_cloud(local, n=n), local, 0.05)
    nbrs = knn_graph(cloud, 15)
    f = fiedler_filter(adaptive_affinity(cloud, nbrs, 15), np.arange(n))
    assert_matches_sorted_key(nbrs, f, cloud, block)


@pytest.mark.parametrize("block", [None, 1, 2, 3])
def test_reeb_vertex_range_from_an_earlier_block(block):
    # A path 0..11 under f = index, plus the edge (0, 11): vertices 0 and 11
    # lie in every slice, so at blocks of a few slices their ranges start in
    # the first block and their nodes are carried through every boundary.
    pairs = [(i, i + 1) for i in range(11)] + [(0, 11)]
    nbrs = listed_neighbor_graph(12, pairs)
    cloud = PointCloud(np.c_[np.cos(np.arange(12.0)), np.sin(np.arange(12.0))])
    f = np.arange(12.0)
    assert_matches_sorted_key(nbrs, f, cloud, block)
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block or reeb_module._BLOCK_CROSSINGS):
        assert_matches_brute_force(nbrs, f, cloud)
        assert betti(reeb_graph(nbrs, f, cloud)).b1 == 1


@pytest.mark.parametrize("block", [None, 1])
def test_reeb_vertex_whose_every_edge_ties(block):
    # Vertices 3 and 5 share f = 1 with each other and with vertex 1, their
    # only other neighbour, so neither lies in any level set.
    nbrs = listed_neighbor_graph(6, [(0, 1), (1, 2), (2, 4), (1, 3), (1, 5), (3, 5)])
    cloud = PointCloud(np.arange(12.0).reshape(6, 2) ** 2)
    f = np.array([0.0, 1.0, 2.0, 1.0, 3.0, 1.0])
    assert_matches_sorted_key(nbrs, f, cloud, block)
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block or reeb_module._BLOCK_CROSSINGS):
        assert_matches_brute_force(nbrs, f, cloud)
        g = reeb_graph(nbrs, f, cloud)
    # Slices 0, 1, 2 hold {0, 1}, {1, 2} and {2, 4}: neither 3 nor 5 is a member.
    assert g.n_vertices == 3 and [(e.u, e.v) for e in g.edges] == [(0, 1), (1, 2)]
    np.testing.assert_array_equal(g.positions, cloud.points[[0, 1, 1, 2, 2, 4]].reshape(3, 2, 2).mean(axis=1))


def side_by_side(parts):
    """One neighbor graph, filter and cloud of ``parts``, a list of (neighbor
    graph, filter, points), laid side by side with vertex ids offset; and the
    per-piece brute-force oracles, in order (None for a piece with a slice
    that no edge crosses)."""
    pairs, offset = [], 0
    for nbrs, _, _ in parts:
        pairs += [(u + offset, v + offset) for u, v in nbrs.undirected_edges()[0].tolist()]
        offset += nbrs.n
    nbrs = listed_neighbor_graph(offset, pairs)
    f = np.concatenate([f for _, f, _ in parts])
    cloud = PointCloud(np.vstack([pts for _, _, pts in parts]))
    return nbrs, f, cloud, [brute_force_reeb(*part) for part in parts]


def assert_pieces_match_brute_force(parts):
    nbrs, f, cloud, wants = side_by_side(parts)
    sizes = [part[0].n for part in parts]
    if any(want is None for want in wants):
        with pytest.raises(InvalidDataError, match="disconnected"):
            reeb_graph(nbrs, f, cloud, piece_sizes=sizes)
        return
    g = reeb_graph(nbrs, f, cloud, piece_sizes=sizes)
    offsets = np.cumsum([0] + [len(positions) for positions, _ in wants])
    pairs = [(a + base, b + base) for (_, joined), base in zip(wants, offsets.tolist()) for a, b in joined]
    assert_graph_is(g, np.vstack([positions for positions, _ in wants]), pairs)


@pytest.mark.parametrize("block", [None, 1, 3])
@given(st.lists(reeb_inputs(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_reeb_pieces_match_per_piece_brute_force(block, inputs):
    # One sweep over pieces side by side gives each piece's Reeb graph in
    # piece order, and refuses a piece that some slice's edges do not cross.
    parts = []
    for cloud, f, k in inputs:
        pts = np.zeros((cloud.n, 3))
        pts[:, : cloud.dim] = cloud.points
        parts.append((knn_graph(cloud, k), f, pts))
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block or reeb_module._BLOCK_CROSSINGS):
        assert_pieces_match_brute_force(parts)


@pytest.mark.parametrize("block", [None, 1, 2])
def test_reeb_single_point_and_all_duplicate_pieces(block):
    # A lone point first and three copies of one point last, each with a
    # constant filter, around two paths: each constant piece is one node at
    # its centroid, in piece order, and the slices before the first path
    # and after the second hold no edge.
    lone, copies = np.array([[-5.0, 0.0]]), np.full((3, 2), 20.0)
    path, short = np.c_[np.arange(4.0), np.zeros(4)], np.c_[10.0 + np.arange(3.0), np.ones(3)]
    parts = [
        (listed_neighbor_graph(1, []), np.zeros(1), lone),
        (listed_neighbor_graph(4, [(0, 1), (1, 2), (2, 3)]), np.arange(4.0), path),
        (listed_neighbor_graph(3, [(0, 1), (1, 2)]), np.array([2.0, 1.0, 0.0]), short),
        (listed_neighbor_graph(3, [(0, 1), (0, 2), (1, 2)]), np.full(3, 7.0), copies),
    ]
    with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block or reeb_module._BLOCK_CROSSINGS):
        assert_pieces_match_brute_force(parts)
        nbrs, f, cloud, _ = side_by_side(parts)
        g = reeb_graph(nbrs, f, cloud, piece_sizes=[1, 4, 3, 3])
        assert [(e.u, e.v) for e in g.edges] == [(1, 2), (2, 3), (4, 5)]
        np.testing.assert_array_equal(g.positions[[0, 6]], [[-5.0, 0.0], [20.0, 20.0]])
        # Every piece constant: no sweep, one node per piece.
        g = reeb_graph(nbrs, np.zeros(11), cloud, piece_sizes=[1, 4, 3, 3])
        assert g.n_vertices == 4 and g.edges == ()
        assert g.positions.tobytes() == np.array([p.mean(axis=0) for p in (lone, path, short, copies)]).tobytes()


def test_reeb_refuses_bad_pieces():
    nbrs = listed_neighbor_graph(4, [(0, 1), (1, 2), (2, 3)])
    cloud, f = PointCloud(np.arange(8.0).reshape(4, 2)), np.arange(4.0)
    with pytest.raises(InvalidDataError, match="joins two pieces"):
        reeb_graph(nbrs, f, cloud, piece_sizes=[2, 2])
    for sizes in ([2, 1], [0, 4], [4.0], [], [[4]]):
        with pytest.raises(ValueError, match="piece sizes"):
            reeb_graph(nbrs, f, cloud, piece_sizes=sizes)
    # A piece that is not connected is refused, as a disconnected graph is.
    nbrs = listed_neighbor_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidDataError, match="disconnected"):
        reeb_graph(nbrs, f, cloud, piece_sizes=[4])
    assert reeb_graph(nbrs, f, cloud, piece_sizes=np.array([2, 2], dtype=np.int32)).n_vertices == 2


def test_reeb_packed_codes_fit_int64(rng):
    """``reeb_graph``'s sweep packs pairs into int64 codes. Take n vertices,
    E undirected edges, m >= E own-list entries, S <= n ranks (distinct
    filter values per piece, summed over pieces) and T (vertex, slice) keys
    over all blocks. A vertex lies in at most n - 1 slices, and only the at
    most 2E vertices with an edge lie in any, so T <= n (n - 1) and
    T <= 2E (n - 1). A node holds both ends of
    an edge, so there are at most T / 2 nodes. The codes and their bounds:

    - rising order ``vertex * S - hi``: below n^2;
    - lead ``slice * n + vertex``: below n^2;
    - member ``node * 2E + first touch``: below T E <= n^2 m;
    - join ``down * n + (up - down)``, with 0 < up - down < n: below
      T n / 2 <= E (n - 1) n < n^2 m.

    ``undirected_edges`` refuses n^2 m > 2^63 with ``InvalidDataError``, so
    no accepted input overflows int64.
    """
    from screeb import adaptive_affinity, fiedler_filter
    from screeb.geometry import _sorted_unique

    def largest_codes(n, E, S, T):
        # The largest rising, lead, member and join codes, with T / 2 nodes.
        return (n - 1) * S, (S - 1) * n - 1, T // 2 * 2 * E - 1, T // 2 * n - 1

    # The counts on real sweeps obey the bounds the codes rest on.
    for n, k in ((40, 6), (300, 15), (2000, 15)):
        cloud = add_noise(circle_cloud(rng, n=n), rng, 0.05)
        nbrs = knn_graph(cloud, k)
        f = fiedler_filter(adaptive_affinity(cloud, nbrs, k), np.arange(n))
        edges = nbrs.undirected_edges()[0]
        rank = np.searchsorted(np.unique(f), f)
        lo, hi = np.sort(rank[edges], axis=1).T
        first, end = rank.copy(), rank.copy()  # each vertex's slices [first, end)
        np.minimum.at(first, edges.ravel(), np.repeat(lo, 2))
        np.maximum.at(end, edges.ravel(), np.repeat(hi, 2))
        T, E, m, S = int(np.sum(end - first)), len(edges), len(nbrs.own_indices), int(rank.max()) + 1
        assert T <= min(n * (n - 1), 2 * E * (n - 1)) and E <= m and S <= n
        assert 2 * reeb_graph(nbrs, f, cloud).n_vertices <= T
        assert max(largest_codes(n, E, S, T)) < n * n * m

    # At the largest inputs undirected_edges accepts every code fits int64,
    # and one more own-list entry is refused.
    for n in (10, 1000, 10**5, 2**30):
        m = 2**63 // n**2
        assert max(largest_codes(n, m, n, min(n * (n - 1), 2 * m * (n - 1)))) < 2**63
        if m < 10**6:
            with pytest.raises(InvalidDataError):
                _sorted_unique(np.zeros(m + 1, dtype=np.int64), n)


# -- screeb ------------------------------------------------------------------------


def test_screeb_requires_two_points():
    with pytest.raises(DegenerateInputError):
        screeb(PointCloud(np.zeros((1, 3))))


def test_screeb_ties_duplicate_points_filter_values(rng):
    # Exact copies of a point share their first copy's filter value, so a
    # one-ulp difference the solver leaves between them cannot move the graph.
    base = add_noise(circle_cloud(rng, n=200), rng, 0.05).points
    cloud = PointCloud(np.tile(base, (3, 1))[rng.permutation(600)])
    fiedler = reeb_module.fiedler_filter

    def nudged(affinity, comp):
        f = fiedler(affinity, comp).copy()
        later = np.ones(len(comp), dtype=bool)
        later[np.unique(cloud.points[comp], axis=0, return_index=True)[1]] = False
        f[later] = np.nextafter(f[later], np.inf)
        return f

    want = graphmod.graph_to_json(screeb(cloud))
    with mock.patch.object(reeb_module, "fiedler_filter", nudged):
        assert graphmod.graph_to_json(screeb(cloud)) == want


def test_screeb_copy_search_is_skipped_only_where_it_finds_nothing(rng, monkeypatch):
    # With no zero distance on any own list a cloud has no copies: the filter
    # handed to reeb_graph is the one the copy search gives, with and without copies.
    filters, handed = [], []
    fiedler, sweep = reeb_module.fiedler_filter, reeb_module.reeb_graph
    monkeypatch.setattr(reeb_module, "fiedler_filter", lambda *a: filters.append(fiedler(*a)) or filters[-1])

    def recording(nbrs, f, cloud, piece_sizes):
        handed.append((f, cloud.points, piece_sizes))
        return sweep(nbrs, f, cloud, piece_sizes=piece_sizes)

    monkeypatch.setattr(reeb_module, "reeb_graph", recording)
    pts = separated_clusters(rng, (60, 9, 5, 30))
    for cloud_pts, copies in ((pts, False), (np.vstack([pts, pts[:10], pts[60:62]]), True)):
        for k in (3, 8):
            filters.clear()
            screeb(PointCloud(cloud_pts[rng.permutation(len(cloud_pts))]), ReebParams(k=k))
            f, points, sizes = handed[-1]
            keyed = np.column_stack([np.repeat(np.arange(len(sizes)), sizes), points])
            _, first, copy = np.unique(keyed, axis=0, return_index=True, return_inverse=True)
            assert f.tobytes() == np.concatenate(filters)[first[copy.ravel()]].tobytes()
            assert (len(first) < len(points)) == copies


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


def per_piece_screeb(cloud, params=ReebParams(), nbrs=None):
    """screeb with one restriction, normalisation and duplicate search per component."""
    nbrs = knn_graph(cloud, params.k) if nbrs is None else nbrs
    affinity = adaptive_affinity(cloud, nbrs, min(params.k, cloud.n - 1))
    pieces = []
    for comp in affinity_components(affinity):
        points = cloud.points[comp]
        _, first, copy = np.unique(points, axis=0, return_index=True, return_inverse=True)
        f = own_block_filter(affinity, comp)[first[copy.ravel()]]
        raw = reeb_graph(induced_neighbor_subgraph(nbrs, comp), f, PointCloud(points))
        pieces.append(graphmod.reduce(raw))
    return graphmod.disjoint_union(pieces)


def test_screeb_matches_per_piece_reference(rng):
    # Shuffled clusters of several sizes, with exact copies within a cluster
    # and copies that outnumber k: permuting once, slicing ranges and sweeping
    # them together gives the bytes of one restriction and one Reeb graph per
    # component, also where blocks span piece boundaries.
    pts = separated_clusters(rng, (60, 9, 5, 5, 30, 12))
    pts = np.vstack([pts, pts[:10], pts[60:63], np.repeat(pts[-1:], 6, axis=0)])
    cloud = PointCloud(pts[rng.permutation(len(pts))])
    for block in (1, 7, reeb_module._BLOCK_CROSSINGS):
        with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block):
            for k in (3, 4, 8):
                params = ReebParams(k=k)
                assert graph_to_json(screeb(cloud, params)) == graph_to_json(per_piece_screeb(cloud, params))


def test_screeb_sweeps_and_reduces_once_per_call(rng, monkeypatch):
    # Four components: one reeb_graph call over all of them and one reduce.
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(reeb_module, "reeb_graph", counted("reeb_graph", reeb_module.reeb_graph))
    monkeypatch.setattr(graphmod, "reduce", counted("reduce", graphmod.reduce))
    g = screeb(PointCloud(separated_clusters(rng, (30, 9, 5, 12))[rng.permutation(56)]), ReebParams(k=4))
    assert betti(g).b0 == 4
    assert calls == ["reeb_graph", "reduce"]


def test_knn_pairs_stay_inside_affinity_components(rng):
    # A component's neighbor graph is a range of the permuted own lists only if
    # no listed pair joins two components. An affinity that underflows to 0 is
    # still stored, so two clusters 1e3 apart (k = 6 > 4 mates, k_bw = 2) stay
    # one component.
    far = np.vstack([rng.normal(size=(5, 2)), rng.normal(size=(5, 2)) + [1e3, 0.0]])
    shuffled = separated_clusters(rng, (30, 9, 5, 12))[rng.permutation(56)]
    for pts, k, k_bw, pieces, underflows in ((far, 6, 2, 1, True), (shuffled, 4, 4, 4, False)):
        cloud = PointCloud(pts)
        nbrs = knn_graph(cloud, k)
        aff = adaptive_affinity(cloud, nbrs, k_bw)
        comps = affinity_components(aff)
        labels = np.repeat(np.arange(len(comps)), list(map(len, comps)))[np.argsort(np.concatenate(comps))]
        owner = np.repeat(np.arange(cloud.n), np.diff(nbrs.own_indptr))
        assert len(comps) == pieces and np.any(aff.data == 0) == underflows
        assert np.array_equal(labels[owner], labels[nbrs.own_indices])


def test_screeb_ties_copies_within_their_own_component(monkeypatch):
    # Copies of one point in two components take the first copy's value in
    # their own component. The own lists are built by hand: no kNN query here
    # splits copies. The first copy overall (id 0) sits 4 rows before the
    # second component, whose copies (ids 7, 8) would wrap to id 5's value.
    pts = np.array([[0, 0], [0, 0], [1, 0], [2, 0], [-1, 0], [-2, 0], [-3, 0], [0, 0], [0, 0]], dtype=float)
    lists = [[1, 2], [0, 2], [3, 0], [2, 0], [7, 5], [4, 6], [5, 4], [8, 4], [7, 4]]
    ids = np.array(lists).ravel()
    dists = np.linalg.norm(pts[ids] - np.repeat(pts, 2, axis=0), axis=1)
    nbrs = NeighborGraph(9, np.arange(0, 19, 2), ids, dists)
    monkeypatch.setattr(reeb_module, "knn_graph", lambda cloud, k: nbrs)
    cloud, params = PointCloud(pts), ReebParams(k=2)
    assert list(map(len, affinity_components(adaptive_affinity(cloud, nbrs, 2)))) == [4, 5]
    assert graph_to_json(screeb(cloud, params)) == graph_to_json(per_piece_screeb(cloud, params, nbrs))


def test_screeb_many_tiny_pieces_match_per_piece_reference():
    # 400 separated 4-point clusters, k = 3: one piece per cluster, at block
    # sizes that put every slice, or a few pieces, or all of them in a block.
    local = np.random.default_rng(11)
    cloud = PointCloud(separated_clusters(local, (4,) * 400)[local.permutation(1600)])
    params = ReebParams(k=3)
    for block in (1, 7, reeb_module._BLOCK_CROSSINGS):
        with mock.patch.object(reeb_module, "_BLOCK_CROSSINGS", block):
            got = screeb(cloud, params)
            assert betti(got).b0 == 400
            assert graph_to_json(got) == graph_to_json(per_piece_screeb(cloud, params))


# -- screeb_tower ----------------------------------------------------------------


def test_pipeline_builds_one_tree_per_knn_graph(rng, monkeypatch):
    # knn_graph builds the only cKDTree of a duplicate-free screeb: the
    # bandwidths come from its lists. A two-level tower runs 3 screeb and 2
    # condense calls, each with one knn_graph.
    from screeb import geometry

    built = []

    class CountingTree(geometry.cKDTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(len(args[0]))

    monkeypatch.setattr(geometry, "cKDTree", CountingTree)
    cloud = add_noise(circle_cloud(rng, n=200), rng, 0.05)
    screeb(cloud)
    assert built == [200]
    built.clear()
    screeb_tower(cloud, ReebParams(levels=2))
    assert built == [200] * 5


def test_tower_zero_levels_matches_screeb(rng):
    cloud = segment_cloud(rng, n=100)
    tower = screeb_tower(cloud, ReebParams(levels=0))
    assert len(tower) == 1
    assert graph_to_json(tower.graph(0)) == graph_to_json(screeb(cloud, ReebParams(levels=0)))
    # At the default depth on a multi-component cloud, level 0 is still
    # screeb's graph, and a tower handed that graph as its base is the same
    # tower at every level.
    cloud = PointCloud(separated_clusters(rng, [70, 50, 40], dim=2))
    params = ReebParams()
    base = screeb(cloud, params)
    assert params.levels == 2 and betti(base).b0 == 3
    tower = screeb_tower(cloud, params)
    given = screeb_tower(cloud, params, base=base)
    assert graph_to_json(tower.graph(0)) == graph_to_json(base)
    assert given.graph(0) is base
    assert len(given) == len(tower) == 3
    for (level, sub, g), (given_level, given_sub, given_g) in zip(tower.entries, given.entries):
        assert level == given_level and np.array_equal(sub.points, given_sub.points)
        assert graph_to_json(g) == graph_to_json(given_g)


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
