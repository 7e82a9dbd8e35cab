"""Topology metrics: persistence diagrams, Wasserstein matching, GED upper
bound, and the combined comparison."""

import collections
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from screeb import (
    Edge,
    Multigraph,
    PersistenceDiagram,
    approx_ged,
    betti,
    compare,
    edge_length_diagram,
    persistence_similarity,
    wasserstein_breakdown,
    wasserstein_distance,
)
from screeb import graph as graphmod
from screeb import metrics
from screeb.errors import InvalidDataError
from screeb.metrics import _assignment_cost, _node_signatures, edit_cost

from conftest import random_multigraph


# -- independent oracles --------------------------------------------------------


def sweep_diagram_oracle(g):
    """Brute-force threshold sweep: add the entries shortest first (ties by
    endpoints) and recompute (b0, b1) of the prefix subgraph after each; an
    entry's b0 drop counts its H0 deaths and its b1 jump its H1 births, one
    per copy, each divided by the longest length."""
    if not g.edges:
        return [], g.n_vertices, []
    scale = max(e.length for e in g.edges)
    if scale <= 0:
        scale = 1.0
    deaths, births = [], []
    included = []
    prev_b0, prev_b1 = g.n_vertices, 0
    for e in sorted(g.edges, key=lambda e: (e.length, e.u, e.v)):
        included.append(e)
        b0, b1 = betti(Multigraph(g.n_vertices, tuple(included)))
        deaths.extend([e.length / scale] * (prev_b0 - b0))
        births.extend([e.length / scale] * (b1 - prev_b1))
        prev_b0, prev_b1 = b0, b1
    return sorted(deaths), prev_b0, sorted(births)


def matching_cost_oracle(points_a, diag_a, points_b, diag_b):
    """Exhaustive optimal partial matching (L-infinity ground cost)."""
    na, nb = len(points_a), len(points_b)
    best = math.inf
    for k in range(min(na, nb) + 1):
        for subset_a in itertools.combinations(range(na), k):
            for subset_b in itertools.permutations(range(nb), k):
                cost = 0.0
                for i, j in zip(subset_a, subset_b):
                    cost += max(abs(points_a[i][0] - points_b[j][0]), abs(points_a[i][1] - points_b[j][1]))
                cost += sum(diag_a[i] for i in range(na) if i not in subset_a)
                cost += sum(diag_b[j] for j in range(nb) if j not in subset_b)
                best = min(best, cost)
    return best


def wasserstein_oracle(d1, d2):
    h0 = matching_cost_oracle(
        [(0.0, x) for x in d1.h0_deaths], [x / 2 for x in d1.h0_deaths],
        [(0.0, x) for x in d2.h0_deaths], [x / 2 for x in d2.h0_deaths],
    )
    h1 = matching_cost_oracle(
        [(b, 1.0) for b in d1.h1_births], [(1 - b) / 2 for b in d1.h1_births],
        [(b, 1.0) for b in d2.h1_births], [(1 - b) / 2 for b in d2.h1_births],
    )
    return h0 + h1 + 0.5 * abs(d1.h0_essential - d2.h0_essential)


def exact_ged(g1, g2):
    """Exhaustive minimum over all partial injective node correspondences."""
    n1, n2 = g1.n_vertices, g2.n_vertices
    best = math.inf
    for k in range(min(n1, n2) + 1):
        for keep in itertools.combinations(range(n1), k):
            for image in itertools.permutations(range(n2), k):
                best = min(best, edit_cost(g1, g2, dict(zip(keep, image))))
    return best


def two_matrix_ged(g1, g2):
    """``approx_ged`` with one assignment-cost matrix per direction: the
    backward mapping is solved on ``_assignment_cost(g2, g1)`` and inverted,
    and graphs with equal vertex counts and adjacency multisets score 0."""

    def adjacency(g):
        counts = collections.Counter()
        for e in g.edges:
            counts[e.u, e.v] += e.multiplicity
        return counts

    def mapping(a, b):
        rows, cols = linear_sum_assignment(_assignment_cost(a, b))
        return {int(i): int(j) for i, j in zip(rows, cols) if i < a.n_vertices and j < b.n_vertices}

    if g1.n_vertices == g2.n_vertices and adjacency(g1) == adjacency(g2):
        return 0.0
    forward = edit_cost(g1, g2, mapping(g1, g2))
    backward = edit_cost(g1, g2, {j: i for i, j in mapping(g2, g1).items()})
    return min(forward, backward)


def signature_cost_oracle(sa, sb):
    """Per-pair signature distance: |degree| + |self-loops| + L1 of the
    multiplicity profiles, the shorter zero-padded."""
    deg_a, loop_a, prof_a = sa
    deg_b, loop_b, prof_b = sb
    width = max(len(prof_a), len(prof_b))
    pa = list(prof_a) + [0] * (width - len(prof_a))
    pb = list(prof_b) + [0] * (width - len(prof_b))
    prof = sum(abs(x - y) for x, y in zip(pa, pb))
    return abs(deg_a - deg_b) + abs(loop_a - loop_b) + prof


def assignment_cost_oracle(g1, g2):
    """The assignment cost matrix filled one vertex pair at a time from
    per-vertex adjacency lists (one entry per Edge, a self-loop once)."""
    n1, n2 = g1.n_vertices, g2.n_vertices
    sig1, sig2 = _node_signatures(g1), _node_signatures(g2)

    def refinements(g, sig):
        adj = [[] for _ in range(g.n_vertices)]
        for e in g.edges:
            adj[e.u].append(e.v)
            if e.u != e.v:
                adj[e.v].append(e.u)
        return [(sig[v], tuple(sorted(sig[w] for w in adj[v]))) for v in range(g.n_vertices)]

    ref1, ref2 = refinements(g1, sig1), refinements(g2, sig2)
    cost = np.zeros((n1 + n2, n1 + n2))
    for i in range(n1):
        for j in range(n2):
            cost[i, j] = signature_cost_oracle(sig1[i], sig2[j]) + (0.25 if ref1[i] != ref2[j] else 0)
    cost[:n1, n2:] = 1e9
    for i in range(n1):
        cost[i, n2 + i] = 1.0 + sig1[i][0]
    cost[n1:, :n2] = 1e9
    for j in range(n2):
        cost[n1 + j, j] = 1.0 + sig2[j][0]
    return cost


def random_diagram(rng, max_bars=6):
    deaths = np.sort(rng.uniform(0.05, 1.0, size=int(rng.integers(0, max_bars + 1))))
    births = np.sort(rng.uniform(0.0, 0.95, size=int(rng.integers(0, 3))))
    return PersistenceDiagram(deaths, int(rng.integers(1, 4)), births)


# -- edge_length_diagram ---------------------------------------------------------


def test_diagram_triangle_by_hand():
    g = Multigraph(3, (Edge(0, 1, 1.0), Edge(1, 2, 2.0), Edge(0, 2, 4.0)))
    d = edge_length_diagram(g)  # lengths divided by the longest, 4
    assert d.h0_deaths.tolist() == [0.25, 0.5]
    assert d.h0_essential == 1
    assert d.h1_births.tolist() == [1.0]


@pytest.mark.parametrize(
    "deaths, essential, births, message",
    [
        ([np.nan], 1, [], "H0 deaths must be finite and non-negative"),
        ([], 1, [-1.0], "H1 births must be finite and non-negative"),
        ([], -1, [], "essential count must be non-negative"),
    ],
)
def test_diagram_refuses_bad_entries(deaths, essential, births, message):
    with pytest.raises(ValueError, match=message):
        PersistenceDiagram(np.array(deaths), essential, np.array(births))


def test_diagram_single_vertex():
    d = edge_length_diagram(Multigraph(1, ()))
    assert d.h0_deaths.size == 0 and d.h1_births.size == 0
    assert d.h0_essential == 1


def test_diagram_normalized_path():
    g = Multigraph(5, tuple(Edge(i, i + 1, 1.0) for i in range(4)))
    d = edge_length_diagram(g)
    assert d.h0_deaths.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert d.h0_essential == 1
    assert d.h1_births.size == 0


def test_diagram_counts_match_betti(rng):
    for _ in range(50):
        g = random_multigraph(rng, max_vertices=20, max_edges=30)
        d = edge_length_diagram(g)
        b = betti(g)
        assert d.h0_essential == b.b0
        assert len(d.h1_births) == b.b1
        assert len(d.h0_deaths) == g.n_vertices - b.b0


def test_diagram_matches_sweep_oracle(rng):
    for i in range(160):
        g = random_multigraph(rng, max_vertices=30, max_edges=40)
        if i % 2:  # lengths 0.0 and -0.0 and ties, multiplicities up to 10**3
            lengths = [0.0, -0.0, 1.0, 2.5]
            edges = [Edge(e.u, e.v, lengths[rng.integers(4)], int(rng.integers(1, 1001))) for e in g.edges]
            g = Multigraph(g.n_vertices, tuple(edges))
        d = edge_length_diagram(g)
        deaths, b0, births = sweep_diagram_oracle(g)
        assert d.h0_deaths.tolist() == deaths  # the same float divisions: exactly equal
        assert d.h0_essential == b0
        assert d.h1_births.tolist() == births


def test_diagram_one_entry_of_many_copies():
    d = edge_length_diagram(Multigraph(3, (Edge(0, 1, 2.0, 10**6), Edge(2, 2, 1.0, 10**6))))
    assert d.h0_deaths.tolist() == [1.0] and d.h0_essential == 2
    assert d.h1_births.shape == (2 * 10**6 - 1,)
    assert (d.h1_births[: 10**6] == 0.5).all() and (d.h1_births[10**6 :] == 1.0).all()


def test_diagram_refuses_more_copies_than_it_takes_before_allocating():
    import tracemalloc

    huge = Multigraph.from_arrays(2, np.array([0]), np.array([1]), np.array([1.0]), np.array([1 << 53]))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDataError, match=f"{1 << 53} edge copies"):
            compare(huge, huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # refused before one birth per copy was allocated
    over = Multigraph(2, (Edge(0, 1, 1.0, metrics.MAX_DIAGRAM_BARS - 1), Edge(1, 1, 2.0, 2)))
    with pytest.raises(InvalidDataError, match=f"at most {metrics.MAX_DIAGRAM_BARS}"):
        edge_length_diagram(over)


def test_diagram_deaths_are_forest_weights(rng):
    # Deaths multiset equals the minimum spanning forest weights under the
    # same tie rule; oracle is an independent Prim-style construction.
    for _ in range(60):
        g = random_multigraph(rng, max_vertices=25, max_edges=35)
        d = edge_length_diagram(g)
        instances = sorted(
            (e.length, e.u, e.v) for e in g.edges for _ in range(e.multiplicity) if e.u != e.v
        )
        parent = list(range(g.n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        forest = []
        for length, u, v in instances:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
                forest.append(length)
        scale = max((e.length for e in g.edges), default=0.0) or 1.0
        assert np.allclose(np.sort(d.h0_deaths), np.sort(forest) / scale)


# -- wasserstein ---------------------------------------------------------------


def test_wasserstein_identity():
    d = PersistenceDiagram(np.array([0.3, 0.8]), 1, np.array([0.5]))
    assert wasserstein_distance(d, d) == 0.0


def test_wasserstein_single_bar_to_empty():
    d1 = PersistenceDiagram(np.array([0.8]), 1, np.array([]))
    d2 = PersistenceDiagram(np.array([]), 1, np.array([]))
    assert wasserstein_distance(d1, d2) == pytest.approx(0.4)


def test_wasserstein_two_bars_versus_one():
    d1 = PersistenceDiagram(np.array([0.2, 0.9]), 1, np.array([]))
    d2 = PersistenceDiagram(np.array([0.85]), 1, np.array([]))
    assert wasserstein_distance(d1, d2) == pytest.approx(0.15)


def test_wasserstein_essential_mismatch():
    d1 = PersistenceDiagram(np.array([]), 3, np.array([]))
    d2 = PersistenceDiagram(np.array([]), 1, np.array([]))
    assert wasserstein_distance(d1, d2) == pytest.approx(1.0)


def test_matching_with_an_empty_side_pays_each_diagonal_cost(rng, monkeypatch):
    # The augmented assignment alone covers empty sides: every point is left
    # unmatched and the cost has the bits of the diagonal costs summed in order.
    solved = []
    monkeypatch.setattr(metrics, "linear_sum_assignment", lambda c: solved.append(c.shape) or linear_sum_assignment(c))
    for trial in range(200):
        na, nb = (0, int(rng.integers(0, 40))) if trial % 2 else (int(rng.integers(0, 40)), 0)
        da, db = rng.exponential(size=na) * 10.0 ** rng.uniform(-3, 3), rng.exponential(size=nb)
        got = metrics._matching_distance(da, db, da / 2.0, db / 2.0)
        assert got == float(np.sum(da / 2.0) + np.sum(db / 2.0)) and solved[-1] == (na + nb, na + nb)
    assert len(solved) == 200


def test_wasserstein_matches_brute_force(rng):
    for _ in range(200):
        d1 = random_diagram(rng, max_bars=4)
        d2 = random_diagram(rng, max_bars=4)
        got = wasserstein_distance(d1, d2)
        want = wasserstein_oracle(d1, d2)
        assert got == pytest.approx(want, abs=1e-10)


def test_wasserstein_pseudometric(rng):
    diagrams = [random_diagram(rng) for _ in range(30)]
    for _ in range(300):
        a, b, c = (diagrams[i] for i in rng.integers(0, 30, size=3))
        dab = wasserstein_distance(a, b)
        dba = wasserstein_distance(b, a)
        assert abs(dab - dba) <= 1e-12
        assert dab + wasserstein_distance(b, c) >= wasserstein_distance(a, c) - 1e-9


def test_similarity_values():
    assert persistence_similarity(0.0) == 1.0
    assert persistence_similarity(1.0) == 0.5
    assert persistence_similarity(3.0) == 0.25
    for distance in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="distance must be non-negative"):
            persistence_similarity(distance)


# -- approx_ged -----------------------------------------------------------------


def test_ged_identity_distinct_signatures():
    g = Multigraph(3, (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(1, 1, 1.0)))
    assert approx_ged(g, g) == 0.0


def test_ged_vertex_versus_edge():
    g1 = Multigraph(1, ())
    g2 = Multigraph(2, (Edge(0, 1, 1.0),))
    assert approx_ged(g1, g2) == 2.0
    assert exact_ged(g1, g2) == 2.0


def test_ged_self_loop_deletion():
    g1 = Multigraph(1, (Edge(0, 0, 1.0),))
    g2 = Multigraph(1, ())
    assert approx_ged(g1, g2) == 1.0
    assert exact_ged(g1, g2) == 1.0


def test_ged_twin_stars_self_comparison():
    # Automorphic leaves across two identical components; signature
    # assignment alone could mix them, but identical graphs must score 0.
    edges = [Edge(0, i, 1.0) for i in (1, 2, 3)] + [Edge(4, i, 1.0) for i in (5, 6, 7)]
    g = Multigraph(8, tuple(edges))
    assert approx_ged(g, g) == 0.0


def test_ged_symmetry(rng):
    graphs = [graphmod.reduce(random_multigraph(rng, max_vertices=6, max_edges=8)) for _ in range(12)]
    for g1 in graphs:
        for g2 in graphs:
            assert approx_ged(g1, g2) == approx_ged(g2, g1)


def test_ged_upper_bounds_exact(rng):
    graphs = []
    while len(graphs) < 16:
        g = graphmod.reduce(random_multigraph(rng, max_vertices=4, max_edges=5))
        if g.n_vertices <= 4 and g.edge_count() <= 5:
            graphs.append(g)
    for g1 in graphs:
        for g2 in graphs:
            assert approx_ged(g1, g2) >= exact_ged(g1, g2) - 1e-12


def test_assignment_cost_matches_per_pair_oracle(rng):
    special = [
        Multigraph(0, ()),
        Multigraph(1, ()),
        Multigraph(4, ()),  # isolated vertices only
        Multigraph(3, (Edge(1, 1, 1.0, 2), Edge(1, 1, 2.0), Edge(2, 2, 0.5))),  # no non-loop edge
        Multigraph(3, (Edge(0, 1, 1.0), Edge(0, 1, 2.0, 3), Edge(1, 1, 1.0), Edge(1, 2, 0.5))),
        Multigraph(5, (Edge(0, 1, 1.0, 2), Edge(0, 1, 1.5), Edge(0, 1, 3.0), Edge(2, 3, 1.0), Edge(3, 3, 1.0))),
    ]
    graphs = special + [random_multigraph(rng, max_vertices=12, max_edges=20) for _ in range(30)]
    assert any(len({(e.u, e.v) for e in g.edges}) < len(g.edges) for g in graphs[len(special):])
    # A relabeled copy lists each vertex's neighbors in another order but
    # must match the original's refinements.
    relabeled = []
    for g in graphs:
        perm = rng.permutation(g.n_vertices)
        edges = tuple(Edge(perm[e.u], perm[e.v], e.length, e.multiplicity) for e in g.edges)
        relabeled.append(Multigraph(g.n_vertices, edges))
    pairs = itertools.chain(
        itertools.product(special, repeat=2), zip(graphs, graphs[::-1]), zip(graphs, graphs[1:]), zip(graphs, relabeled)
    )
    for g1, g2 in pairs:
        got, want = _assignment_cost(g1, g2), assignment_cost_oracle(g1, g2)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(_assignment_cost(g2, g1), got.T)  # approx_ged's backward mapping reads the transpose


def test_approx_ged_matches_two_matrix_oracle(rng):
    special = [
        Multigraph(0, ()),
        Multigraph(1, ()),
        Multigraph(3, ()),
        Multigraph(1, (Edge(0, 0, 1.0, 3),)),
        Multigraph(2, (Edge(0, 0, 1.0), Edge(1, 1, 1.0, 2))),
        Multigraph(3, (Edge(0, 1, 1.0, 2), Edge(0, 1, 2.0), Edge(1, 2, 1.0), Edge(2, 2, 0.5))),
        Multigraph(4, (Edge(0, 1, 1.0), Edge(1, 2, 1.0, 3), Edge(2, 3, 1.0), Edge(3, 0, 1.0), Edge(1, 1, 1.0))),
    ]
    graphs = [random_multigraph(rng, max_vertices=10, max_edges=14) for _ in range(40)]
    graphs += [graphmod.reduce(g) for g in graphs[:20]]
    relabeled = []  # equal vertex counts, other adjacency: no short cut
    for g in graphs:
        perm = rng.permutation(g.n_vertices)
        edges = tuple(Edge(perm[e.u], perm[e.v], e.length, e.multiplicity) for e in g.edges)
        relabeled.append(Multigraph(g.n_vertices, edges))
    pairs = [*itertools.product(special, repeat=2), *zip(graphs, graphs[1:]), *zip(graphs, graphs[::-1])]
    pairs += zip(graphs, relabeled)
    assert any(g1.n_vertices != g2.n_vertices for g1, g2 in pairs)
    assert any(approx_ged(g1, g2) > 0 for g1, g2 in zip(graphs, relabeled))
    for g1, g2 in pairs:
        assert approx_ged(g1, g2) == two_matrix_ged(g1, g2)


def test_approx_ged_builds_one_cost_matrix(monkeypatch):
    calls = collections.Counter()

    def counting(name):
        original = getattr(metrics, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("_assignment_cost", "_adjacency_multiset"):
        monkeypatch.setattr(metrics, name, counting(name))
    g1 = Multigraph(3, (Edge(0, 1, 1.0), Edge(1, 2, 1.0, 2)))
    g2 = Multigraph(4, (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(1, 3, 1.0), Edge(3, 3, 1.0)))
    assert approx_ged(g1, g2) > 0
    assert calls == {"_assignment_cost": 1, "_adjacency_multiset": 2}
    calls.clear()
    assert approx_ged(g2, g2) == 0.0
    assert calls == {"_adjacency_multiset": 2}


# -- compare -----------------------------------------------------------------------


def test_compare_identical():
    g = Multigraph(3, (Edge(0, 1, 1.0), Edge(1, 2, 2.0), Edge(2, 2, 0.5)))
    result = compare(g, g)
    assert result.wasserstein_similarity == 1.0
    assert result.ged == 0.0


def test_compare_segment_versus_circle():
    seg = Multigraph(2, (Edge(0, 1, 1.0),))
    circle = Multigraph(1, (Edge(0, 0, 1.0),))
    result = compare(seg, circle)
    assert result.ged >= 1.0
    assert result.wasserstein_similarity < 1.0


def test_compare_symmetric(rng):
    for _ in range(10):
        g1 = random_multigraph(rng, max_vertices=8, max_edges=10)
        g2 = random_multigraph(rng, max_vertices=8, max_edges=10)
        r12 = compare(g1, g2)
        r21 = compare(g2, g1)
        assert r12.wasserstein_similarity == pytest.approx(r21.wasserstein_similarity, abs=1e-12)
        assert r12.ged == r21.ged


def test_compare_reduces_inputs():
    chain = Multigraph(4, tuple(Edge(i, i + 1, 1.0) for i in range(3)))
    edge = Multigraph(2, (Edge(0, 1, 3.0),))
    result = compare(chain, edge)
    assert result.wasserstein_similarity == 1.0
    assert result.ged == 0.0


def test_breakdown_terms_sum():
    d1 = PersistenceDiagram(np.array([0.2, 0.9]), 2, np.array([0.3]))
    d2 = PersistenceDiagram(np.array([0.5]), 1, np.array([]))
    parts = wasserstein_breakdown(d1, d2)
    assert parts["total"] == pytest.approx(parts["h0"] + parts["h1"] + parts["essential"])
