"""Topology-aware graph comparison: edge-length-filtration persistence,
Wasserstein persistence similarity and approximate graph edit distance.

The comparison used by the benchmark harness reduces both graphs, builds
normalized persistence diagrams under the edge-length filtration, and
reports ``1 / (1 + W1)`` together with an assignment-based upper bound on
the unit-cost graph edit distance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import graph as graphmod
from .errors import InvalidDataError
from .graph import Multigraph

MAX_DIAGRAM_BARS = 1 << 22  # edge copies a diagram takes, each at most one H1 birth (32 MiB of them)


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """H0/H1 persistence of a graph under the edge-length filtration.

    ``h0_deaths`` are the finite H0 deaths (all births are 0),
    ``h0_essential`` counts components (bars that never die), and
    ``h1_births`` are the birth values of essential H1 bars (cycles in a
    graph never die). Values are edge lengths divided by the longest.
    """

    h0_deaths: np.ndarray
    h0_essential: int
    h1_births: np.ndarray

    def __post_init__(self):
        deaths = np.sort(np.asarray(self.h0_deaths, dtype=float))
        births = np.sort(np.asarray(self.h1_births, dtype=float))
        if deaths.size and (not np.all(np.isfinite(deaths)) or deaths[0] < 0):
            raise ValueError("H0 deaths must be finite and non-negative")
        if births.size and (not np.all(np.isfinite(births)) or births[0] < 0):
            raise ValueError("H1 births must be finite and non-negative")
        if self.h0_essential < 0:
            raise ValueError("essential count must be non-negative")
        deaths.setflags(write=False)
        births.setflags(write=False)
        object.__setattr__(self, "h0_deaths", deaths)
        object.__setattr__(self, "h1_births", births)

    def to_dict(self) -> dict:
        return {
            "h0_deaths": self.h0_deaths.tolist(),
            "h0_essential": int(self.h0_essential),
            "h1_births": self.h1_births.tolist(),
        }


def check_diagram_size(g: Multigraph) -> Multigraph:
    """``g`` itself, or ``InvalidDataError`` when it has more than ``MAX_DIAGRAM_BARS`` edge copies."""
    if (copies := int(g.multiplicity.sum())) > MAX_DIAGRAM_BARS:
        raise InvalidDataError(f"{copies} edge copies: a diagram takes at most {MAX_DIAGRAM_BARS}")
    return g


def edge_length_diagram(g: Multigraph) -> PersistenceDiagram:
    """Persistence of the edge-length filtration via a Kruskal sweep.

    Edges enter shortest first (ties broken by endpoints); an edge joining
    two components records an H0 death at its length, an edge inside a
    component or a self-loop records an essential H1 birth. Every vertex is
    born at 0 and one H0 bar per component is essential. Lengths are divided
    by the maximum edge length, unless it is 0; an edgeless graph yields an
    empty diagram with ``h0_essential = |V|``. More than ``MAX_DIAGRAM_BARS`` edge copies raise ``InvalidDataError``.
    """
    check_diagram_size(g)
    if not g.u.size:
        return PersistenceDiagram(np.zeros(0), g.n_vertices, np.zeros(0))
    scale = float(g.length.max()) or 1.0
    order = np.lexsort((g.v, g.u, g.length))
    uf = graphmod.UnionFind(g.n_vertices)
    joined = np.array([a != b and uf.union(a, b) for a, b in zip(g.u[order].tolist(), g.v[order].tolist())], dtype=bool)
    values = g.length[order] / scale
    births = np.repeat(values, g.multiplicity[order] - joined)  # one per copy that closes a cycle
    return PersistenceDiagram(values[joined], g.n_vertices - int(joined.sum()), births)


def _matching_distance(a: np.ndarray, b: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray) -> float:
    """Exact order-1 optimal partial matching cost between two point sets.

    ``a`` and ``b`` hold one coordinate of each diagram point: H0 points lie
    at (0, death) and H1 points at (birth, 1), so two points of one part
    differ in that coordinate only, and their L-infinity ground cost is the
    difference. ``diag_*`` is the cost of leaving each point unmatched (its
    distance to the diagonal). Solved exactly on the standard augmented
    bipartite construction; with one side empty it leaves every point unmatched.
    """
    na, nb = len(a), len(b)
    size = na + nb
    big = float(np.sum(diag_a) + np.sum(diag_b)) + 1.0
    cost = np.zeros((size, size))
    cost[:na, :nb] = np.abs(a[:, None] - b)
    cost[:na, nb:] = big
    cost[:na, nb:][np.arange(na), np.arange(na)] = diag_a
    cost[na:, :nb] = big
    cost[na:, :nb][np.arange(nb), np.arange(nb)] = diag_b
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def wasserstein_breakdown(d1: PersistenceDiagram, d2: PersistenceDiagram) -> dict:
    """Order-1 Wasserstein distance between diagrams, with per-part terms.

    H0 finite bars live at (0, death); unmatched bars pay their L-infinity
    distance to the diagonal, death/2. Essential H1 bars are embedded at
    (birth, 1), 1 being the longest edge, with unmatched cost (1 - birth)/2.
    A component-count mismatch adds 0.5 per missing essential H0 bar.
    """
    h0 = _matching_distance(d1.h0_deaths, d2.h0_deaths, d1.h0_deaths / 2.0, d2.h0_deaths / 2.0)
    h1 = _matching_distance(d1.h1_births, d2.h1_births, (1.0 - d1.h1_births) / 2.0, (1.0 - d2.h1_births) / 2.0)
    essential = 0.5 * abs(d1.h0_essential - d2.h0_essential)
    return {
        "h0": h0,
        "h1": h1,
        "essential": essential,
        "total": h0 + h1 + essential,
    }


def wasserstein_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """The order-1 Wasserstein distance: ``wasserstein_breakdown``'s total."""
    return wasserstein_breakdown(d1, d2)["total"]


def persistence_similarity(distance: float) -> float:
    """Convert a diagram distance into a similarity in (0, 1]: 1 / (1 + d)."""
    if not distance >= 0:  # NaN too
        raise ValueError("distance must be non-negative")
    return 1.0 / (1.0 + distance)


# -- approximate graph edit distance ----------------------------------------


def _node_signatures(g: Multigraph) -> list[tuple]:
    deg = g.degrees()
    loops = g.self_loop_counts()
    profiles: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for a, b, m in zip(g.u.tolist(), g.v.tolist(), g.multiplicity.tolist()):
        if a != b:
            profiles[a].append(m)
            profiles[b].append(m)
    return [(d, k, tuple(sorted(prof, reverse=True))) for d, k, prof in zip(deg.tolist(), loops.tolist(), profiles)]


def _adjacency_multiset(g: Multigraph) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for u, v, m in zip(g.u.tolist(), g.v.tolist(), g.multiplicity.tolist()):
        out[u, v] = out.get((u, v), 0) + m
    return out


def edit_cost(g1: Multigraph, g2: Multigraph, mapping: dict[int, int]) -> float:
    """Exact unit-cost edit script cost induced by a partial node mapping.

    Unmapped g1 nodes are deleted, unmatched g2 nodes inserted; node
    substitutions are free and edge lengths are ignored. Edge cost is the
    multiset difference of multiplicities under the mapping.
    """
    return _edit_cost(g1.n_vertices, g2.n_vertices, _adjacency_multiset(g1), _adjacency_multiset(g2), mapping)


def _edit_cost(n1: int, n2: int, adj1: dict, adj2: dict, mapping: dict[int, int]) -> float:
    """``edit_cost`` from the vertex counts and adjacency multisets of both graphs."""
    node_cost = (n1 - len(mapping)) + (n2 - len(mapping))
    adj2 = dict(adj2)
    edge_cost = 0
    for (u, v), m1 in adj1.items():
        if u in mapping and v in mapping:
            a, b = mapping[u], mapping[v]
            key = (a, b) if a <= b else (b, a)
            m2 = adj2.pop(key, 0)
            edge_cost += abs(m1 - m2)
        else:
            edge_cost += m1
    edge_cost += sum(adj2.values())
    return float(node_cost + edge_cost)


def _assignment_cost(g1: Multigraph, g2: Multigraph) -> np.ndarray:
    """Bipartite (Riesen-Bunke) cost matrix matching g1's vertices to g2's.

    Each vertex gets an integer row: degree, self-loops, and its multiplicity
    profile zero-padded to the widest of both graphs. Each is refined with
    one round of neighbor aggregation, (signature, sorted neighbor
    signatures), so the assignment distinguishes nodes whose local structure
    matches but whose neighborhoods differ; a neighbor is listed once per
    entry, a self-loop once at its own vertex. The n1 x n2 block is the
    L1 distance between rows plus 0.25 where refinements differ. Deleting or
    inserting a vertex costs 1 + degree, the other dummy entries 1e9. Every
    entry is an integer or an integer plus 0.25, so the matrix is exact, and
    ``_assignment_cost(g2, g1)`` is ``_assignment_cost(g1, g2).T``.
    """
    sigs = _node_signatures(g1), _node_signatures(g2)
    width = max((len(prof) for sig in sigs for _, _, prof in sig), default=0)
    ids: dict[tuple, int] = {}  # shared, so equal refinements get equal ids
    rows, refs = [], []
    for g, sig in zip((g1, g2), sigs):
        nbrs: list[list[tuple]] = [[] for _ in sig]
        for a, b in zip(g.u.tolist(), g.v.tolist()):
            nbrs[a].append(sig[b])
            if a != b:
                nbrs[b].append(sig[a])
        refs.append(np.array([ids.setdefault((s, tuple(sorted(nb))), len(ids)) for s, nb in zip(sig, nbrs)]))
        padded = [(deg, loops, *prof) + (0,) * (width - len(prof)) for deg, loops, prof in sig]
        rows.append(np.array(padded, dtype=int).reshape(len(sig), 2 + width))
    (r1, r2), (ref1, ref2) = rows, refs
    n1, n2 = len(r1), len(r2)
    cost = np.full((n1 + n2, n1 + n2), 1e9)
    # Column by column, so no n1 x n2 x width temporary is built.
    cost[:n1, :n2] = sum(np.abs(a[:, None] - b) for a, b in zip(r1.T, r2.T))
    cost[:n1, :n2] += 0.25 * (ref1[:, None] != ref2)
    cost[:n1, n2:][np.arange(n1), np.arange(n1)] = 1.0 + r1[:, 0]
    cost[n1:, :n2][np.arange(n2), np.arange(n2)] = 1.0 + r2[:, 0]
    cost[n1:, n2:] = 0.0
    return cost


def approx_ged(g1: Multigraph, g2: Multigraph) -> float:
    """Upper bound on the exact unit-cost graph edit distance.

    Node insert/delete and edge insert/delete cost 1, substitutions are
    free, and lengths are ignored. Nodes are matched by a bipartite
    assignment over local signatures and the induced edit script is costed
    exactly, so the result is always >= the exact GED. Identically labeled
    graphs short-circuit to 0 (the identity is a perfect correspondence),
    and the assignment is evaluated in both directions, the backward one on
    the transposed cost matrix, so symmetry is exact.
    """
    n1, n2 = g1.n_vertices, g2.n_vertices
    adj1, adj2 = _adjacency_multiset(g1), _adjacency_multiset(g2)
    if n1 == n2 and adj1 == adj2:
        return 0.0
    cost = _assignment_cost(g1, g2)
    # Forward g1 -> g2, and backward g2 -> g1 on the transpose, its (row, column) pairs read as (column, row).
    pairs = linear_sum_assignment(cost), linear_sum_assignment(cost.T)[::-1]
    mappings = ({i: j for i, j in zip(rows.tolist(), cols.tolist()) if i < n1 and j < n2} for rows, cols in pairs)
    return min(_edit_cost(n1, n2, adj1, adj2, mapping) for mapping in mappings)


# -- combined comparison ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    wasserstein_similarity: float
    ged: float
    wasserstein_distance: float
    h0_distance: float
    h1_distance: float
    essential_distance: float
    diagram_s: PersistenceDiagram

    def to_dict(self) -> dict:
        """Every score, without the diagram."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "diagram_s"}


def compare(s: Multigraph, g: Multigraph) -> ComparisonResult:
    """Topology-aware comparison of a recovered graph against a reference.

    Both graphs are reduced; the Wasserstein similarity is computed on
    normalized edge-length diagrams and the GED on the reduced multigraphs.
    """
    s_red = graphmod.reduce(s)
    g_red = graphmod.reduce(g)
    ds = edge_length_diagram(s_red)
    dg = edge_length_diagram(g_red)
    parts = wasserstein_breakdown(ds, dg)
    return ComparisonResult(
        wasserstein_similarity=persistence_similarity(parts["total"]),
        ged=approx_ged(s_red, g_red),
        wasserstein_distance=parts["total"],
        h0_distance=parts["h0"],
        h1_distance=parts["h1"],
        essential_distance=parts["essential"],
        diagram_s=ds,
    )
