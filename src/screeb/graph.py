"""Multigraph core: construction, components, Betti numbers, degree-2 reduction.

Every method and metric in the package exchanges graphs through the
:class:`Multigraph` type defined here. Vertices are dense integers
``0..V-1``, optionally carrying ambient positions; edges form a multiset of
``(u, v, length, multiplicity)`` entries, self-loops permitted.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np


class Edge(NamedTuple):
    u: int
    v: int
    length: float
    multiplicity: int = 1


class BettiPair(NamedTuple):
    b0: int
    b1: int


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Undirected multigraph with non-negative edge lengths.

    Edges are canonicalized on construction: endpoints ordered ``u <= v``,
    entries sorted by ``(u, v, length)``, and entries identical in all three
    keys merged by summing multiplicities. ``positions`` is an optional
    ``(V, d)`` array of vertex coordinates.
    """

    n_vertices: int
    edges: tuple[Edge, ...]
    positions: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        canon: dict[tuple[int, int, float], int] = {}
        for e in self.edges:
            u, v = (int(e.u), int(e.v)) if e.u <= e.v else (int(e.v), int(e.u))
            if not (0 <= u and v < self.n_vertices):
                raise ValueError(f"edge ({e.u},{e.v}) has endpoint outside 0..{self.n_vertices - 1}")
            length = float(e.length)
            if not math.isfinite(length) or length < 0:
                raise ValueError(f"edge ({u},{v}) has invalid length {length}")
            mult = int(e.multiplicity)
            if mult < 1:
                raise ValueError("edge multiplicity must be >= 1")
            key = (u, v, length)
            canon[key] = canon.get(key, 0) + mult
        edges = tuple(Edge(u, v, ln, m) for (u, v, ln), m in sorted(canon.items()))
        object.__setattr__(self, "edges", edges)
        if self.positions is not None:
            pos = np.asarray(self.positions, dtype=float)
            if pos.ndim != 2 or pos.shape[0] != self.n_vertices:
                raise ValueError("positions must be a (V, d) array")
            if not np.all(np.isfinite(pos)):
                raise ValueError("positions must be finite")
            pos = pos.copy()
            pos.setflags(write=False)
            object.__setattr__(self, "positions", pos)

    # -- basic accessors ---------------------------------------------------

    def edge_count(self) -> int:
        """Number of edges counted with multiplicity (self-loops included)."""
        return sum(e.multiplicity for e in self.edges)

    def total_length(self) -> float:
        return sum(e.length * e.multiplicity for e in self.edges)

    def degrees(self) -> np.ndarray:
        """Vertex degrees; each parallel edge counts once per copy, a
        self-loop copy counts 2."""
        deg = np.zeros(self.n_vertices, dtype=int)
        for e in self.edges:
            if e.u == e.v:
                deg[e.u] += 2 * e.multiplicity
            else:
                deg[e.u] += e.multiplicity
                deg[e.v] += e.multiplicity
        return deg

    def self_loop_counts(self) -> np.ndarray:
        loops = np.zeros(self.n_vertices, dtype=int)
        for e in self.edges:
            if e.u == e.v:
                loops[e.u] += e.multiplicity
        return loops

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees().tolist()))


class UnionFind:
    """Disjoint sets over ``0..n-1`` with path halving. A union keeps the
    smaller root, so every root is the smallest element of its set."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False if already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def groups(self) -> list[list[int]]:
        """The sets, each ascending, ordered by their smallest element."""
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def connected_components(g: Multigraph) -> list[list[int]]:
    """Partition vertices by reachability.

    Parts are each sorted ascending and ordered by their smallest vertex id,
    so the output is deterministic.
    """
    uf = UnionFind(g.n_vertices)
    for e in g.edges:
        uf.union(e.u, e.v)
    return uf.groups()


def betti(g: Multigraph) -> BettiPair:
    """Betti numbers of the graph viewed as a 1-complex.

    ``b1 = |E| - |V| + b0`` with ``|E|`` counting multiplicity; each
    self-loop copy contributes one independent cycle.
    """
    b0 = len(connected_components(g))
    b1 = g.edge_count() - g.n_vertices + b0
    return BettiPair(b0, b1)


def reduce(g: Multigraph) -> Multigraph:  # noqa: A001 - module-level name is the contract
    """Contract maximal chains of degree-2 internal vertices.

    Branch points (degree >= 3), endpoints (degree 1), isolated vertices and
    vertices carrying self-loops are kept; each contracted chain becomes a
    single edge whose length is the chain's length sum. A connected
    component that is a pure cycle (every vertex degree 2, no self-loop)
    contracts to its smallest vertex carrying one self-loop of the cycle's
    total length. Betti numbers are preserved exactly. The output bytes
    rest on two summation orders: a chain is summed in walk order from its
    smaller kept endpoint, leaving each degree-2 vertex by its first edge
    entry with a copy left, and a pure cycle in canonical edge order.
    """
    edges = g.edges
    keep = ((g.degrees() != 2) | (g.self_loop_counts() > 0)).tolist()
    left = [e.multiplicity for e in edges]  # copies of each entry not yet walked
    incident: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for i, e in enumerate(edges):
        incident[e.u].append(i)
        if e.u != e.v:
            incident[e.v].append(i)

    def walk(v: int, i: int) -> tuple[list[int], int]:
        # One copy of entry i out of v, then on through degree-2 vertices to a
        # kept one: the entries taken, in walk order, and the vertex reached.
        taken = []
        while True:
            left[i] -= 1
            taken.append(i)
            v = edges[i].u + edges[i].v - v
            if keep[v]:
                return taken, v
            i = next(j for j in incident[v] if left[j])

    # Sums are running totals: float sum() is compensated from Python 3.12.
    new_edges: list[Edge] = []
    for v in [v for v, k in enumerate(keep) if k]:
        for i in incident[v]:
            if left[i] and keep[edges[i].u + edges[i].v - v]:  # to a kept vertex, or a loop
                new_edges.append(edges[i]._replace(multiplicity=left[i]))
                left[i] = 0
            while left[i]:
                taken, end = walk(v, i)
                *_, length = accumulate(edges[j].length for j in taken)
                new_edges.append(Edge(v, end, length))
    for i, e in enumerate(edges):
        if left[i]:  # a pure cycle, first met at its smallest vertex
            keep[e.u] = True
            *_, length = accumulate((edges[j].length for j in sorted(walk(e.u, i)[0])), initial=0.0)
            new_edges.append(Edge(e.u, e.u, length))

    kept = [v for v, k in enumerate(keep) if k]
    relabel = {old: new for new, old in enumerate(kept)}
    edges = tuple(Edge(relabel[e.u], relabel[e.v], e.length, e.multiplicity) for e in new_edges)
    return Multigraph(len(kept), edges, None if g.positions is None else g.positions[kept])


def disjoint_union(graphs: Sequence[Multigraph]) -> Multigraph:
    """Concatenate graphs into one, relabeling vertices by block offset."""
    offset = 0
    edges: list[Edge] = []
    pos_blocks: list[np.ndarray] = []
    have_pos = all(g.positions is not None for g in graphs) and len(graphs) > 0
    for g in graphs:
        edges.extend(Edge(e.u + offset, e.v + offset, e.length, e.multiplicity) for e in g.edges)
        if have_pos:
            pos_blocks.append(np.asarray(g.positions))
        offset += g.n_vertices
    positions = np.vstack(pos_blocks) if have_pos else None
    return Multigraph(offset, tuple(edges), positions)


# -- canonical serialization ----------------------------------------------
#
# graph.json layout:
#   {"vertices": [[x, y, ...] or null, ...], "edges": [[u, v, length, mult], ...]}
# Vertices are emitted in canonical order (position-lexicographic when
# positions exist, else original id); edges canonical after relabeling.
# Lengths and coordinates are written with 17 significant digits so the
# file round-trips float64 exactly and serialization is byte-deterministic.


def canonical_order(g: Multigraph) -> list[int]:
    if g.positions is None:
        return list(range(g.n_vertices))
    keys = [(tuple(g.positions[v]), v) for v in range(g.n_vertices)]
    return [v for _, v in sorted(keys)]


def canonicalize(g: Multigraph) -> Multigraph:
    """Relabel vertices into canonical order (see :func:`canonical_order`)."""
    order = canonical_order(g)
    relabel = {old: new for new, old in enumerate(order)}
    edges = tuple(Edge(relabel[e.u], relabel[e.v], e.length, e.multiplicity) for e in g.edges)
    positions = g.positions[order] if g.positions is not None else None
    return Multigraph(g.n_vertices, edges, positions)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def graph_to_json(g: Multigraph) -> str:
    g = canonicalize(g)
    vert_strs = []
    for v in range(g.n_vertices):
        if g.positions is None:
            vert_strs.append("null")
        else:
            vert_strs.append("[" + ", ".join(_fmt(c) for c in g.positions[v]) + "]")
    edge_strs = [
        f"[{e.u}, {e.v}, {_fmt(e.length)}, {e.multiplicity}]" for e in g.edges
    ]
    return (
        '{"vertices": [' + ", ".join(vert_strs) + '], '
        '"edges": [' + ", ".join(edge_strs) + "]}"
    )


def _is_number(x) -> bool:
    """A JSON number a float64 can hold: JSON integers are unbounded, and
    one past ``sys.float_info.max`` overflows on conversion."""
    return isinstance(x, float) or isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _edge_from_json(i: int, entry, n: int) -> Edge:
    """Edge ``i`` of a graph.json document. Ids and multiplicity must be
    integers up to 2**53, where a float64 holds each one exactly; an integral
    float passes, a bool does not."""
    if isinstance(entry, list) and len(entry) == 4 and all(map(_is_number, entry)):
        u, v, length, mult = entry
        if all(abs(x) <= 1 << 53 and float(x).is_integer() for x in (u, v, mult)):
            if 0 <= min(u, v) and max(u, v) < n and math.isfinite(length) and length >= 0 and mult >= 1:
                return Edge(int(u), int(v), float(length), int(mult))
    raise ValueError(
        f"edge {i}: {entry!r} is not [u, v, length, multiplicity] with integer ids in 0..{n - 1}, "
        "a finite length >= 0 and an integer multiplicity >= 1"
    )


def graph_from_json(text: str) -> Multigraph:
    """Parse a graph.json document; a malformed one raises ``ValueError``,
    naming the index of its first malformed edge."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not all(isinstance(doc.get(key), list) for key in ("vertices", "edges")):
        raise ValueError("graph.json must contain 'vertices' and 'edges' lists")
    verts = doc["vertices"]
    if not all(v is None or isinstance(v, list) and all(map(_is_number, v)) for v in verts):
        raise ValueError("each graph.json vertex must be a list of coordinates or null")
    n = len(verts)
    positions = None
    if n and all(v is not None for v in verts):
        positions = np.array(verts, dtype=float)
    elif any(v is not None for v in verts):
        raise ValueError("either all vertices carry positions or none do")
    return Multigraph(n, tuple(_edge_from_json(i, e, n) for i, e in enumerate(doc["edges"])), positions)


def save_graph(g: Multigraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_json(g))
        fh.write("\n")


def load_graph(path) -> Multigraph:
    with open(path) as fh:
        return graph_from_json(fh.read())
