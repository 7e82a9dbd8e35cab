"""Multigraph core: construction, components, Betti numbers, degree-2 reduction.

Every method and metric in the package exchanges graphs through the
:class:`Multigraph` type defined here. Vertices are dense integers
``0..V-1``, optionally carrying ambient positions; edges form a multiset of
``(u, v, length, multiplicity)`` entries, self-loops permitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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

    def adjacency_lists(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge index); self-loops appear once."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for i, e in enumerate(self.edges):
            adj[e.u].append((e.v, i))
            if e.u != e.v:
                adj[e.v].append((e.u, i))
        return adj


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
    vertices carrying self-loops are preserved; each contracted chain becomes
    a single edge whose length is the chain's length sum. A connected
    component that is a pure cycle (every vertex degree 2, no self-loop)
    contracts to one vertex carrying one self-loop of the cycle's total
    length. Betti numbers are preserved exactly.
    """
    n = g.n_vertices
    deg = g.degrees()
    loops = g.self_loop_counts()
    keep = (deg != 2) | (loops > 0)

    # Expand multiplicities into edge instances for the chain walk.
    inst_u: list[int] = []
    inst_v: list[int] = []
    inst_len: list[float] = []
    incident: list[list[int]] = [[] for _ in range(n)]
    for e in g.edges:
        for _ in range(e.multiplicity):
            i = len(inst_u)
            inst_u.append(e.u)
            inst_v.append(e.v)
            inst_len.append(e.length)
            incident[e.u].append(i)
            if e.u != e.v:
                incident[e.v].append(i)

    comps = connected_components(g)
    kept_vertices: list[int] = []
    new_edges: list[Edge] = []
    used = [False] * len(inst_u)

    for comp in comps:
        comp_keep = [v for v in comp if keep[v]]
        if not comp_keep:
            # Pure cycle: contract to the smallest vertex with one self-loop.
            rep = comp[0]
            total = 0.0
            for v in comp:
                for i in incident[v]:
                    if not used[i]:
                        used[i] = True
                        total += inst_len[i]
            kept_vertices.append(rep)
            new_edges.append(Edge(rep, rep, total, 1))
            continue
        kept_vertices.extend(comp_keep)
        for v in comp_keep:
            for i in incident[v]:
                if used[i]:
                    continue
                if inst_u[i] == inst_v[i]:
                    used[i] = True
                    new_edges.append(Edge(v, v, inst_len[i], 1))
                    continue
                # Walk the chain starting with instance i out of v.
                used[i] = True
                acc = inst_len[i]
                prev = i
                cur = inst_v[i] if inst_u[i] == v else inst_u[i]
                while not keep[cur]:
                    nxt = next(j for j in incident[cur] if j != prev and not used[j])
                    used[nxt] = True
                    acc += inst_len[nxt]
                    prev = nxt
                    cur = inst_v[nxt] if inst_u[nxt] == cur else inst_u[nxt]
                new_edges.append(Edge(v, cur, acc, 1))

    kept_vertices.sort()
    relabel = {old: new for new, old in enumerate(kept_vertices)}
    edges = tuple(Edge(relabel[e.u], relabel[e.v], e.length, e.multiplicity) for e in new_edges)
    positions = None
    if g.positions is not None:
        positions = g.positions[kept_vertices]
    return Multigraph(len(kept_vertices), edges, positions)


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


def graph_from_json(text: str) -> Multigraph:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ValueError("graph.json must contain 'vertices' and 'edges'")
    verts = doc["vertices"]
    n = len(verts)
    positions = None
    if n and all(v is not None for v in verts):
        positions = np.array(verts, dtype=float)
    elif any(v is not None for v in verts):
        raise ValueError("either all vertices carry positions or none do")
    edges = tuple(Edge(int(u), int(v), float(ln), int(m)) for u, v, ln, m in doc["edges"])
    return Multigraph(n, edges, positions)


def save_graph(g: Multigraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_json(g))
        fh.write("\n")


def load_graph(path) -> Multigraph:
    with open(path) as fh:
        return graph_from_json(fh.read())
