"""Multigraph core: construction, components, Betti numbers, degree-2 reduction.

Every method and metric in the package exchanges graphs through the
:class:`Multigraph` type defined here. Vertices are dense integers
``0..V-1``, optionally carrying ambient positions; edges form a multiset of
``(u, v, length, multiplicity)`` entries, self-loops permitted, stored as
four read-only arrays. ``Edge`` tuples and the ``edges`` view of them are
for callers outside the package; package code reads the arrays.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property, partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

MAX_MULTIPLICITY = 1 << 53  # graph.json ids and multiplicities: a float64 holds each exactly


class Edge(NamedTuple):
    u: int
    v: int
    length: float
    multiplicity: int = 1


class BettiPair(NamedTuple):
    b0: int
    b1: int


def _checked(n_vertices, u, v, length, mult, positions) -> tuple:
    """Checked entry arrays, endpoints ordered ``lo <= hi``, and a copy of the positions."""
    n = int(n_vertices)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    try:
        a, b, mult = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64), np.asarray(mult, dtype=np.int64)
    except OverflowError:
        raise ValueError("edge ids and multiplicities must fit int64") from None
    length = np.asarray(length, dtype=float)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if lo.size:
        if lo.min() < 0 or hi.max() >= n:
            i = np.argmax((lo < 0) | (hi >= n))
            raise ValueError(f"edge ({a[i]},{b[i]}) has endpoint outside 0..{n - 1}")
        if not 0 <= length.min() <= length.max() < math.inf:
            raise ValueError("edge lengths must be finite and >= 0")
        # Each m in 1..2**53 (m - 1 below 2**53 unsigned) and a total of at most 2**61 keep every sum in int64.
        if (mult - 1).view(np.uint64).max() >= MAX_MULTIPLICITY or mult.sum(dtype=float) > 2.0**61:
            raise ValueError("edge multiplicities must be integers in 1..2**53, totalling at most 2**61")
    if positions is not None:
        positions = np.array(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[0] != n or not np.isfinite(positions).all():
            raise ValueError("positions must be a finite (V, d) array")
    return n, lo, hi, length, mult, positions


class Multigraph:
    """Undirected multigraph with non-negative edge lengths.

    Edges are canonicalized on construction: endpoints ordered ``u <= v``,
    entries sorted by ``(u, v, length)``, and entries equal in all three keys
    merged by summing multiplicities, up to ``MAX_MULTIPLICITY`` (0.0 and -0.0
    are one length; the first entry's is kept). The entries are the read-only
    arrays ``u``, ``v``, ``length`` and ``multiplicity``; ``edges`` lists them
    as ``Edge`` tuples. ``positions`` is an optional ``(V, d)`` array.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Edge] = (), positions: Optional[np.ndarray] = None):
        self._store(*_checked(n_vertices, *(tuple(zip(*edges)) or ((),) * 4), positions))

    @classmethod
    def from_arrays(cls, n_vertices: int, u, v, length, multiplicity=None, positions=None) -> "Multigraph":
        """The graph of entries ``(u[i], v[i], length[i])``, each ``multiplicity[i]`` times (default 1)."""
        g = cls.__new__(cls)
        g._store(*_checked(n_vertices, u, v, length, np.ones(len(u), int) if multiplicity is None else multiplicity, positions))
        return g

    def _store(self, n: int, lo, hi, length, mult, positions) -> None:
        """Hold checked entries, ``lo <= hi``, sorted and merged, read-only."""
        order = np.lexsort((length, hi, lo))  # stable: equal keys keep their first entry first
        lo, hi, length, mult = lo[order], hi[order], length[order], mult[order]
        same = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]) & (length[1:] == length[:-1])
        if same.any():
            first = np.concatenate(([True], ~same)).nonzero()[0]
            lo, hi, length, mult = lo[first], hi[first], length[first], np.add.reduceat(mult, first)
            if mult.max() > MAX_MULTIPLICITY:
                raise ValueError(f"merged edge multiplicity {mult.max()} is above 2**53")
        for array in (lo, hi, length, mult) if positions is None else (lo, hi, length, mult, positions):
            array.setflags(write=False)
        self.n_vertices, self.u, self.v, self.length, self.multiplicity, self.positions = n, lo, hi, length, mult, positions

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The entries as ``Edge`` tuples, for callers outside the package; package code reads the arrays."""
        columns = zip(self.u.tolist(), self.v.tolist(), self.length.tolist(), self.multiplicity.tolist())
        return tuple(map(partial(tuple.__new__, Edge), columns))  # Edge(*row) without a Python-level __new__

    # -- basic accessors ---------------------------------------------------

    def edge_count(self) -> int:
        """Number of edges counted with multiplicity (self-loops included)."""
        return int(self.multiplicity.sum())

    def total_length(self) -> float:
        return float(self.length @ self.multiplicity)

    def degrees(self) -> np.ndarray:
        """Vertex degrees; each parallel edge copy counts once, a self-loop copy 2."""
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        np.add.at(deg, self.u, self.multiplicity)
        np.add.at(deg, self.v, self.multiplicity)
        return deg

    def self_loop_counts(self) -> np.ndarray:
        loops = np.zeros(self.n_vertices, dtype=np.int64)
        np.add.at(loops, self.u, self.multiplicity * (self.u == self.v))
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
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        uf.union(a, b)
    return uf.groups()


def betti(g: Multigraph) -> BettiPair:
    """Betti numbers of the graph viewed as a 1-complex.

    ``b1 = |E| - |V| + b0`` with ``|E|`` counting multiplicity; each
    self-loop copy contributes one independent cycle.
    """
    b0 = len(connected_components(g))
    b1 = g.edge_count() - g.n_vertices + b0
    return BettiPair(b0, b1)


def _running_sums(values: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The sum of each run of ``values`` (``heads`` marks where runs start), added left to right as a
    running total: by ``np.cumsum`` over the runs of each size, as ``np.sum`` and ``np.add.reduceat`` add pairwise."""
    starts = heads.nonzero()[0]
    sizes = np.concatenate((starts[1:], [values.size])) - starts
    sums = np.empty(sizes.size)
    for size in set(sizes.tolist()):
        ids = (sizes == size).nonzero()[0]
        sums[ids] = values[starts[ids, None] + np.arange(size)].cumsum(axis=1)[:, -1]
    return sums


def reduce(g: Multigraph) -> Multigraph:  # noqa: A001 - module-level name is the contract
    """Contract maximal chains of degree-2 internal vertices.

    Branch points (degree >= 3), endpoints (degree 1), isolated vertices and
    vertices carrying self-loops are kept; each contracted chain becomes a
    single edge whose length is the chain's length sum. A connected
    component that is a pure cycle (every vertex degree 2, no self-loop)
    contracts to its smallest vertex carrying one self-loop of the cycle's
    total length. Betti numbers are preserved exactly. The output bytes
    rest on two summation orders: a chain is summed in walk order from its
    end with the smaller (kept vertex, entry index), and a pure cycle in
    canonical entry order from 0.0.

    Each degree-2 vertex pairs the two copy ends that meet there (an entry
    into one stands for at most 2 copies), so copies form walks between
    kept vertices, an entry between kept vertices being a walk of one step,
    and pure cycles. Pointer doubling ranks the steps of every walk. A graph
    keeps its reduction, which it is asked for again when ``bench evaluate``
    compares each method's graph with the same latent graph.
    """
    if "_reduced" in g.__dict__:
        return g._reduced
    u, v, mult = g.u, g.v, g.multiplicity
    keep = g.degrees() != 2
    keep[u[u == v]] = True
    if keep.all():
        return g  # nothing to contract
    both = keep[u] & keep[v]
    # Copy c of entry[c] has end 2c at its u and 2c + 1 at its v. Step x leaves
    # copy x // 2 by end x; at a kept vertex the walk ends (nxt[x] = x), and
    # otherwise it goes on by the other copy end p there, leaving by p ^ 1.
    entry = np.arange(u.size).repeat(np.where(both, 1, mult))
    at = np.array([u[entry], v[entry]]).T.ravel()
    left = ~keep[at]  # steps to the walk's end
    pairs = left.nonzero()[0]
    pairs = pairs[at[pairs].argsort()].reshape(-1, 2)
    step = np.arange(at.size)
    nxt = step.copy()
    nxt[pairs] = pairs[:, ::-1] ^ 1
    left = left.astype(np.int64)
    low = entry.repeat(2)  # smallest entry on the next 2**round steps
    # A walk or cycle passes at most once through each of the len(pairs) degree-2 vertices.
    for _ in range(len(pairs).bit_length()):
        left += left[nxt]
        low = np.minimum(low, low[nxt])
        nxt = nxt[nxt]

    # Steps still open go round pure cycles: the even ones list each cycle's
    # copies once, by entry. Step x of a walk runs from the kept end nxt[x ^ 1]
    # to the kept end nxt[x]; walks are taken from their end of smaller
    # (vertex, end), first steps first, so they come out by their first entry.
    first, last = nxt[step ^ 1], nxt
    cycle = ~keep[at[last]]
    ahead = np.where(cycle, step % 2 == 0, (at[last] > at[first]) | (at[last] == at[first]) & (last > first))
    group = np.where(cycle, at.size + low, first)
    steps = ahead.nonzero()[0]
    steps = steps[np.lexsort((np.where(cycle, entry.repeat(2), -left)[steps], group[steps]))]
    heads = np.concatenate(([True], group[steps[1:]] != group[steps[:-1]]))
    with np.errstate(over="ignore"):  # the check below refuses a sum that overflowed
        sums = _running_sums(g.length[entry[steps >> 1]], heads)
    head = steps[heads]
    ring = cycle[head]
    sums[ring] += 0.0  # a cycle's sum starts from 0.0
    if not sums.max() < math.inf:
        raise ValueError("a contracted chain is longer than float64 holds")
    start, end = at[head ^ 1], at[nxt[head]]
    start[ring] = end[ring] = at[head[ring]]  # the u of the cycle's smallest entry
    keep[start] = True
    relabel = keep.cumsum() - 1
    e = entry[head >> 1]
    g._reduced = out = Multigraph.__new__(Multigraph)
    positions = None if g.positions is None else g.positions[keep]
    out._store(int(relabel[-1]) + 1, relabel[start], relabel[end], sums, np.where(both[e], mult[e], 1), positions)
    return out


def disjoint_union(graphs: Sequence[Multigraph]) -> Multigraph:
    """Concatenate graphs into one, relabeling vertices by block offset."""
    if not graphs:
        return Multigraph(0)
    offsets = np.cumsum([0] + [g.n_vertices for g in graphs])
    shift = np.repeat(offsets[:-1], [g.u.size for g in graphs])
    u, v, length, mult = (np.concatenate([getattr(g, name) for g in graphs]) for name in ("u", "v", "length", "multiplicity"))
    positions = np.vstack([g.positions for g in graphs]) if all(g.positions is not None for g in graphs) else None
    return Multigraph.from_arrays(int(offsets[-1]), u + shift, v + shift, length, mult, positions)


# -- canonical serialization ----------------------------------------------
#
# graph.json layout:
#   {"vertices": [[x, y, ...] or null, ...], "edges": [[u, v, length, mult], ...]}
# Vertices are emitted in canonical order (position-lexicographic when
# positions exist, else original id); edges canonical after relabeling.
# Lengths and coordinates are written with 17 significant digits so the
# file round-trips float64 exactly and serialization is byte-deterministic.


def canonicalize(g: Multigraph) -> Multigraph:
    """Relabel vertices into canonical order: by position, lexicographically
    and then by id, when positions exist, else by id."""
    order = np.arange(g.n_vertices)
    if g.positions is not None:
        order = np.lexsort((order, *g.positions.T[::-1]))
    relabel = np.empty_like(order)
    relabel[order] = np.arange(order.size)
    positions = g.positions[order] if g.positions is not None else None
    return Multigraph.from_arrays(g.n_vertices, relabel[g.u], relabel[g.v], g.length, g.multiplicity, positions)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def graph_to_json(g: Multigraph) -> str:
    g = canonicalize(g)
    pos = g.positions
    vert_strs = ["null"] * g.n_vertices if pos is None else ["[" + ", ".join(map(_fmt, row)) + "]" for row in pos.tolist()]
    columns = (g.u.tolist(), g.v.tolist(), map(_fmt, g.length.tolist()), g.multiplicity.tolist())
    edge_strs = [f"[{u}, {v}, {ln}, {m}]" for u, v, ln, m in zip(*columns)]
    return '{"vertices": [' + ", ".join(vert_strs) + '], "edges": [' + ", ".join(edge_strs) + "]}"


def _is_number(x, kind=(int, float)) -> bool:
    """The package's one check of an outside number: a ``kind`` but no bool,
    inside float64's range (no NaN, infinity or overlarge integer). Unlike
    ``math.isfinite(10**400)``, the comparison cannot raise ``OverflowError``."""
    return isinstance(x, kind) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _edge_from_json(i: int, entry, n: int) -> tuple[int, int, float, int]:
    """Entry ``i`` of a graph.json document as ``(u, v, length, multiplicity)``.
    Ids and multiplicity must be integers up to 2**53, where a float64 holds
    each one exactly; an integral float passes, a bool does not."""
    if isinstance(entry, list) and len(entry) == 4 and all(map(_is_number, entry)):
        u, v, length, mult = entry
        if all(abs(x) <= MAX_MULTIPLICITY and float(x).is_integer() for x in (u, v, mult)):
            if 0 <= min(u, v) and max(u, v) < n and length >= 0 and mult >= 1:
                return int(u), int(v), float(length), int(mult)
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
