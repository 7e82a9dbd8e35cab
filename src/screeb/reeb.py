"""Diffusion Reeb graphs and the condensation tower.

``screeb`` builds a kNN graph, computes the Fiedler filter per connected
component (a row range of the cloud permuted into component order), then
tracks level-set components across midpoint thresholds and reduces the
multigraph in one pass over all components. ``screeb_tower`` repeats the
construction on successively condensed copies of the cloud, yielding one
reduced graph per granularity.

``reeb_graph`` takes the components as pieces: consecutive vertex ranges
that share no edge. It ranks filter values per piece, offset past the
previous piece's ranks, so each piece's slices follow the previous piece's
with one empty slice between, and one sweep covers every piece. The sweep
takes the slices in blocks, and a block works only on the vertices of the
pieces its slices touch. A vertex lies in the level sets of one run of
consecutive slices, so a block numbers its (vertex, slice) keys
vertex-major, one run per vertex, and finds the key of either end of every
crossing edge by arithmetic instead of a sort. A node lists its data
points in the order the slice's edges first touch them: by each key's
smallest ``2 * edge + side``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import graph as graphmod
from .errors import DegenerateInputError, InvalidDataError
from .geometry import (
    AffinityMatrix,
    NeighborGraph,
    PointCloud,
    _run_starts,
    adaptive_affinity,
    affinity_components,
    condense,
    fiedler_filter,
    induced_neighbor_subgraph,
    knn_graph,
    straight_graph,
)
from .graph import Multigraph


@dataclass(frozen=True)
class ReebParams:
    """Construction parameters.

    ``k`` is the kNN neighbor count, ``levels`` the number of condensation
    iterations (0 disables the tower), ``k_smooth`` the condensation
    neighbor count (None means min(80, n - 1)), ``t`` the diffusion steps
    per condensation iteration, and ``k_bw`` the condensation kernel
    bandwidth rank, at most k_smooth (None means min(32, k_smooth)).
    """

    k: int = 15
    levels: int = 2
    k_smooth: Optional[int] = None
    t: int = 1
    k_bw: Optional[int] = None

    def __post_init__(self):
        for name in ("k", "levels", "k_smooth", "t", "k_bw"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if self.k_smooth is not None and self.k_smooth < 2:
            raise ValueError("k_smooth must be >= 2")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.k_bw is not None and self.k_bw < 1:
            raise ValueError("k_bw must be >= 1")
        if self.k_bw is not None and self.k_bw > (80 if self.k_smooth is None else self.k_smooth):
            raise ValueError("k_bw must not exceed k_smooth (80 if unset): bandwidths are read from its kNN lists")

    def resolve_k_smooth(self, n: int) -> int:
        return min(80 if self.k_smooth is None else self.k_smooth, n - 1)

    def resolve_k_bw(self, n: int) -> int:
        # Kernel bandwidth rank for condensation. The default caps it below
        # the smoothing support: the 80th-neighbor scale on dense tube
        # samples reaches across distinct nearby structures and bridges
        # them, while rank 32 still smooths noise at the canonical scales.
        return min(self.k_bw, n - 1) if self.k_bw is not None else min(32, self.resolve_k_smooth(n))


@dataclass(frozen=True)
class ReebTower:
    """Condensation tower: one (level, condensed cloud, reduced graph) entry
    per granularity; entry 0 is the base graph on the raw data."""

    entries: tuple[tuple[int, PointCloud, Multigraph], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def graph(self, level: int) -> Multigraph:
        return self.entries[level][2]


# Slices are swept in blocks of consecutive slices holding about this many
# (slice, edge) crossings: the summed slice span grows faster than n. A block
# numbers its keys (key(v, s) = base[v] + s, vertex-major) over the vertices
# of the pieces its slices touch, numbers its nodes afresh, and passes on
# only each vertex's node at its top slice.
_BLOCK_CROSSINGS = 1 << 16


def reeb_graph(
    nbrs: NeighborGraph,
    filter_values: np.ndarray,
    positions: PointCloud,
    *,
    piece_sizes: Optional[Sequence[int]] = None,
) -> Multigraph:
    """Reeb graph of a filter over a neighbor graph made of connected pieces.

    ``piece_sizes`` splits the vertices, in order, into ranges that are each
    connected and share no edge; by default the whole graph is one piece.
    The result is the disjoint union of the pieces' Reeb graphs, piece by
    piece. In a piece, a slice sits between each pair of consecutive
    distinct filter values; its level set is the subgraph of edges crossing
    it. Each component of a level set is a node at the mean of its data
    points, taken in the order the slice's edges (ascending) first touch
    them, and a piece's nodes are numbered by (slice, smallest vertex).
    Nodes at adjacent slices that share a data point are joined, with the
    distance between centroids as length. A piece with one distinct filter
    value yields a single vertex at its data centroid. A non-finite filter
    value, positions of another size than the graph, an edge between two
    pieces, or a slice that no edge of its piece crosses (the piece is
    disconnected) raise ``InvalidDataError``.

    The graph is built as arrays straight from one sweep over every piece
    (see the module docstring and ``_sweep``). Each int64 code the sweep
    packs stays below n^2 m, for n vertices and m own-list entries, which
    ``undirected_edges`` refuses above 2^63; ``tests/test_reeb.py`` states
    and checks each bound.
    """
    f = np.asarray(filter_values, dtype=float)
    pts = positions.points
    if f.shape != (nbrs.n,):
        raise ValueError("filter must assign one value per vertex")
    sizes = np.asarray([nbrs.n] if piece_sizes is None else piece_sizes)
    if sizes.ndim != 1 or sizes.dtype.kind not in "iu" or not sizes.size or sizes.min() < 1 or sizes.sum() != nbrs.n:
        raise ValueError("piece sizes must be positive integers summing to the vertex count")
    if not np.all(np.isfinite(f)):
        raise InvalidDataError("filter contains non-finite values")
    if positions.n != nbrs.n:
        raise InvalidDataError(f"{positions.n} positions for a {nbrs.n}-vertex neighbor graph")
    edges = nbrs.undirected_edges()[0]
    piece = np.repeat(np.arange(sizes.size), sizes)
    if np.any(piece[edges[:, 0]] != piece[edges[:, 1]]):
        raise InvalidDataError("an edge of the neighbor graph joins two pieces")
    # Ranks are taken per piece and offset past the previous piece's, so each
    # piece's slices follow the previous piece's, with one empty slice between.
    # Pieces are ranges, so sorting by (piece, value) keeps ``piece`` in place.
    order = np.lexsort((f, piece))
    new = _run_starts(f[order]) | _run_starts(piece)
    rank = np.empty(nbrs.n, dtype=int)
    rank[order] = np.cumsum(new) - 1
    distinct = np.bincount(piece[new], minlength=sizes.size)
    first_rank, vertex_from = np.cumsum(distinct) - distinct, np.concatenate(([0], np.cumsum(sizes)))
    single = np.flatnonzero(distinct == 1)
    if single.size == sizes.size:
        centroids, (down, up, node_slice) = np.empty((0, pts.shape[1])), np.zeros((3, 0), dtype=int)
    else:
        centroids, down, up, node_slice = _sweep(edges, rank, int(distinct.sum()), pts, first_rank, vertex_from)
    if single.size:
        # A single-valued piece's one node goes before the nodes of later pieces.
        at = np.searchsorted(node_slice, first_rank[single])
        spans = zip(vertex_from[single].tolist(), vertex_from[single + 1].tolist())
        centroids = np.insert(centroids, at, [pts[a:b].mean(axis=0) for a, b in spans], axis=0)
        down, up = down + np.searchsorted(at, down, side="right"), up + np.searchsorted(at, up, side="right")
    return straight_graph(down, up, centroids)


def _sweep(
    edges: np.ndarray, rank: np.ndarray, n_values: int, pts: np.ndarray, first_rank: np.ndarray, vertex_from: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Node centroids, (down, up) join pairs and node slices of ``reeb_graph``
    over the undirected ``edges``, for filter ranks ``rank`` among
    ``n_values``. Piece p holds vertices ``vertex_from[p]`` up to
    ``vertex_from[p + 1]`` and ranks from ``first_rank[p]`` on."""
    n = rank.size
    ends = edges.ravel()  # entry 2 * edge + side
    # Slice s sits between ranks s and s+1; an edge crosses every slice in
    # [lo, hi), the ranks of its lower entry ``low`` and of ``low ^ 1``.
    low = np.arange(0, ends.size, 2) + (rank[edges[:, 0]] > rank[edges[:, 1]])
    lower, upper = ends[low], ends[low ^ 1]
    lo, hi = rank[lower], rank[upper]
    opened = np.bincount(lo, minlength=n_values) - np.bincount(hi, minlength=n_values)
    per_slice = np.cumsum(opened)[:-1]
    in_piece = np.ones(per_slice.size, dtype=bool)
    in_piece[first_rank[1:] - 1] = False
    if not per_slice[in_piece].all():  # a connected piece has an edge across every value cut
        raise InvalidDataError("level set between consecutive filter values has no crossing "
                               "edges; the neighbor graph is disconnected")
    # A block starts where the running crossing count passes a multiple of the
    # block size, and reaches over the vertices of the pieces whose ranks
    # [first_rank[p], first_rank[p + 1]) meet its slices.
    starts = np.flatnonzero(_run_starts(np.cumsum(per_slice) // _BLOCK_CROSSINGS))
    bounds = starts.tolist() + [per_slice.size]
    v_lo = vertex_from[np.searchsorted(first_rank, bounds[:-1], side="right") - 1].tolist()
    v_hi = vertex_from[np.searchsorted(first_rank, bounds[1:])].tolist()
    # Vertex v's slices [a_v, b_v) run from the lowest lo of the edges that
    # fall to it to the highest hi of those that rise from it.
    a, b = rank.copy(), rank.copy()
    np.minimum.at(a, upper, lo)
    np.maximum.at(b, lower, hi)
    # Key (x, s)'s row in the level-set adjacency lists the upper ends of the
    # edges rising from x across s: those of x's edges with lo = rank(x) and
    # hi > s, a prefix once each vertex's edges go by hi descending. ``slot``
    # is an edge's place in that order.
    rising = np.argsort(lower * n_values - hi)
    slot = np.empty(len(edges), dtype=int)
    slot[rising] = np.arange(len(edges)) - np.searchsorted(lower[rising], lower[rising])

    # A block's edges are those carried over from the block before it and
    # those whose first slice lies in it; an edge whose ends tie crosses none.
    crossing = np.flatnonzero(lo < hi)
    by_lo = crossing[np.argsort(lo[crossing])]
    opening = np.searchsorted(lo[by_lo], starts).tolist() + [by_lo.size]
    active = np.zeros(0, dtype=int)
    # Each block's members in node order. Vertex ids take the smallest type
    # that holds them: with one entry per key, this is the largest array.
    members, filled = np.empty(int(np.sum(b - a)), dtype=np.min_scalar_type(n - 1)), 0
    sizes, joins, slices, n_nodes = [], [], [], 0
    top = np.zeros(n, dtype=int)  # each vertex's node at the slice before the block
    for s0, s1, v0, v1, o0, o1 in zip(bounds, bounds[1:], v_lo, v_hi, opening, opening[1:]):
        active = np.append(active[hi[active] > s0], by_lo[o0:o1])
        if not active.size:
            continue  # the block holds only slices between pieces
        # Keys of the block's vertices v0 + i, i < v1 - v0: key(v0 + i, s) = base[i] + s.
        first = np.maximum(a[v0:v1], s0)
        count = np.maximum(np.minimum(b[v0:v1], s1) - first, 0)
        stop = np.cumsum(count)
        base = stop - count - first
        n_keys = int(stop[-1])
        lo_e = np.maximum(lo[active], s0)
        span = np.minimum(hi[active], s1) - lo_e
        # Crossing j is the (j - skip)-th of its edge, at slice lo_e + j - skip,
        # so its lower end has key base[lower - v0] + lo_e - skip + j.
        skip = np.cumsum(span) - span
        shift = lo_e - skip
        j = np.arange(skip[-1] + span[-1])
        row = np.repeat(base[lower[active] - v0] + shift, span) + j
        col = np.repeat(base[upper[active] - v0] + shift, span) + j
        indptr = np.zeros(n_keys + 1, dtype=int)
        np.cumsum(np.bincount(row, minlength=n_keys), out=indptr[1:])
        indices = np.empty(j.size, dtype=int)
        indices[indptr[row] + np.repeat(slot[active], span)] = col
        level_sets = csr_matrix((np.ones(j.size), indices, indptr), shape=(n_keys, n_keys))
        n_comp, labels = connected_components(level_sets, directed=False)
        # A component lies in one slice, so its smallest key holds its smallest vertex.
        lead = np.full(n_comp, n_keys)
        np.minimum.at(lead, labels, np.arange(n_keys))
        vertex = np.searchsorted(stop, lead, side="right")
        at_slice = lead - base[vertex]
        by_node = np.argsort(at_slice * n + vertex)
        node = np.empty(n_comp, dtype=int)
        node[by_node] = np.arange(n_nodes, n_nodes + n_comp)
        slices.append(at_slice[by_node])
        node = node[labels]
        # The slice's edges, ascending, first touch a key at its smallest
        # 2 * edge + side; sorting node * 2E + touched lists each node's
        # members in that order.
        touched = np.full(n_keys, ends.size)
        entry = np.repeat(low[active], span)
        np.minimum.at(touched, row, entry)
        np.minimum.at(touched, col, entry ^ 1)
        members[filled : filled + n_keys] = ends[np.sort(node * ends.size + touched) % ends.size]
        filled += n_keys
        sizes.append(np.bincount(node - n_nodes, minlength=n_comp))
        n_nodes += n_comp
        # Join each node to the nodes one slice down holding its vertices: key - 1
        # inside the block, and the previous block's top node for a vertex
        # whose range starts below s0.
        inside = np.ones(n_keys, dtype=bool)
        inside[(stop - count)[count > 0]] = False
        inner = np.flatnonzero(inside)
        carried = np.flatnonzero((count > 0) & (a[v0:v1] < s0))
        block_top = top[v0:v1]
        down = np.append(node[inner - 1], block_top[carried])
        up = np.append(node[inner], node[base[carried] + s0])
        codes = np.sort(down * n + (up - down))
        joins.append(codes[_run_starts(codes)])
        at_top = (count > 0) & (b[v0:v1] >= s1)
        block_top[at_top] = node[stop[at_top] - 1]

    # One mean over all nodes of a size sums each node's rows in touched
    # order, exactly as ``pts[members].mean(axis=0)`` does.
    sizes = np.concatenate(sizes)
    offsets = np.cumsum(sizes) - sizes
    centroids = np.empty((n_nodes, pts.shape[1]))
    for size in np.unique(sizes):
        ids = np.flatnonzero(sizes == size)
        centroids[ids] = pts[members[offsets[ids, None] + np.arange(size)]].mean(axis=1)
    down, gap = np.divmod(np.concatenate(joins), n)
    return centroids, down, down + gap, np.concatenate(slices)


def screeb(cloud: PointCloud, params: ReebParams = ReebParams()) -> Multigraph:
    """Reduced Reeb graph of a point cloud under the Fiedler filter.

    Builds the kNN graph and its affinities, and permutes points, affinities
    and own lists once so that each connected component is a range of rows.
    Each range's Fiedler filter comes from its slice of the one operator;
    one ``reeb_graph`` sweep over every range, with the ranges as its pieces,
    and one reduction then give the disjoint union of the reduced pieces.
    """
    if cloud.n < 2:
        raise DegenerateInputError("screeb requires at least two points")
    nbrs = knn_graph(cloud, params.k)
    affinity = adaptive_affinity(cloud, nbrs, min(params.k, cloud.n - 1))
    comps = affinity_components(affinity)
    # Within a component the permutation is a monotone relabel, so every row
    # keeps its entries in order. No own list leaves its component: each listed
    # pair has a stored affinity, an explicit zero if it underflowed.
    order, sizes = np.concatenate(comps), np.array([len(c) for c in comps])
    affinity = AffinityMatrix(affinity.matrix[order][:, order], affinity.bandwidths[order])
    nbrs, points = induced_neighbor_subgraph(nbrs, order), cloud.points[order]
    # Equal points take their first copy's filter value in their component, not the solver's rounding of it.
    keyed = np.column_stack([np.repeat(np.arange(len(comps)), sizes), points])
    first, copy = np.unique(keyed, axis=0, return_index=True, return_inverse=True)[1:]
    ends = np.cumsum(sizes)
    f = np.concatenate([fiedler_filter(affinity, np.arange(a, b)) for a, b in zip((ends - sizes).tolist(), ends.tolist())])
    return graphmod.reduce(reeb_graph(nbrs, f[first[copy.ravel()]], PointCloud(points), piece_sizes=sizes))


def screeb_tower(
    cloud: PointCloud, params: ReebParams = ReebParams(), base: Optional[Multigraph] = None
) -> ReebTower:
    """Condensation tower of reduced Reeb graphs.

    Entry 0 is ``screeb`` on the raw cloud; each further entry condenses the
    previous cloud with a fresh operator (a non-homogeneous diffusion
    process) and re-runs the construction. ``base``, when given, must be
    the caller's ``screeb(cloud, params)`` result: it is taken as entry 0
    unchecked, so a caller that already holds the base graph does not
    compute it twice.
    """
    entries = [(0, cloud, screeb(cloud, params) if base is None else base)]
    current = cloud
    k_smooth = params.resolve_k_smooth(cloud.n)
    k_bw = params.resolve_k_bw(cloud.n)
    for level in range(1, params.levels + 1):
        current = condense(current, k_smooth, params.t, k_bw=k_bw)
        entries.append((level, current, screeb(current, params)))
    return ReebTower(tuple(entries))
