"""Shared test helpers: canonical clouds, random multigraphs, the dict
canonicalisation oracle, the per-copy reduction oracle, the sorted-key
Reeb sweep oracle and the default-factor shift-invert oracle."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as csgraph_components
from scipy.sparse.linalg import eigsh

from screeb import Edge, Multigraph, PointCloud, connected_components
from screeb.errors import InvalidDataError
from screeb.geometry import _symmetric_spectrum, row_dots


def random_multigraph(rng, max_vertices=40, max_edges=60, positions=False):
    """Random multigraph with self-loops and parallel edges."""
    n = int(rng.integers(1, max_vertices + 1))
    n_edges = int(rng.integers(0, max_edges + 1))
    edges = []
    for _ in range(n_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))  # may equal u: self-loop
        length = float(rng.uniform(0.1, 5.0))
        mult = int(rng.integers(1, 4))
        edges.append(Edge(u, v, length, mult))
    pos = rng.normal(size=(n, 2)) if positions else None
    return Multigraph(n, tuple(edges), pos)


def dict_canonical_edges(n_vertices, edges):
    """Reference for ``Multigraph``'s canonical entries: endpoints ordered
    ``u <= v``, equal (u, v, length) keys merged through a dict, which keeps
    the first key seen (so the first of 0.0 and -0.0), then sorted."""
    canon: dict[tuple[int, int, float], int] = {}
    for e in edges:
        u, v = (int(e.u), int(e.v)) if e.u <= e.v else (int(e.v), int(e.u))
        if not (0 <= u and v < n_vertices):
            raise ValueError(f"edge ({e.u},{e.v}) has endpoint outside 0..{n_vertices - 1}")
        length = float(e.length)
        if not math.isfinite(length) or length < 0:
            raise ValueError(f"edge ({u},{v}) has invalid length {length}")
        if int(e.multiplicity) < 1:
            raise ValueError("edge multiplicity must be >= 1")
        key = (u, v, length)
        canon[key] = canon.get(key, 0) + int(e.multiplicity)
    return tuple(Edge(u, v, ln, m) for (u, v, ln), m in sorted(canon.items()))


def per_copy_reduce(g: Multigraph) -> Multigraph:
    """Reference for ``graph.reduce``: the same contraction with one walk
    item per copy of each edge and one pass per connected component. Its
    ``graph_to_json`` bytes are the ones ``graph.reduce`` must reproduce."""
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


def sorted_key_reeb(nbrs, filter_values, positions, block_crossings=1 << 16):
    """Reference for ``reeb.reeb_graph``: the blockwise sweep that packs both
    ends of every crossing as ``slice * n + vertex`` and sorts them to learn
    which keys exist, their first positions and their order. Its
    ``graph_to_json`` bytes are the ones ``reeb_graph`` must reproduce at
    every block size."""
    f = np.asarray(filter_values, dtype=float)
    pts = positions.points
    n = nbrs.n
    if f.shape != (n,):
        raise ValueError("filter must assign one value per vertex")
    distinct = np.unique(f)
    if distinct.size == 1:
        return Multigraph(1, (), pts.mean(axis=0, keepdims=True))

    edges, _ = nbrs.undirected_edges()
    lo, hi = np.searchsorted(distinct, np.sort(f[edges], axis=1)).T
    opened = np.bincount(lo, minlength=distinct.size) - np.bincount(hi, minlength=distinct.size)
    per_slice = np.cumsum(opened)[:-1]
    if not per_slice.all():
        raise InvalidDataError("level set between consecutive filter values has no crossing edges")
    starts = np.flatnonzero(np.diff(np.cumsum(per_slice) // block_crossings, prepend=-1))

    centroids, joins, n_nodes = [], [], 0
    prev_keys, prev_nodes = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    for s0, s1 in zip(starts, np.append(starts[1:], per_slice.size)):
        first = np.maximum(lo, s0)
        span = np.maximum(np.minimum(hi, s1) - first, 0)
        eid = np.repeat(np.arange(len(edges)), span)
        slices = np.repeat(first - np.cumsum(span) + span, span) + np.arange(eid.size)
        flat = np.repeat(slices, 2) * n + edges[eid].ravel()
        keys, touched, inv = np.unique(flat, return_index=True, return_inverse=True)
        level_sets = sp.coo_matrix((np.ones(eid.size), (inv[0::2], inv[1::2])), shape=(keys.size, keys.size))
        n_comp, labels = csgraph_components(level_sets, directed=False)
        lead = np.full(n_comp, keys.size)
        np.minimum.at(lead, labels, np.arange(keys.size))
        lead = lead[labels]
        node = np.cumsum(lead == np.arange(keys.size))[lead] - 1
        members = flat[np.sort(node * flat.size + touched) % flat.size] % n
        sizes = np.bincount(node)
        offsets = np.cumsum(sizes) - sizes
        block = np.empty((sizes.size, pts.shape[1]))
        for size in np.unique(sizes):
            ids = np.flatnonzero(sizes == size)
            block[ids] = pts[members[offsets[ids, None] + np.arange(size)]].mean(axis=1)
        centroids.append(block)
        node += n_nodes
        n_nodes += sizes.size
        all_keys, all_nodes = np.append(prev_keys, keys), np.append(prev_nodes, node)
        at = np.searchsorted(all_keys, keys - n)
        up = np.flatnonzero(all_keys[at] == keys - n)
        codes = np.unique(all_nodes[at[up]] * n_nodes + node[up])
        joins.append(np.divmod(codes, n_nodes))
        top = keys >= (s1 - 1) * n
        prev_keys, prev_nodes = keys[top], node[top]

    centroids = np.concatenate(centroids)
    a, b = np.concatenate(joins, axis=1)
    gaps = centroids[a] - centroids[b]
    out_edges = tuple(map(Edge, a.tolist(), b.tolist(), np.sqrt(row_dots(gaps, gaps)).tolist()))
    return Multigraph(n_nodes, out_edges, centroids)


def segment_cloud(rng, n=300):
    t = rng.uniform(size=n)
    return PointCloud(np.column_stack([t, np.zeros(n)]))


def circle_cloud(rng, n=300, radius=1.0):
    theta = rng.uniform(0, 2 * np.pi, n)
    return PointCloud(radius * np.column_stack([np.cos(theta), np.sin(theta)]))


def ytree_cloud(rng, per_arm=100):
    segs = []
    for ang in (np.pi / 2, np.pi + np.pi / 6, -np.pi / 6):
        t = rng.uniform(size=per_arm)
        segs.append(np.column_stack([t * np.cos(ang), t * np.sin(ang)]))
    return PointCloud(np.vstack(segs))


def disk_points(rng, n, radius, center):
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = radius * np.sqrt(rng.uniform(size=n))
    return np.column_stack([center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)])


def two_blob_cloud(rng, per_blob=30, gap=12.0):
    return PointCloud(
        np.vstack([disk_points(rng, per_blob, 1.0, (0, 0)), disk_points(rng, per_blob, 1.0, (gap, 0))])
    )


def add_noise(cloud, rng, scale):
    return PointCloud(cloud.points + rng.normal(scale=scale, size=cloud.points.shape))


def own_block_filter(affinity, comp):
    """Fiedler filter of a component normalised on its own block, as one
    restriction and one ``D^-1/2 W D^-1/2`` per component."""
    if len(comp) == 1:
        return np.zeros(1)
    w = affinity[comp][:, comp].tocsr()
    degrees = np.asarray(w.sum(axis=1)).ravel()
    inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    _, vecs = _symmetric_spectrum((inv_sqrt @ w @ inv_sqrt).tocsr(), 1)
    phi = vecs[:, 1] / np.sqrt(degrees)
    return -phi if phi[np.argmax(np.abs(phi))] < 0 else phi


def default_factor_eigsh(m, k, sigma, which, v0, OPinv=None):
    """The shift-invert solve as ``_symmetric_spectrum`` made it before it
    passed its own factor: ``eigsh`` factors ``M - sigma I`` itself with
    scipy's SuperLU defaults (COLAMD ordering, partial pivoting). ``OPinv`` is
    ignored, so patched in for ``geometry.eigsh`` it is the oracle for the
    symmetric-mode factor."""
    return eigsh(m, k=k, sigma=sigma, which=which, v0=v0)


def separated_clusters(rng, sizes, dim=3, gap=100.0):
    """Gaussian clusters of the given sizes, ``gap`` apart along axis 0."""
    return np.vstack([rng.normal(size=(size, dim)) + np.eye(dim)[0] * i * gap for i, size in enumerate(sizes)])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
