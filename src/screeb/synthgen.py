"""Synthetic benchmark generator.

Latent multigraphs are drawn across six topology classes (singletons,
single edges, trees, single cycles, multi-cycles, hybrids), constructively
embedded in low dimension (cycles as regular polygons, branches grown
outward, components separated by controlled gaps), thickened into solid
tubes, sampled with density/thickness/noise difficulty coordinates, and
accepted only when separation, tube-overlap, component-count, and
noise-confusion constraints all hold. Every sample is a pure function of
(config, seed, index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from . import graph as graphmod
from .errors import ConfigError, GenerationError, GenerationReject, InvalidDataError
from .geometry import PointCloud
from .graph import Edge, Multigraph

_MASK64 = (1 << 64) - 1

TOPOLOGY_CLASSES = ("singleton", "single_edge", "tree", "single_cycle", "multi_cycle", "hybrid")


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sample_subseed(seed: int, index: int) -> int:
    """Per-sample RNG seed; independent of generation order and worker count."""
    return splitmix64(splitmix64(seed) + index)


@dataclass(frozen=True)
class GeneratorConfig:
    """Full generation preset. Defaults are the benchmark's shipped preset."""

    noise_ratio_range: tuple[float, float] = (0.02, 0.20)
    separation_range: tuple[float, float] = (0.00, 0.60)
    density_range: tuple[float, float] = (3.5, 25.0)
    thickness_range: tuple[float, float] = (0.45, 1.00)
    class_probs: dict = field(
        default_factory=lambda: {
            "singleton": 0.03,
            "single_edge": 0.05,
            "tree": 0.17,
            "single_cycle": 0.20,
            "multi_cycle": 0.25,
            "hybrid": 0.30,
        }
    )
    cycle_length_range: tuple[int, int] = (3, 8)
    max_cycles_per_component: int = 6
    branch_count_range: tuple[int, int] = (0, 4)
    branch_length_range: tuple[int, int] = (1, 4)
    branch_depth_range: tuple[int, int] = (1, 3)
    degree_cap: int = 5
    max_nodes: int = 80
    max_edges: int = 88
    component_prob: float = 0.25
    component_decay: float = 0.55
    max_components: int = 4
    gap_ratio_range: tuple[float, float] = (4.0, 8.0)
    min_points_per_component: int = 20
    dim_probs: dict = field(default_factory=lambda: {2: 0.50, 3: 0.35, 4: 0.10, 5: 0.05})
    separation_to_feature_ratio: float = 6.0
    edge_jitter_range: tuple[float, float] = (0.0, 0.12)
    branch_angle_spread_range: tuple[float, float] = (0.5, 1.2)
    min_tube_radius_ratio: float = 0.02
    cycle_hole_cap_fraction: float = 0.20
    eps_sep: float = 0.02
    density_jitter_range: tuple[float, float] = (0.0, 0.15)
    isotropy_eps: float = 0.05
    min_separation_gamma: float = 0.01
    search_tolerance: float = 0.005
    max_search_iterations: int = 24
    safety_multiplier: float = 6.0
    max_rejects_per_sample: int = 100
    feature_scale: float = 1.0
    min_points_per_edge: int = 2

    def __post_init__(self):
        for name in (
            "noise_ratio_range",
            "separation_range",
            "density_range",
            "thickness_range",
            "cycle_length_range",
            "branch_count_range",
            "branch_length_range",
            "branch_depth_range",
            "gap_ratio_range",
            "edge_jitter_range",
            "branch_angle_spread_range",
            "density_jitter_range",
        ):
            rng = getattr(self, name)
            if len(rng) != 2 or rng[0] > rng[1]:
                raise ConfigError(f"{name} must be a nonempty (lo, hi) range")
            object.__setattr__(self, name, (rng[0], rng[1]))
        if abs(sum(self.class_probs.values()) - 1.0) > 1e-12:
            raise ConfigError("class_probs must sum to 1 within 1e-12")
        if set(self.class_probs) != set(TOPOLOGY_CLASSES):
            raise ConfigError(f"class_probs must cover exactly {TOPOLOGY_CLASSES}")
        if abs(sum(self.dim_probs.values()) - 1.0) > 1e-12:
            raise ConfigError("dim_probs must sum to 1 within 1e-12")
        if any(int(d) not in (2, 3, 4, 5) for d in self.dim_probs):
            raise ConfigError("dim_probs keys must lie in {2, 3, 4, 5}")
        object.__setattr__(self, "dim_probs", {int(k): float(v) for k, v in self.dim_probs.items()})
        if not (0.0 <= self.component_prob <= 1.0):
            raise ConfigError("component_prob must lie in [0, 1]")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, value in doc.items():
            if key not in known:
                raise ConfigError(f"unknown generator config field: {key}")
            if isinstance(value, list):
                value = tuple(value)
            if key == "dim_probs":
                value = {int(k): float(v) for k, v in value.items()}
            kwargs[key] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class DifficultyCoords:
    noise_ratio: float
    separation: float
    density: float
    thickness: float


@dataclass(frozen=True, eq=False)
class RealizedGeometry:
    graph: Multigraph  # latent graph with final (post-crowding) positions
    tube_radius: float
    noise_scale: float
    clearance: float
    shrink: float
    parent_kinds: tuple[str, ...]  # 'e' (edge) or 'v' (vertex) per point
    parent_ids: tuple[int, ...]
    point_components: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SyntheticSample:
    cloud: PointCloud
    graph: Multigraph
    reduced_graph: Multigraph
    metadata: dict


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: Optional[str] = None


class _Unrealizable(Exception):
    pass


# ---------------------------------------------------------------------------
# Topology sampling


class _Builder:
    """Incremental simple-graph builder with degree and size caps."""

    def __init__(self, degree_cap: int, nodes_left: int, edges_left: int):
        self.edges: list[tuple[int, int]] = []
        self.deg: list[int] = []
        self.degree_cap = degree_cap
        self.nodes_left = nodes_left
        self.edges_left = edges_left

    def new_vertex(self) -> int:
        if self.nodes_left <= 0:
            raise _Unrealizable
        self.nodes_left -= 1
        self.deg.append(0)
        return len(self.deg) - 1

    def add_edge(self, u: int, v: int) -> None:
        if self.edges_left <= 0:
            raise _Unrealizable
        if self.deg[u] >= self.degree_cap or self.deg[v] >= self.degree_cap:
            raise _Unrealizable
        self.edges_left -= 1
        self.edges.append((u, v))
        self.deg[u] += 1
        self.deg[v] += 1

    def chain(self, anchor: int, length: int) -> int:
        cur = anchor
        for _ in range(length):
            nxt = self.new_vertex()
            self.add_edge(cur, nxt)
            cur = nxt
        return cur

    def cycle(self, length: int) -> list[int]:
        verts = [self.new_vertex() for _ in range(length)]
        for i in range(length):
            self.add_edge(verts[i], verts[(i + 1) % length])
        return verts

    def fuse_vertex_cycle(self, anchor: int, length: int) -> None:
        # Cycle sharing exactly one vertex; anchor gains degree 2.
        if self.deg[anchor] > self.degree_cap - 2:
            raise _Unrealizable
        path_end = self.chain(anchor, length - 1)
        self.add_edge(path_end, anchor)

    def fuse_edge_cycle(self, u: int, v: int, length: int) -> None:
        # Cycle sharing exactly one existing edge (u, v); both gain degree 1.
        path_end = self.chain(u, length - 2)
        self.add_edge(path_end, v)

    def eligible_vertices(self, slack: int) -> list[int]:
        return [v for v in range(len(self.deg)) if self.deg[v] <= self.degree_cap - slack]


def _rint(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _grow_branches(
    b: _Builder,
    rng: np.random.Generator,
    cfg: GeneratorConfig,
    anchors: list[int],
    force_one: bool,
) -> int:
    """Attach acyclic branches recursively; returns the number attached.

    One branch-count draw covers the component's top level (anchors chosen
    uniformly among eligible vertices); each branch end may sprout further
    branches while recursion depth remains. Size caps truncate growth
    gracefully.
    """
    depth = _rint(rng, *cfg.branch_depth_range)
    total = 0
    queue: list[tuple[list[int], int, bool]] = [(list(anchors), depth, True)]
    while queue:
        pool, d, top = queue.pop(0)
        lo, hi = cfg.branch_count_range
        count = _rint(rng, max(lo, 1) if (force_one and top) else lo, hi)
        for _ in range(count):
            eligible = [a for a in pool if b.deg[a] < b.degree_cap]
            if not eligible:
                break
            anchor = eligible[_rint(rng, 0, len(eligible) - 1)]
            length = _rint(rng, *cfg.branch_length_range)
            length = min(length, b.nodes_left, b.edges_left)
            if length < 1:
                break
            end = b.chain(anchor, length)
            total += 1
            if d > 1:
                queue.append(([end], d - 1, False))
    return total


def _build_component(cls_name: str, cfg: GeneratorConfig, rng: np.random.Generator, nodes_left: int, edges_left: int) -> _Builder:
    b = _Builder(cfg.degree_cap, nodes_left, edges_left)
    if cls_name == "singleton":
        b.new_vertex()
        return b
    if cls_name == "single_edge":
        v = b.new_vertex()
        b.chain(v, 1)
        return b
    if cls_name == "tree":
        root = b.new_vertex()
        b.chain(root, _rint(rng, *cfg.branch_length_range))
        _grow_branches(b, rng, cfg, list(range(len(b.deg))), force_one=False)
        return b
    # Cycle-bearing classes assemble a cycle backbone first.
    if cls_name == "single_cycle":
        n_cycles = 1
    elif cls_name == "multi_cycle":
        n_cycles = _rint(rng, 2, cfg.max_cycles_per_component)
    else:  # hybrid
        n_cycles = _rint(rng, 1, cfg.max_cycles_per_component)
    b.cycle(_rint(rng, *cfg.cycle_length_range))
    for _ in range(n_cycles - 1):
        length = _rint(rng, *cfg.cycle_length_range)
        mode = ("fuse_vertex", "fuse_edge", "bridge")[_rint(rng, 0, 2)]
        if mode == "fuse_vertex":
            options = b.eligible_vertices(slack=2)
            if not options:
                raise _Unrealizable
            b.fuse_vertex_cycle(options[_rint(rng, 0, len(options) - 1)], length)
        elif mode == "fuse_edge":
            options = [
                (u, v)
                for u, v in b.edges
                if b.deg[u] <= b.degree_cap - 1 and b.deg[v] <= b.degree_cap - 1
            ]
            if not options:
                raise _Unrealizable
            u, v = options[_rint(rng, 0, len(options) - 1)]
            b.fuse_edge_cycle(u, v, length)
        else:
            options = b.eligible_vertices(slack=1)
            if not options:
                raise _Unrealizable
            anchor = options[_rint(rng, 0, len(options) - 1)]
            bridge_end = b.chain(anchor, _rint(rng, 1, 3))
            b.fuse_vertex_cycle(bridge_end, length)
    if cls_name == "hybrid":
        attached = _grow_branches(b, rng, cfg, b.eligible_vertices(slack=1), force_one=True)
        if attached < 1:
            raise _Unrealizable
    return b


def sample_topology_meta(cfg: GeneratorConfig, rng: np.random.Generator) -> tuple[Multigraph, list[str]]:
    """Sample a latent multigraph; returns (graph, per-component class names)."""
    count = 1
    prob = cfg.component_prob
    while count < cfg.max_components and rng.random() < prob:
        count += 1
        prob *= cfg.component_decay
    class_names = sorted(cfg.class_probs)
    probs = np.array([cfg.class_probs[c] for c in class_names])
    nodes_left = cfg.max_nodes
    edges_left = cfg.max_edges
    builders: list[_Builder] = []
    classes: list[str] = []
    for ci in range(count):
        # Reserve room so every remaining component can still realize some class.
        reserve = count - 1 - ci
        node_budget = nodes_left - 2 * reserve
        edge_budget = edges_left - reserve
        for _attempt in range(32):
            cls_name = class_names[int(rng.choice(len(class_names), p=probs))]
            try:
                b = _build_component(cls_name, cfg, rng, node_budget, edge_budget)
            except _Unrealizable:
                continue
            builders.append(b)
            classes.append(cls_name)
            nodes_left -= len(b.deg)
            edges_left -= len(b.edges)
            break
        else:
            raise GenerationReject("topology-unrealizable")
    pieces = [
        Multigraph(len(b.deg), tuple(Edge(u, v, 1.0, 1) for u, v in b.edges)) for b in builders
    ]
    return graphmod.disjoint_union(pieces), classes


def sample_topology(cfg: GeneratorConfig, rng: np.random.Generator) -> Multigraph:
    """Sample a latent multigraph (combinatorial; no positions)."""
    g, _ = sample_topology_meta(cfg, rng)
    return g


# ---------------------------------------------------------------------------
# Structure analysis shared by embedding and tube sampling


def _simple_adjacency(g: Multigraph, vertices: list[int]) -> dict[int, list[tuple[int, int]]]:
    vset = set(vertices)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for i, e in enumerate(g.edges):
        if e.u in vset and e.v in vset:
            adj[e.u].append((e.v, i))
            adj[e.v].append((e.u, i))
    return adj


def _strip_leaves(adj: dict[int, list[tuple[int, int]]]) -> tuple[list[tuple[int, int, int]], set[int], set[int]]:
    """Iteratively remove degree-1 vertices.

    Returns (twigs in removal order as (anchor, leaf, edge_id), core
    vertices, core edge ids).
    """
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    removed: set[int] = set()
    removed_edges: set[int] = set()
    twigs: list[tuple[int, int, int]] = []
    queue = sorted(v for v, d in deg.items() if d == 1)
    while queue:
        leaf = queue.pop(0)
        if leaf in removed or deg[leaf] != 1:
            continue
        anchor = None
        eid = None
        for w, e in adj[leaf]:
            if w not in removed and e not in removed_edges:
                anchor, eid = w, e
                break
        if anchor is None:
            continue
        removed.add(leaf)
        removed_edges.add(eid)
        deg[leaf] -= 1
        deg[anchor] -= 1
        twigs.append((anchor, leaf, eid))
        if deg[anchor] == 1:
            queue.append(anchor)
            queue.sort()
    core_vertices = {v for v in adj if v not in removed and deg[v] > 0}
    core_edges = {
        e for v in core_vertices for _, e in adj[v] if e not in removed_edges
    }
    return twigs, core_vertices, core_edges


def _biconnected_blocks(
    core_vertices: set[int], adj: dict[int, list[tuple[int, int]]], core_edges: set[int]
) -> list[list[tuple[int, int, int]]]:
    """Biconnected components of the core as lists of (u, v, edge_id)."""
    edge_ends: dict[int, tuple[int, int]] = {}
    core_adj: dict[int, list[tuple[int, int]]] = {v: [] for v in core_vertices}
    for v in core_vertices:
        for w, e in adj[v]:
            if e in core_edges:
                core_adj[v].append((w, e))
                if e not in edge_ends:
                    edge_ends[e] = (v, w)
    for v in core_adj:
        core_adj[v].sort()
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    blocks: list[list[int]] = []
    counter = 0
    for root in sorted(core_vertices):
        if root in disc:
            continue
        disc[root] = low[root] = counter
        counter += 1
        estack: list[int] = []
        dfs = [(root, iter(core_adj[root]))]
        while dfs:
            v, it = dfs[-1]
            advanced = False
            for w, eid in it:
                if eid == parent_edge.get(v):
                    continue
                if w not in disc:
                    estack.append(eid)
                    parent_edge[w] = eid
                    disc[w] = low[w] = counter
                    counter += 1
                    dfs.append((w, iter(core_adj[w])))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    estack.append(eid)
                    low[v] = min(low[v], disc[w])
            if not advanced:
                dfs.pop()
                if dfs:
                    u = dfs[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block = []
                        while True:
                            eid = estack.pop()
                            block.append(eid)
                            if eid == parent_edge[v]:
                                break
                        blocks.append(block)
    out = []
    for block in blocks:
        out.append([(edge_ends[e][0], edge_ends[e][1], e) for e in sorted(block)])
    return out


def _chain_decomposition(
    block: list[tuple[int, int, int]], anchor: int
) -> list[list[int]]:
    """Ear decomposition of a 2-connected block as vertex chains.

    The first chain is a cycle through ``anchor``; every later chain is a
    path whose endpoints already appear in earlier chains.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, e in block:
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    for v in adj:
        adj[v].sort()
    disc: dict[int, int] = {anchor: 0}
    parent: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    order = [anchor]
    counter = 1
    dfs = [(anchor, iter(adj[anchor]))]
    back_edges: dict[int, list[int]] = {v: [] for v in adj}
    seen_edges: set[int] = set()
    while dfs:
        v, it = dfs[-1]
        advanced = False
        for w, eid in it:
            if eid in seen_edges:
                continue
            if w not in disc:
                seen_edges.add(eid)
                disc[w] = counter
                counter += 1
                parent[w] = v
                parent_edge[w] = eid
                order.append(w)
                dfs.append((w, iter(adj[w])))
                advanced = True
                break
            else:
                seen_edges.add(eid)
                upper, lower = (v, w) if disc[v] < disc[w] else (w, v)
                back_edges[upper].append(lower)
        if not advanced:
            dfs.pop()
    marked: set[int] = set()
    chains: list[list[int]] = []
    for v in order:
        for w in sorted(back_edges[v], key=lambda x: disc[x]):
            marked.add(v)
            chain = [v, w]
            x = w
            while x not in marked:
                marked.add(x)
                x = parent[x]
                chain.append(x)
            chains.append(chain)
    return chains


def _cycle_loops(g: Multigraph) -> list[list[int]]:
    """One vertex loop per independent cycle (used for hole-size caps)."""
    loops: list[list[int]] = []
    for comp in graphmod.connected_components(g):
        adj = _simple_adjacency(g, comp)
        _, core_vertices, core_edges = _strip_leaves(adj)
        if not core_edges:
            continue
        for block in _biconnected_blocks(core_vertices, adj, core_edges):
            if len(block) == 1:
                continue
            anchor = min(min(u, v) for u, v, _ in block)
            chains = _chain_decomposition(block, anchor)
            block_adj: dict[int, list[int]] = {}
            for u, v, _e in block:
                block_adj.setdefault(u, []).append(v)
                block_adj.setdefault(v, []).append(u)
            for ci, chain in enumerate(chains):
                if ci == 0 or chain[0] == chain[-1]:
                    loops.append(chain[:-1])  # closed: first vertex repeats last
                    continue
                # Close the open ear with a shortest path avoiding its interior.
                a, z = chain[0], chain[-1]
                interior = set(chain[1:-1])
                prev: dict[int, Optional[int]] = {a: None}
                queue = [a]
                while queue:
                    x = queue.pop(0)
                    if x == z:
                        break
                    for y in sorted(block_adj[x]):
                        if y not in prev and y not in interior:
                            prev[y] = x
                            queue.append(y)
                path = [z]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])  # z ... a
                loops.append(chain + path[1:-1])
    return loops


# ---------------------------------------------------------------------------
# Embedding


def _rotate2(vec: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


def _unit(vec: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        if rng is None:
            return np.array([1.0, 0.0])
        angle = rng.uniform(0, 2 * math.pi)
        return np.array([math.cos(angle), math.sin(angle)])
    return vec / norm


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, d) arrays. Each row is one BLAS
    ``ddot``, the call a 1-D ``x @ y`` or ``np.linalg.norm`` makes, so the
    values match those bit for bit; ``einsum`` or hand-expanded sums do not
    where BLAS fuses multiply-adds."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _clamp01(x: np.ndarray) -> np.ndarray:
    """``min(1.0, max(0.0, x))`` elementwise."""
    return np.where(x < 1.0, np.where(x > 0.0, x, 0.0), 1.0)


def _segment_distances(p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Minimum distances between segments [p1[i], p2[i]] and [q1[i], q2[i]]
    for (m, d) endpoint arrays: the clamped closed form of Ericson,
    *Real-Time Collision Detection*, 5.1.9. A segment whose squared length
    is at most 1e-30 is a point."""
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = _dots(d1, d1)
    e = _dots(d2, d2)
    f = _dots(d2, r)
    c = _dots(d1, r)
    b = _dots(d1, d2)
    p_point = a <= 1e-30
    q_point = e <= 1e-30
    # Every branch is evaluated and the degenerate ones are masked out, so
    # their divisions by zero are expected.
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a * e - b * b
        s = np.where(denom > 1e-30, _clamp01((b * f - c * e) / denom), 0.0)
        t = (b * s + f) / e
        s = np.where(t < 0.0, _clamp01(-c / a), np.where(t > 1.0, _clamp01((b - c) / a), s))
        t = _clamp01(t)
        s = np.where(p_point, 0.0, np.where(q_point, _clamp01(-c / a), s))
        t = np.where(q_point, 0.0, np.where(p_point, _clamp01(f / e), t))
    gap = (p1 + s[:, None] * d1) - (q1 + t[:, None] * d2)
    return np.sqrt(_dots(gap, gap))


def _min_clearance(positions: np.ndarray, g: Multigraph) -> float:
    """Minimum distance between non-adjacent features (edge segments and
    isolated vertices)."""
    isolated = np.flatnonzero(g.degrees() == 0)
    feats = np.array([(e.u, e.v) for e in g.edges] + [(v, v) for v in isolated], dtype=int).reshape(-1, 2)
    i, j = np.triu_indices(len(feats), k=1)
    a, b = feats[i], feats[j]
    keep = ~(a[:, :, None] == b[:, None, :]).any(axis=(1, 2))
    a, b = a[keep], b[keep]
    if not len(a):
        return math.inf
    return float(np.min(_segment_distances(positions[a[:, 0]], positions[a[:, 1]], positions[b[:, 0]], positions[b[:, 1]])))


def _hole_scales(positions: np.ndarray, loops: list[list[int]]) -> list[float]:
    out = []
    for loop in loops:
        pts = positions[loop]
        centroid = np.broadcast_to(pts.mean(axis=0), pts.shape)
        out.append(float(np.min(_segment_distances(centroid, centroid, pts, np.roll(pts, -1, axis=0)))))
    return out


def _place_polygon(
    anchor_pos: np.ndarray,
    n_sides: int,
    out_dir: np.ndarray,
    jitter: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Vertices of a regular n-gon with unit nominal side, one vertex pinned
    at ``anchor_pos``; returns the n - 1 free vertices in cycle order."""
    radius = 1.0 / (2.0 * math.sin(math.pi / n_sides))
    center = anchor_pos + radius * out_dir
    base_angle = math.atan2(anchor_pos[1] - center[1], anchor_pos[0] - center[0])
    step = 2.0 * math.pi / n_sides
    pts = []
    for k in range(1, n_sides):
        r_k = radius * (1.0 + rng.uniform(-jitter, jitter))
        theta = base_angle + step * k + rng.uniform(-jitter, jitter) * step * 0.4
        pts.append(center + np.array([r_k * math.cos(theta), r_k * math.sin(theta)]))
    return pts


def _place_arc(a: np.ndarray, z: np.ndarray, n_interior: int, side_dir: np.ndarray, jitter: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Interior vertices of an ear from a to z, bulged toward ``side_dir`` so
    segment lengths are close to 1."""
    n_seg = n_interior + 1
    chord = z - a
    chord_len = float(np.linalg.norm(chord))
    normal = _unit(side_dir - (side_dir @ _unit(chord)) * _unit(chord), rng) if chord_len > 1e-12 else _unit(side_dir, rng)

    def polyline_len(h: float) -> float:
        pts = [a] + [
            a + chord * (i / n_seg) + normal * h * math.sin(math.pi * i / n_seg)
            for i in range(1, n_seg)
        ] + [z]
        return sum(float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(n_seg))

    target = float(n_seg)
    lo, hi = 0.0, float(n_seg)
    if polyline_len(0.0) < target:
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            if polyline_len(mid) < target:
                lo = mid
            else:
                hi = mid
    h = 0.5 * (lo + hi)
    pts = []
    for i in range(1, n_seg):
        bulge = h * math.sin(math.pi * i / n_seg) * (1.0 + rng.uniform(-jitter, jitter))
        pts.append(a + chord * (i / n_seg) + normal * bulge)
    return pts


def _layout_component_2d(
    g: Multigraph, comp: list[int], cfg: GeneratorConfig, rng: np.random.Generator
) -> dict[int, np.ndarray]:
    jitter = rng.uniform(*cfg.edge_jitter_range)
    spread = rng.uniform(*cfg.branch_angle_spread_range)
    adj = _simple_adjacency(g, comp)
    twigs, core_vertices, core_edges = _strip_leaves(adj)
    pos: dict[int, np.ndarray] = {}

    def centroid() -> np.ndarray:
        if not pos:
            return np.zeros(2)
        return np.mean(list(pos.values()), axis=0)

    def outward(anchor: int) -> np.ndarray:
        placed_nbrs = [pos[w] for w, _ in adj[anchor] if w in pos]
        if placed_nbrs:
            return _unit(pos[anchor] - np.mean(placed_nbrs, axis=0), rng)
        return _unit(pos[anchor] - centroid(), rng)

    if not core_edges:
        root = next(v for v in sorted(comp) if v not in {leaf for _, leaf, _ in twigs})
        pos[root] = np.zeros(2)
    else:
        blocks = _biconnected_blocks(core_vertices, adj, core_edges)
        block_verts = [sorted({u for u, v, _ in b} | {v for u, v, _ in b}) for b in blocks]
        start = min(min(bv) for bv in block_verts)
        pending = list(range(len(blocks)))
        placed_any = False
        while pending:
            chosen = None
            anchor = None
            for bi in sorted(pending, key=lambda i: block_verts[i]):
                shared = [v for v in block_verts[bi] if v in pos]
                if not placed_any and start in block_verts[bi]:
                    chosen, anchor = bi, start
                    break
                if shared:
                    chosen, anchor = bi, shared[0]
                    break
            if chosen is None:
                raise GenerationReject("embedding-disconnected-core")
            pending.remove(chosen)
            block = blocks[chosen]
            if anchor not in pos:
                pos[anchor] = np.zeros(2)
            placed_any = True
            if len(block) == 1:
                u, v, _e = block[0]
                leaf = v if u == anchor else u
                if leaf not in pos:
                    angle = rng.uniform(-spread, spread)
                    step = 1.0 * (1.0 + rng.uniform(-jitter, jitter))
                    pos[leaf] = pos[anchor] + step * _rotate2(outward(anchor), angle)
                continue
            chains = _chain_decomposition(block, anchor)
            for ci, chain in enumerate(chains):
                if ci == 0:
                    n_sides = len(chain) - 1
                    out_dir = _rotate2(outward(anchor), rng.uniform(-spread, spread))
                    ring = _place_polygon(pos[anchor], n_sides, out_dir, jitter, rng)
                    for vert, p in zip(chain[1:-1], ring):
                        pos[vert] = p
                else:
                    a, z = chain[0], chain[-1]
                    interior = chain[1:-1]
                    if not interior:
                        continue
                    if a == z:
                        out_dir = _rotate2(outward(a), rng.uniform(-spread, spread))
                        ring = _place_polygon(pos[a], len(interior) + 1, out_dir, jitter, rng)
                        for vert, p in zip(interior, ring):
                            pos[vert] = p
                    else:
                        mid = 0.5 * (pos[a] + pos[z])
                        side = _unit(mid - centroid(), rng)
                        arc = _place_arc(pos[a], pos[z], len(interior), side, jitter, rng)
                        for vert, p in zip(interior, arc):
                            pos[vert] = p
    for anchor, leaf, _e in reversed(twigs):
        angle = rng.uniform(-spread, spread)
        step = 1.0 * (1.0 + rng.uniform(-jitter, jitter))
        pos[leaf] = pos[anchor] + step * _rotate2(outward(anchor), angle)
    return pos


def _random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    return q


def embed_graph(g: Multigraph, dim: int, cfg: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """Constructively embed a simple multigraph in R^dim.

    Cycles are placed as regular polygons (jittered by the edge-jitter
    draw), branches grow outward with the sampled angle spread, and
    components are separated so the inter-component clearance matches the
    drawn gap ratio times the feature scale. Raises
    :class:`GenerationReject` when the segment-clearance constraint cannot
    be met within the iteration budget. Self-loops and parallel edges have
    no straight-segment embedding and are rejected.
    """
    if dim not in (2, 3, 4, 5):
        raise ValueError("embedding dimension must be one of {2, 3, 4, 5}")
    if any(e.u == e.v or e.multiplicity > 1 for e in g.edges):
        raise InvalidDataError("embedding requires a simple graph (no self-loops or parallel edges)")
    pair_seen = set()
    for e in g.edges:
        if (e.u, e.v) in pair_seen:
            raise InvalidDataError("embedding requires a simple graph (no self-loops or parallel edges)")
        pair_seen.add((e.u, e.v))
    comps = graphmod.connected_components(g)
    min_clear = cfg.eps_sep * cfg.feature_scale
    comp_positions: list[np.ndarray] = []
    for comp in comps:
        sub_edges = [(e.u, e.v) for e in g.edges if e.u in set(comp)]
        placed = None
        for _attempt in range(cfg.max_search_iterations):
            pos2d = _layout_component_2d(g, comp, cfg, rng)
            arr = np.zeros((len(comp), dim))
            for i, v in enumerate(comp):
                arr[i, :2] = pos2d[v]
            if dim > 2:
                arr[:, 2:] = rng.uniform(
                    -cfg.isotropy_eps, cfg.isotropy_eps, size=(len(comp), dim - 2)
                ) * cfg.feature_scale
            arr = arr @ _random_rotation(dim, rng).T
            local = Multigraph(
                len(comp),
                tuple(
                    Edge(comp.index(u), comp.index(v), 1.0, 1) for u, v in sub_edges
                ),
            )
            if len(sub_edges) < 2 or _min_clearance(arr, local) >= min_clear:
                placed = arr
                break
        if placed is None:
            raise GenerationReject("embedding-clearance")
        comp_positions.append(placed)

    # Assemble components with controlled gaps.
    positions = np.zeros((g.n_vertices, dim))
    deg = g.degrees()
    # Features as (k, 2, dim) endpoint arrays: edges, then isolated vertices
    # as point segments.
    placed = np.zeros((0, 2, dim))

    def comp_feats(comp: list[int]) -> np.ndarray:
        """Local endpoint indices of the component's features, (k, 2)."""
        idx = {v: i for i, v in enumerate(comp)}
        ends = [(idx[e.u], idx[e.v]) for e in g.edges if e.u in idx]
        return np.array(ends + [(idx[v], idx[v]) for v in comp if deg[v] == 0], dtype=int).reshape(-1, 2)

    max_edge_len = cfg.feature_scale
    for comp, arr in zip(comps, comp_positions):
        idx = {v: i for i, v in enumerate(comp)}
        for e in g.edges:
            if e.u in idx and e.v in idx:
                max_edge_len = max(max_edge_len, float(np.linalg.norm(arr[idx[e.u]] - arr[idx[e.v]])))

    for ci, (comp, arr) in enumerate(zip(comps, comp_positions)):
        arr = arr - arr.mean(axis=0, keepdims=True)
        feats = comp_feats(comp)
        if ci == 0:
            for i, v in enumerate(comp):
                positions[v] = arr[i]
            placed = arr[feats]
            continue
        gap = rng.uniform(*cfg.gap_ratio_range) * max_edge_len
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        placed_pts = placed.reshape(-1, dim)
        center_all = placed_pts.mean(axis=0)
        r_all = float(np.max(np.linalg.norm(placed_pts - center_all, axis=1)))
        r_new = float(np.max(np.linalg.norm(arr, axis=1))) if len(arr) else 0.0
        # Every new feature against every placed one.
        mine = np.repeat(feats, len(placed), axis=0)
        theirs = np.tile(placed, (len(feats), 1, 1))

        def min_dist_at(dist: float) -> float:
            moved = arr + (center_all + direction * dist)
            return float(np.min(_segment_distances(moved[mine[:, 0]], moved[mine[:, 1]], theirs[:, 0], theirs[:, 1])))

        hi = r_all + r_new + gap + max_edge_len
        while min_dist_at(hi) < gap:
            hi *= 1.5
        lo = 0.0
        for _ in range(cfg.max_search_iterations):
            mid = 0.5 * (lo + hi)
            if min_dist_at(mid) >= gap:
                hi = mid
            else:
                lo = mid
            if hi - lo < cfg.search_tolerance * gap:
                break
        arr = arr + (center_all + direction * hi)
        for i, v in enumerate(comp):
            positions[v] = arr[i]
        placed = np.concatenate([placed, arr[feats]])
    return positions


# ---------------------------------------------------------------------------
# Tube sampling


def draw_difficulty(cfg: GeneratorConfig, rng: np.random.Generator) -> DifficultyCoords:
    return DifficultyCoords(
        noise_ratio=float(rng.uniform(*cfg.noise_ratio_range)),
        separation=float(rng.uniform(*cfg.separation_range)),
        density=float(rng.uniform(*cfg.density_range)),
        thickness=float(rng.uniform(*cfg.thickness_range)),
    )


def draw_dimension(cfg: GeneratorConfig, rng: np.random.Generator) -> int:
    dims = sorted(cfg.dim_probs)
    probs = np.array([cfg.dim_probs[d] for d in dims])
    return int(dims[int(rng.choice(len(dims), p=probs))])


def _shrink_positions(positions: np.ndarray, factor: float) -> np.ndarray:
    """Scale the embedding along its top principal axis by ``factor``."""
    if factor >= 1.0 - 1e-12:
        return positions
    mean = positions.mean(axis=0, keepdims=True)
    centered = positions - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[0]
    along = centered @ axis
    return positions + np.outer(along * (factor - 1.0), axis)


def _ball_dirs(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform samples from the unit ball in R^dim."""
    dirs = rng.normal(size=(count, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    radii = rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return dirs / norms * radii


def _tube_offsets(rng: np.random.Generator, count: int, axis: np.ndarray, radius: float, dim: int) -> np.ndarray:
    """Uniform solid-tube cross-section offsets perpendicular to ``axis``."""
    if radius <= 0 or dim < 2:
        return np.zeros((count, dim))
    dirs = rng.normal(size=(count, dim))
    dirs -= np.outer(dirs @ axis, axis)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / max(dim - 1, 1))
    return dirs / norms * radii


def sample_point_cloud(
    g_embedded: Multigraph,
    cfg: GeneratorConfig,
    rng: np.random.Generator,
    coords: Optional[DifficultyCoords] = None,
) -> tuple[PointCloud, RealizedGeometry]:
    """Sample a noisy point cloud from solid tubes around an embedded graph.

    Chooses a tube radius inside the thickness budget (floored at the
    minimum radius ratio, capped by non-adjacent clearance and cycle-hole
    size), applies thickness-aware crowding along the top principal axis,
    samples ceil(density x length) points per edge (endpoints included)
    plus junction-node balls, tops components up to the minimum point
    count, and adds isotropic Gaussian noise capped by the post-crowding
    clearance over the safety multiplier.
    """
    if coords is None:
        coords = draw_difficulty(cfg, rng)
    g = g_embedded
    if g.positions is None:
        raise InvalidDataError("sample_point_cloud requires an embedded graph")
    positions = np.array(g.positions, dtype=float)
    dim = positions.shape[1]
    edges = list(g.edges)
    deg = g.degrees()
    loops = _cycle_loops(g)

    edge_lengths = [float(np.linalg.norm(positions[e.u] - positions[e.v])) for e in edges]
    mean_edge_len = float(np.mean(edge_lengths)) if edge_lengths else cfg.feature_scale

    clearance0 = _min_clearance(positions, g)
    holes0 = _hole_scales(positions, loops)
    r_max = 0.45 * clearance0 if math.isfinite(clearance0) else 0.45 * cfg.feature_scale
    if holes0:
        r_max = min(r_max, cfg.cycle_hole_cap_fraction * min(holes0))
    r_min = cfg.min_tube_radius_ratio * mean_edge_len
    if not math.isfinite(r_max) or r_max <= 0:
        r_max = 0.45 * cfg.feature_scale
    if r_min > r_max:
        raise GenerationReject("thickness")
    radius = max(r_min, coords.thickness * r_max)

    # Thickness-aware crowding: shrink along the top principal axis by the
    # separation coordinate, never past the clearance that keeps distinct
    # tubes apart (and cycle holes open) at the chosen radius.
    def feasible(factor: float) -> bool:
        pos_f = _shrink_positions(positions, factor)
        if _min_clearance(pos_f, g) < 2.1 * radius:
            return False
        if loops:
            if min(_hole_scales(pos_f, loops)) * cfg.cycle_hole_cap_fraction < radius * (1.0 - 1e-9):
                return False
        return True

    target = 1.0 - coords.separation
    if feasible(target):
        factor = target
    else:
        lo, hi = target, 1.0
        for _ in range(cfg.max_search_iterations):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
            if hi - lo < cfg.search_tolerance:
                break
        factor = hi
    positions = _shrink_positions(positions, factor)

    # Fix vertex labels and edge enumeration to the canonical (serialized)
    # order now, so per-point parent ids stay valid across a disk round-trip.
    latent = graphmod.canonicalize(
        Multigraph(
            g.n_vertices,
            tuple(
                Edge(e.u, e.v, float(np.linalg.norm(positions[e.u] - positions[e.v])), e.multiplicity)
                for e in g.edges
            ),
            positions,
        )
    )
    positions = np.array(latent.positions)
    edges = list(latent.edges)
    edge_lengths = [e.length for e in edges]
    deg = latent.degrees()
    clearance = _min_clearance(positions, latent)
    if not math.isfinite(clearance):
        clearance = cfg.safety_multiplier * coords.noise_ratio * cfg.feature_scale

    comps = graphmod.connected_components(latent)
    comp_of_vertex = np.zeros(latent.n_vertices, dtype=int)
    for ci, comp in enumerate(comps):
        comp_of_vertex[comp] = ci

    pts: list[np.ndarray] = []
    parent_kinds: list[str] = []
    parent_ids: list[int] = []
    point_comps: list[int] = []
    density_jitter = float(rng.uniform(*cfg.density_jitter_range))

    def add_edge_points(ei: int, count: int, include_endpoints: bool) -> None:
        e = edges[ei]
        a, bpos = positions[e.u], positions[e.v]
        axis = bpos - a
        seg_len = float(np.linalg.norm(axis))
        axis_unit = axis / seg_len if seg_len > 1e-12 else np.zeros(dim)
        comp_id = int(comp_of_vertex[e.u])
        if include_endpoints:
            for endpoint in (a, bpos):
                pts.append(endpoint.copy())
                parent_kinds.append("e")
                parent_ids.append(ei)
                point_comps.append(comp_id)
            count = max(count - 2, 0)
        if count <= 0:
            return
        ts = rng.uniform(size=count)
        offsets = _tube_offsets(rng, count, axis_unit, radius, dim)
        for t, off in zip(ts, offsets):
            pts.append(a + t * axis + off)
            parent_kinds.append("e")
            parent_ids.append(ei)
            point_comps.append(comp_id)

    def add_vertex_ball(v: int, count: int) -> None:
        offs = _ball_dirs(rng, count, dim) * radius
        for off in offs:
            pts.append(positions[v] + off)
            parent_kinds.append("v")
            parent_ids.append(int(v))
            point_comps.append(int(comp_of_vertex[v]))

    for ei, e in enumerate(edges):
        dens = coords.density * (1.0 + rng.uniform(-density_jitter, density_jitter))
        count = max(cfg.min_points_per_edge, math.ceil(dens * edge_lengths[ei]))
        add_edge_points(ei, count, include_endpoints=True)
    for v in range(latent.n_vertices):
        if deg[v] >= 3:
            add_vertex_ball(int(v), max(1, math.ceil(coords.density * radius)))
        elif deg[v] == 0:
            add_vertex_ball(int(v), max(cfg.min_points_per_component, math.ceil(coords.density * radius)))

    # Top components up to the minimum point count.
    counts = np.zeros(len(comps), dtype=int)
    for c in point_comps:
        counts[c] += 1
    comp_edges: list[list[int]] = [[] for _ in comps]
    for ei, e in enumerate(edges):
        comp_edges[comp_of_vertex[e.u]].append(ei)
    for ci in range(len(comps)):
        while counts[ci] < cfg.min_points_per_component:
            if comp_edges[ci]:
                ei = comp_edges[ci][int(rng.integers(0, len(comp_edges[ci])))]
                add_edge_points(ei, 1, include_endpoints=False)
            else:
                add_vertex_ball(comps[ci][0], 1)
            counts[ci] += 1

    x = np.array(pts)
    noise_scale = min(coords.noise_ratio * cfg.feature_scale, clearance / cfg.safety_multiplier)
    if noise_scale < 1e-3 * cfg.feature_scale:
        raise GenerationReject("noise-floor")
    x = x + rng.normal(scale=noise_scale, size=x.shape)

    geometry = RealizedGeometry(
        graph=latent,
        tube_radius=float(radius),
        noise_scale=float(noise_scale),
        clearance=float(clearance),
        shrink=float(1.0 - factor),
        parent_kinds=tuple(parent_kinds),
        parent_ids=tuple(parent_ids),
        point_components=tuple(point_comps),
    )
    return PointCloud(x), geometry


# ---------------------------------------------------------------------------
# Validation


def _point_segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    axis = b - a
    denom = float(axis @ axis)
    if denom < 1e-30:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ axis / denom, 0.0, 1.0)
    proj = a + t[:, None] * axis
    return np.linalg.norm(points - proj, axis=1)


def validate(sample: SyntheticSample, cfg: GeneratorConfig) -> ValidationResult:
    """Re-check a sampled candidate against the acceptance constraints.

    (a) inter-component point gap >= safety multiplier x noise scale;
    (b) non-adjacent tubes disjoint at the realized radius;
    (c) single linkage separates components: the largest within-component
        nearest-neighbor distance is below the smallest cross-component
        point distance;
    (d) noise confusion: no point sits closer to a non-adjacent foreign
        edge than to its own parent feature by more than the separation
        margin gamma.
    All inputs come from the sample itself, so accepted samples re-pass
    under an independent call.
    """
    meta = sample.metadata
    g = sample.graph
    positions = np.asarray(g.positions)
    points = sample.cloud.points
    radius = float(meta["realized"]["tube_radius"])
    noise_scale = float(meta["realized"]["noise_scale"])
    parent_kinds = meta["parent_kinds"]
    parent_ids = np.asarray(meta["parent_ids"], dtype=int)
    point_comps = np.asarray(meta["point_components"], dtype=int)
    n_components = int(point_comps.max()) + 1 if len(point_comps) else 0

    # (b) tube overlap
    clearance = _min_clearance(positions, g)
    if clearance < 2.0 * radius * (1.0 - 1e-9):
        return ValidationResult(False, "tube-overlap")

    # (a)/(c) component separation on the sampled points
    if n_components > 1:
        m_across = math.inf
        trees = []
        for ci in range(n_components):
            trees.append(cKDTree(points[point_comps == ci]))
        for ci in range(n_components):
            pts_i = points[point_comps == ci]
            for cj in range(ci + 1, n_components):
                d, _ = trees[cj].query(pts_i, k=1)
                m_across = min(m_across, float(np.min(d)))
        if m_across < cfg.safety_multiplier * noise_scale:
            return ValidationResult(False, "component-separation")
        m_within = 0.0
        for ci in range(n_components):
            pts_i = points[point_comps == ci]
            if len(pts_i) < 2:
                continue
            d, _ = trees[ci].query(pts_i, k=2)
            m_within = max(m_within, float(np.max(d[:, 1])))
        if m_within >= m_across:
            return ValidationResult(False, "component-count")

    # (d) noise confusion
    edges = list(g.edges)
    if edges:
        dist_matrix = np.column_stack(
            [_point_segment_distances(points, positions[e.u], positions[e.v]) for e in edges]
        )
        ends = np.array([(e.u, e.v) for e in edges])
        on_edge = np.asarray(parent_kinds) == "e"
        # Each point's parent feature as two vertex ids (a vertex twice).
        parent_ends = np.repeat(parent_ids[:, None], 2, axis=1)
        parent_ends[on_edge] = ends[parent_ids[on_edge]]
        own = np.empty(len(points))
        own[on_edge] = dist_matrix[np.flatnonzero(on_edge), parent_ids[on_edge]]
        off = points[~on_edge] - positions[parent_ids[~on_edge]]
        own[~on_edge] = np.sqrt(_dots(off, off))
        # Edges that share a vertex with the parent feature are not foreign.
        adjacent = (ends[None, :, :, None] == parent_ends[:, None, None, :]).any(axis=(2, 3))
        foreign = np.where(adjacent, math.inf, dist_matrix).min(axis=1)
        if np.any(foreign < own - cfg.min_separation_gamma):
            return ValidationResult(False, "noise-confusion")
    return ValidationResult(True, None)


# ---------------------------------------------------------------------------
# Benchmark generation


def generate_sample(cfg: GeneratorConfig, seed: int, index: int) -> SyntheticSample:
    """Generate one accepted sample; pure function of (cfg, seed, index)."""
    sub = sample_subseed(seed, index)
    rng = np.random.Generator(np.random.PCG64(sub))
    rejects = 0
    last_coords: Optional[DifficultyCoords] = None
    while rejects <= cfg.max_rejects_per_sample:
        try:
            coords = draw_difficulty(cfg, rng)
            last_coords = coords
            dim = draw_dimension(cfg, rng)
            topo, classes = sample_topology_meta(cfg, rng)
            positions = embed_graph(topo, dim, cfg, rng)
            embedded = Multigraph(
                topo.n_vertices,
                tuple(
                    Edge(e.u, e.v, float(np.linalg.norm(positions[e.u] - positions[e.v])), e.multiplicity)
                    for e in topo.edges
                ),
                positions,
            )
            cloud, geometry = sample_point_cloud(embedded, cfg, rng, coords)
            metadata = {
                "seed": int(sub),
                "requested": {
                    "noise_ratio": coords.noise_ratio,
                    "separation": coords.separation,
                    "density": coords.density,
                    "thickness": coords.thickness,
                },
                "realized": {
                    "tube_radius": geometry.tube_radius,
                    "noise_scale": geometry.noise_scale,
                    "clearance": geometry.clearance,
                    "shrink": geometry.shrink,
                },
                "topology_classes": list(classes),
                "embedding_dim": int(dim),
                "reject_count": rejects,
                "parent_kinds": list(geometry.parent_kinds),
                "parent_ids": [int(p) for p in geometry.parent_ids],
                "point_components": [int(c) for c in geometry.point_components],
            }
            sample = SyntheticSample(
                cloud=cloud,
                graph=geometry.graph,
                reduced_graph=graphmod.reduce(geometry.graph),
                metadata=metadata,
            )
            verdict = validate(sample, cfg)
            if verdict.ok:
                return sample
            rejects += 1
        except GenerationReject:
            rejects += 1
    raise GenerationError(
        f"sample {index} exhausted {cfg.max_rejects_per_sample} rejects; "
        f"last requested coordinates: {last_coords}"
    )


def generate_benchmark(cfg: GeneratorConfig, n: int, seed: int) -> list[SyntheticSample]:
    """Generate ``n`` accepted samples; bit-reproducible for fixed inputs."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return [generate_sample(cfg, seed, i) for i in range(n)]
