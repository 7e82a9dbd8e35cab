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

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from . import graph as graphmod
from .errors import ConfigError, GenerationError, GenerationReject, InvalidDataError
from .geometry import PointCloud, row_dots, straight_graph
from .graph import Multigraph, _is_number

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
        # Each value must have its field's annotated type: an int field takes
        # an integer, a float field any number, a range two of them, a dict
        # numeric values. A bool is no number here, nor is NaN or an infinity.
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type
            number = numbers.Integral if "int" in kind else numbers.Real
            if kind == "dict":
                ok = isinstance(value, dict) and all(_is_number(x, number) for x in value.values())
            elif kind.startswith("tuple"):
                ok = isinstance(value, (tuple, list)) and len(value) == 2 and all(_is_number(x, number) for x in value)
            else:
                ok = _is_number(value, number)
            if not ok:
                raise ConfigError(f"{f.name} must be {'a dict of numbers' if kind == 'dict' else kind}, finite, not {value!r}")
            if kind.startswith("tuple"):
                if value[0] > value[1]:
                    raise ConfigError(f"{f.name} must be a nonempty (lo, hi) range")
                object.__setattr__(self, f.name, (value[0], value[1]))
        if abs(sum(self.class_probs.values()) - 1.0) > 1e-12:
            raise ConfigError("class_probs must sum to 1 within 1e-12")
        if set(self.class_probs) != set(TOPOLOGY_CLASSES):
            raise ConfigError(f"class_probs must cover exactly {TOPOLOGY_CLASSES}")
        if abs(sum(self.dim_probs.values()) - 1.0) > 1e-12:
            raise ConfigError("dim_probs must sum to 1 within 1e-12")
        if any(str(d) not in ("2", "3", "4", "5") for d in self.dim_probs):
            raise ConfigError("dim_probs keys must lie in {2, 3, 4, 5}")
        object.__setattr__(self, "dim_probs", {int(k): float(v) for k, v in self.dim_probs.items()})
        if not (0.0 <= self.component_prob <= 1.0):
            raise ConfigError("component_prob must lie in [0, 1]")
        if self.safety_multiplier <= 0:
            raise ConfigError("safety_multiplier must be positive: the noise scale divides by it")
        if self.feature_scale <= 0:
            raise ConfigError("feature_scale must be positive: every length and the noise floor scale with it")
        if self.max_rejects_per_sample < 0:
            raise ConfigError("max_rejects_per_sample must be >= 0")
        if self.max_search_iterations < 1:
            raise ConfigError("max_search_iterations must be >= 1: with none, no layout is ever tried")
        cycles = {"multi_cycle": 2, "hybrid": 1}  # the fewest cycles each class draws, if it has a probability
        if any(self.class_probs[c] > 0 and self.max_cycles_per_component < m for c, m in cycles.items()):
            raise ConfigError("max_cycles_per_component must be >= 2 for multi_cycle and >= 1 for hybrid samples")
        if self.cycle_length_range[0] < 3 and any(self.class_probs[c] > 0 for c in ("single_cycle", *cycles)):
            raise ConfigError("cycle_length_range must start at 3 or more: a shorter cycle is no simple graph")

    def to_dict(self) -> dict:
        """The config as JSON holds it: ranges as lists, dict keys as strings."""
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise ConfigError(f"unknown generator config field: {key}")
        return cls(**doc)


@dataclass(frozen=True)
class DifficultyCoords:
    noise_ratio: float
    separation: float
    density: float
    thickness: float


@dataclass(frozen=True, eq=False)
class SyntheticSample:
    """A generated sample: its cloud, its latent graph and the fields of its
    ``meta.json``. ``reduced_graph`` is derived, not stored: ``graph.reduce``
    of the latent graph, which caches it on that graph."""

    cloud: PointCloud
    graph: Multigraph
    metadata: dict

    @property
    def reduced_graph(self) -> Multigraph:
        return graphmod.reduce(self.graph)


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
        self.links: list[tuple[int, int]] = []
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
        self.links.append((u, v))
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
                for u, v in b.links
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
            edges_left -= len(b.links)
            break
        else:
            raise GenerationReject("topology-unrealizable")
    ends = [np.array(b.links, dtype=np.int64).reshape(-1, 2).T for b in builders]
    pieces = [Multigraph.from_arrays(len(b.deg), u, v, np.ones(u.size)) for b, (u, v) in zip(builders, ends)]
    return graphmod.disjoint_union(pieces), classes


# ---------------------------------------------------------------------------
# Structure analysis shared by embedding and tube sampling


def _simple_adjacency(g: Multigraph, vertices: list[int]) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for i, (a, b) in enumerate(zip(g.u.tolist(), g.v.tolist())):
        if a in adj and b in adj:
            adj[a].append((b, i))
            adj[b].append((a, i))
    return adj


def _strip_leaves(adj: dict[int, list[tuple[int, int]]]) -> tuple[list, dict[int, list[tuple[int, int]]]]:
    """Iteratively remove degree-1 vertices.

    Returns (twigs in removal order as (anchor, leaf, edge_id), the core's
    adjacency: each core vertex's sorted (neighbor, edge_id) pairs).
    """
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    removed_edges: set[int] = set()
    twigs: list[tuple[int, int, int]] = []
    queue = sorted(v for v, d in deg.items() if d == 1)
    while queue:
        leaf = queue.pop(0)
        if deg[leaf] != 1:
            continue
        # Each vertex is queued once, on reaching degree 1, so a leaf left at
        # degree 1 is live and has one live edge, whose far end is live too.
        anchor, eid = next((w, e) for w, e in adj[leaf] if e not in removed_edges)
        removed_edges.add(eid)
        deg[leaf] -= 1
        deg[anchor] -= 1
        twigs.append((anchor, leaf, eid))
        if deg[anchor] == 1:
            queue.append(anchor)
            queue.sort()
    # A removed leaf is left at degree 0.
    core = {v: sorted((w, e) for w, e in nbrs if e not in removed_edges) for v, nbrs in adj.items() if deg[v] > 0}
    return twigs, core


def _biconnected_blocks(core_adj: dict[int, list[tuple[int, int]]]) -> list[dict[int, list[tuple[int, int]]]]:
    """Biconnected components of a core (``_strip_leaves``), each as the
    core's adjacency restricted to the block's edges, keyed by sorted vertex."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    blocks: list[dict[int, list[tuple[int, int]]]] = []
    counter = 0
    for root in sorted(core_adj):
        if root in disc:
            continue
        disc[root] = low[root] = counter
        counter += 1
        estack: list[tuple[int, int, int]] = []
        dfs = [(root, iter(core_adj[root]))]
        while dfs:
            v, it = dfs[-1]
            advanced = False
            for w, eid in it:
                if eid == parent_edge.get(v):
                    continue
                if w not in disc:
                    estack.append((v, w, eid))
                    parent_edge[w] = eid
                    disc[w] = low[w] = counter
                    counter += 1
                    dfs.append((w, iter(core_adj[w])))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    estack.append((v, w, eid))
                    low[v] = min(low[v], disc[w])
            if not advanced:
                dfs.pop()
                if dfs:
                    u = dfs[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        verts, edges = set(), set()
                        while True:
                            a, b, eid = estack.pop()
                            verts.update((a, b))
                            edges.add(eid)
                            if eid == parent_edge[v]:
                                break
                        blocks.append({x: [(w, e) for w, e in core_adj[x] if e in edges] for x in sorted(verts)})
    return blocks


def _chain_decomposition(adj: dict[int, list[tuple[int, int]]], anchor: int) -> list[list[int]]:
    """Ear decomposition of a 2-connected block, given as its adjacency, as
    vertex chains.

    The first chain is a cycle through ``anchor``; every later chain is a
    path whose endpoints already appear in earlier chains (Schmidt, "A simple
    test on 2-vertex- and 2-edge-connectivity", IPL 2013).
    """
    disc: dict[int, int] = {anchor: 0}
    parent: dict[int, int] = {}
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
            seen_edges.add(eid)
            if w not in disc:
                disc[w] = counter
                counter += 1
                parent[w] = v
                order.append(w)
                dfs.append((w, iter(adj[w])))
                advanced = True
                break
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


def _component_plan(g: Multigraph, comp: list[int]):
    """The structure of one component that its layout and its hole caps read:
    ``(adj, twigs, blocks)`` with ``adj`` and ``twigs`` as in ``_strip_leaves``
    and the core's blocks in placement order as ``(anchor, block adjacency,
    chains)``, chains ``None`` for a bridge (a block of one edge).

    Blocks go in order of their sorted vertex lists; each step takes the first
    one that holds an already planned vertex, anchored at its smallest such
    vertex; the first block is anchored at its smallest vertex.
    """
    adj = _simple_adjacency(g, comp)
    twigs, core = _strip_leaves(adj)
    pending = sorted(_biconnected_blocks(core), key=list) if core else []
    held: set[int] = set()
    blocks = []
    while pending:
        # A connected component's core stays connected, so some block touches the planned ones.
        block, anchor = next((b, v) for b in pending for v in b if not held or v in held)
        pending.remove(block)
        held.update(block)
        bridge = sum(map(len, block.values())) == 2
        blocks.append((anchor, block, None if bridge else _chain_decomposition(block, anchor)))
    return adj, twigs, blocks


def _cycle_loops(g: Multigraph) -> list[list[int]]:
    """One vertex loop per independent cycle of each block, read from the
    blocks' ear decompositions in ``_component_plan`` (used for hole-size
    caps): the first chain closes itself, and each later ear is closed by a
    shortest path in its block that avoids the ear's interior."""
    loops: list[list[int]] = []
    for comp in graphmod.connected_components(g):
        for _anchor, block, chains in _component_plan(g, comp)[2]:
            if chains is None:
                continue
            loops.append(chains[0][:-1])  # closed: first vertex repeats last
            for chain in chains[1:]:
                a, z = chain[0], chain[-1]
                interior = set(chain[1:-1])
                prev: dict[int, Optional[int]] = {a: None}
                queue = [a]
                while queue:
                    x = queue.pop(0)
                    if x == z:
                        break
                    for y, _e in block[x]:
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


def _rotate2(vec: np.ndarray, angle: float) -> tuple[float, float]:
    """The 2-vector ``vec`` turned by ``angle``, in Python floats: their IEEE
    products and sums are numpy's elementwise ones, without an array per
    operation."""
    c, s = math.cos(angle), math.sin(angle)
    x, y = vec.tolist()
    return c * x - s * y, s * x + c * y


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` for float bounds: the same draw and the same
    bits, which numpy computes as ``lo + (hi - lo) * rng.random()``, at a
    quarter of the call's cost. A span numpy refuses (negative, infinite or
    NaN) goes to ``rng.uniform`` for its error."""
    span = hi - lo
    if not 0.0 <= span < math.inf:
        return rng.uniform(lo, hi)
    return lo + span * rng.random()


def _unit(vec: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """``vec`` scaled to length 1; a shorter vector than 1e-12, passed only with ``rng``, gets a random direction.
    The norm is ``np.linalg.norm``'s for a 1-D vector: one BLAS ``ddot`` and a correctly rounded square root."""
    norm = math.sqrt(vec.dot(vec))
    if norm < 1e-12:
        angle = rng.uniform(0, 2 * math.pi)
        return np.array([math.cos(angle), math.sin(angle)])
    return vec / norm


def _bisect(ok, lo: float, hi: float, steps: int, tol: float = 0.0) -> tuple[float, float]:
    """Halve ``[lo, hi]`` toward where ``ok`` turns true: each of up to
    ``steps`` steps tests ``mid = 0.5 * (lo + hi)`` and moves ``hi`` to it when
    ``ok(mid)``, else ``lo``, stopping once ``hi - lo < tol``. Returns the
    final ``(lo, hi)``."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return lo, hi


def _segment_distances(p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Minimum distances between segments [p1[i], p2[i]] and [q1[i], q2[i]]
    for (m, d) endpoint arrays: the clamped closed form of Ericson,
    *Real-Time Collision Detection*, 5.1.9. A segment whose squared length
    is at most 1e-30 is a point.

    ``scalar_segment_distance`` in the tests, the formula one pair at a
    time, pins the operation order: each distance must equal it bit for
    bit, so a rewrite may drop array passes but not reorder a sum or fuse a
    product. Every dot product is one BLAS ``ddot`` (``row_dots``)."""
    d1 = p2 - p1
    d2 = q2 - q1
    return _closest_distances(p1, d1, row_dots(d1, d1), q1, d2, row_dots(d2, d2))


def _closest_distances(p1: np.ndarray, d1: np.ndarray, a: np.ndarray, q1: np.ndarray, d2: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``_segment_distances`` for segments ``p1 + s * d1`` and ``q1 + t * d2``,
    s and t in [0, 1], whose squared lengths ``a`` and ``e`` are given, so
    that a caller with many pairs per segment computes each length once."""
    r = p1 - q1
    c = row_dots(d1, r)
    f = row_dots(d2, r)
    b = row_dots(d1, d2)
    # Every branch is evaluated and the degenerate ones are masked out, so
    # their divisions by zero are expected; a NaN that ``_clamp01`` keeps is
    # overwritten through ``denom``, ``p_point`` or ``q_point``.
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a * e - b * b
        s = _clamp01(np.where(denom > 1e-30, (b * f - c * e) / denom, 0.0))
        t = (b * s + f) / e
        # Where t leaves [0, 1], s is recomputed for t clamped to 0 or 1:
        # b * 0 - c and b * 1 - c are the oracle's -c and b - c up to the
        # sign of a zero, which no squared gap keeps.
        t_end = _clamp01(t)
        s = np.where(t != t_end, _clamp01((b * t_end - c) / a), s)
        t = t_end
        p_point = a <= 1e-30
        q_point = e <= 1e-30
        if np.count_nonzero(p_point) or np.count_nonzero(q_point):
            s = np.where(p_point, 0.0, np.where(q_point, _clamp01(-c / a), s))
            t = np.where(q_point, 0.0, np.where(p_point, _clamp01(f / e), t))
    gap = (p1 + s[:, None] * d1) - (q1 + t[:, None] * d2)
    return np.sqrt(row_dots(gap, gap))


def _point_segment_distances(p: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """``_segment_distances(p, p, q1, q2)`` bit for bit, the point branch
    alone: two dot products per pair instead of six. ``p`` broadcasts
    against the segments, so (n, 1, d) points and (k, d) ends give an (n, k)
    matrix."""
    d2 = q2 - q1
    e = row_dots(d2, d2)
    f = row_dots(d2, p - q1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(e <= 1e-30, 0.0, _clamp01(f / e))
    gap = p - (q1 + t[..., None] * d2)  # p + 0 * 0 is p, up to the sign of a zero
    return np.sqrt(row_dots(gap, gap))


def _clamp01(x: np.ndarray) -> np.ndarray:
    """``np.clip(x, 0.0, 1.0)`` without its wrapper: the same values, NaN kept."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _edge_lengths(g: Multigraph, positions: np.ndarray) -> np.ndarray:
    """The length of each entry's straight segment at ``positions``, bit for bit ``np.linalg.norm``."""
    gaps = positions[g.u] - positions[g.v]
    return np.sqrt(row_dots(gaps, gaps))


def _features(g: Multigraph) -> np.ndarray:
    """End vertex ids of the features of ``g``, (k, 2): its edge segments, then
    its isolated vertices as point segments."""
    isolated = np.flatnonzero(g.degrees() == 0)
    return np.column_stack([np.append(g.u, isolated), np.append(g.v, isolated)])


def _clearance_pairs(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """The features of ``g`` (``_features``) and every pair of non-adjacent
    ones, as a (2, m) array of feature ids: each pair ``i < j`` once, in
    row-major order, read off a k x k mask of features that share no end."""
    feats = _features(g)
    u, v = feats.T
    ids = np.arange(len(feats))
    apart = (ids[:, None] < ids) & (u[:, None] != u) & (u[:, None] != v) & (v[:, None] != u) & (v[:, None] != v)
    return feats, np.array(np.nonzero(apart))


def _pair_clearance(positions: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """Minimum distance between the feature pairs of ``_clearance_pairs`` at
    ``positions``; infinite when there are none. Each feature's direction
    and squared length are computed once, not once per pair."""
    feats, ids = pairs
    if not ids.shape[1]:
        return math.inf
    starts = positions[feats[:, 0]]
    dirs = positions[feats[:, 1]] - starts
    # ``np.take`` copies the same rows as fancy indexing, in a third of the time.
    (p1, q1), (d1, d2), (a, e) = (np.take(x, ids, axis=0) for x in (starts, dirs, row_dots(dirs, dirs)))
    return float(_closest_distances(p1, d1, a, q1, d2, e).min())


def _min_clearance(positions: np.ndarray, g: Multigraph) -> float:
    """Minimum distance between non-adjacent features (edge segments and
    isolated vertices)."""
    return _pair_clearance(positions, _clearance_pairs(g))


def _hole_scales(positions: np.ndarray, loops: list[list[int]]) -> list[float]:
    """Per loop, the distance from its vertex centroid to its nearest side,
    all loops in one segment-distance call."""
    if not loops:
        return []
    sizes = [len(loop) for loop in loops]
    centroids = np.repeat([positions[loop].mean(axis=0) for loop in loops], sizes, axis=0)
    starts = [v for loop in loops for v in loop]
    ends = [v for loop in loops for v in loop[1:] + loop[:1]]
    dists = _point_segment_distances(centroids, positions[starts], positions[ends])
    return np.minimum.reduceat(dists, np.cumsum([0] + sizes[:-1])).tolist()


def _place_polygon(
    anchor_pos: tuple[float, float],
    n_sides: int,
    out_dir: tuple[float, float],
    jitter: float,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Vertices of a regular n-gon with unit nominal side, one vertex pinned
    at ``anchor_pos``; returns the n - 1 free vertices in cycle order."""
    radius = 1.0 / (2.0 * math.sin(math.pi / n_sides))
    (ax, ay), (ox, oy) = anchor_pos, out_dir
    cx, cy = ax + radius * ox, ay + radius * oy
    base_angle = math.atan2(ay - cy, ax - cx)
    step = 2.0 * math.pi / n_sides
    pts = []
    for k in range(1, n_sides):
        r_k = radius * (1.0 + _uniform(rng, -jitter, jitter))
        theta = base_angle + step * k + _uniform(rng, -jitter, jitter) * step * 0.4
        pts.append((cx + r_k * math.cos(theta), cy + r_k * math.sin(theta)))
    return pts


def _place_arc(a: np.ndarray, z: np.ndarray, n_interior: int, side_dir: np.ndarray, jitter: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Interior vertices of an ear from a to z, bulged toward ``side_dir`` so
    segment lengths are close to 1."""
    n_seg = n_interior + 1
    chord = z - a
    if math.sqrt(chord.dot(chord)) > 1e-12:  # the chord's ``np.linalg.norm``
        along = _unit(chord)
        normal = _unit(side_dir - (side_dir @ along) * along, rng)
    else:
        normal = _unit(side_dir, rng)
    # Interior vertex i sits at a + chord * (i / n_seg) + normal * h * sin(pi * i / n_seg),
    # and only h changes between bisection steps. ``math.sin``, BLAS norms and a
    # left-to-right ``sum`` keep the bits of the point-by-point form; every
    # step writes into the same buffers.
    base = a + chord * np.array([i / n_seg for i in range(1, n_seg)])[:, None]
    shape = [math.sin(math.pi * i / n_seg) for i in range(1, n_seg)]
    column = np.array(shape)[:, None]
    pts = np.vstack([a, base, z])
    interior, ahead, behind = pts[1:-1], pts[1:], pts[:-1]
    steps = np.empty((n_seg, 2))
    step_rows, step_cols = steps[:, None, :], steps[:, :, None]
    lengths = np.empty((n_seg, 1, 1))

    def polyline_len(h: float) -> float:
        np.add(base, np.multiply(column, normal * h, out=interior), out=interior)
        np.subtract(ahead, behind, out=steps)
        np.matmul(step_rows, step_cols, out=lengths)  # ``row_dots(steps, steps)``
        return sum(np.sqrt(lengths, out=lengths).ravel().tolist())

    target = float(n_seg)
    lo, hi = 0.0, float(n_seg)
    if polyline_len(0.0) < target:
        lo, hi = _bisect(lambda h: not polyline_len(h) < target, lo, hi, 24)
    h = 0.5 * (lo + hi)
    return [row + normal * (h * arch * (1.0 + _uniform(rng, -jitter, jitter))) for row, arch in zip(base, shape)]


def _layout_component_2d(plan, cfg: GeneratorConfig, rng: np.random.Generator) -> dict[int, tuple[float, float]]:
    """Draw one 2-D layout of a component over its ``_component_plan``.

    Positions are pairs of Python floats, whose IEEE sums, products and
    quotients are numpy's elementwise ones; only norms go through an array,
    for their BLAS ``ddot``. Means are sums in placement order divided by
    the count: the bits of ``np.mean`` over the same rows."""
    adj, twigs, blocks = plan
    jitter = rng.uniform(*cfg.edge_jitter_range)
    spread = rng.uniform(*cfg.branch_angle_spread_range)
    pos: dict[int, tuple[float, float]] = {}
    tx = ty = 0.0  # the sum of the placed positions

    def place(v: int, p: tuple[float, float]) -> None:
        nonlocal tx, ty
        tx, ty = (tx + p[0], ty + p[1]) if pos else p
        pos[v] = p

    def centroid() -> tuple[float, float]:  # read only once the first vertex is placed
        return tx / len(pos), ty / len(pos)

    def outward(anchor: int) -> np.ndarray:
        placed_nbrs = [pos[w] for w, _ in adj[anchor] if w in pos]
        if placed_nbrs:
            cx, cy = (sum(c[1:], c[0]) / len(placed_nbrs) for c in zip(*placed_nbrs))
        else:
            cx, cy = centroid()
        ax, ay = pos[anchor]
        return _unit(np.array([ax - cx, ay - cy]), rng)

    def grow(anchor: int, leaf: int) -> None:
        angle = _uniform(rng, -spread, spread)
        step = 1.0 * (1.0 + _uniform(rng, -jitter, jitter))
        dx, dy = _rotate2(outward(anchor), angle)
        ax, ay = pos[anchor]
        place(leaf, (ax + step * dx, ay + step * dy))

    if not blocks:  # a tree: its root is the one vertex no twig removes
        place(twigs[-1][0] if twigs else next(iter(adj)), (0.0, 0.0))
    for anchor, block, chains in blocks:
        if not pos:
            place(anchor, (0.0, 0.0))
        if chains is None:
            grow(anchor, next(v for v in block if v != anchor))
            continue
        out_dir = _rotate2(outward(anchor), _uniform(rng, -spread, spread))
        ring = _place_polygon(pos[anchor], len(chains[0]) - 1, out_dir, jitter, rng)
        for vert, p in zip(chains[0][1:-1], ring):
            place(vert, p)
        # Later chains of a 2-connected block are open ears.
        for a, *interior, z in chains[1:]:
            if not interior:
                continue
            (ax, ay), (zx, zy), (cx, cy) = pos[a], pos[z], centroid()
            side = _unit(np.array([0.5 * (ax + zx) - cx, 0.5 * (ay + zy) - cy]), rng)
            for vert, p in zip(interior, _place_arc(np.array(pos[a]), np.array(pos[z]), len(interior), side, jitter, rng)):
                place(vert, tuple(p.tolist()))
    for anchor, leaf, _e in reversed(twigs):
        grow(anchor, leaf)
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
    no straight-segment embedding and are rejected. Each component's
    relabelled graph, its clearance pairs and its ``_component_plan`` are
    built once, before its layout attempts.
    """
    if dim not in (2, 3, 4, 5):
        raise ValueError("embedding dimension must be one of {2, 3, 4, 5}")
    # Entries of one vertex pair are adjacent in canonical order.
    if (g.u == g.v).any() or (g.multiplicity > 1).any() or ((g.u[1:] == g.u[:-1]) & (g.v[1:] == g.v[:-1])).any():
        raise InvalidDataError("embedding requires a simple graph (no self-loops or parallel edges)")
    comps = graphmod.connected_components(g)
    min_clear = cfg.eps_sep * cfg.feature_scale
    comp_positions: list[np.ndarray] = []
    # Each component relabelled to local vertex ids 0..len(comp) - 1.
    comp_graphs: list[Multigraph] = []
    for comp in comps:
        inside = np.isin(g.u, comp)
        local_u, local_v = np.searchsorted(comp, (g.u[inside], g.v[inside]))  # components come sorted
        local = Multigraph.from_arrays(len(comp), local_u, local_v, np.ones(local_u.size))
        pairs = _clearance_pairs(local)
        plan = _component_plan(g, comp)
        placed = None
        for _attempt in range(cfg.max_search_iterations):
            pos2d = _layout_component_2d(plan, cfg, rng)
            arr = np.zeros((len(comp), dim))
            arr[:, :2] = [pos2d[v] for v in comp]
            if dim > 2:
                arr[:, 2:] = rng.uniform(
                    -cfg.isotropy_eps, cfg.isotropy_eps, size=(len(comp), dim - 2)
                ) * cfg.feature_scale
            arr = arr @ _random_rotation(dim, rng).T
            if _pair_clearance(arr, pairs) >= min_clear:
                placed = arr
                break
        if placed is None:
            raise GenerationReject("embedding-clearance")
        comp_positions.append(placed)
        comp_graphs.append(local)

    # Assemble components with controlled gaps.
    positions = np.zeros((g.n_vertices, dim))
    # Features as (k, 2, dim) endpoint arrays: edges, then isolated vertices
    # as point segments.
    placed = np.zeros((0, 2, dim))

    max_edge_len = cfg.feature_scale
    for local, arr in zip(comp_graphs, comp_positions):
        max_edge_len = float(_edge_lengths(local, arr).max(initial=max_edge_len))

    for ci, (comp, local, arr) in enumerate(zip(comps, comp_graphs, comp_positions)):
        arr = arr - arr.mean(axis=0, keepdims=True)
        feats = _features(local)
        if ci == 0:
            positions[comp] = arr
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

        # Within r_new and r_all of their centers, new and placed points are gap + max_edge_len apart at hi.
        hi = r_all + r_new + gap + max_edge_len
        _, hi = _bisect(
            lambda dist: min_dist_at(dist) >= gap, 0.0, hi, cfg.max_search_iterations, cfg.search_tolerance * gap
        )
        arr = arr + (center_all + direction * hi)
        positions[comp] = arr
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


def _shrinker(positions: np.ndarray):
    """``shrink(factor)``: the embedding scaled along its top principal axis
    by ``factor``, with the axis found once for every factor."""
    centered = positions - positions.mean(axis=0, keepdims=True)
    axis = np.linalg.svd(centered, full_matrices=False)[2][0]
    along = centered @ axis

    def shrink(factor: float) -> np.ndarray:
        if factor >= 1.0 - 1e-12:
            return positions
        return positions + np.outer(along * (factor - 1.0), axis)

    return shrink


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
    coords: DifficultyCoords,
) -> tuple[PointCloud, Multigraph, dict]:
    """Sample a noisy point cloud from solid tubes around an embedded graph.

    Returns ``(cloud, latent, record)``: ``latent`` is the graph at its final
    (post-crowding) positions, in canonical order, and ``record`` holds the
    ``meta.json`` blocks decided here as JSON-ready floats and lists:
    ``realized`` (``tube_radius``, ``noise_scale``, ``clearance``, ``shrink``),
    and per point ``parent_kinds`` ('e' for an edge, 'v' for a vertex),
    ``parent_ids`` and ``point_components``.

    Chooses a tube radius inside the thickness budget (floored at the
    minimum radius ratio, capped by non-adjacent clearance and cycle-hole
    size), applies thickness-aware crowding along the top principal axis,
    samples ceil(density x length) points per edge (endpoints included)
    plus junction-node balls, tops components up to the minimum point
    count, and adds isotropic Gaussian noise capped by the post-crowding
    clearance over the safety multiplier. The clearance pairs of the graph
    are built once and serve every step of the crowding search.
    """
    g = g_embedded
    if g.positions is None:
        raise InvalidDataError("sample_point_cloud requires an embedded graph")
    if g.n_vertices == 0:
        raise InvalidDataError("sample_point_cloud requires a graph with at least one vertex")
    positions = np.array(g.positions, dtype=float)
    dim = positions.shape[1]
    loops = _cycle_loops(g)

    mean_edge_len = float(np.mean(_edge_lengths(g, positions))) if g.u.size else cfg.feature_scale

    pairs = _clearance_pairs(g)
    clearance0 = _pair_clearance(positions, pairs)
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
    shrink = _shrinker(positions)

    def feasible(factor: float) -> bool:
        pos_f = shrink(factor)
        if _pair_clearance(pos_f, pairs) < 2.1 * radius:
            return False
        if loops:
            if min(_hole_scales(pos_f, loops)) * cfg.cycle_hole_cap_fraction < radius * (1.0 - 1e-9):
                return False
        return True

    target = 1.0 - coords.separation
    if feasible(target):
        factor = target
    else:
        _, factor = _bisect(feasible, target, 1.0, cfg.max_search_iterations, cfg.search_tolerance)
    positions = shrink(factor)

    # Fix vertex labels and edge enumeration to the canonical (serialized)
    # order now, so per-point parent ids stay valid across a disk round-trip.
    latent = graphmod.canonicalize(straight_graph(g.u, g.v, positions, g.multiplicity))
    positions = np.array(latent.positions)
    us, vs, edge_lengths = latent.u.tolist(), latent.v.tolist(), latent.length.tolist()
    deg = latent.degrees()
    clearance = _min_clearance(positions, latent)
    if not math.isfinite(clearance):
        clearance = cfg.safety_multiplier * coords.noise_ratio * cfg.feature_scale

    comps = graphmod.connected_components(latent)
    comp_of_vertex = np.zeros(latent.n_vertices, dtype=int)
    for ci, comp in enumerate(comps):
        comp_of_vertex[comp] = ci

    pts: list[np.ndarray] = []  # (k, dim) blocks of points, in sampling order
    records: list[tuple[str, int, int]] = []  # per block: parent kind, parent id, component
    density_jitter = float(rng.uniform(*cfg.density_jitter_range))

    def add(block: np.ndarray, kind: str, pid: int, v: int) -> None:
        pts.append(block)
        records.append((kind, pid, int(comp_of_vertex[v])))

    def add_edge_points(ei: int, count: int, include_endpoints: bool) -> None:
        a = positions[us[ei]]
        axis = positions[vs[ei]] - a
        seg_len = edge_lengths[ei]  # the norm of ``axis``
        axis_unit = axis / seg_len if seg_len > 1e-12 else np.zeros(dim)
        if include_endpoints:
            add(positions[[us[ei], vs[ei]]], "e", ei, us[ei])
            count = max(count - 2, 0)
        if count <= 0:
            return
        ts = rng.uniform(size=count)
        offsets = _tube_offsets(rng, count, axis_unit, radius, dim)
        add(a + ts[:, None] * axis + offsets, "e", ei, us[ei])

    def add_vertex_ball(v: int, count: int) -> None:
        add(positions[v] + _ball_dirs(rng, count, dim) * radius, "v", v, v)

    for ei, length in enumerate(edge_lengths):
        dens = coords.density * (1.0 + rng.uniform(-density_jitter, density_jitter))
        count = max(cfg.min_points_per_edge, math.ceil(dens * length))
        add_edge_points(ei, count, include_endpoints=True)
    for v in range(latent.n_vertices):
        if deg[v] >= 3:
            add_vertex_ball(v, max(1, math.ceil(coords.density * radius)))
        elif deg[v] == 0:
            add_vertex_ball(v, max(cfg.min_points_per_component, math.ceil(coords.density * radius)))

    # Top components up to the minimum point count.
    counts = np.bincount([c for *_, c in records], weights=[len(block) for block in pts], minlength=len(comps))
    comp_edges: list[list[int]] = [[] for _ in comps]
    for ei, a in enumerate(us):
        comp_edges[comp_of_vertex[a]].append(ei)
    for ci in range(len(comps)):  # an edgeless component's ball already holds the minimum
        while counts[ci] < cfg.min_points_per_component:
            ei = comp_edges[ci][int(rng.integers(0, len(comp_edges[ci])))]
            add_edge_points(ei, 1, include_endpoints=False)
            counts[ci] += 1

    x = np.concatenate(pts)
    sizes = [len(block) for block in pts]
    noise_scale = min(coords.noise_ratio * cfg.feature_scale, clearance / cfg.safety_multiplier)
    if noise_scale < 1e-3 * cfg.feature_scale:
        raise GenerationReject("noise-floor")
    x = x + rng.normal(scale=noise_scale, size=x.shape)

    realized = {"tube_radius": radius, "noise_scale": noise_scale, "clearance": clearance, "shrink": 1.0 - factor}
    record = {"realized": {key: float(value) for key, value in realized.items()}}
    for key, column in zip(("parent_kinds", "parent_ids", "point_components"), zip(*records)):
        record[key] = np.repeat(column, sizes).tolist()
    return PointCloud(x), latent, record


# ---------------------------------------------------------------------------
# Validation


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
        # Each component against all other points, then within itself.
        m_across, m_within = math.inf, 0.0
        for ci in range(n_components):
            mine = point_comps == ci
            d, _ = cKDTree(points[~mine]).query(points[mine], k=1)
            m_across = min(m_across, float(np.min(d, initial=math.inf)))
            if mine.sum() >= 2:
                d, _ = cKDTree(points[mine]).query(points[mine], k=2)
                m_within = max(m_within, float(np.max(d[:, 1])))
        if m_across < cfg.safety_multiplier * noise_scale:
            return ValidationResult(False, "component-separation")
        if m_within >= m_across:
            return ValidationResult(False, "component-count")

    # (d) noise confusion
    if g.u.size:
        ends = np.column_stack((g.u, g.v))
        dist_matrix = _point_segment_distances(points[:, None, :], positions[g.u], positions[g.v])  # point i, edge j
        on_edge = np.asarray(parent_kinds) == "e"
        # Each point's parent feature as two vertex ids (a vertex twice).
        parent_ends = np.repeat(parent_ids[:, None], 2, axis=1)
        parent_ends[on_edge] = ends[parent_ids[on_edge]]
        own = np.empty(len(points))
        own[on_edge] = dist_matrix[np.flatnonzero(on_edge), parent_ids[on_edge]]
        off = points[~on_edge] - positions[parent_ids[~on_edge]]
        own[~on_edge] = np.sqrt(row_dots(off, off))
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
    coords: Optional[DifficultyCoords] = None
    while rejects <= cfg.max_rejects_per_sample:
        try:
            coords = draw_difficulty(cfg, rng)
            dim = draw_dimension(cfg, rng)
            topo, classes = sample_topology_meta(cfg, rng)
            positions = embed_graph(topo, dim, cfg, rng)
            embedded = straight_graph(topo.u, topo.v, positions, topo.multiplicity)
            cloud, latent, record = sample_point_cloud(embedded, cfg, rng, coords)
            provenance = {"seed": sub, "topology_classes": classes, "embedding_dim": dim, "reject_count": rejects}
            sample = SyntheticSample(cloud, latent, {"requested": asdict(coords), **record, **provenance})
            if validate(sample, cfg).ok:
                return sample
            rejects += 1
        except GenerationReject:
            rejects += 1
    raise GenerationError(
        f"sample {index} exhausted {cfg.max_rejects_per_sample} rejects; "
        f"last requested coordinates: {coords}"
    )
