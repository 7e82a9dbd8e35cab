"""Topology-aware graph comparison: edge-length-filtration persistence,
Wasserstein persistence similarity, approximate graph edit distance, and
persistence-image vectorization.

The comparison used by the benchmark harness reduces both graphs, builds
normalized persistence diagrams under the edge-length filtration, and
reports ``1 / (1 + W1)`` together with an assignment-based upper bound on
the unit-cost graph edit distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import ndtr

from . import graph as graphmod
from .errors import UnitMismatchError
from .graph import Multigraph

# Persistence-image parameters (fixed featurization shared by all methods).
PI_GRID = 10
PI_SIGMA = 0.1


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """H0/H1 persistence of a graph under the edge-length filtration.

    ``h0_deaths`` are the finite H0 deaths (all births are 0),
    ``h0_essential`` counts components (bars that never die), and
    ``h1_births`` are the birth values of essential H1 bars (cycles in a
    graph never die). ``normalized`` records whether lengths were divided by
    the maximum edge length.
    """

    h0_deaths: np.ndarray
    h0_essential: int
    h1_births: np.ndarray
    normalized: bool

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
            "normalized": bool(self.normalized),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PersistenceDiagram":
        return cls(
            np.asarray(doc["h0_deaths"], dtype=float),
            int(doc["h0_essential"]),
            np.asarray(doc["h1_births"], dtype=float),
            bool(doc["normalized"]),
        )


@dataclass(frozen=True, eq=False)
class PersistenceImage:
    """Flattened 10x10 H0 image followed by the 10x10 H1 image (200 floats)."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if vec.shape != (2 * PI_GRID * PI_GRID,):
            raise ValueError(f"persistence image must have length {2 * PI_GRID * PI_GRID}")
        if vec.size and vec.min() < 0:
            raise ValueError("persistence image entries must be non-negative")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)


def edge_length_diagram(g: Multigraph, normalize: bool = True) -> PersistenceDiagram:
    """Persistence of the edge-length filtration via a Kruskal sweep.

    Edges enter shortest first (ties broken by endpoints); an edge joining
    two components records an H0 death at its length, an edge inside a
    component or a self-loop records an essential H1 birth. Every vertex is
    born at 0 and one H0 bar per component is essential. With ``normalize``
    lengths are divided by the maximum edge length; an edgeless graph skips
    the division and yields an empty diagram with ``h0_essential = |V|``.
    """
    if not g.edges:
        return PersistenceDiagram(np.zeros(0), g.n_vertices, np.zeros(0), normalize)
    scale = max(e.length for e in g.edges) if normalize else 1.0
    if scale <= 0:
        scale = 1.0
    order = sorted(g.edges, key=lambda e: (e.length, e.u, e.v))
    uf = graphmod.UnionFind(g.n_vertices)
    deaths: list[float] = []
    births: list[float] = []
    for e in order:
        value = e.length / scale
        copies = e.multiplicity
        if e.u != e.v and uf.union(e.u, e.v):
            deaths.append(value)
            copies -= 1
        births.extend([value] * copies)
    b0 = g.n_vertices - len(deaths)
    return PersistenceDiagram(np.array(deaths), b0, np.array(births), normalize)


def _matching_distance(points_a: np.ndarray, points_b: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray) -> float:
    """Exact order-1 optimal partial matching cost between two point sets.

    ``points_*`` are (k, 2) diagram points, ``diag_*`` the cost of leaving
    each point unmatched (its distance to the diagonal). Ground cost between
    matched points is L-infinity. Solved exactly on the standard augmented
    bipartite construction.
    """
    na, nb = len(points_a), len(points_b)
    if na == 0 and nb == 0:
        return 0.0
    if na == 0:
        return float(np.sum(diag_b))
    if nb == 0:
        return float(np.sum(diag_a))
    size = na + nb
    big = float(np.sum(diag_a) + np.sum(diag_b)) + 1.0
    cost = np.zeros((size, size))
    cross = np.max(np.abs(points_a[:, None, :] - points_b[None, :, :]), axis=2)
    cost[:na, :nb] = cross
    cost[:na, nb:] = big
    cost[:na, nb:][np.arange(na), np.arange(na)] = diag_a
    cost[na:, :nb] = big
    cost[na:, :nb][np.arange(nb), np.arange(nb)] = diag_b
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def wasserstein_breakdown(d1: PersistenceDiagram, d2: PersistenceDiagram, order: int = 1) -> dict:
    """Order-1 Wasserstein distance between diagrams, with per-part terms.

    H0 finite bars live at (0, death); unmatched bars pay their L-infinity
    distance to the diagonal, death/2. Essential H1 bars are embedded at
    (birth, 1) on normalized diagrams with unmatched cost (1 - birth)/2.
    A component-count mismatch adds 0.5 per missing essential H0 bar.
    """
    if order != 1:
        raise ValueError("only order-1 Wasserstein distance is supported")
    if d1.normalized != d2.normalized:
        raise UnitMismatchError("cannot compare a normalized diagram with an unnormalized one")
    if not d1.normalized and (d1.h1_births.size or d2.h1_births.size):
        raise UnitMismatchError(
            "H1 essential bars are embedded at death 1, which assumes the "
            "normalized scale; normalize both diagrams first"
        )
    a0 = np.column_stack([np.zeros(len(d1.h0_deaths)), d1.h0_deaths])
    b0 = np.column_stack([np.zeros(len(d2.h0_deaths)), d2.h0_deaths])
    h0 = _matching_distance(a0, b0, d1.h0_deaths / 2.0, d2.h0_deaths / 2.0)
    a1 = np.column_stack([d1.h1_births, np.ones(len(d1.h1_births))])
    b1 = np.column_stack([d2.h1_births, np.ones(len(d2.h1_births))])
    h1 = _matching_distance(a1, b1, (1.0 - d1.h1_births) / 2.0, (1.0 - d2.h1_births) / 2.0)
    essential = 0.5 * abs(d1.h0_essential - d2.h0_essential)
    return {
        "h0": h0,
        "h1": h1,
        "essential": essential,
        "total": h0 + h1 + essential,
    }


def wasserstein_distance(d1: PersistenceDiagram, d2: PersistenceDiagram, order: int = 1) -> float:
    return wasserstein_breakdown(d1, d2, order)["total"]


def persistence_similarity(distance: float) -> float:
    """Convert a diagram distance into a similarity in (0, 1]: 1 / (1 + d)."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return 1.0 / (1.0 + distance)


# -- approximate graph edit distance ----------------------------------------


def _node_signatures(g: Multigraph) -> list[tuple]:
    deg = g.degrees()
    loops = g.self_loop_counts()
    profiles: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for e in g.edges:
        if e.u != e.v:
            profiles[e.u].append(e.multiplicity)
            profiles[e.v].append(e.multiplicity)
    return [
        (int(deg[v]), int(loops[v]), tuple(sorted(profiles[v], reverse=True)))
        for v in range(g.n_vertices)
    ]


def _signature_cost(sa: tuple, sb: tuple) -> float:
    deg_a, loop_a, prof_a = sa
    deg_b, loop_b, prof_b = sb
    width = max(len(prof_a), len(prof_b))
    pa = list(prof_a) + [0] * (width - len(prof_a))
    pb = list(prof_b) + [0] * (width - len(prof_b))
    prof = sum(abs(x - y) for x, y in zip(pa, pb))
    return abs(deg_a - deg_b) + abs(loop_a - loop_b) + prof


def _adjacency_multiset(g: Multigraph) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for e in g.edges:
        key = (e.u, e.v)
        out[key] = out.get(key, 0) + e.multiplicity
    return out


def edit_cost(g1: Multigraph, g2: Multigraph, mapping: dict[int, int]) -> float:
    """Exact unit-cost edit script cost induced by a partial node mapping.

    Unmapped g1 nodes are deleted, unmatched g2 nodes inserted; node
    substitutions are free and edge lengths are ignored. Edge cost is the
    multiset difference of multiplicities under the mapping.
    """
    node_cost = (g1.n_vertices - len(mapping)) + (g2.n_vertices - len(mapping))
    adj1 = _adjacency_multiset(g1)
    adj2 = dict(_adjacency_multiset(g2))
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


def _assignment_mapping(g1: Multigraph, g2: Multigraph) -> dict[int, int]:
    n1, n2 = g1.n_vertices, g2.n_vertices
    sig1 = _node_signatures(g1)
    sig2 = _node_signatures(g2)
    # Refine signatures with one round of neighbor aggregation so the
    # assignment distinguishes nodes whose local structure matches but whose
    # neighborhoods differ.
    adj1 = g1.adjacency_lists()
    adj2 = g2.adjacency_lists()
    ref1 = [
        (sig1[v], tuple(sorted(sig1[w] for w, _ in adj1[v])))
        for v in range(n1)
    ]
    ref2 = [
        (sig2[v], tuple(sorted(sig2[w] for w, _ in adj2[v])))
        for v in range(n2)
    ]
    size = n1 + n2
    cost = np.zeros((size, size))
    big = 1e9
    for i in range(n1):
        for j in range(n2):
            c = _signature_cost(sig1[i], sig2[j])
            if ref1[i] != ref2[j]:
                c += 0.25
            cost[i, j] = c
    del_cost = [1.0 + sig1[i][0] for i in range(n1)]
    ins_cost = [1.0 + sig2[j][0] for j in range(n2)]
    cost[:n1, n2:] = big
    for i in range(n1):
        cost[i, n2 + i] = del_cost[i]
    cost[n1:, :n2] = big
    for j in range(n2):
        cost[n1 + j, j] = ins_cost[j]
    rows, cols = linear_sum_assignment(cost)
    mapping = {int(i): int(j) for i, j in zip(rows, cols) if i < n1 and j < n2}
    return mapping


def _combinatorially_identical(g1: Multigraph, g2: Multigraph) -> bool:
    if g1.n_vertices != g2.n_vertices:
        return False
    return _adjacency_multiset(g1) == _adjacency_multiset(g2)


def approx_ged(g1: Multigraph, g2: Multigraph) -> float:
    """Upper bound on the exact unit-cost graph edit distance.

    Node insert/delete and edge insert/delete cost 1, substitutions are
    free, and lengths are ignored. Nodes are matched by a bipartite
    assignment over local signatures and the induced edit script is costed
    exactly, so the result is always >= the exact GED. Identically labeled
    graphs short-circuit to 0 (the identity is a perfect correspondence),
    and the assignment is evaluated in both directions so symmetry is exact.
    """
    if _combinatorially_identical(g1, g2):
        return 0.0
    forward = edit_cost(g1, g2, _assignment_mapping(g1, g2))
    backward_map = _assignment_mapping(g2, g1)
    backward = edit_cost(g1, g2, {v: k for k, v in backward_map.items()})
    return min(forward, backward)


# -- persistence images ------------------------------------------------------


def _cell_mass(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact integral of weighted isotropic Gaussians over each grid cell.

    The mass a point deposits in a cell factorizes into one-dimensional
    Gaussian CDF differences along each axis.
    """
    image = np.zeros((PI_GRID, PI_GRID))
    if len(points) == 0:
        return image
    grid = np.linspace(0.0, 1.0, PI_GRID + 1)
    # cdf_x[k, i] = P(N(mu_k, sigma) <= grid_i)
    cdf_x = ndtr((grid[None, :] - points[:, 0][:, None]) / PI_SIGMA)
    cdf_y = ndtr((grid[None, :] - points[:, 1][:, None]) / PI_SIGMA)
    mass_x = np.diff(cdf_x, axis=1)
    mass_y = np.diff(cdf_y, axis=1)
    for k in range(len(points)):
        image += weights[k] * np.outer(mass_x[k], mass_y[k])
    return image


def persistence_image(diagram: PersistenceDiagram) -> PersistenceImage:
    """Vectorize a normalized diagram as a pair of 10x10 persistence images.

    H0 bars map to (birth, persistence) = (0, death), H1 essential bars to
    (birth, 1 - birth); each point deposits an isotropic Gaussian
    (sigma = 0.1) weighted by its persistence, integrated exactly over each
    cell of the 10x10 grid on [0, 1]^2 (per-axis Gaussian CDF differences,
    not the cell-center approximation). Images are flattened row-major
    (birth axis first) and concatenated H0 then H1.
    """
    if not diagram.normalized:
        raise ValueError("persistence images require a normalized diagram")
    if (diagram.h0_deaths.size and diagram.h0_deaths.max() > 1.0 + 1e-12) or (
        diagram.h1_births.size and diagram.h1_births.max() > 1.0 + 1e-12
    ):
        raise ValueError("diagram has bars outside [0, 1]^2")
    h0_points = np.column_stack([np.zeros(len(diagram.h0_deaths)), diagram.h0_deaths])
    h0_weights = diagram.h0_deaths
    h1_pers = 1.0 - diagram.h1_births
    h1_points = np.column_stack([diagram.h1_births, h1_pers])
    h1_weights = h1_pers
    img0 = _cell_mass(h0_points, h0_weights)
    img1 = _cell_mass(h1_points, h1_weights)
    return PersistenceImage(np.concatenate([img0.ravel(), img1.ravel()]))


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
    diagram_g: PersistenceDiagram

    def to_dict(self) -> dict:
        return {
            "wasserstein_similarity": self.wasserstein_similarity,
            "ged": self.ged,
            "wasserstein_distance": self.wasserstein_distance,
            "h0_distance": self.h0_distance,
            "h1_distance": self.h1_distance,
            "essential_distance": self.essential_distance,
        }


def compare(s: Multigraph, g: Multigraph) -> ComparisonResult:
    """Topology-aware comparison of a recovered graph against a reference.

    Both graphs are reduced; the Wasserstein similarity is computed on
    normalized edge-length diagrams and the GED on the reduced multigraphs.
    """
    s_red = graphmod.reduce(s)
    g_red = graphmod.reduce(g)
    ds = edge_length_diagram(s_red, normalize=True)
    dg = edge_length_diagram(g_red, normalize=True)
    parts = wasserstein_breakdown(ds, dg)
    return ComparisonResult(
        wasserstein_similarity=persistence_similarity(parts["total"]),
        ged=approx_ged(s_red, g_red),
        wasserstein_distance=parts["total"],
        h0_distance=parts["h0"],
        h1_distance=parts["h1"],
        essential_distance=parts["essential"],
        diagram_s=ds,
        diagram_g=dg,
    )
