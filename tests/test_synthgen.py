"""Synthetic benchmark generator: topology sampling, embedding, tube
sampling, validation, and reproducibility."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screeb import (
    Edge,
    GeneratorConfig,
    Multigraph,
    betti,
    connected_components,
    embed_graph,
    generate_sample,
    sample_point_cloud,
    sample_topology_meta,
    validate,
)
from screeb import graph as graphmod
from screeb.errors import ConfigError, GenerationReject, InvalidDataError
from screeb.harness import cmd_generate
from screeb.synthgen import (
    DifficultyCoords,
    _biconnected_blocks,
    _chain_decomposition,
    _clearance_pairs,
    _cycle_loops,
    _hole_scales,
    _min_clearance,
    _pair_clearance,
    _place_arc,
    _segment_distances,
    _simple_adjacency,
    _strip_leaves,
    _unit,
    draw_difficulty,
    sample_subseed,
    splitmix64,
)


def component_subgraph(g, comp):
    comp_set = set(comp)
    relabel = {v: i for i, v in enumerate(comp)}
    edges = tuple(
        Edge(relabel[e.u], relabel[e.v], e.length, e.multiplicity)
        for e in g.edges
        if e.u in comp_set
    )
    return Multigraph(len(comp), edges)


def parent_feature_distances(points, g, kinds, pids):
    """Distance from each point to its parent edge segment or vertex."""
    pos = np.asarray(g.positions)
    ends = np.array([(e.u, e.v) for e in g.edges]).reshape(-1, 2)
    feat = np.array([ends[p] if k == "e" else (p, p) for k, p in zip(kinds, pids)]).reshape(-1, 2)
    return _segment_distances(points, points, pos[feat[:, 0]], pos[feat[:, 1]])


CLASS_CONTRACT = {
    "singleton": lambda b: b.b1 == 0,
    "single_edge": lambda b: b.b1 == 0,
    "tree": lambda b: b.b1 == 0,
    "single_cycle": lambda b: b.b1 == 1,
    "multi_cycle": lambda b: b.b1 >= 2,
    "hybrid": lambda b: b.b1 >= 1,
}


# -- config -------------------------------------------------------------------


def test_config_validates_probabilities():
    with pytest.raises(ConfigError):
        GeneratorConfig(class_probs={"singleton": 0.5, "single_edge": 0.6, "tree": 0.0,
                                     "single_cycle": 0.0, "multi_cycle": 0.0, "hybrid": 0.0})
    with pytest.raises(ConfigError):
        GeneratorConfig(dim_probs={2: 0.5, 3: 0.4})
    with pytest.raises(ConfigError):
        GeneratorConfig(noise_ratio_range=(0.5, 0.1))


def test_config_refuses_values_of_the_wrong_type():
    # Ranges are two numbers (two integers for an integer range), the two
    # probability tables map to numbers, integer fields hold integers.
    for doc in (
        {"noise_ratio_range": [0.1]},
        {"noise_ratio_range": [0.1, "0.2"]},
        {"cycle_length_range": [3.0, 8]},
        {"branch_count_range": 4},
        {"dim_probs": [[2, 1.0]]},
        {"dim_probs": {"2": None}},
        {"class_probs": "uniform"},
        {"degree_cap": "5"},
        {"max_nodes": True},
        {"feature_scale": None},
    ):
        with pytest.raises(ConfigError, match=next(iter(doc))):
            GeneratorConfig.from_dict(doc)
    cfg = GeneratorConfig.from_dict({"cycle_length_range": [4, 6], "feature_scale": 2, "dim_probs": {"3": 1}})
    assert cfg.cycle_length_range == (4, 6) and cfg.feature_scale == 2 and cfg.dim_probs == {3: 1.0}


def test_config_round_trip():
    cfg = GeneratorConfig()
    doc = cfg.to_dict()
    assert GeneratorConfig.from_dict(doc) == cfg
    with pytest.raises(ConfigError):
        GeneratorConfig.from_dict({"bogus_field": 1})


def test_config_to_dict_is_the_manifest_config(tmp_path):
    # A non-default config with integer dim_probs keys: to_dict gives what
    # the benchmark manifest holds, ranges as lists and keys as strings.
    cfg = GeneratorConfig(dim_probs={2: 0.25, 5: 0.75}, noise_ratio_range=(0.05, 0.1), max_nodes=40, feature_scale=2)
    doc = cfg.to_dict()
    assert doc["dim_probs"] == {"2": 0.25, "5": 0.75} and doc["noise_ratio_range"] == [0.05, 0.1]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert cmd_generate(str(config), 1, 5, str(tmp_path / "bench")) == 0
    assert json.loads((tmp_path / "bench" / "manifest.json").read_text())["config"] == doc
    assert GeneratorConfig.from_dict(doc) == cfg


def test_splitmix_subseeds_distinct():
    seeds = {sample_subseed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert splitmix64(0) != splitmix64(1)


# -- sample_topology_meta --------------------------------------------------------


def test_topology_singleton_and_cycle_shapes(rng):
    cfg = GeneratorConfig()
    seen = set()
    for _ in range(300):
        g, classes = sample_topology_meta(cfg, rng)
        comps = connected_components(g)
        assert len(comps) == len(classes)
        for comp, cls in zip(comps, classes):
            seen.add(cls)
            sub = component_subgraph(g, comp)
            b = betti(graphmod.reduce(sub))
            assert CLASS_CONTRACT[cls](b), (cls, b)
            if cls == "singleton":
                assert len(comp) == 1
            if cls == "single_cycle":
                assert all(d == 2 for d in sub.degrees())
    assert {"tree", "single_cycle", "multi_cycle", "hybrid"} <= seen


def test_topology_b1_span_and_class_presence(rng):
    # Over a couple hundred draws, reduced b1 spans 0 through >= 3 and every
    # class with probability >= 0.05 appears.
    cfg = GeneratorConfig()
    b1_seen = set()
    classes_seen = set()
    draws = 0
    while draws < 200:
        try:
            g, classes = sample_topology_meta(cfg, rng)
        except GenerationReject:
            continue
        draws += 1
        b1_seen.add(betti(graphmod.reduce(g)).b1)
        classes_seen.update(classes)
    assert {0, 1, 2}.issubset(b1_seen) and max(b1_seen) >= 3
    expected = {c for c, p in cfg.class_probs.items() if p >= 0.05}
    assert expected <= classes_seen


def test_topology_respects_caps(rng):
    cfg = GeneratorConfig()
    for _ in range(200):
        g = sample_topology_meta(cfg, rng)[0]
        assert g.n_vertices <= cfg.max_nodes
        assert g.edge_count() <= cfg.max_edges
        assert all(d <= cfg.degree_cap for d in g.degrees())


def test_topology_class_frequencies(rng):
    # Module-level smoke check; the full 10k-draw gate lives in acceptance.
    cfg = GeneratorConfig()
    counts = {c: 0 for c in cfg.class_probs}
    total = 0
    draws = 0
    while draws < 2000:
        try:
            _, classes = sample_topology_meta(cfg, rng)
        except GenerationReject:
            continue
        draws += 1
        for c in classes:
            counts[c] += 1
            total += 1
    for cls, p in cfg.class_probs.items():
        assert abs(counts[cls] / total - p) < 0.03


# -- embed_graph -----------------------------------------------------------------


def test_embed_square_zero_jitter(rng):
    cfg = GeneratorConfig(edge_jitter_range=(0.0, 0.0))
    c4 = Multigraph(4, tuple(Edge(i, (i + 1) % 4, 1.0) for i in range(4)))
    pos = embed_graph(c4, 2, cfg, rng)
    lengths = sorted(
        float(np.linalg.norm(pos[e.u] - pos[e.v])) for e in c4.edges
    )
    assert np.allclose(lengths, 1.0, atol=1e-9)


def test_embed_rejects_self_loops(rng):
    cfg = GeneratorConfig()
    g = Multigraph(1, (Edge(0, 0, 1.0),))
    with pytest.raises(InvalidDataError):
        embed_graph(g, 2, cfg, rng)


def test_embed_component_gap(rng):
    cfg = GeneratorConfig(gap_ratio_range=(6.0, 6.0), edge_jitter_range=(0.0, 0.0))
    g = Multigraph(4, (Edge(0, 1, 1.0), Edge(2, 3, 1.0)))
    pos = embed_graph(g, 2, cfg, rng)
    max_len = max(np.linalg.norm(pos[e.u] - pos[e.v]) for e in g.edges)
    gap = _segment_distances(pos[[0]], pos[[1]], pos[[2]], pos[[3]])[0]
    assert gap >= 6.0 * max_len * (1 - 1e-9)
    assert gap <= 6.0 * max_len * (1 + 0.02)


def test_embed_clearance(rng):
    cfg = GeneratorConfig()
    embedded_count = 0
    for seed in range(14):
        local = np.random.default_rng(seed)
        g = sample_topology_meta(cfg, local)[0]
        dim = 2 if seed % 2 == 0 else 3
        try:
            pos = embed_graph(g, dim, cfg, local)
        except GenerationReject:
            continue  # a reject is a legitimate outcome; the caller redraws
        embedded_count += 1
        assert pos.shape == (g.n_vertices, dim)
        assert _min_clearance(pos, g) >= cfg.eps_sep * cfg.feature_scale - 1e-12
    assert embedded_count >= 8


def test_embed_dimension_validation(rng):
    cfg = GeneratorConfig()
    g = Multigraph(2, (Edge(0, 1, 1.0),))
    with pytest.raises(ValueError):
        embed_graph(g, 7, cfg, rng)


# -- sample_point_cloud ------------------------------------------------------------


def embedded(g, cfg, rng, dim=2):
    pos = embed_graph(g, dim, cfg, rng)
    return Multigraph(
        g.n_vertices,
        tuple(Edge(e.u, e.v, float(np.linalg.norm(pos[e.u] - pos[e.v])), e.multiplicity) for e in g.edges),
        pos,
    )


def test_sample_point_cloud_rejects_empty_graph(rng):
    g = Multigraph(0, (), np.zeros((0, 2)))
    for separation in (0.0, 0.3):
        with pytest.raises(InvalidDataError):
            sample_point_cloud(g, GeneratorConfig(), rng, DifficultyCoords(0.05, separation, 10.0, 0.5))


def test_tube_degenerate_segment(rng):
    # Unit edge, density 10, and an effectively zero tube: points span the
    # segment including both endpoints.
    cfg = GeneratorConfig(edge_jitter_range=(0.0, 0.0), min_tube_radius_ratio=1e-9)
    g = embedded(Multigraph(2, (Edge(0, 1, 1.0),)), cfg, rng)
    coords = DifficultyCoords(noise_ratio=0.02, separation=0.0, density=10.0, thickness=1e-6)
    cloud, geom = sample_point_cloud(g, cfg, rng, coords)
    assert cloud.n >= 10
    a, b = np.asarray(geom.graph.positions)
    d = np.linalg.norm(b - a)
    endpoints_hit = 0
    for v in (a, b):
        if np.min(np.linalg.norm(cloud.points - v, axis=1)) < 6 * geom.noise_scale + 1e-9:
            endpoints_hit += 1
    assert endpoints_hit == 2
    along = (cloud.points - a) @ (b - a) / d**2
    assert along.min() > -0.2 and along.max() < 1.2


def test_tube_support_hexagon(rng):
    # Solid-tube support: every pre-noise sample lies within the radius of
    # its parent feature; with the noise floor, within radius + 6 sigma.
    cfg = GeneratorConfig()
    g = embedded(Multigraph(6, tuple(Edge(i, (i + 1) % 6, 1.0) for i in range(6))), cfg, rng)
    coords = DifficultyCoords(noise_ratio=0.02, separation=0.0, density=12.0, thickness=1.0)
    cloud, geom = sample_point_cloud(g, cfg, rng, coords)
    d = parent_feature_distances(cloud.points, geom.graph, geom.parent_kinds, geom.parent_ids)
    assert np.all(d <= geom.tube_radius + 6 * geom.noise_scale + 1e-9)


def test_noise_capped_by_clearance(rng):
    cfg = GeneratorConfig()
    checked = 0
    for seed in range(15):
        local = np.random.default_rng(seed + 100)
        try:
            g = embedded(sample_topology_meta(cfg, local)[0], cfg, local)
            _, geom = sample_point_cloud(g, cfg, local, draw_difficulty(cfg, local))
        except GenerationReject:
            continue
        checked += 1
        assert geom.noise_scale <= geom.clearance / cfg.safety_multiplier + 1e-12
        assert geom.tube_radius >= cfg.min_tube_radius_ratio * min(e.length for e in g.edges) * 0.5
    assert checked >= 8


def test_min_points_per_component(rng):
    cfg = GeneratorConfig()
    for seed in range(10):
        local = np.random.default_rng(seed + 400)
        sample = generate_sample(cfg, 900 + seed, 0)
        comps = np.asarray(sample.metadata["point_components"])
        for ci in range(comps.max() + 1):
            assert (comps == ci).sum() >= cfg.min_points_per_component


# -- validate --------------------------------------------------------------------


def test_validate_accepts_generated(rng):
    cfg = GeneratorConfig()
    for i in range(30):
        sample = generate_sample(cfg, 123, i)
        verdict = validate(sample, cfg)
        assert verdict.ok, verdict.reason


def test_validate_rejects_overlapping_tubes(rng):
    cfg = GeneratorConfig()
    sample = generate_sample(cfg, 321, 0)
    meta = dict(sample.metadata)
    realized = dict(meta["realized"])
    realized["tube_radius"] = 1e9  # force the overlap check to fail
    meta["realized"] = realized
    from screeb.synthgen import SyntheticSample

    doctored = SyntheticSample(sample.cloud, sample.graph, sample.reduced_graph, meta)
    verdict = validate(doctored, cfg)
    assert not verdict.ok and verdict.reason == "tube-overlap"


# -- generate_sample -------------------------------------------------------------


def test_generate_deterministic():
    cfg = GeneratorConfig()
    a = generate_sample(cfg, 7, 3)
    b = generate_sample(cfg, 7, 3)
    assert np.array_equal(a.cloud.points, b.cloud.points)
    assert a.metadata == b.metadata
    assert graphmod.graph_to_json(a.graph) == graphmod.graph_to_json(b.graph)


def test_generate_metadata_coordinates_in_range():
    cfg = GeneratorConfig()
    for i in range(20):
        s = generate_sample(cfg, 55, i)
        req = s.metadata["requested"]
        assert cfg.noise_ratio_range[0] <= req["noise_ratio"] <= cfg.noise_ratio_range[1]
        assert cfg.separation_range[0] <= req["separation"] <= cfg.separation_range[1]
        assert cfg.density_range[0] <= req["density"] <= cfg.density_range[1]
        assert cfg.thickness_range[0] <= req["thickness"] <= cfg.thickness_range[1]
        assert s.metadata["embedding_dim"] in (2, 3, 4, 5)
        assert betti(s.reduced_graph) == betti(s.graph)


def test_difficulty_draw_in_ranges(rng):
    cfg = GeneratorConfig()
    for _ in range(100):
        c = draw_difficulty(cfg, rng)
        assert cfg.density_range[0] <= c.density <= cfg.density_range[1]


def test_points_near_graph(rng):
    # Every point lies within tube radius + 6 sigma of its parent feature.
    cfg = GeneratorConfig()
    for i in range(10):
        s = generate_sample(cfg, 77, i)
        r = s.metadata["realized"]["tube_radius"]
        sig = s.metadata["realized"]["noise_scale"]
        d = parent_feature_distances(s.cloud.points, s.graph, s.metadata["parent_kinds"], s.metadata["parent_ids"])
        assert np.all(d <= r + 6 * sig + 1e-9)


# -- segment distances: batched kernel against the scalar formula ------------


def scalar_segment_distance(p1, p2, q1, q2):
    """The scalar clamped closed form, one pair at a time: the oracle the
    batched kernel must match bit for bit."""
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a <= 1e-30 and e <= 1e-30:
        return float(np.linalg.norm(r))
    if a <= 1e-30:
        t = min(1.0, max(0.0, f / e))
        return float(np.linalg.norm(p1 - (q1 + t * d2)))
    c = float(d1 @ r)
    if e <= 1e-30:
        s = min(1.0, max(0.0, -c / a))
        return float(np.linalg.norm(p1 + s * d1 - q1))
    b = float(d1 @ d2)
    denom = a * e - b * b
    s = min(1.0, max(0.0, (b * f - c * e) / denom)) if denom > 1e-30 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(1.0, max(0.0, -c / a))
    elif t > 1.0:
        t = 1.0
        s = min(1.0, max(0.0, (b - c) / a))
    return float(np.linalg.norm((p1 + s * d1) - (q1 + t * d2)))


PAIR_KINDS = ("general", "point-point", "point-segment", "segment-point", "parallel", "collinear", "shared", "tiny")


@st.composite
def segment_pairs(draw):
    """(m, d) endpoint arrays in d = 2..5 mixing generic pairs with the
    degenerate ones each branch of the formula handles. A coordinate scale
    of 1e-15 puts squared lengths at the 1e-30 point guards."""
    dim = draw(st.integers(2, 5))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(PAIR_KINDS))
        scale = draw(st.sampled_from([1e-16, 1e-15, 3e-15, 1.0, 1e3]))
        p1, p2, q1, q2 = (scale * np.array(draw(st.lists(unit, min_size=dim, max_size=dim))) for _ in range(4))
        if kind in ("point-point", "point-segment"):
            p2 = p1.copy()
        if kind in ("point-point", "segment-point"):
            q2 = q1.copy()
        if kind == "parallel":
            q2 = q1 + draw(st.floats(-3.0, 3.0)) * (p2 - p1)
        if kind == "collinear":
            q1, q2 = (p1 + draw(st.floats(-2.0, 3.0)) * (p2 - p1) for _ in range(2))
        if kind == "shared":
            q1 = draw(st.sampled_from([p1, p2])).copy()
        if kind == "tiny":
            p2 = p1 + draw(st.floats(1e-16, 1e-14)) * np.ones(dim) / math.sqrt(dim)
        rows.append((p1, p2, q1, q2))
    return tuple(np.array(col) for col in zip(*rows))


@given(segment_pairs())
@settings(max_examples=300, deadline=None)
def test_segment_distances_match_scalar_oracle(pairs):
    got = _segment_distances(*pairs)
    want = [scalar_segment_distance(*row) for row in zip(*pairs)]
    assert got.tolist() == want


def test_segment_distances_known_values():
    o, x, y = np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    cases = [
        ((o, x, y, x + y), 1.0),  # parallel, offset by 1
        ((o, x, 0.5 * x, 2 * x), 0.0),  # collinear, overlapping
        ((o, x, x, x + y), 0.0),  # shared endpoint
        ((o, o, y, y), 1.0),  # point-point
        ((y, y, -x, x), 1.0),  # point-segment
        ((-x, x, 2 * y, 2 * y), 2.0),  # segment-point
    ]
    got = _segment_distances(*(np.array(col) for col in zip(*(c for c, _ in cases))))
    assert got.tolist() == [want for _, want in cases]


@pytest.fixture(scope="module")
def ci_samples():
    """The 40 samples of the shipped preset at the CI seed."""
    cfg = GeneratorConfig()
    return cfg, [generate_sample(cfg, 20260422, i) for i in range(40)]


def loop_min_clearance(positions, g):
    isolated = [int(v) for v in np.flatnonzero(g.degrees() == 0)]
    feats = [(e.u, e.v) for e in g.edges] + [(v, v) for v in isolated]
    best = math.inf
    for i in range(len(feats)):
        a1, a2 = feats[i]
        for j in range(i + 1, len(feats)):
            b1, b2 = feats[j]
            if not {a1, a2} & {b1, b2}:
                best = min(best, scalar_segment_distance(positions[a1], positions[a2], positions[b1], positions[b2]))
    return best


def loop_hole_scales(positions, loops):
    out = []
    for loop in loops:
        pts = positions[loop]
        centroid = pts.mean(axis=0)
        out.append(min(scalar_segment_distance(centroid, centroid, pts[i], pts[(i + 1) % len(loop)]) for i in range(len(loop))))
    return out


def loop_own_and_foreign(sample):
    """Per point, by a loop over points and edges: the distance to its own
    parent feature and to the nearest edge sharing no vertex with it."""
    g = sample.graph
    positions = np.asarray(g.positions)
    points = sample.cloud.points
    kinds, pids = sample.metadata["parent_kinds"], sample.metadata["parent_ids"]
    edges = list(g.edges)
    if not edges:
        return []
    dist = np.array([[scalar_segment_distance(p, p, positions[e.u], positions[e.v]) for e in edges] for p in points])
    out = []
    for i in range(len(points)):
        if kinds[i] == "e":
            mine = {edges[pids[i]].u, edges[pids[i]].v}
            own = dist[i, pids[i]]
        else:
            mine = {pids[i]}
            own = float(np.linalg.norm(points[i] - positions[pids[i]]))
        foreign = [dist[i, j] for j, e in enumerate(edges) if not {e.u, e.v} & mine]
        if foreign:
            out.append((own, min(foreign)))
    return out


def test_clearance_and_hole_scales_match_loop_reference(ci_samples):
    _, samples = ci_samples
    loops_seen = 0
    for s in samples:
        positions = np.asarray(s.graph.positions)
        assert _min_clearance(positions, s.graph) == loop_min_clearance(positions, s.graph)
        loops = _cycle_loops(s.graph)
        loops_seen += len(loops)
        assert _hole_scales(positions, loops) == loop_hole_scales(positions, loops)
    assert loops_seen > 0


@st.composite
def small_embedded_graphs(draw):
    """(positions, graph, loops): up to 9 vertices in d = 2..5 on a coarse
    grid, so vertices coincide and segments touch, with random simple edges
    plus forced triangles, isolated vertices left as they fall, and both
    the graph's cycle loops and arbitrary vertex loops."""
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(1, 9))
    coord = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5])
    positions = np.array([[draw(coord) for _ in range(dim)] for _ in range(n)])
    for v in range(n):
        if v and draw(st.integers(0, 4)) == 0:
            positions[v] = positions[draw(st.integers(0, v - 1))]  # coincident vertices
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    for _ in range(draw(st.integers(0, n // 3))):
        a, b, c = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        pairs += [(a, b), (b, c), (c, a)]
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    g = Multigraph(n, tuple(Edge(u, v, 1.0) for u, v in sorted(edges)), positions)
    loops = _cycle_loops(g)
    for _ in range(draw(st.integers(0, 3))):
        loops.append(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)))
    return positions, g, loops


@given(small_embedded_graphs(), st.floats(0.1, 1.0))
@settings(max_examples=300, deadline=None)
def test_clearance_and_hole_scales_match_loop_reference_on_drawn_graphs(drawn, factor):
    # One set of clearance pairs serves every position of the same graph,
    # as in the crowding search.
    positions, g, loops = drawn
    pairs = _clearance_pairs(g)
    for pos in (positions, positions * factor):
        assert _pair_clearance(pos, pairs) == loop_min_clearance(pos, g)
        assert _min_clearance(pos, g) == loop_min_clearance(pos, g)
        assert _hole_scales(pos, loops) == loop_hole_scales(pos, loops)


@given(small_embedded_graphs())
@settings(max_examples=300, deadline=None)
def test_chain_decomposition_of_a_block_is_one_cycle_then_open_ears(drawn):
    # The layout and ``_cycle_loops`` place only the first chain as a cycle.
    _, g, _ = drawn
    adj = _simple_adjacency(g, list(range(g.n_vertices)))
    for block in _biconnected_blocks(_strip_leaves(adj)[1]):
        if len(block) < 2:
            continue
        for anchor in sorted({u for u, _, _ in block} | {v for _, v, _ in block}):
            chains = _chain_decomposition(block, anchor)
            assert chains[0][0] == chains[0][-1] == anchor
            held = set(chains[0])
            for chain in chains[1:]:
                assert chain[0] != chain[-1]
                assert chain[0] in held and chain[-1] in held
                assert not held & set(chain[1:-1])
                held.update(chain)
            assert sum(len(chain) - 1 for chain in chains) == len(block)


def simple_cycles(edges):
    """Every simple cycle of the graph ``{edge id: (u, v)}`` as a frozenset of
    edge ids, found by walking every simple path from one end of each edge
    back to its other end."""
    adj = {}
    for e, (u, v) in edges.items():
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    cycles = set()
    for e, (a, b) in edges.items():
        if a == b:
            cycles.add(frozenset([e]))
            continue
        paths = [(b, {b}, [e])]
        while paths:
            x, visited, used = paths.pop()
            for y, f in adj[x]:
                if y == a and f not in used:
                    cycles.add(frozenset(used + [f]))
                elif y not in visited and y != a:
                    paths.append((y, visited | {y}, used + [f]))
    return cycles


def test_biconnected_blocks_join_edges_exactly_when_they_share_a_simple_cycle():
    cfg = GeneratorConfig()
    checked = 0
    for seed in range(60):
        try:
            g = sample_topology_meta(cfg, np.random.default_rng(seed))[0]
        except GenerationReject:
            continue
        for comp in connected_components(g):
            twigs, core = _strip_leaves(_simple_adjacency(g, comp))
            core_edges = {e: (int(g.u[e]), int(g.v[e])) for nbrs in core.values() for _, e in nbrs}
            if len(core_edges) > 40:
                continue  # the path search grows fast with the loops
            assert set(core_edges).isdisjoint(e for _, _, e in twigs)
            blocks = _biconnected_blocks(core)
            block_of = {}
            for i, block in enumerate(blocks):
                assert [e for _, _, e in block] == sorted(e for _, _, e in block)
                for u, v, e in block:
                    assert {u, v} == set(core_edges[e]) and e not in block_of
                    block_of[e] = i
            assert block_of.keys() == core_edges.keys()
            cycles = simple_cycles(core_edges)
            for e, f in itertools.combinations(sorted(core_edges), 2):
                shared = any(e in c and f in c for c in cycles)
                assert (block_of[e] == block_of[f]) == shared, (seed, e, f)
            checked += bool(cycles)
    assert checked >= 30


def listwise_place_arc(a, z, n_interior, side_dir, jitter, rng):
    """The arc placement as one list of points per bisection step: the oracle
    ``_place_arc`` must match bit for bit, with the same draws."""
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


@st.composite
def arc_inputs(draw):
    coord = st.floats(-4.0, 4.0, allow_nan=False)
    a = np.array([draw(coord), draw(coord)])
    kind = draw(st.sampled_from(["general", "short", "zero"]))
    if kind == "general":
        z = np.array([draw(coord), draw(coord)])
    else:  # a chord of length about 0, on either side of the 1e-12 guard
        scale = 0.0 if kind == "zero" else draw(st.sampled_from([1e-14, 1e-12, 2e-12]))
        z = a + scale * np.array([draw(coord), draw(coord)])
    side = np.array([draw(coord), draw(coord)]) if draw(st.booleans()) else np.zeros(2)
    return a, z, draw(st.integers(0, 7)), side, draw(st.sampled_from([0.0, 0.05, 0.12])), draw(st.integers(0, 2**32))


@given(arc_inputs())
@settings(max_examples=300, deadline=None)
def test_place_arc_matches_listwise_oracle(args):
    a, z, n_interior, side, jitter, seed = args
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _place_arc(a, z, n_interior, side, jitter, rng_got)
    want = listwise_place_arc(a, z, n_interior, side, jitter, rng_want)
    assert len(got) == len(want) == n_interior
    assert all(p.tobytes() == q.tobytes() for p, q in zip(got, want))
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_validate_noise_confusion_matches_loop_reference(ci_samples):
    # Check (d) rejects when some point is nearer a foreign edge than its own
    # feature by more than gamma. Gammas at each sample's margin and one ulp
    # either side of it make the outcome flip.
    cfg, samples = ci_samples
    rejected = 0
    for s in samples:
        pairs = loop_own_and_foreign(s)
        if not pairs:
            continue
        margin = max(own - foreign for own, foreign in pairs)
        for gamma in (cfg.min_separation_gamma, margin, np.nextafter(margin, -math.inf), np.nextafter(margin, math.inf)):
            want = any(foreign < own - gamma for own, foreign in pairs)
            got = validate(s, dataclasses.replace(cfg, min_separation_gamma=float(gamma)))
            assert got.reason == ("noise-confusion" if want else None), (s.metadata.get("sample_id"), gamma)
            rejected += want
    assert rejected >= 10  # 13 of the 40 samples have a foreign edge to reject on
