"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in the captured output)."""

import itertools
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from screeb import (
    GeneratorConfig,
    PointCloud,
    ReebParams,
    approx_ged,
    betti,
    condense,
    edge_length_diagram,
    fiedler_filter,
    graph_to_json,
    screeb,
    screeb_tower,
    validate,
    wasserstein_distance,
)
from screeb import graph as graphmod
from screeb.errors import GenerationReject
from screeb.geometry import adaptive_affinity, affinity_components, knn_graph, transition_matrix
from screeb.harness import RunConfig, cmd_evaluate, cmd_generate, cmd_run, load_sample, read_manifest
from screeb.synthgen import sample_topology_meta

from conftest import add_noise, circle_cloud, segment_cloud, two_blob_cloud, ytree_cloud
from conftest import random_multigraph
from test_metrics import exact_ged, random_diagram, sweep_diagram_oracle, wasserstein_oracle

CI_SEED = 20260422
CI_SAMPLES = 200


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    return ok


@pytest.fixture(scope="module")
def ci_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("ci_bench")
    start = time.perf_counter()
    cmd_generate(None, CI_SAMPLES, CI_SEED, str(out))
    elapsed = time.perf_counter() - start
    print(f"[ci bench: {CI_SAMPLES} samples in {elapsed:.0f}s]")
    return out


@pytest.fixture(scope="module")
def ci_scores(ci_bench, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("ci_run")
    results_dir = tmp_path_factory.mktemp("ci_results")
    start = time.perf_counter()
    cmd_run(
        RunConfig(
            bench_dir=str(ci_bench),
            methods=("screeb", "screebtower", "mapper"),
            out_dir=str(run_dir),
        )
    )
    cmd_evaluate(str(ci_bench), str(run_dir), str(results_dir))
    elapsed = time.perf_counter() - start
    csv = (results_dir / "aggregate.csv").read_text().strip().splitlines()
    methods = csv[0].split(",")[1:]
    sims = dict(zip(methods, map(float, csv[1].split(",")[1:])))
    geds = dict(zip(methods, map(float, csv[2].split(",")[1:])))
    excluded = dict(zip(methods, map(float, csv[3].split(",")[1:])))
    return {"sim": sims, "ged": geds, "excluded": excluded, "runtime_s": elapsed}


def test_criterion_1_ranking_reproduction(ci_scores):
    sim, ged = ci_scores["sim"], ci_scores["ged"]
    checks = [
        sim["screebtower"] >= sim["screeb"],
        sim["screebtower"] >= 2.0 * sim["mapper"],
        ged["screebtower"] <= 1.05 * ged["screeb"],
        ged["screebtower"] <= 0.5 * ged["mapper"],
        all(v == 0 for v in ci_scores["excluded"].values()),
        ci_scores["runtime_s"] <= 15 * 60,
    ]
    detail = (
        f"sim tower/base/mapper = {sim['screebtower']:.4f}/{sim['screeb']:.4f}/{sim['mapper']:.4f}; "
        f"ged = {ged['screebtower']:.2f}/{ged['screeb']:.2f}/{ged['mapper']:.2f}; "
        f"runtime {ci_scores['runtime_s']:.0f}s"
    )
    assert report(1, all(checks), detail)


CANONICAL_TRUTH = {
    "segment": ((1, 0), (1, 1)),
    "circle": ((1, 1), (1, 1, 3, 3)),
    "ytree": ((1, 0), (1, 1, 1, 3)),
    "blobs": ((2, 0), (1, 1, 1, 1)),
}


def make_canonical(name, seed, noise):
    rng = np.random.default_rng(seed)
    cloud = {
        "segment": segment_cloud,
        "circle": circle_cloud,
        "ytree": ytree_cloud,
        "blobs": two_blob_cloud,
    }[name](rng)
    if noise > 0:
        cloud = add_noise(cloud, rng, noise)
    return cloud


def test_criterion_2_canonical_shape_recovery():
    noiseless_ok = 0
    noiseless_total = 0
    for name, (want_b, want_deg) in CANONICAL_TRUTH.items():
        for seed in range(20):
            g = screeb(make_canonical(name, 1000 + seed, 0.0), ReebParams(levels=0))
            noiseless_total += 1
            if tuple(betti(g)) == want_b and g.degree_sequence() == want_deg:
                noiseless_ok += 1
    noisy_counts = {}
    for name, (want_b, want_deg) in CANONICAL_TRUTH.items():
        ok = 0
        for seed in range(20):
            tower = screeb_tower(make_canonical(name, 2000 + seed, 0.05), ReebParams())
            g = tower.graph(len(tower) - 1)
            if tuple(betti(g)) == want_b and g.degree_sequence() == want_deg:
                ok += 1
        noisy_counts[name] = ok
    passed = noiseless_ok == noiseless_total and all(v >= 18 for v in noisy_counts.values())
    detail = f"noiseless {noiseless_ok}/{noiseless_total}; noisy (>=18/20 each) {noisy_counts}"
    assert report(2, passed, detail)


def test_criterion_3_persistence_oracle_equivalence():
    rng = np.random.default_rng(3)
    bad = 0
    for _ in range(500):
        g = random_multigraph(rng, max_vertices=30, max_edges=40)
        d = edge_length_diagram(g)
        deaths, b0, births = sweep_diagram_oracle(g)
        if not (
            np.array_equal(np.round(d.h0_deaths, 12), np.round(deaths, 12))
            and d.h0_essential == b0
            and np.array_equal(np.round(d.h1_births, 12), np.round(births, 12))
        ):
            bad += 1
    assert report(3, bad == 0, f"{500 - bad}/500 diagrams match the threshold-sweep oracle")


def test_criterion_4_wasserstein_correctness():
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(1000):
        d1 = random_diagram(rng, max_bars=5)
        d2 = random_diagram(rng, max_bars=5)
        if abs(wasserstein_distance(d1, d2) - wasserstein_oracle(d1, d2)) > 1e-10:
            mismatches += 1
    diagrams = [random_diagram(rng) for _ in range(40)]
    axiom_violations = 0
    for _ in range(1000):
        a, b, c = (diagrams[i] for i in rng.integers(0, 40, size=3))
        dab, dba = wasserstein_distance(a, b), wasserstein_distance(b, a)
        if abs(dab - dba) > 1e-12:
            axiom_violations += 1
        if dab + wasserstein_distance(b, c) < wasserstein_distance(a, c) - 1e-9:
            axiom_violations += 1
    ok = mismatches == 0 and axiom_violations == 0
    assert report(4, ok, f"oracle mismatches {mismatches}/1000; axiom violations {axiom_violations}/1000 triples")


def test_criterion_5_ged_soundness():
    rng = np.random.default_rng(5)
    graphs = []
    while len(graphs) < 22:
        g = graphmod.reduce(random_multigraph(rng, max_vertices=4, max_edges=5))
        if g.n_vertices <= 4 and g.edge_count() <= 5:
            graphs.append(g)
    unsound = 0
    for g1, g2 in itertools.product(graphs, repeat=2):
        if approx_ged(g1, g2) < exact_ged(g1, g2) - 1e-12:
            unsound += 1
    identity_bad = 0
    for g in graphs:
        from screeb.metrics import _node_signatures

        sigs = _node_signatures(g)
        if len(set(sigs)) == len(sigs) and approx_ged(g, g) != 0.0:
            identity_bad += 1
    ok = unsound == 0 and identity_bad == 0
    assert report(5, ok, f"{len(graphs)**2} pairs sound; identity failures {identity_bad}")


def test_criterion_6_reduction_soundness():
    rng = np.random.default_rng(6)
    failures = 0
    for _ in range(1000):
        g = random_multigraph(rng, max_vertices=40, max_edges=60)
        r = graphmod.reduce(g)
        ok = (
            betti(r) == betti(g)
            and abs(r.total_length() - g.total_length()) <= 1e-9
            and r.n_vertices <= g.n_vertices
            and r.edge_count() <= g.edge_count()
            and graph_to_json(graphmod.reduce(r)) == graph_to_json(r)
        )
        if not ok:
            failures += 1
    assert report(6, failures == 0, f"{1000 - failures}/1000 random multigraphs preserve invariants")


def test_criterion_7_spectral_correctness():
    rng = np.random.default_rng(7)
    worst = 1.0
    trials = 0
    while trials < 100:
        n = int(rng.integers(8, 101))
        pts = rng.normal(size=(n, 3))
        cloud = PointCloud(pts)
        k = min(int(rng.integers(4, 12)), n - 1)
        aff = adaptive_affinity(cloud, knn_graph(cloud, k), k)
        comps = affinity_components(aff)
        comp = max(comps, key=len)
        if len(comp) < 3:
            continue
        trials += 1
        f = fiedler_filter(aff, comp)
        sub = transition_matrix(aff).toarray()[np.ix_(comp, comp)]
        vals, vecs = np.linalg.eig(sub)
        oracle = np.real(vecs[:, np.argsort(-np.abs(vals))[1]])
        cos = abs(f @ oracle) / (np.linalg.norm(f) * np.linalg.norm(oracle))
        worst = min(worst, cos)
    assert report(7, worst > 1 - 1e-6, f"worst |cos theta| = {worst:.12f} over 100 graphs")


def test_criterion_8_condensation_contraction():
    failures = 0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.normal(size=(100, 3)))
        d0 = pdist(cloud.points).max()
        x = cloud
        for _ in range(20):
            x = condense(x, min(80, x.n - 1), 1)
        ratio = pdist(x.points).max() / d0
        worst = max(worst, ratio)
        if ratio >= 0.1:
            failures += 1
    assert report(8, failures == 0, f"worst diameter ratio {worst:.5f} over 20 seeds (gate 0.1)")


def test_criterion_9_generator_contract(ci_bench, tmp_path):
    cfg = GeneratorConfig()
    rng = np.random.default_rng(1)
    counts = {c: 0 for c in cfg.class_probs}
    total = 0
    draws = 0
    while draws < 10000:
        try:
            _, classes = sample_topology_meta(cfg, rng)
        except GenerationReject:
            continue
        draws += 1
        for c in classes:
            counts[c] += 1
            total += 1
    freq_ok = all(abs(counts[c] / total - p) <= 0.02 for c, p in cfg.class_probs.items())

    revalidated = 0
    ids = read_manifest(str(ci_bench))["sample_ids"]
    for sid in ids:
        sample = load_sample(Path(ci_bench) / sid)
        if validate(sample, cfg).ok:
            revalidated += 1
    reval_ok = revalidated == len(ids)

    a, b = tmp_path / "a", tmp_path / "b"
    cmd_generate(None, 10, 99, str(a), workers=1)
    cmd_generate(None, 10, 99, str(b), workers=2)

    def tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()
        }

    repro_ok = tree(a) == tree(b)
    freqs = {c: round(counts[c] / total, 4) for c in sorted(counts)}
    ok = freq_ok and reval_ok and repro_ok
    assert report(
        9,
        ok,
        f"freqs {freqs} within 0.02; revalidated {revalidated}/{len(ids)}; "
        f"byte-reproducible across worker counts: {repro_ok}",
    )


def test_criterion_10_oracle_self_test(ci_bench, tmp_path):
    ids = read_manifest(str(ci_bench))["sample_ids"]
    ext = tmp_path / "oracle"
    for sid in ids:
        (ext / sid).mkdir(parents=True)
        shutil.copy(Path(ci_bench) / sid / "graph.json", ext / sid / "graph.json")
    run_dir = tmp_path / "run"
    results = tmp_path / "results"
    cmd_run(RunConfig(bench_dir=str(ci_bench), methods=(f"external:{ext}",), out_dir=str(run_dir)))
    cmd_evaluate(str(ci_bench), str(run_dir), str(results))
    bad = 0
    mdir = results / f"external_{ext.name}"
    for sid in ids:
        doc = json.loads((mdir / sid / "results.json").read_text())
        if doc["wasserstein_similarity"] != 1.0 or doc["ged"] != 0.0:
            bad += 1
    assert report(10, bad == 0, f"{len(ids) - bad}/{len(ids)} samples score similarity 1.0 and GED 0.0")
