"""Golden digests of the CI benchmark: the ``N_SAMPLES`` samples of the
shipped preset, generated, run through every method and evaluated by the
harness, must keep their bytes, down to ``aggregate.csv``.

``tests/golden/ci_digests.json`` holds two tiers per file, and
``tests/golden/circle_digest.json`` the same two tiers for ``screeb`` on one
pinned noisy circle whose level sets hold about 290k (slice, edge)
crossings, so ``reeb_graph`` works through several slice blocks (no CI
sample reaches a second one). The portable tier
(Betti numbers, vertex and edge counts, and sorted edge lengths to a
relative and absolute 1e-9, of every graph) is compared everywhere, so a
solver change that moves a graph under another LAPACK build still shows.
The sha256 digests of each ``points.csv`` and ``graph.json`` are
compared only under the numpy and scipy versions they were recorded with,
because eigenvector bits can differ between LAPACK builds.

Re-record (only for a change that is meant to move outputs, stating which
digests changed and why): ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from screeb import PointCloud, betti, graph_to_json, load_graph, screeb
from screeb.harness import RunConfig, cmd_evaluate, cmd_generate, cmd_run

GOLDEN = Path(__file__).resolve().parent / "golden" / "ci_digests.json"
CIRCLE_GOLDEN = GOLDEN.parent / "circle_digest.json"
CI_SEED = 20260422
CIRCLE_N = 2000
N_SAMPLES = 40
N_BATCH = 10
METHODS = ("screeb", "screebtower", "mapper")


def _graph_entry(path: Path) -> dict:
    g = load_graph(path)
    b = betti(g)
    return {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "betti": [b.b0, b.b1],
        "vertices": g.n_vertices,
        "edges": g.edge_count(),
        "edge_lengths": _edge_lengths(g),
    }


def _edge_lengths(g) -> list[float]:
    """Every edge's length, once per unit of multiplicity, ascending."""
    return sorted(e.length for e in g.edges for _ in range(e.multiplicity))


def _assert_edge_lengths(got: list[float], want: list[float], name) -> None:
    assert len(got) == len(want), name
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9, err_msg=str(name))


def ci_digests(root: Path) -> dict:
    """Generate, run and evaluate the CI samples under ``root``; digest every
    output."""
    bench, batch, run, results = root / "bench", root / "batch", root / "run", root / "results"
    assert cmd_generate(None, N_SAMPLES, CI_SEED, str(bench), workers=1) == 0
    assert cmd_generate(None, N_BATCH, CI_SEED, str(batch), workers=1) == 0
    assert cmd_run(RunConfig(bench_dir=str(bench), methods=METHODS, out_dir=str(run), workers=1)) == 0
    assert cmd_evaluate(str(bench), str(run), str(results)) == 0
    files = {"aggregate.csv": {"sha256": hashlib.sha256((results / "aggregate.csv").read_bytes()).hexdigest()}}
    for sid in sorted(p.name for p in bench.iterdir() if p.is_dir()):
        points = bench / sid / "points.csv"
        files[f"bench/{sid}/points.csv"] = {"sha256": hashlib.sha256(points.read_bytes()).hexdigest()}
        files[f"bench/{sid}/graph.json"] = _graph_entry(bench / sid / "graph.json")
        for method in METHODS:
            files[f"{method}/{sid}/graph.json"] = _graph_entry(run / method / sid / "graph.json")
    for sid in sorted(p.name for p in batch.iterdir() if p.is_dir()):
        for name in ("points.csv", "graph.json"):
            # A sample is a function of (seed, index) alone, not of the batch size.
            assert (batch / sid / name).read_bytes() == (bench / sid / name).read_bytes(), (sid, name)
    return {
        "seed": CI_SEED,
        "n_samples": N_SAMPLES,
        "methods": list(METHODS),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": files,
    }


def circle_digest() -> dict:
    """``screeb`` on a noisy unit circle of ``CIRCLE_N`` points drawn from
    ``CI_SEED`` (the ``ladder`` benchmark circle, unrotated)."""
    rng = np.random.default_rng((CI_SEED, CIRCLE_N))
    theta = rng.uniform(0.0, 2.0 * np.pi, CIRCLE_N)
    points = np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0.0, 0.05, (CIRCLE_N, 2))
    g = screeb(PointCloud(points))
    b = betti(g)
    return {
        "n": CIRCLE_N,
        "seed": CI_SEED,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sha256": hashlib.sha256(graph_to_json(g).encode()).hexdigest(),
        "betti": [b.b0, b.b1],
        "vertices": g.n_vertices,
        "edges": g.edge_count(),
        "edge_lengths": _edge_lengths(g),
    }


def test_ci_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = ci_digests(tmp_path)
    assert sorted(got["files"]) == sorted(golden["files"])
    for name, want in golden["files"].items():
        for key in ("betti", "vertices", "edges"):
            assert got["files"][name].get(key) == want.get(key), (name, key)
        if "edge_lengths" in want:
            _assert_edge_lengths(got["files"][name]["edge_lengths"], want["edge_lengths"], name)
    if (got["numpy"], got["scipy"]) == (golden["numpy"], golden["scipy"]):
        changed = [n for n, want in golden["files"].items() if got["files"][n]["sha256"] != want["sha256"]]
        assert not changed, f"digests changed: {changed}"


def test_multi_block_circle_golden_digest():
    golden = json.loads(CIRCLE_GOLDEN.read_text())
    got = circle_digest()
    for key in ("betti", "vertices", "edges"):
        assert got[key] == golden[key], key
    _assert_edge_lengths(got["edge_lengths"], golden["edge_lengths"], "circle")
    if (got["numpy"], got["scipy"]) == (golden["numpy"], golden["scipy"]):
        assert got["sha256"] == golden["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = ci_digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(doc['files'])} files)", file=sys.stderr)
    CIRCLE_GOLDEN.write_text(json.dumps(circle_digest(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CIRCLE_GOLDEN}", file=sys.stderr)
