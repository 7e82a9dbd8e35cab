"""Golden digests of the CI benchmark: the ``N_SAMPLES`` samples of the
shipped preset, generated, run through every method, evaluated and
reported by the harness, must keep their bytes, down to ``aggregate.csv``
and ``bench report``'s stdout.

``tests/golden/ci_digests.json`` holds two tiers per file, and
``tests/golden/circle_digest.json`` the same two tiers for ``screeb`` on one
pinned noisy circle whose level sets hold about 290k (slice, edge)
crossings, so ``reeb_graph`` works through several slice blocks (no CI
sample reaches a second one). ``tests/golden/mapper_circle_digests.json``
pins ``mapper_graph`` on that circle and on the ``LADDER_N``-point circle
drawn the same way, whose cover cells hold hundreds of points each.
``tests/golden/union_digests.json`` pins ``screeb``, ``mapper_graph`` and
every ``screeb_tower`` level on the first ``UNION_SAMPLES``
CI samples side by side in ``UNION_DIM`` dimensions, rotated and shuffled,
so one call recovers many separated components.
``tests/golden/generator_digests.json`` pins what ``bench generate``
writes for the first ``GENERATOR_SAMPLES`` samples of the default config
at ``GENERATOR_SEED``: 105, 62, 23 and 10 of them in dimensions 2 to 5, and
41 with more than one component, well beyond the CI samples. The portable tier
(Betti numbers, vertex and edge counts, and sorted edge lengths to a
relative and absolute 1e-9, of every graph) is compared everywhere, so a
solver change that moves a graph under another LAPACK build still shows.
The sha256 digests of each ``points.csv``, ``meta.json`` (whose
``realized`` block holds the generator's clearance, tube radius and
shrink) and ``graph.json`` are compared only under the numpy and scipy versions they were recorded with,
because eigenvector bits can differ between LAPACK builds.
``tests/golden/harness_digests.json`` pins, under the same version rule,
the sha256 of the harness's timing-free artifacts of the same run: the
benchmark's ``manifest.json``, ``run.json``, every ``tower.json``,
``evaluate.json``, ``stratified.csv`` and ``bench report``'s stdout
(``run_manifest.json`` and ``results.json`` carry timings and are not
pinned). The pipeline runs with relative directory names, so ``run.json``
holds no temporary path.

``PYTHONPATH=src python tests/test_golden.py`` recomputes every digest and
prints those that differ from the golden files. Add ``--rewrite`` to
overwrite the golden files, only for a change that is meant to move
outputs, stating which digests changed and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from screeb import (
    GeneratorConfig,
    PointCloud,
    betti,
    generate_sample,
    geometry,
    graph_to_json,
    load_graph,
    mapper_graph,
    screeb,
    screeb_tower,
)
from screeb.harness import RunConfig, cmd_evaluate, cmd_generate, cmd_report, cmd_run, sample_id, write_sample

GOLDEN = Path(__file__).resolve().parent / "golden" / "ci_digests.json"
CIRCLE_GOLDEN = GOLDEN.parent / "circle_digest.json"
MAPPER_CIRCLE_GOLDEN = GOLDEN.parent / "mapper_circle_digests.json"
HARNESS_GOLDEN = GOLDEN.parent / "harness_digests.json"
UNION_GOLDEN = GOLDEN.parent / "union_digests.json"
GENERATOR_GOLDEN = GOLDEN.parent / "generator_digests.json"
CI_SEED = 20260422
CIRCLE_N = 2000
LADDER_N = 8000
N_SAMPLES = 40
N_BATCH = 10
METHODS = ("screeb", "screebtower", "mapper")
UNION_SAMPLES = 10
UNION_DIM = 5
UNION_GAP = 10.0
GENERATOR_SEED = 1
GENERATOR_SAMPLES = 200


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _graph_entry(path: Path) -> dict:
    return _graph_doc(load_graph(path), path.read_bytes())


def _graph_doc(g, data: bytes) -> dict:
    """Both tiers of a graph whose ``graph.json`` bytes are ``data``."""
    b = betti(g)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
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


def ci_pipeline(root: Path) -> str:
    """Generate, run, evaluate and report the CI samples in ``root``, which
    becomes the working directory meanwhile; returns the report's stdout."""
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.chdir(root)
        assert cmd_generate(None, N_SAMPLES, CI_SEED, "bench", workers=1) == 0
        assert cmd_generate(None, N_BATCH, CI_SEED, "batch", workers=1) == 0
        assert cmd_run(RunConfig(bench_dir="bench", methods=METHODS, out_dir="run", workers=1)) == 0
        assert cmd_evaluate("bench", "run", "results") == 0
        assert cmd_report("results") == 0
    return stdout.getvalue()


def ci_digests(root: Path) -> dict:
    """Digest every output of :func:`ci_pipeline` in ``root``."""
    bench, batch, run, results = root / "bench", root / "batch", root / "run", root / "results"
    files = {"aggregate.csv": {"sha256": _sha256(results / "aggregate.csv")}}
    for sid in sorted(p.name for p in bench.iterdir() if p.is_dir()):
        files[f"bench/{sid}/points.csv"] = {"sha256": _sha256(bench / sid / "points.csv")}
        files[f"bench/{sid}/meta.json"] = {"sha256": _sha256(bench / sid / "meta.json")}
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


def harness_digests(root: Path, report_stdout: str) -> dict:
    """The sha256 of the timing-free harness artifacts of :func:`ci_pipeline`
    in ``root``, and of the report's stdout."""
    paths = [root / "bench" / "manifest.json", root / "run" / "run.json"]
    paths += sorted((root / "run" / "screebtower").glob("*/tower.json"))
    paths += [root / "results" / "evaluate.json", root / "results" / "stratified.csv"]
    files = {p.relative_to(root).as_posix(): {"sha256": _sha256(p)} for p in paths}
    files["bench report stdout"] = {"sha256": hashlib.sha256(report_stdout.encode()).hexdigest()}
    return {
        "seed": CI_SEED,
        "n_samples": N_SAMPLES,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": files,
    }


def noisy_circle(n: int) -> PointCloud:
    """A noisy unit circle of ``n`` points drawn from ``CI_SEED`` (the
    ``ladder`` benchmark circle of that size, unrotated)."""
    rng = np.random.default_rng((CI_SEED, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return PointCloud(np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0.0, 0.05, (n, 2)))


def circle_digest() -> dict:
    """``screeb`` on the ``CIRCLE_N``-point :func:`noisy_circle`."""
    g = screeb(noisy_circle(CIRCLE_N))
    doc = {"n": CIRCLE_N, "seed": CI_SEED, "numpy": np.__version__, "scipy": scipy.__version__}
    return doc | _graph_doc(g, graph_to_json(g).encode())


def mapper_circle_digests() -> dict:
    """``mapper_graph`` on the ``CIRCLE_N``- and ``LADDER_N``-point
    :func:`noisy_circle`."""
    graphs = {f"mapper/{n}": mapper_graph(noisy_circle(n)) for n in (CIRCLE_N, LADDER_N)}
    return {
        "seed": CI_SEED,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": {name: _graph_doc(g, graph_to_json(g).encode()) for name, g in graphs.items()},
    }


def union_cloud() -> PointCloud:
    """The first ``UNION_SAMPLES`` CI samples, zero-padded to ``UNION_DIM``
    and laid along axis 0 with ``UNION_GAP`` between neighbours (as the
    ``union`` benchmark workload lays them out), then rotated and shuffled
    by a generator seeded from ``CI_SEED``."""
    cfg, blocks, offset = GeneratorConfig(), [], 0.0
    for i in range(UNION_SAMPLES):
        cloud = generate_sample(cfg, CI_SEED, i).cloud
        pts = np.zeros((cloud.n, UNION_DIM))
        pts[:, : cloud.dim] = cloud.points
        pts[:, 0] += offset - pts[:, 0].min()
        offset = pts[:, 0].max() + UNION_GAP
        blocks.append(pts)
    rng = np.random.default_rng((CI_SEED, UNION_SAMPLES))
    q, r = np.linalg.qr(rng.normal(size=(UNION_DIM, UNION_DIM)))
    points = np.vstack(blocks) @ (q * np.sign(np.diag(r))).T
    return PointCloud(points[rng.permutation(len(points))])


def union_digests() -> dict:
    """``screeb``, ``mapper_graph`` and each ``screeb_tower`` level on
    :func:`union_cloud`."""
    cloud = union_cloud()
    tower = screeb_tower(cloud)
    graphs = {"screeb": screeb(cloud), "mapper": mapper_graph(cloud)} | {f"screebtower/level_{i}": tower.graph(i) for i in range(len(tower))}
    return {
        "n": cloud.n,
        "seed": CI_SEED,
        "n_samples": UNION_SAMPLES,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": {name: _graph_doc(g, graph_to_json(g).encode()) for name, g in graphs.items()},
    }


def generator_digests(root: Path) -> dict:
    """The ``points.csv``, ``graph.json`` and ``meta.json`` that
    :func:`write_sample` makes in ``root`` of each of the first
    ``GENERATOR_SAMPLES`` samples of the default config at ``GENERATOR_SEED``."""
    cfg, files = GeneratorConfig(), {}
    for i in range(GENERATOR_SAMPLES):
        sid = sample_id(i)
        write_sample(root / sid, generate_sample(cfg, GENERATOR_SEED, i), sid)
        files[f"{sid}/points.csv"] = {"sha256": _sha256(root / sid / "points.csv")}
        files[f"{sid}/meta.json"] = {"sha256": _sha256(root / sid / "meta.json")}
        files[f"{sid}/graph.json"] = _graph_entry(root / sid / "graph.json")
    return {
        "seed": GENERATOR_SEED,
        "n_samples": GENERATOR_SAMPLES,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": files,
    }


def _sha256s(doc: dict) -> dict[str, str]:
    """Every sha256 of a golden document, by file name."""
    if "files" in doc:
        return {name: entry["sha256"] for name, entry in doc["files"].items()}
    return {"screeb circle graph.json": doc["sha256"]}


def _changed_digests(got: dict, golden: dict) -> list[str]:
    """Names whose sha256 differs, when both were taken under the same numpy
    and scipy versions."""
    if (got["numpy"], got["scipy"]) != (golden["numpy"], golden["scipy"]):
        return []
    want = _sha256s(golden)
    return [name for name, sha in _sha256s(got).items() if want.get(name) != sha]


@pytest.fixture(scope="module")
def ci_run(tmp_path_factory):
    """(root, report stdout) of one :func:`ci_pipeline`, shared by the CI pins."""
    root = tmp_path_factory.mktemp("ci")
    return root, ci_pipeline(root)


def _assert_files_match(got: dict, golden: dict) -> None:
    """Every portable-tier entry of ``golden`` holds in ``got``, and so does
    every sha256 under the recorded numpy and scipy versions."""
    assert sorted(got["files"]) == sorted(golden["files"])
    for name, want in golden["files"].items():
        for key in ("betti", "vertices", "edges"):
            assert got["files"][name].get(key) == want.get(key), (name, key)
        if "edge_lengths" in want:
            _assert_edge_lengths(got["files"][name]["edge_lengths"], want["edge_lengths"], name)
    changed = _changed_digests(got, golden)
    assert not changed, f"digests changed: {changed}"


def test_ci_golden_digests(ci_run):
    _assert_files_match(ci_digests(ci_run[0]), json.loads(GOLDEN.read_text()))


def test_harness_golden_digests(ci_run):
    golden = json.loads(HARNESS_GOLDEN.read_text())
    got = harness_digests(*ci_run)
    assert sorted(got["files"]) == sorted(golden["files"])
    changed = _changed_digests(got, golden)
    assert not changed, f"digests changed: {changed}"


def test_multi_block_circle_golden_digest():
    golden = json.loads(CIRCLE_GOLDEN.read_text())
    got = circle_digest()
    for key in ("betti", "vertices", "edges"):
        assert got[key] == golden[key], key
    _assert_edge_lengths(got["edge_lengths"], golden["edge_lengths"], "circle")
    assert not _changed_digests(got, golden)


def test_mapper_circle_golden_digests():
    _assert_files_match(mapper_circle_digests(), json.loads(MAPPER_CIRCLE_GOLDEN.read_text()))


def test_many_component_union_golden_digests():
    golden = json.loads(UNION_GOLDEN.read_text())
    got = union_digests()
    assert got["n"] == golden["n"]
    _assert_files_match(got, golden)


def test_ci_graphs_hold_with_the_dense_eigensolver_alone(monkeypatch):
    # ARPACK's pairs differ from the dense eigh's at rounding level, and
    # reeb_graph reads only the filter's order and ties: with every solve dense,
    # each screeb and screebtower graph of the CI samples keeps its digest.
    solves = []

    def no_arpack(*args, **kwargs):
        solves.append(args[0].shape[0])
        raise RuntimeError("ARPACK switched off")

    monkeypatch.setattr(geometry, "eigsh", no_arpack)
    cfg, golden, files = GeneratorConfig(), json.loads(GOLDEN.read_text()), {}
    for i in range(N_SAMPLES):
        tower = screeb_tower(generate_sample(cfg, CI_SEED, i).cloud)
        for method, g in (("screeb", tower.graph(0)), ("screebtower", tower.graph(len(tower) - 1))):
            files[f"{method}/{sample_id(i)}/graph.json"] = _graph_doc(g, f"{graph_to_json(g)}\n".encode())
    assert solves, "no solve reached eigsh"
    got = {"numpy": np.__version__, "scipy": scipy.__version__, "files": files}
    _assert_files_match(got, golden | {"files": {name: golden["files"][name] for name in files}})


def test_generator_golden_digests(tmp_path):
    _assert_files_match(generator_digests(tmp_path), json.loads(GENERATOR_GOLDEN.read_text()))


def main(argv=None) -> int:
    """Print every digest that differs from the golden files (exit 1 if any);
    with ``--rewrite``, overwrite the golden files instead."""
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--rewrite", action="store_true", help="overwrite the golden files with this checkout's digests")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        stdout = ci_pipeline(root)
        docs = {GOLDEN: ci_digests(root), HARNESS_GOLDEN: harness_digests(root, stdout), CIRCLE_GOLDEN: circle_digest()}
        docs[GENERATOR_GOLDEN] = generator_digests(root / "generator")
    docs[UNION_GOLDEN] = union_digests()
    docs[MAPPER_CIRCLE_GOLDEN] = mapper_circle_digests()
    differ = 0
    for path, doc in docs.items():
        if args.rewrite:
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path} ({len(_sha256s(doc))} digests)", file=sys.stderr)
            continue
        golden = json.loads(path.read_text()) if path.exists() else {"numpy": None, "scipy": None, "files": {}}
        if (doc["numpy"], doc["scipy"]) != (golden["numpy"], golden["scipy"]):
            print(f"{path.name}: recorded under numpy {golden['numpy']}, scipy {golden['scipy']}", file=sys.stderr)
        want, got = _sha256s(golden), _sha256s(doc)
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                print(f"{path.name}: {name}: {want.get(name)} -> {got.get(name)}")
                differ += 1
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
