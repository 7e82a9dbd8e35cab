"""Harness pipeline: generate, run, evaluate, report, and the bench CLI."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import screeb
from screeb import GeneratorConfig
from screeb.cli import main as cli_main
from screeb.errors import ConfigError
from screeb.harness import (
    RunConfig,
    cmd_evaluate,
    cmd_generate,
    cmd_report,
    cmd_run,
    load_sample,
    read_manifest,
)


def tree_bytes(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def small_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    assert cmd_generate(None, 4, 77, str(out)) == 0
    return out


@pytest.fixture(scope="module")
def small_run(small_bench, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = RunConfig(
        bench_dir=str(small_bench),
        methods=("screeb", "screebtower", "mapper"),
        out_dir=str(out),
    )
    assert cmd_run(cfg) == 0
    return out


# -- generate ----------------------------------------------------------------


def test_generate_twice_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    cmd_generate(None, 3, 42, str(a))
    cmd_generate(None, 3, 42, str(b))
    assert tree_bytes(a) == tree_bytes(b)


def test_generate_worker_count_invariant(tmp_path):
    a = tmp_path / "w1"
    b = tmp_path / "w2"
    cmd_generate(None, 4, 11, str(a), workers=1)
    cmd_generate(None, 4, 11, str(b), workers=2)
    assert tree_bytes(a) == tree_bytes(b)


def test_generate_refuses_partial_without_force(tmp_path):
    out = tmp_path / "bench"
    cmd_generate(None, 2, 1, str(out))
    (out / "manifest.json").unlink()  # simulate an interrupted run
    with pytest.raises(ConfigError):
        cmd_generate(None, 2, 1, str(out))
    assert cmd_generate(None, 2, 1, str(out), force=True) == 0
    assert (out / "manifest.json").exists()
    # --force also clears nested directories left by other tools.
    (out / "a" / "b").mkdir(parents=True)
    (out / "a" / "b" / "stray.txt").write_text("x")
    assert cmd_generate(None, 2, 1, str(out), force=True) == 0
    assert sorted(p.name for p in out.iterdir()) == ["00000", "00001", "manifest.json"]


def test_generate_invalid_config_names_field(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    doc = GeneratorConfig().to_dict()
    doc["class_probs"]["hybrid"] = 0.9
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="class_probs"):
        cmd_generate(str(cfg_path), 1, 1, str(tmp_path / "x"))


def test_generate_layout(small_bench):
    manifest = read_manifest(str(small_bench))
    assert manifest["n_samples"] == 4
    assert manifest["sample_ids"] == ["00000", "00001", "00002", "00003"]
    for sid in manifest["sample_ids"]:
        d = small_bench / sid
        assert (d / "points.csv").exists()
        assert (d / "graph.json").exists()
        assert (d / "meta.json").exists()
    sample = load_sample(small_bench / "00000")
    assert sample.cloud.n >= 20
    assert sample.graph.positions is not None


# -- run ----------------------------------------------------------------------


def test_run_outputs(small_bench, small_run):
    from screeb import ReebParams

    for method in ("screeb", "screebtower", "mapper"):
        for sid in read_manifest(str(small_bench))["sample_ids"]:
            assert (small_run / method / sid / "graph.json").exists()
    # tower manifest lists one file per level (default depth + base)
    depth = ReebParams().levels
    tower_doc = json.loads((small_run / "screebtower" / "00000" / "tower.json").read_text())
    assert tower_doc["levels"] == depth + 1
    assert tower_doc["files"] == [f"level_{i}.json" for i in range(depth + 1)]
    assert tower_doc["scored_level"] == depth


def test_run_rerun_byte_identical(small_bench, small_run, tmp_path):
    out2 = tmp_path / "run2"
    cfg = RunConfig(
        bench_dir=str(small_bench),
        methods=("screeb", "screebtower", "mapper"),
        out_dir=str(out2),
    )
    cmd_run(cfg)
    first = {k: v for k, v in tree_bytes(small_run).items() if k.endswith("graph.json") or "level" in k}
    second = {k: v for k, v in tree_bytes(out2).items() if k.endswith("graph.json") or "level" in k}
    assert first == second


def test_run_tower_levels_flag(small_bench, tmp_path):
    out = tmp_path / "run_l3"
    cfg_path = tmp_path / "overrides.json"
    cfg_path.write_text(json.dumps({"screebtower": {"levels": 3}}))
    cfg = RunConfig(
        bench_dir=str(small_bench),
        methods=("screebtower",),
        out_dir=str(out),
        overrides={"screebtower": {"levels": 3}},
    )
    cmd_run(cfg)
    tower_doc = json.loads((out / "screebtower" / "00000" / "tower.json").read_text())
    assert tower_doc["levels"] == 4
    assert tower_doc["scored_level"] == 3


def test_run_unknown_method_rejected(small_bench, tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(bench_dir=str(small_bench), methods=("bogus",), out_dir=str(tmp_path / "x"))


def test_run_external_method(small_bench, tmp_path):
    # External graphs: copy the latent graphs for two samples, omit the rest.
    ext = tmp_path / "ext"
    ids = read_manifest(str(small_bench))["sample_ids"]
    for sid in ids[:2]:
        (ext / sid).mkdir(parents=True)
        shutil.copy(small_bench / sid / "graph.json", ext / sid / "graph.json")
    out = tmp_path / "run_ext"
    cfg = RunConfig(bench_dir=str(small_bench), methods=(f"external:{ext}",), out_dir=str(out))
    code = cmd_run(cfg)
    assert code == 2  # missing samples recorded as partial failure
    mdir = out / f"external_{ext.name}"
    manifest = json.loads((mdir / "run_manifest.json").read_text())
    statuses = [manifest["samples"][sid]["status"] for sid in ids]
    assert statuses == ["ok", "ok", "missing", "missing"]


# -- evaluate -------------------------------------------------------------------


def test_evaluate_oracle_method(small_bench, tmp_path):
    # The identity method (emit the latent graph) scores similarity 1, GED 0.
    ext = tmp_path / "oracle"
    ids = read_manifest(str(small_bench))["sample_ids"]
    for sid in ids:
        (ext / sid).mkdir(parents=True)
        shutil.copy(small_bench / sid / "graph.json", ext / sid / "graph.json")
    run_dir = tmp_path / "run"
    cmd_run(RunConfig(bench_dir=str(small_bench), methods=(f"external:{ext}",), out_dir=str(run_dir)))
    out = tmp_path / "results"
    assert cmd_evaluate(str(small_bench), str(run_dir), str(out)) == 0
    csv = (out / "aggregate.csv").read_text().strip().splitlines()
    header, sim_row, ged_row, excl_row = csv
    assert sim_row.split(",")[1] == "1"
    assert ged_row.split(",")[1] == "0"
    assert excl_row.split(",")[1] == "0"


def test_evaluate_single_vertex_method(small_bench, tmp_path):
    # Emitting a single vertex forces a full-insertion edit script:
    # GED = mean(|V| + |E| - 1) over the reduced latent graphs.
    ext = tmp_path / "onevert"
    ids = read_manifest(str(small_bench))["sample_ids"]
    expected = []
    for sid in ids:
        (ext / sid).mkdir(parents=True)
        (ext / sid / "graph.json").write_text('{"vertices": [null], "edges": []}')
        meta = json.loads((small_bench / sid / "meta.json").read_text())
        red = meta["reduced_graph"]
        n_edges = sum(e[3] for e in red["edges"])
        expected.append(len(red["vertices"]) + n_edges - 1)
    run_dir = tmp_path / "run"
    cmd_run(RunConfig(bench_dir=str(small_bench), methods=(f"external:{ext}",), out_dir=str(run_dir)))
    out = tmp_path / "results"
    cmd_evaluate(str(small_bench), str(run_dir), str(out))
    csv = (out / "aggregate.csv").read_text().strip().splitlines()
    ged_value = float(csv[2].split(",")[1])
    assert ged_value == pytest.approx(np.mean(expected))


def test_evaluate_results_schema(small_bench, small_run, tmp_path):
    out = tmp_path / "results"
    cmd_evaluate(str(small_bench), str(small_run), str(out))
    doc = json.loads((out / "screebtower" / "00000" / "results.json").read_text())
    for key in ("sample_id", "method", "tower_level", "wasserstein_similarity", "ged", "diagram", "timing_ms"):
        assert key in doc
    from screeb import ReebParams

    assert doc["method"] == "screebtower"
    assert doc["tower_level"] == ReebParams().levels
    assert set(doc["diagram"]) == {"h0_deaths", "h0_essential", "h1_births", "normalized"}


def test_evaluate_deterministic_csv(small_bench, small_run, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    cmd_evaluate(str(small_bench), str(small_run), str(out1))
    cmd_evaluate(str(small_bench), str(small_run), str(out2))
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


def test_evaluate_malformed_graph_excluded(small_bench, small_run, tmp_path):
    broken_run = tmp_path / "broken"
    shutil.copytree(small_run, broken_run)
    bad = broken_run / "mapper" / "00000" / "graph.json"
    bad.write_text("{not json")
    out = tmp_path / "results"
    cmd_evaluate(str(small_bench), str(broken_run), str(out))
    csv = (out / "aggregate.csv").read_text().strip().splitlines()
    methods = csv[0].split(",")[1:]
    excl = dict(zip(methods, csv[3].split(",")[1:]))
    assert excl["mapper"] == "1"
    assert excl["screeb"] == "0"


# -- report ----------------------------------------------------------------------


def test_report_table_and_stratified(small_bench, small_run, tmp_path, capsys):
    out = tmp_path / "results"
    cmd_evaluate(str(small_bench), str(small_run), str(out))
    assert cmd_report(str(out)) == 0
    printed = capsys.readouterr().out
    assert "wasserstein_similarity" in printed and "ged" in printed
    strat = (out / "stratified.csv").read_text().strip().splitlines()
    assert strat[0].startswith("sample_id,method,noise_ratio")
    assert len(strat) - 1 == 4 * 3  # samples x methods


def test_report_empty_results(tmp_path, capsys):
    assert cmd_report(str(tmp_path)) == 1
    assert "no results" in capsys.readouterr().out


# -- CLI ----------------------------------------------------------------------------


def test_cli_end_to_end(tmp_path):
    bench = tmp_path / "bench"
    run = tmp_path / "run"
    results = tmp_path / "results"
    assert cli_main(["generate", "--n", "2", "--seed", "5", "--out", str(bench)]) == 0
    assert cli_main(["run", "--bench", str(bench), "--methods", "screeb,mapper", "--out", str(run)]) == 0
    assert cli_main(["evaluate", "--bench", str(bench), "--run", str(run), "--out", str(results)]) == 0
    assert cli_main(["report", "--results", str(results)]) == 0
    assert (results / "aggregate.csv").exists()


def test_cli_invalid_method_exit_code(tmp_path):
    bench = tmp_path / "bench"
    cli_main(["generate", "--n", "1", "--seed", "5", "--out", str(bench)])
    code = cli_main(["run", "--bench", str(bench), "--methods", "nosuch", "--out", str(tmp_path / "r")])
    assert code == 1


def test_cli_subprocess_entry(tmp_path):
    # The installed console script must exist per the external interface.
    # The child imports the package this process imported, also when pytest
    # put it on sys.path itself (pyproject's pythonpath) rather than PYTHONPATH.
    src = str(Path(screeb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "screeb.cli", "generate", "--n", "1", "--seed", "9", "--out", str(tmp_path / "b")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "b" / "manifest.json").exists()


def test_bench_workers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_WORKERS", "2")
    from screeb.harness import default_workers

    assert default_workers() == 2
    monkeypatch.setenv("BENCH_WORKERS", "junk")
    with pytest.raises(ConfigError):
        default_workers()
