"""Harness pipeline: generate, run, evaluate, report, and the bench CLI."""

import json
import os
import re
import shutil
import subprocess
import sys
import time
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
    read_json,
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


@pytest.mark.parametrize("target", ["shutil.rmtree", "pathlib.Path.unlink"])
def test_generate_force_clear_failure_is_config_error(tmp_path, monkeypatch, target):
    # A tree --force cannot clear (read-only, foreign owner) is a ConfigError
    # naming the directory, not a traceback from the OSError.
    out = tmp_path / "bench"
    assert cmd_generate(None, 1, 1, str(out)) == 0

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(target, refuse)
    with pytest.raises(ConfigError, match=f"clear output directory {re.escape(str(out))}: .*Permission denied"):
        cmd_generate(None, 1, 1, str(out), force=True)


def test_generate_force_through_symlinked_output(tmp_path):
    # A symlinked output directory keeps its link: --force clears the
    # target's children and the samples are written into the target.
    target, link = tmp_path / "target", tmp_path / "link"
    (target / "stale").mkdir(parents=True)
    (target / "stale.txt").write_text("x")
    link.symlink_to(target, target_is_directory=True)
    assert cmd_generate(None, 2, 1, str(link), force=True) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert sorted(p.name for p in target.iterdir()) == ["00000", "00001", "manifest.json"]


def test_read_json_refuses_a_missing_file(tmp_path):
    with pytest.raises(ConfigError, match=f"config file not found at {re.escape(str(tmp_path / 'none.json'))}"):
        read_json(tmp_path / "none.json")


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
    # The reduced graph is derived from graph.json again, and equals the block write_sample stored.
    for sid in manifest["sample_ids"]:
        meta = json.loads((small_bench / sid / "meta.json").read_text())
        assert json.loads(screeb.graph_to_json(load_sample(small_bench / sid).reduced_graph)) == meta["reduced_graph"]


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


def test_run_status_fields_per_method(small_run):
    # Only the Reeb methods name a tower level: screeb the base, the tower its scored level.
    from screeb import ReebParams

    want = {"screeb": {"tower_level": 0}, "screebtower": {"tower_level": ReebParams().levels}, "mapper": {}}
    for method, fields in want.items():
        samples = json.loads((small_run / method / "run_manifest.json").read_text())["samples"]
        for st in samples.values():
            assert {k: v for k, v in st.items() if k != "timing_ms"} == {"status": "ok", **fields}


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
    # External graphs: copy the latent graphs for two samples, give the third
    # fractional ids, omit the last.
    ext = tmp_path / "ext"
    ids = read_manifest(str(small_bench))["sample_ids"]
    for sid in ids[:3]:
        (ext / sid).mkdir(parents=True)
        shutil.copy(small_bench / sid / "graph.json", ext / sid / "graph.json")
    (ext / ids[2] / "graph.json").write_text('{"vertices": [null, null], "edges": [[0.9, 1, 1.0, 1.7]]}')
    out = tmp_path / "run_ext"
    cfg = RunConfig(bench_dir=str(small_bench), methods=(f"external:{ext}",), out_dir=str(out))
    code = cmd_run(cfg)
    assert code == 2  # malformed and missing samples recorded as partial failure
    mdir = out / f"external_{ext.name}"
    manifest = json.loads((mdir / "run_manifest.json").read_text())
    statuses = [manifest["samples"][sid]["status"] for sid in ids]
    assert statuses == ["ok", "ok", "error", "missing"]
    assert "edge 0: " in manifest["samples"][ids[2]]["error"]


def graph_files(root):
    """The graph artifacts of a run: every graph.json, level_*.json and tower.json."""
    return {k: v for k, v in tree_bytes(root).items() if Path(k).name != "run_manifest.json" and k != "run.json"}


def test_run_statuses_all_carry_timing(small_bench, tmp_path):
    ext = tmp_path / "ext"  # no sample has a graph: every status is "missing"
    ext.mkdir()
    out = tmp_path / "run"
    cmd_run(RunConfig(bench_dir=str(small_bench), methods=(f"external:{ext}", "mapper"), out_dir=str(out)))
    for mdir, status in ((out / f"external_{ext.name}", "missing"), (out / "mapper", "ok")):
        samples = json.loads((mdir / "run_manifest.json").read_text())["samples"]
        assert {st["status"] for st in samples.values()} == {status}
        assert all(isinstance(st["timing_ms"], float) for st in samples.values())


def counting_screeb(monkeypatch, delay=0.0):
    """Count screeb calls from the harness and from inside the tower; each sleeps ``delay`` s."""
    from screeb import harness, reeb

    calls = []
    real = reeb.screeb

    def counted(cloud, params=screeb.ReebParams()):
        calls.append(cloud.n)
        time.sleep(delay)
        return real(cloud, params)

    monkeypatch.setattr(harness, "screeb", counted)
    monkeypatch.setattr(reeb, "screeb", counted)
    return calls


def test_run_screeb_is_the_tower_base(small_bench, small_run, tmp_path, monkeypatch):
    # With equal parameters screeb's graph is the tower's level 0: three screeb
    # calls per sample at levels=2, not four. The base graph's time is charged
    # to both methods, so each reads at least the delay of every screeb call
    # it stands on: one for screeb, three for the tower.
    calls = counting_screeb(monkeypatch, delay=0.05)
    out = tmp_path / "run"
    assert cmd_run(RunConfig(bench_dir=str(small_bench), methods=("screeb", "screebtower"), out_dir=str(out))) == 0
    ids = read_manifest(str(small_bench))["sample_ids"]
    assert screeb.ReebParams().levels == 2 and len(calls) == 3 * len(ids)
    shared = {k: v for k, v in graph_files(small_run).items() if not k.startswith("mapper")}
    assert graph_files(out) == shared
    for method, floor_ms in (("screeb", 50.0), ("screebtower", 150.0)):
        samples = json.loads((out / method / "run_manifest.json").read_text())["samples"]
        assert all(samples[sid]["timing_ms"] >= floor_ms for sid in ids)


def test_run_overrides_that_differ_are_not_shared(small_bench, tmp_path, monkeypatch):
    calls = counting_screeb(monkeypatch)
    overrides = {"screeb": {"k": 10}}
    both = tmp_path / "both"
    cmd_run(RunConfig(str(small_bench), ("screeb", "screebtower"), str(both), overrides=overrides))
    ids = read_manifest(str(small_bench))["sample_ids"]
    assert len(calls) == 4 * len(ids)
    for method in ("screeb", "screebtower"):
        alone = tmp_path / method
        cmd_run(RunConfig(str(small_bench), (method,), str(alone), overrides=overrides))
        assert graph_files(alone) == {k: v for k, v in graph_files(both).items() if k.startswith(method + "/")}


def test_run_base_failures_stay_per_method(small_bench, small_run, tmp_path, monkeypatch):
    from screeb import harness, reeb

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    # A condensation level that raises fails the tower alone.
    monkeypatch.setattr(reeb, "condense", boom)
    out = tmp_path / "condense"
    assert cmd_run(RunConfig(str(small_bench), ("screeb", "screebtower"), str(out))) == 2
    tower = json.loads((out / "screebtower" / "run_manifest.json").read_text())["samples"]
    assert {st["status"] for st in tower.values()} == {"error"}
    assert {st["error"] for st in tower.values()} == {"RuntimeError: boom"}
    base = json.loads((out / "screeb" / "run_manifest.json").read_text())["samples"]
    assert {st["status"] for st in base.values()} == {"ok"}
    assert {k: v for k, v in graph_files(out).items() if k.startswith("screeb/")} == {
        k: v for k, v in graph_files(small_run).items() if k.startswith("screeb/")
    }
    # A base graph that raises fails both methods with its error.
    monkeypatch.setattr(harness, "screeb", boom)
    out = tmp_path / "base"
    assert cmd_run(RunConfig(str(small_bench), ("screeb", "screebtower", "mapper"), str(out))) == 2
    for method, want in (("screeb", {"RuntimeError: boom"}), ("screebtower", {"RuntimeError: boom"})):
        samples = json.loads((out / method / "run_manifest.json").read_text())["samples"]
        assert {st.get("error") for st in samples.values()} == want
    mapper = json.loads((out / "mapper" / "run_manifest.json").read_text())["samples"]
    assert {st["status"] for st in mapper.values()} == {"ok"}


def test_run_worker_count_invariant(small_bench, small_run, tmp_path):
    out = tmp_path / "run_w2"
    cfg = RunConfig(str(small_bench), ("screeb", "screebtower", "mapper"), str(out), workers=2)
    assert cmd_run(cfg) == 0
    files = graph_files(out)
    assert any(Path(k).name == "tower.json" for k in files) and any("level_2" in k for k in files)
    assert files == graph_files(small_run)


# -- evaluate -------------------------------------------------------------------


def test_evaluate_reads_each_latent_sample_once(small_bench, small_run, tmp_path, monkeypatch):
    from screeb import harness

    loaded = []
    real = harness.load_graph

    def counted(path):
        loaded.append(Path(path))
        return real(path)

    monkeypatch.setattr(harness, "load_graph", counted)
    cmd_evaluate(str(small_bench), str(small_run), str(tmp_path / "results"))
    ids = read_manifest(str(small_bench))["sample_ids"]
    latent = [p for p in loaded if p.is_relative_to(small_bench)]
    assert sorted(latent) == [small_bench / sid / "graph.json" for sid in ids]
    assert len(loaded) == 4 * len(ids)


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
    assert set(doc["diagram"]) == {"h0_deaths", "h0_essential", "h1_births"}


def test_evaluate_deterministic_csv(small_bench, small_run, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    cmd_evaluate(str(small_bench), str(small_run), str(out1))
    cmd_evaluate(str(small_bench), str(small_run), str(out2))
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


def test_evaluate_malformed_graph_excluded(small_bench, small_run, tmp_path):
    # The last graph is well formed, but has more edge copies than compare's diagrams take.
    texts = ["{not json", '{"vertices": [null, null], "edges": [[0, 1, null, 1]]}']
    texts.append('{"vertices": [null, null], "edges": [[0, 1, 1.0, 9007199254740992]]}')
    for i, text in enumerate(texts):
        broken_run = tmp_path / f"broken{i}"
        shutil.copytree(small_run, broken_run)
        bad = broken_run / "mapper" / "00000" / "graph.json"
        bad.write_text(text)
        out = tmp_path / f"results{i}"
        assert cmd_evaluate(str(small_bench), str(broken_run), str(out)) == 0
        csv = (out / "aggregate.csv").read_text().strip().splitlines()
        methods = csv[0].split(",")[1:]
        excl = dict(zip(methods, csv[3].split(",")[1:]))
        assert excl["mapper"] == "1"
        assert excl["screeb"] == "0"
        doc = json.loads((out / "mapper" / "00000" / "results.json").read_text())
        assert doc["status"] == "error" and doc["error"].startswith("malformed graph.json: ")
    assert doc["error"].endswith("9007199254740992 edge copies: a diagram takes at most 4194304")


def break_mapper_run(small_run, tmp_path):
    """A copy of ``small_run`` in which mapper sample 00000 failed and the
    graph.json of 00001 is gone; returns the copy, its mapper run manifest
    and the missing path."""
    broken_run = tmp_path / "broken"
    shutil.copytree(small_run, broken_run)
    manifest_path = broken_run / "mapper" / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["samples"]["00000"].update(status="error", error="RuntimeError: boom")
    manifest_path.write_text(json.dumps(manifest))
    gone = broken_run / "mapper" / "00001" / "graph.json"
    gone.unlink()
    return broken_run, manifest, gone


def test_evaluate_excludes_failed_and_missing_samples(small_bench, small_run, tmp_path):
    # One mapper sample failed in the run; another's graph.json is gone. The
    # failed one's results.json carries its run status and error, the other
    # status "missing" and the path it lacks; neither has a score, both count.
    broken_run, manifest, gone = break_mapper_run(small_run, tmp_path)
    out = tmp_path / "results"
    assert cmd_evaluate(str(small_bench), str(broken_run), str(out)) == 0
    expected = {"00000": ("error", "RuntimeError: boom"), "00001": ("missing", f"no graph.json at {gone}")}
    for sid, (status, error) in expected.items():
        doc = json.loads((out / "mapper" / sid / "results.json").read_text())
        assert (doc["status"], doc["error"]) == (status, error)
        assert doc["timing_ms"] == manifest["samples"][sid]["timing_ms"]
        assert "wasserstein_similarity" not in doc and "ged" not in doc
    table = json.loads((out / "evaluate.json").read_text())["table"]
    assert {m: row["excluded"] for m, row in table.items()} == {"screeb": 0, "screebtower": 0, "mapper": 2}
    csv = (out / "aggregate.csv").read_text().strip().splitlines()
    assert csv[3] == "excluded," + ",".join("2" if m == "mapper" else "0" for m in csv[0].split(",")[1:])
    scored = [json.loads((out / "mapper" / sid / "results.json").read_text()) for sid in ("00002", "00003")]
    assert table["mapper"]["ged"] == np.mean([d["ged"] for d in scored])


def test_excluded_samples_keep_their_difficulty_coordinates(small_bench, small_run, tmp_path):
    # Every results.json holds its sample's requested coordinates, scored or
    # not, so an excluded row of stratified.csv reads them and only its
    # scores are nan.
    broken_run, _, _ = break_mapper_run(small_run, tmp_path)
    out = tmp_path / "results"
    assert cmd_evaluate(str(small_bench), str(broken_run), str(out)) == 0
    assert cmd_report(str(out)) == 0
    lines = (out / "stratified.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = {tuple(cells[:2]): dict(zip(header, cells)) for cells in (line.split(",") for line in lines[1:])}
    assert len(rows) == 4 * 3
    for (sid, method), row in rows.items():
        requested = json.loads((small_bench / sid / "meta.json").read_text())["requested"]
        doc = json.loads((out / method / sid / "results.json").read_text())
        assert doc["requested"] == requested
        for c in ("noise_ratio", "separation", "density", "thickness"):
            assert row[c] == f"{requested[c]:.12g}"  # the CSV's 12 significant digits
        excluded = method == "mapper" and sid in ("00000", "00001")
        assert all(np.isnan(float(row[c])) == excluded for c in ("wasserstein_similarity", "ged")), (sid, method)


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


def test_report_prints_evaluate_table(small_bench, small_run, tmp_path, capsys):
    # Every mapper graph broken: its means are NaN, shown as n/a, and its
    # excluded count an int; the other columns are the means of results.json.
    broken_run = tmp_path / "broken"
    shutil.copytree(small_run, broken_run)
    for bad in (broken_run / "mapper").glob("*/graph.json"):
        bad.write_text("{not json")
    out = tmp_path / "results"
    assert cmd_evaluate(str(small_bench), str(broken_run), str(out)) == 0
    capsys.readouterr()
    assert cmd_report(str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["metric", "mapper", "screeb", "screebtower"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows["excluded"] == ["4", "0", "0"]
    for metric in ("wasserstein_similarity", "ged"):
        assert rows[metric][0] == "n/a"
        for col, method in ((1, "screeb"), (2, "screebtower")):
            docs = [json.loads(p.read_text()) for p in sorted((out / method).glob("*/results.json"))]
            assert rows[metric][col] == f"{np.mean([d[metric] for d in docs]):.4f}"


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


@pytest.mark.parametrize("text", ["{not json", "[]", '"preset"'])
def test_cli_generate_refuses_config_that_is_not_a_json_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    bench = tmp_path / "bench"
    assert cli_main(["generate", "--n", "1", "--seed", "5", "--out", str(bench), "--config", str(cfg)]) == 1
    assert f"error: config file {cfg} " in capsys.readouterr().err
    assert not bench.exists()


@pytest.mark.parametrize("text", ["{not json", "[]", "3"])
def test_cli_run_refuses_config_that_is_not_a_json_object(small_bench, tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    run = tmp_path / "run"
    args = ["run", "--bench", str(small_bench), "--methods", "mapper", "--out", str(run), "--config", str(cfg)]
    assert cli_main(args) == 1
    assert f"error: config file {cfg} " in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("section", ["[1]", '"k=5"', "null"])
def test_cli_run_refuses_config_section_that_is_not_an_object(small_bench, tmp_path, capsys, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"screeb": {{"k": 10}}, "mapper": {section}}}')
    run = tmp_path / "run"
    args = ["run", "--bench", str(small_bench), "--methods", "mapper", "--out", str(run), "--config", str(cfg)]
    assert cli_main(args) == 1
    assert "error: config section 'mapper' must be a JSON object" in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"screeb": {"bogus": 1}}, "config section 'screeb': "),
        ({"screb": {"k": 5}}, "config section 'screb' names no method"),
        ({"screeb": {"k": 2.5}}, "config section 'screeb': k must be an integer, not 2.5"),
        ({"screebtower": {"levels": True}}, "config section 'screebtower': levels must be an integer, not True"),
        ({"mapper": {"n_intervals": 2.5}}, "config section 'mapper': n_intervals must be an integer, not 2.5"),
        ({"mapper": {"overlap": 1.5}}, "config section 'mapper': overlap fraction must lie in [0, 1)"),
        ({"mapper": {"eps_factor": 0}}, "config section 'mapper': eps_factor must be a finite positive number, not 0"),
        ({"mapper": {"eps_factor": float("nan")}}, "config section 'mapper': eps_factor must be a finite positive"),
        ({"mapper": {"eps_factor": "1.5"}}, "config section 'mapper': eps_factor must be a finite positive"),
        ({"mapper": {"d_lens": 0}}, "config section 'mapper': d_lens must be >= 1"),
        ({"mapper": {"d_lens": -1}}, "config section 'mapper': d_lens must be >= 1"),
        # Past float64: every Mapper sample failed with OverflowError and the run exited 2.
        ({"mapper": {"eps_factor": 10**400}}, "config section 'mapper': eps_factor must be a finite positive"),
        ({"mapper": {"n_intervals": 10**400}}, "config section 'mapper': n_intervals must be an integer, not 1000"),
        ({"mapper": {"overlap": False}}, "config section 'mapper': overlap fraction must lie in [0, 1), not False"),
    ],
)
def test_cli_run_refuses_bad_config_section_up_front(small_bench, tmp_path, capsys, doc, message):
    # One error line naming the section, before any sample runs or the run directory is made.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    run = tmp_path / "run"
    args = ["run", "--bench", str(small_bench), "--methods", "screeb,mapper", "--out", str(run), "--config", str(cfg)]
    assert cli_main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not run.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"sample_ids": ', "is not valid JSON"),
        ("[]", "must hold a JSON object, not list"),
        ("{}", "must hold 'sample_ids'"),
        ('{"sample_ids": [5]}', "must hold 'sample_ids' as a JSON array of strings"),
    ],
)
def test_cli_run_refuses_bad_benchmark_manifest(small_bench, tmp_path, capsys, text, message):
    bench = tmp_path / "bench"
    shutil.copytree(small_bench, bench)
    (bench / "manifest.json").write_text(text)
    run = tmp_path / "run"
    assert cli_main(["run", "--bench", str(bench), "--methods", "mapper", "--out", str(run)]) == 1
    assert capsys.readouterr().err.startswith(f"error: benchmark manifest {bench / 'manifest.json'} {message}")
    assert not run.exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("run.json", "{}", "run manifest {} must hold 'methods'"),
        ("run.json", "[]", "run manifest {} must hold a JSON object, not list"),
        ("run.json", '{"methods": ', "run manifest {} is not valid JSON"),
        ("mapper/run_manifest.json", "{}", "method run manifest {} must hold 'samples'"),
        ("mapper/run_manifest.json", '"ok"', "method run manifest {} must hold a JSON object, not str"),
        ("run.json", '{"methods": {"mapper": 5}}', "run manifest {} must hold 'methods' as a JSON object of strings"),
        (
            "mapper/run_manifest.json",
            '{"samples": {"00000": 3}}',
            "method run manifest {} must hold 'samples' as a JSON object of objects",
        ),
    ],
)
def test_cli_evaluate_refuses_bad_run_manifest(small_bench, small_run, tmp_path, capsys, name, text, message):
    # Every document is read before the results directory is made.
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    (run / name).write_text(text)
    results = tmp_path / "results"
    assert cli_main(["evaluate", "--bench", str(small_bench), "--run", str(run), "--out", str(results)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message.format(run / name)}")
    assert not results.exists()


def test_cli_evaluate_refuses_truncated_sample_metadata(small_bench, small_run, tmp_path, capsys):
    # Every meta.json is read before the results directory is made; load_sample reads it the same way.
    bench = tmp_path / "bench"
    shutil.copytree(small_bench, bench)
    meta = bench / "00001" / "meta.json"
    meta.write_text('{"seed": ')
    results = tmp_path / "results"
    assert cli_main(["evaluate", "--bench", str(bench), "--run", str(small_run), "--out", str(results)]) == 1
    assert capsys.readouterr().err.startswith(f"error: sample metadata {meta} is not valid JSON")
    assert not results.exists()
    with pytest.raises(ConfigError, match="sample metadata .* is not valid JSON"):
        load_sample(bench / "00001")


@pytest.mark.parametrize(
    "text",
    [
        None,
        '{"vertices": [null], "edges": [[0, 0]]}',
        '{"vertices": [null, null], "edges": [[0, 1, 1.0, 9007199254740992]]}',
    ],
)
def test_cli_evaluate_refuses_missing_or_malformed_latent_graph(small_bench, small_run, tmp_path, capsys, text):
    # Every latent graph.json is read before the results directory is made; a
    # missing one, or one with more edge copies than a diagram takes, was
    # charged to each method as a malformed recovered graph.
    bench = tmp_path / "bench"
    shutil.copytree(small_bench, bench)
    latent = bench / "00001" / "graph.json"
    if text is None:
        latent.unlink()
    else:
        latent.write_text(text)
    results = tmp_path / "results"
    assert cli_main(["evaluate", "--bench", str(bench), "--run", str(small_run), "--out", str(results)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: latent graph {latent}: ") and err.count("\n") == 1
    assert not results.exists()


@pytest.mark.parametrize("requested", ["5", '"high"', None])
def test_cli_evaluate_refuses_sample_metadata_without_requested_object(
    small_bench, small_run, tmp_path, capsys, requested
):
    # bench report reads the requested block of every scored sample; evaluate checks it first.
    bench = tmp_path / "bench"
    shutil.copytree(small_bench, bench)
    meta = bench / "00001" / "meta.json"
    doc = json.loads(meta.read_text())
    if requested is None:
        del doc["requested"]
    else:
        doc["requested"] = json.loads(requested)
    meta.write_text(json.dumps(doc))
    results = tmp_path / "results"
    assert cli_main(["evaluate", "--bench", str(bench), "--run", str(small_run), "--out", str(results)]) == 1
    message = f"error: sample metadata {meta} must hold 'requested' as a JSON object of values\n"
    assert capsys.readouterr().err == message
    assert not results.exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("evaluate.json", '{"table": ', "evaluation summary {} is not valid JSON"),
        ("evaluate.json", "{}", "evaluation summary {} must hold 'methods' as a JSON object of strings"),
        ("screeb/00002/results.json", '{"sample_id": ', "result {} is not valid JSON"),
        ("screeb/00002/results.json", '{"sample_id": "00002"}', "result {} must hold 'method' as a JSON string\n"),
        (
            "screeb/00002/results.json",
            '{"sample_id": "00002", "method": "screeb", "requested": 5}',
            "result {} must hold 'requested' as a JSON object\n",
        ),
        (
            "evaluate.json",
            '{"methods": {"screeb": "screeb", "mapper": "mapper"}, "table": {"screeb": {}}}',
            "evaluation summary {} must hold a table row of numbers for each of ['mapper', 'screeb']\n",
        ),
    ],
)
def test_cli_report_refuses_bad_results(small_bench, small_run, tmp_path, capsys, name, text, message):
    results = tmp_path / "results"
    assert cmd_evaluate(str(small_bench), str(small_run), str(results)) == 0
    (results / name).write_text(text)
    assert cli_main(["report", "--results", str(results)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message.format(results / name)}")
    assert not (results / "stratified.csv").exists()


@pytest.mark.parametrize("level", ["7", "-1"])
def test_cli_run_refuses_tower_level_outside_the_tower_up_front(small_bench, tmp_path, capsys, level):
    # Refused before any tower is computed or the run directory is made.
    run = tmp_path / "run"
    args = ["run", "--bench", str(small_bench), "--methods", "screebtower", "--out", str(run), "--level", level]
    assert cli_main(args) == 1
    assert capsys.readouterr().err == f"error: tower level {level} outside 0..2\n"
    assert not run.exists()
    with pytest.raises(ConfigError, match="tower level 4 outside 0..3"):
        RunConfig(str(small_bench), ("screebtower",), str(run), {"screebtower": {"levels": 3}}, level=4)
    RunConfig(str(small_bench), ("screeb", "mapper"), str(run), level=7)  # no tower, no level to check


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: RunConfig(d, ("screebtower",), d, level=1.5), "tower level must be an integer, not 1.5"),
        (lambda d: RunConfig(d, ("screebtower",), d, level=True), "tower level must be an integer, not True"),
        (lambda d: RunConfig(d, ("mapper",), d, workers=1.5), "workers must be an integer, not 1.5"),
        (lambda d: cmd_generate(None, 2.5, 5, d), "sample count must be an integer >= 1, not 2.5"),
    ],
)
def test_api_refuses_counts_and_levels_that_are_no_integer(tmp_path, call, message):
    # Each passed its range check: level 1.5 failed every tower sample with TypeError, level True
    # ran and wrote "tower_level": true, and workers 1.5 and n 2.5 raised a bare TypeError.
    with pytest.raises(ConfigError, match=re.escape(message)):
        call(str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def assert_module_generate_refuses(tmp_path, doc, field):
    """Through the module entry point: one error line naming the field, exit 1, no traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    src = str(Path(screeb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    args = ["generate", "--n", "1", "--seed", "5", "--out", str(tmp_path / "b"), "--config", str(cfg)]
    proc = subprocess.run([sys.executable, "-m", "screeb.cli", *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {field}") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"dim_probs": []}, "dim_probs"),
        ({"cycle_length_range": 5}, "cycle_length_range"),
        ({"dim_probs": {"two": 1.0}}, "dim_probs"),
        ({"class_probs": {"tree": "all"}}, "class_probs"),
        ({"max_nodes": 80.5}, "max_nodes"),
    ],
)
def test_cli_generate_refuses_wrongly_typed_config_field(tmp_path, doc, field):
    assert_module_generate_refuses(tmp_path, doc, field)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"safety_multiplier": 0}, "safety_multiplier"),
        ({"noise_ratio_range": [float("nan"), float("nan")]}, "noise_ratio_range"),
        ({"max_cycles_per_component": 1}, "max_cycles_per_component"),
        ({"cycle_length_range": [1, 2]}, "cycle_length_range"),
        ({"max_nodes": 10**400}, "max_nodes"),  # past float64: an OverflowError
        ({"feature_scale": -1.0}, "feature_scale"),
        ({"max_rejects_per_sample": -1}, "max_rejects_per_sample"),
        ({"max_search_iterations": 0}, "max_search_iterations"),
    ],
)
def test_cli_generate_refuses_config_a_draw_would_fail_on(tmp_path, doc, field):
    # Each crashed bench generate with a traceback before it was refused.
    assert_module_generate_refuses(tmp_path, doc, field)


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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_worker_counts_below_one(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.delenv("BENCH_WORKERS", raising=False)
    bench = tmp_path / "bench"
    assert cli_main(["generate", "--n", "1", "--seed", "5", "--out", str(bench), "--workers", workers]) == 1
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not bench.exists()  # refused before the output directory is made
    assert cli_main(["generate", "--n", "1", "--seed", "5", "--out", str(bench)]) == 0
    run = tmp_path / "run"
    assert cli_main(["run", "--bench", str(bench), "--methods", "mapper", "--out", str(run), "--workers", workers]) == 1
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not run.exists()
    with pytest.raises(ConfigError):
        cmd_generate(None, 1, 5, str(tmp_path / "api"), workers=int(workers))
    with pytest.raises(ConfigError):
        RunConfig(str(bench), ("mapper",), str(run), workers=int(workers))


@pytest.mark.parametrize("value", ["0", "-2"])
def test_bench_workers_env_below_one(tmp_path, monkeypatch, capsys, value):
    from screeb.harness import default_workers

    monkeypatch.setenv("BENCH_WORKERS", value)
    with pytest.raises(ConfigError, match=f"BENCH_WORKERS must be >= 1, got {value}"):
        default_workers()
    # A RunConfig built without workers reads the same rule, and is refused when built.
    with pytest.raises(ConfigError, match=f"BENCH_WORKERS must be >= 1, got {value}"):
        RunConfig(str(tmp_path / "bench"), ("mapper",), str(tmp_path / "run"))
    bench = tmp_path / "bench"
    assert cli_main(["generate", "--n", "1", "--seed", "5", "--out", str(bench)]) == 1
    assert not bench.exists()
    assert cli_main(["generate", "--n", "1", "--seed", "5", "--out", str(bench), "--workers", "1"]) == 0
    assert cli_main(["run", "--bench", str(bench), "--methods", "mapper", "--out", str(tmp_path / "run")]) == 1
    assert f"BENCH_WORKERS must be >= 1, got {value}" in capsys.readouterr().err


def test_bench_workers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_WORKERS", "2")
    from screeb.harness import default_workers

    assert default_workers() == 2
    assert RunConfig(str(tmp_path), ("mapper",), str(tmp_path / "run")).workers == 2
    assert RunConfig(str(tmp_path), ("mapper",), str(tmp_path / "run"), workers=1).workers == 1
    monkeypatch.delenv("BENCH_WORKERS")
    assert RunConfig(str(tmp_path), ("mapper",), str(tmp_path / "run")).workers == 1
    monkeypatch.setenv("BENCH_WORKERS", "junk")
    with pytest.raises(ConfigError):
        default_workers()
