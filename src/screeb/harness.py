"""Batch pipeline: benchmark generation, method execution, scoring, reports.

Directory layouts
-----------------
benchmark:  <bench>/<id>/{points.csv, graph.json, meta.json}, <bench>/manifest.json
run:        <run>/run.json, <run>/<method>/<id>/graph.json (+ tower levels),
            <run>/<method>/run_manifest.json
results:    <results>/<method>/<id>/results.json, <results>/aggregate.csv

The manifest is written last and acts as the completion marker. Method
outputs are deterministic; timings live only in manifests and results, so
graph artifacts are byte-stable across reruns and worker counts.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import graph as graphmod
from .errors import ConfigError
from .geometry import PointCloud, load_points_csv, save_points_csv
from .graph import Multigraph, graph_to_json, load_graph, save_graph
from .mapper import MapperParams, mapper_graph
from .metrics import compare
from .reeb import ReebParams, screeb, screeb_tower
from .synthgen import GeneratorConfig, SyntheticSample, generate_sample

FORMAT_VERSION = 1
KNOWN_METHODS = ("screeb", "screebtower", "mapper")


@dataclass(frozen=True)
class RunConfig:
    bench_dir: str
    methods: tuple[str, ...]
    out_dir: str
    overrides: dict = field(default_factory=dict)
    level: Optional[int] = None  # tower level to score; None = last
    workers: int = 1

    def __post_init__(self):
        for m in self.methods:
            if m not in KNOWN_METHODS and not m.startswith("external:"):
                raise ConfigError(
                    f"unknown method {m!r}; expected one of {KNOWN_METHODS} or 'external:<dir>'"
                )
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


def default_workers() -> int:
    env = os.environ.get("BENCH_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError("BENCH_WORKERS must be an integer") from exc
    return 1


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# generate


def sample_id(index: int) -> str:
    return f"{index:05d}"


def write_sample(sample_dir: Path, sample: SyntheticSample, sid: str) -> None:
    sample_dir.mkdir(parents=True, exist_ok=True)
    save_points_csv(sample.cloud, sample_dir / "points.csv")
    save_graph(sample.graph, sample_dir / "graph.json")
    meta = dict(sample.metadata)
    meta["sample_id"] = sid
    meta["reduced_graph"] = json.loads(graph_to_json(sample.reduced_graph))
    with open(sample_dir / "meta.json", "w") as fh:
        fh.write(_json_dumps(meta))
        fh.write("\n")


def load_sample(sample_dir: Path) -> SyntheticSample:
    cloud = load_points_csv(sample_dir / "points.csv")
    graph = load_graph(sample_dir / "graph.json")
    with open(sample_dir / "meta.json") as fh:
        meta = json.load(fh)
    reduced = graphmod.graph_from_json(json.dumps(meta["reduced_graph"]))
    return SyntheticSample(cloud=cloud, graph=graph, reduced_graph=reduced, metadata=meta)


def _generate_one(args) -> str:
    cfg_doc, seed, index, out_dir = args
    cfg = GeneratorConfig.from_dict(cfg_doc)
    sample = generate_sample(cfg, seed, index)
    sid = sample_id(index)
    write_sample(Path(out_dir) / sid, sample, sid)
    return sid


def cmd_generate(
    config_path: Optional[str],
    n: int,
    seed: int,
    out_dir: str,
    force: bool = False,
    workers: Optional[int] = None,
) -> int:
    """Generate a benchmark directory; returns a process exit code."""
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    cfg = GeneratorConfig()
    if config_path:
        with open(config_path) as fh:
            cfg = GeneratorConfig.from_dict(json.load(fh))
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if out.exists() and any(out.iterdir()):
        if not force:
            state = "partial (no manifest)" if not manifest_path.exists() else "complete"
            raise ConfigError(
                f"output directory {out} already contains a {state} benchmark; "
                "pass --force to regenerate"
            )
        for child in sorted(out.iterdir()):
            if child.is_dir() and not child.is_symlink():
                shutil.rmtree(child)
            else:
                child.unlink()
    out.mkdir(parents=True, exist_ok=True)
    workers = workers or default_workers()
    tasks = [(cfg.to_dict(), seed, i, str(out)) for i in range(n)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            ids = list(pool.map(_generate_one, tasks))
    else:
        ids = [_generate_one(t) for t in tasks]
    ids.sort()
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": int(seed),
        "n_samples": int(n),
        "config": cfg.to_dict(),
        "sample_ids": ids,
    }
    with open(manifest_path, "w") as fh:
        fh.write(_json_dumps(manifest))
        fh.write("\n")
    return 0


def read_manifest(bench_dir: str) -> dict:
    path = Path(bench_dir) / "manifest.json"
    if not path.exists():
        raise ConfigError(f"benchmark manifest not found at {path}")
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run


def method_dirname(method: str) -> str:
    if method.startswith("external:"):
        base = Path(method.split(":", 1)[1]).name or "external"
        return f"external_{base}"
    return method


def _run_method_on_cloud(
    method: str, cloud: PointCloud, overrides: dict, level: Optional[int]
) -> tuple[Multigraph, dict, list[tuple[str, Multigraph]]]:
    """Returns (scored graph, status fields, extra per-level outputs)."""
    params_doc = dict(overrides.get(method, {}))
    if method == "screeb":
        params_doc["levels"] = 0
        params = ReebParams(**params_doc)
        return screeb(cloud, params), {"tower_level": 0}, []
    if method == "screebtower":
        params = ReebParams(**params_doc)
        tower = screeb_tower(cloud, params)
        scored = params.levels if level is None else level
        if not (0 <= scored < len(tower)):
            raise ConfigError(f"tower level {scored} outside 0..{len(tower) - 1}")
        extras = [(f"level_{i}.json", tower.graph(i)) for i in range(len(tower))]
        return tower.graph(scored), {"tower_level": scored}, extras
    if method == "mapper":
        params = MapperParams(**params_doc)
        return mapper_graph(cloud, params), {}, []
    raise ConfigError(f"method {method!r} does not run locally")


def _run_one(args) -> tuple[str, dict]:
    method, sample_dir, out_dir, overrides, level = args
    sid = Path(sample_dir).name
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        if method.startswith("external:"):
            src = Path(method.split(":", 1)[1]) / sid / "graph.json"
            if not src.exists():
                return sid, {"status": "missing", "error": f"no graph.json at {src}"}
            g = load_graph(src)  # validate before copying
            save_graph(g, out / "graph.json")
            status: dict = {"status": "ok"}
        else:
            cloud = load_points_csv(Path(sample_dir) / "points.csv")
            g, fields_, extras = _run_method_on_cloud(method, cloud, overrides, level)
            for fname, extra_graph in extras:
                save_graph(extra_graph, out / fname)
            if extras:
                tower_doc = {
                    "levels": len(extras),
                    "files": [fname for fname, _ in extras],
                    "scored_level": fields_.get("tower_level"),
                }
                with open(out / "tower.json", "w") as fh:
                    fh.write(_json_dumps(tower_doc))
                    fh.write("\n")
            save_graph(g, out / "graph.json")
            status = {"status": "ok", **fields_}
    except Exception as exc:  # failures recorded, batch continues
        status = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    status["timing_ms"] = (time.perf_counter() - start) * 1000.0
    return sid, status


def cmd_run(cfg: RunConfig) -> int:
    manifest = read_manifest(cfg.bench_dir)
    ids = manifest["sample_ids"]
    run_root = Path(cfg.out_dir)
    run_root.mkdir(parents=True, exist_ok=True)
    run_doc = {
        "format_version": FORMAT_VERSION,
        "bench_dir": str(cfg.bench_dir),
        "methods": {m: method_dirname(m) for m in cfg.methods},
        "level": cfg.level,
    }
    any_failure = False
    for method in cfg.methods:
        mdir = run_root / method_dirname(method)
        tasks = [
            (method, str(Path(cfg.bench_dir) / sid), str(mdir / sid), cfg.overrides, cfg.level)
            for sid in ids
        ]
        if cfg.workers > 1:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(_run_one, tasks))
        else:
            results = [_run_one(t) for t in tasks]
        statuses = {sid: st for sid, st in sorted(results)}
        any_failure = any_failure or any(st["status"] != "ok" for st in statuses.values())
        mdir.mkdir(parents=True, exist_ok=True)
        with open(mdir / "run_manifest.json", "w") as fh:
            fh.write(_json_dumps({"method": method, "samples": statuses}))
            fh.write("\n")
    with open(run_root / "run.json", "w") as fh:
        fh.write(_json_dumps(run_doc))
        fh.write("\n")
    return 2 if any_failure else 0


# ---------------------------------------------------------------------------
# evaluate


def _fmt_cell(x: float) -> str:
    return f"{x:.12g}"


def cmd_evaluate(bench_dir: str, run_dir: str, out_dir: str) -> int:
    manifest = read_manifest(bench_dir)
    run_path = Path(run_dir) / "run.json"
    if not run_path.exists():
        raise ConfigError(f"run manifest not found at {run_path}")
    with open(run_path) as fh:
        run_doc = json.load(fh)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    methods = run_doc["methods"]
    table: dict[str, dict[str, float]] = {}
    for method, mdirname in methods.items():
        mdir = Path(run_dir) / mdirname
        with open(mdir / "run_manifest.json") as fh:
            run_manifest = json.load(fh)
        sims: list[float] = []
        geds: list[float] = []
        excluded = 0
        for sid in manifest["sample_ids"]:
            status = run_manifest["samples"].get(sid, {"status": "missing"})
            sample_out = out / mdirname / sid
            result_doc: dict = {
                "sample_id": sid,
                "method": method,
                "tower_level": status.get("tower_level"),
                "timing_ms": status.get("timing_ms"),
            }
            graph_path = mdir / sid / "graph.json"
            if status.get("status") != "ok" or not graph_path.exists():
                excluded += 1
                result_doc["status"] = status.get("status", "missing")
                result_doc["error"] = status.get("error")
            else:
                try:
                    recovered = load_graph(graph_path)
                    latent = load_graph(Path(bench_dir) / sid / "graph.json")
                except (ValueError, OSError, KeyError) as exc:
                    excluded += 1
                    result_doc["status"] = "error"
                    result_doc["error"] = f"malformed graph.json: {exc}"
                else:
                    comparison = compare(recovered, latent)
                    result_doc.update(comparison.to_dict())
                    result_doc["status"] = "ok"
                    result_doc["diagram"] = comparison.diagram_s.to_dict()
                    with open(Path(bench_dir) / sid / "meta.json") as fh:
                        meta = json.load(fh)
                    result_doc["requested"] = meta.get("requested", {})
                    sims.append(comparison.wasserstein_similarity)
                    geds.append(comparison.ged)
            sample_out.mkdir(parents=True, exist_ok=True)
            with open(sample_out / "results.json", "w") as fh:
                fh.write(_json_dumps(result_doc))
                fh.write("\n")
        table[method] = {
            "wasserstein_similarity": float(np.mean(sims)) if sims else float("nan"),
            "ged": float(np.mean(geds)) if geds else float("nan"),
            "excluded": float(excluded),
        }
    method_names = list(methods)
    lines = ["metric," + ",".join(method_names)]
    for metric in ("wasserstein_similarity", "ged", "excluded"):
        cells = [_fmt_cell(table[m][metric]) for m in method_names]
        lines.append(f"{metric}," + ",".join(cells))
    with open(out / "aggregate.csv", "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    with open(out / "evaluate.json", "w") as fh:
        fh.write(_json_dumps({"methods": {m: methods[m] for m in methods}, "table": table}))
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(results_dir: str, out_path: Optional[str] = None) -> int:
    results_root = Path(results_dir)
    eval_path = results_root / "evaluate.json"
    rows: list[dict] = []
    if eval_path.exists():
        with open(eval_path) as fh:
            eval_doc = json.load(fh)
        method_dirs = eval_doc["methods"]
    else:
        method_dirs = {}
    for method, mdirname in method_dirs.items():
        mdir = results_root / mdirname
        if not mdir.is_dir():
            continue
        for sid_dir in sorted(mdir.iterdir()):
            rpath = sid_dir / "results.json"
            if rpath.exists():
                with open(rpath) as fh:
                    doc = json.load(fh)
                rows.append(doc)
    if not rows:
        print("no results")
        return 1
    methods = sorted({r["method"] for r in rows})
    print("metric".ljust(28) + "".join(m.rjust(18) for m in methods))
    for metric in ("wasserstein_similarity", "ged"):
        cells = []
        for m in methods:
            vals = [r[metric] for r in rows if r["method"] == m and r.get("status") == "ok"]
            cells.append(f"{np.mean(vals):.4f}" if vals else "n/a")
        print(metric.ljust(28) + "".join(c.rjust(18) for c in cells))
    excluded = {m: sum(1 for r in rows if r["method"] == m and r.get("status") != "ok") for m in methods}
    print("excluded".ljust(28) + "".join(str(excluded[m]).rjust(18) for m in methods))

    strat_path = Path(out_path) if out_path else results_root / "stratified.csv"
    header = "sample_id,method,noise_ratio,separation,density,thickness,wasserstein_similarity,ged"
    lines = [header]
    for r in sorted(rows, key=lambda r: (r["method"], r["sample_id"])):
        req = r.get("requested", {})
        lines.append(
            ",".join(
                [
                    r["sample_id"],
                    r["method"],
                    _fmt_cell(req.get("noise_ratio", float("nan"))),
                    _fmt_cell(req.get("separation", float("nan"))),
                    _fmt_cell(req.get("density", float("nan"))),
                    _fmt_cell(req.get("thickness", float("nan"))),
                    _fmt_cell(r.get("wasserstein_similarity", float("nan"))),
                    _fmt_cell(r.get("ged", float("nan"))),
                ]
            )
        )
    with open(strat_path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return 0
