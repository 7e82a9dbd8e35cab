"""Batch pipeline: benchmark generation, method execution, scoring, reports.

Directory layouts
-----------------
benchmark:  <bench>/<id>/{points.csv, graph.json, meta.json}, <bench>/manifest.json
run:        <run>/run.json, <run>/<method>/<id>/graph.json (+ tower levels),
            <run>/<method>/run_manifest.json
results:    <results>/<method>/<id>/results.json, <results>/{aggregate.csv, evaluate.json}
            (``bench report`` prints evaluate.json's table, adds stratified.csv)

The manifest is written last and acts as the completion marker. Method
outputs are deterministic; timings live only in manifests and results, so
graph artifacts are byte-stable across reruns and worker counts.

``bench run`` goes sample by sample: each task loads one sample's cloud
once and runs every method on it. When ``screeb`` and ``screebtower``
have equal ``ReebParams`` apart from ``levels``, ``screeb`` is served from
the tower's base level, computed once. Each status's ``timing_ms`` is the
method's standalone cost: shared work (the cloud load, the base graph) is
charged to every method that uses it, so per-method timings sum to more
than the run took.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
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
        for m, section in self.overrides.items():
            if m not in KNOWN_METHODS:
                raise ConfigError(f"config section {m!r} names no method; expected one of {KNOWN_METHODS}")
            if not isinstance(section, dict):
                raise ConfigError(f"config section {m!r} must be a JSON object, not {type(section).__name__}")
            _method_params(m, section)
        tower = _method_params("screebtower", self.overrides.get("screebtower", {}))
        if "screebtower" in self.methods and self.level is not None and not 0 <= self.level <= tower.levels:
            raise ConfigError(f"tower level {self.level} outside 0..{tower.levels}")
        _worker_count(self.workers, "workers")


def _method_params(method: str, section: dict):
    """The ``MapperParams`` or ``ReebParams`` of one method's config section;
    a section they refuse is a ``ConfigError`` naming the method."""
    try:
        return (MapperParams if method == "mapper" else ReebParams)(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {method!r}: {exc}") from exc


def _map(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, computed in a pool of ``workers`` processes when above 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _worker_count(workers: int, source: str) -> int:
    """``workers``, the process count given by ``source``; below 1 it is a ``ConfigError``."""
    if workers < 1:
        raise ConfigError(f"{source} must be >= 1, got {workers}")
    return workers


def default_workers() -> int:
    """The process count in ``BENCH_WORKERS``, or 1 when it is unset or empty."""
    env = os.environ.get("BENCH_WORKERS")
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError as exc:
        raise ConfigError("BENCH_WORKERS must be an integer") from exc
    return _worker_count(count, "BENCH_WORKERS")


def _write(path: Path, doc) -> None:
    """Write one artifact with a final newline: a list as CSV lines, any
    other ``doc`` as JSON with sorted keys and an indent of 1."""
    text = "\n".join(doc) if isinstance(doc, list) else json.dumps(doc, sort_keys=True, indent=1)
    path.write_text(text + "\n")


def read_json(path, what: str = "config file", **required: tuple[type, type]) -> dict:
    """The JSON object in the ``what`` at ``path``, holding each ``required``
    key as a list or dict (the pair's first type) of items of the pair's
    second type; a missing file, or one that holds anything else, is a
    ``ConfigError`` naming it."""
    if not Path(path).exists():
        raise ConfigError(f"{what} not found at {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object, not {type(doc).__name__}")
    for key, (kind, item) in required.items():
        value = doc.get(key)
        items = value.values() if isinstance(value, dict) else value
        if not isinstance(value, kind) or not all(isinstance(x, item) for x in items):
            names = {list: "array", dict: "object", str: "string", object: "value"}
            raise ConfigError(f"{what} {path} must hold {key!r} as a JSON {names[kind]} of {names[item]}s")
    return doc


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
    _write(sample_dir / "meta.json", meta)


def load_sample(sample_dir: Path) -> SyntheticSample:
    cloud = load_points_csv(sample_dir / "points.csv")
    graph = load_graph(sample_dir / "graph.json")
    meta = read_json(sample_dir / "meta.json", "sample metadata", reduced_graph=(dict, object))
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
    workers = _worker_count(default_workers() if workers is None else workers, "workers")
    cfg = GeneratorConfig()
    if config_path:
        cfg = GeneratorConfig.from_dict(read_json(config_path))
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if out.exists() and any(out.iterdir()):
        if not force:
            state = "partial (no manifest)" if not manifest_path.exists() else "complete"
            raise ConfigError(
                f"output directory {out} already contains a {state} benchmark; "
                "pass --force to regenerate"
            )
        try:
            for child in sorted(out.iterdir()):
                if child.is_dir() and not child.is_symlink():
                    shutil.rmtree(child)
                else:
                    child.unlink()
        except OSError as exc:
            raise ConfigError(f"--force could not clear output directory {out}: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    ids = sorted(_map(_generate_one, [(cfg.to_dict(), seed, i, str(out)) for i in range(n)], workers))
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": int(seed),
        "n_samples": int(n),
        "config": cfg.to_dict(),
        "sample_ids": ids,
    }
    _write(manifest_path, manifest)
    return 0


def read_manifest(bench_dir: str) -> dict:
    return read_json(Path(bench_dir) / "manifest.json", "benchmark manifest", sample_ids=(list, str))


# ---------------------------------------------------------------------------
# run


def method_dirname(method: str) -> str:
    if method.startswith("external:"):
        base = Path(method.split(":", 1)[1]).name or "external"
        return f"external_{base}"
    return method


class _SharedWork:
    """Work that several methods of one sample need, each piece done once.

    ``get(key, fn)`` returns ``fn()``, or raises its error, computed on the
    first request for ``key``. Each later request adds the first one's
    elapsed time to ``charged_ms``, so a method that reuses the work is
    still timed at its standalone cost.
    """

    def __init__(self):
        self._done: dict = {}
        self.charged_ms = 0.0

    def get(self, key, fn):
        if key in self._done:
            value, error, ms = self._done[key]
            self.charged_ms += ms
        else:
            start = time.perf_counter()
            try:
                value, error = fn(), None
            except Exception as exc:  # every method that needs the work records it
                value, error = None, exc
            ms = (time.perf_counter() - start) * 1000.0
            self._done[key] = (value, error, ms)
        if error is not None:
            raise error
        return value


def _run_method_on_cloud(
    method: str, cloud: PointCloud, overrides: dict, level: Optional[int], shared: _SharedWork
) -> tuple[Multigraph, dict, list[tuple[str, Multigraph]]]:
    """Runs one of ``KNOWN_METHODS``; returns (scored graph, status fields,
    extra per-level outputs)."""
    params = _method_params(method, overrides.get(method, {}))
    if method == "mapper":
        return mapper_graph(cloud, params), {}, []
    # The tower's level 0 is screeb's graph, so parameters that differ only
    # in levels share it; ``screeb`` itself reads no ``levels``.
    base = shared.get(replace(params, levels=0), lambda: screeb(cloud, params))
    if method == "screeb":
        return base, {"tower_level": 0}, []
    tower = screeb_tower(cloud, params, base=base)
    scored = params.levels if level is None else level  # RunConfig checked it
    extras = [(f"level_{i}.json", tower.graph(i)) for i in range(len(tower))]
    return tower.graph(scored), {"tower_level": scored}, extras


def _run_method(
    method: str, sample_dir: Path, out: Path, overrides: dict, level: Optional[int], shared: _SharedWork
) -> dict:
    """Writes one method's outputs for one sample into ``out``; returns its status."""
    if method.startswith("external:"):
        src = Path(method.split(":", 1)[1]) / sample_dir.name / "graph.json"
        if not src.exists():
            return {"status": "missing", "error": f"no graph.json at {src}"}
        g = load_graph(src)  # validate before copying
        save_graph(g, out / "graph.json")
        return {"status": "ok"}
    cloud = shared.get("points.csv", lambda: load_points_csv(sample_dir / "points.csv"))
    g, fields_, extras = _run_method_on_cloud(method, cloud, overrides, level, shared)
    for fname, extra_graph in extras:
        save_graph(extra_graph, out / fname)
    if extras:
        tower_doc = {
            "levels": len(extras),
            "files": [fname for fname, _ in extras],
            "scored_level": fields_.get("tower_level"),
        }
        _write(out / "tower.json", tower_doc)
    save_graph(g, out / "graph.json")
    return {"status": "ok", **fields_}


def _run_sample(args) -> tuple[str, dict[str, dict]]:
    """Runs every method on one sample; returns the sample id and each method's status."""
    sample_dir, outs, overrides, level = args
    shared = _SharedWork()
    statuses: dict[str, dict] = {}
    for method, out_dir in outs:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        shared.charged_ms = 0.0
        start = time.perf_counter()
        try:
            status = _run_method(method, Path(sample_dir), out, overrides, level, shared)
        except Exception as exc:  # failures recorded, batch continues
            status = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        status["timing_ms"] = (time.perf_counter() - start) * 1000.0 + shared.charged_ms
        statuses[method] = status
    return Path(sample_dir).name, statuses


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
    mdirs = {m: run_root / method_dirname(m) for m in cfg.methods}
    tasks = [
        (str(Path(cfg.bench_dir) / sid), [(m, str(mdirs[m] / sid)) for m in cfg.methods], cfg.overrides, cfg.level)
        for sid in ids
    ]
    by_sample = dict(_map(_run_sample, tasks, cfg.workers))
    any_failure = False
    for method, mdir in mdirs.items():
        statuses = {sid: by_sample[sid][method] for sid in sorted(by_sample)}
        any_failure = any_failure or any(st["status"] != "ok" for st in statuses.values())
        mdir.mkdir(parents=True, exist_ok=True)
        _write(mdir / "run_manifest.json", {"method": method, "samples": statuses})
    _write(run_root / "run.json", run_doc)
    return 2 if any_failure else 0


# ---------------------------------------------------------------------------
# evaluate


def _fmt_cell(x: float) -> str:
    return f"{x:.12g}"


def cmd_evaluate(bench_dir: str, run_dir: str, out_dir: str) -> int:
    manifest = read_manifest(bench_dir)
    methods = read_json(Path(run_dir) / "run.json", "run manifest", methods=(dict, str))["methods"]
    run_statuses = {
        m: read_json(Path(run_dir) / d / "run_manifest.json", "method run manifest", samples=(dict, dict))["samples"]
        for m, d in methods.items()
    }
    requested = {
        sid: read_json(Path(bench_dir) / sid / "meta.json", "sample metadata").get("requested", {})
        for sid in manifest["sample_ids"]
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sims: dict[str, list[float]] = {m: [] for m in methods}
    geds: dict[str, list[float]] = {m: [] for m in methods}
    excluded = dict.fromkeys(methods, 0)
    for sid in manifest["sample_ids"]:
        latent = None  # read once per sample, by its first scored method
        for method, mdirname in methods.items():
            status = run_statuses[method].get(sid, {"status": "missing"})
            sample_out = out / mdirname / sid
            result_doc: dict = {
                "sample_id": sid,
                "method": method,
                "tower_level": status.get("tower_level"),
                "timing_ms": status.get("timing_ms"),
            }
            graph_path = Path(run_dir) / mdirname / sid / "graph.json"
            if status.get("status") != "ok" or not graph_path.exists():
                excluded[method] += 1
                result_doc["status"] = status.get("status", "missing")
                result_doc["error"] = status.get("error")
            else:
                try:
                    recovered = load_graph(graph_path)
                    if latent is None:
                        latent = load_graph(Path(bench_dir) / sid / "graph.json")
                except (ValueError, OSError, KeyError) as exc:
                    excluded[method] += 1
                    result_doc["status"] = "error"
                    result_doc["error"] = f"malformed graph.json: {exc}"
                else:
                    comparison = compare(recovered, latent)
                    result_doc.update(comparison.to_dict())
                    result_doc["status"] = "ok"
                    result_doc["diagram"] = comparison.diagram_s.to_dict()
                    result_doc["requested"] = requested[sid]
                    sims[method].append(comparison.wasserstein_similarity)
                    geds[method].append(comparison.ged)
            sample_out.mkdir(parents=True, exist_ok=True)
            _write(sample_out / "results.json", result_doc)
    table: dict[str, dict[str, float]] = {
        m: {
            "wasserstein_similarity": float(np.mean(sims[m])) if sims[m] else float("nan"),
            "ged": float(np.mean(geds[m])) if geds[m] else float("nan"),
            "excluded": float(excluded[m]),
        }
        for m in methods
    }
    method_names = list(methods)
    lines = ["metric," + ",".join(method_names)]
    for metric in ("wasserstein_similarity", "ged", "excluded"):
        cells = [_fmt_cell(table[m][metric]) for m in method_names]
        lines.append(f"{metric}," + ",".join(cells))
    _write(out / "aggregate.csv", lines)
    _write(out / "evaluate.json", {"methods": {m: methods[m] for m in methods}, "table": table})
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(results_dir: str, out_path: Optional[str] = None) -> int:
    """Print the table of ``evaluate.json`` and write the stratified CSV of
    every ``results.json``; returns 1 when there are none."""
    results_root = Path(results_dir)
    eval_path = results_root / "evaluate.json"
    rows: list[dict] = []
    table: dict[str, dict[str, float]] = {}
    if eval_path.exists():
        eval_doc = read_json(eval_path, "evaluation summary", methods=(dict, str), table=(dict, dict))
        table = eval_doc["table"]
        for mdirname in eval_doc["methods"].values():
            for rpath in sorted((results_root / mdirname).glob("*/results.json")):
                rows.append(read_json(rpath, "result"))
    if not rows:
        print("no results")
        return 1
    methods = sorted({r["method"] for r in rows})
    print("metric".ljust(28) + "".join(m.rjust(18) for m in methods))
    for metric in ("wasserstein_similarity", "ged"):
        cells = ["n/a" if np.isnan(table[m][metric]) else f"{table[m][metric]:.4f}" for m in methods]
        print(metric.ljust(28) + "".join(c.rjust(18) for c in cells))
    print("excluded".ljust(28) + "".join(str(int(table[m]["excluded"])).rjust(18) for m in methods))

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
    _write(strat_path, lines)
    return 0
