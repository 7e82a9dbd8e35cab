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
import numbers
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .geometry import load_points_csv, save_points_csv
from .graph import _is_number, graph_to_json, load_graph, save_graph
from .mapper import MapperParams, mapper_graph
from .metrics import check_diagram_size, compare
from .reeb import ReebParams, screeb, screeb_tower
from .synthgen import GeneratorConfig, SyntheticSample, generate_sample

FORMAT_VERSION = 1
KNOWN_METHODS = ("screeb", "screebtower", "mapper")
_SCORES = ("wasserstein_similarity", "ged")  # averaged in evaluate.json's table, listed in stratified.csv


@dataclass(frozen=True)
class RunConfig:
    bench_dir: str
    methods: tuple[str, ...]
    out_dir: str
    overrides: dict = field(default_factory=dict)
    level: Optional[int] = None  # tower level to score; None = last
    workers: Optional[int] = None  # None: default_workers(), the BENCH_WORKERS rule

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
        # Each known method's checked params: a derived attribute, no field, handed to every sample.
        object.__setattr__(self, "params", {m: _method_params(m, self.overrides.get(m, {})) for m in KNOWN_METHODS})
        if self.level is not None and not _is_number(self.level, numbers.Integral):
            raise ConfigError(f"tower level must be an integer, not {self.level!r}")
        tower = self.params["screebtower"]
        if "screebtower" in self.methods and self.level is not None and not 0 <= self.level <= tower.levels:
            raise ConfigError(f"tower level {self.level} outside 0..{tower.levels}")
        object.__setattr__(self, "workers", _worker_count(self.workers, "workers"))


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


def _worker_count(workers: Optional[int], source: str) -> int:
    """``workers``, the process count given by ``source``, or ``default_workers()`` for None;
    all but an integer >= 1 is a ``ConfigError``."""
    if workers is None:
        return default_workers()
    if not _is_number(workers, numbers.Integral):
        raise ConfigError(f"{source} must be an integer, not {workers!r}")
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
            of = f" of {names[item]}s" if kind in (list, dict) else ""
            raise ConfigError(f"{what} {path} must hold {key!r} as a JSON {names[kind]}{of}")
    return doc


# ---------------------------------------------------------------------------
# generate


def sample_id(index: int) -> str:
    return f"{index:05d}"


def write_sample(sample_dir: Path, sample: SyntheticSample, sid: str) -> None:
    sample_dir.mkdir(parents=True, exist_ok=True)
    save_points_csv(sample.cloud, sample_dir / "points.csv")
    save_graph(sample.graph, sample_dir / "graph.json")
    reduced = json.loads(graph_to_json(sample.reduced_graph))
    _write(sample_dir / "meta.json", {**sample.metadata, "sample_id": sid, "reduced_graph": reduced})


def load_sample(sample_dir: Path) -> SyntheticSample:
    """The sample that ``write_sample`` wrote; its reduced graph is derived from ``graph.json`` again."""
    meta = read_json(sample_dir / "meta.json", "sample metadata")
    return SyntheticSample(load_points_csv(sample_dir / "points.csv"), load_graph(sample_dir / "graph.json"), meta)


def _generate_one(args) -> str:
    cfg, seed, index, out_dir = args
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
    if not (_is_number(n, numbers.Integral) and n >= 1):
        raise ConfigError(f"sample count must be an integer >= 1, not {n!r}")
    workers = _worker_count(workers, "workers")
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
    ids = sorted(_map(_generate_one, [(cfg, seed, i, str(out)) for i in range(n)], workers))
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


def _run_method(
    method: str, sample_dir: Path, out: Path, params, level: Optional[int], shared: _SharedWork
) -> dict:
    """Writes one method's outputs for one sample into ``out``; returns its status."""
    if method.startswith("external:"):
        src = Path(method.split(":", 1)[1]) / sample_dir.name / "graph.json"
        if not src.exists():
            return {"status": "missing", "error": f"no graph.json at {src}"}
        save_graph(load_graph(src), out / "graph.json")  # validate before copying
        return {"status": "ok"}
    cloud = shared.get("points.csv", lambda: load_points_csv(sample_dir / "points.csv"))
    if method == "mapper":
        save_graph(mapper_graph(cloud, params), out / "graph.json")
        return {"status": "ok"}
    # The tower's level 0 is screeb's graph, so parameters that differ only
    # in levels share it; ``screeb`` itself reads no ``levels``.
    base = shared.get(replace(params, levels=0), lambda: screeb(cloud, params))
    if method == "screeb":
        save_graph(base, out / "graph.json")
        return {"status": "ok", "tower_level": 0}
    tower = screeb_tower(cloud, params, base=base)
    scored = params.levels if level is None else level  # RunConfig checked it
    files = [f"level_{i}.json" for i in range(len(tower))]
    for i, fname in enumerate(files):
        save_graph(tower.graph(i), out / fname)
    _write(out / "tower.json", {"levels": len(files), "files": files, "scored_level": scored})
    shutil.copyfile(out / files[scored], out / "graph.json")  # the scored level's bytes, serialized once
    return {"status": "ok", "tower_level": scored}


def _run_sample(args) -> tuple[str, dict[str, dict]]:
    """Runs every method on one sample; returns the sample id and each method's status."""
    sample_dir, outs, params, level = args
    shared = _SharedWork()
    statuses: dict[str, dict] = {}
    for method, out_dir in outs:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        shared.charged_ms = 0.0
        start = time.perf_counter()
        try:
            status = _run_method(method, Path(sample_dir), out, params.get(method), level, shared)
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
        (str(Path(cfg.bench_dir) / sid), [(m, str(mdirs[m] / sid)) for m in cfg.methods], cfg.params, cfg.level)
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
        sid: read_json(Path(bench_dir) / sid / "meta.json", "sample metadata", requested=(dict, object))["requested"]
        for sid in manifest["sample_ids"]
    }
    latents = {}
    for sid in manifest["sample_ids"]:
        path = Path(bench_dir) / sid / "graph.json"
        try:
            latents[sid] = check_diagram_size(load_graph(path))
        except (ValueError, OSError, KeyError) as exc:  # a missing, malformed or oversized latent graph
            raise ConfigError(f"latent graph {path}: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scored: dict[str, list[dict]] = {m: [] for m in methods}  # each method's comparisons, as score dicts
    for sid in manifest["sample_ids"]:
        for method, mdirname in methods.items():
            status = run_statuses[method].get(sid, {"status": "missing"})
            result_doc: dict = {
                "sample_id": sid,
                "method": method,
                "tower_level": status.get("tower_level"),
                "timing_ms": status.get("timing_ms"),
            }
            graph_path = Path(run_dir) / mdirname / sid / "graph.json"
            if status.get("status") != "ok":
                result_doc["status"] = status.get("status", "missing")
                result_doc["error"] = status.get("error")
            elif not graph_path.exists():  # the run wrote it, but it is gone
                result_doc["status"] = "missing"
                result_doc["error"] = f"no graph.json at {graph_path}"
            else:
                try:
                    comparison = compare(load_graph(graph_path), latents[sid])  # refuses more edge copies than a diagram takes
                except (ValueError, OSError, KeyError) as exc:
                    result_doc["status"] = "error"
                    result_doc["error"] = f"malformed graph.json: {exc}"
                else:
                    scores = comparison.to_dict()
                    scored[method].append(scores)
                    result_doc.update(scores, status="ok", diagram=comparison.diagram_s.to_dict())
            result_doc["requested"] = requested[sid]  # scored or not, so a failure can be stratified too
            sample_out = out / mdirname / sid
            sample_out.mkdir(parents=True, exist_ok=True)
            _write(sample_out / "results.json", result_doc)
    table: dict[str, dict[str, float]] = {
        m: {k: float(np.mean([c[k] for c in cs])) if cs else float("nan") for k in _SCORES}
        | {"excluded": float(len(manifest["sample_ids"]) - len(cs))}  # failed, missing or malformed
        for m, cs in scored.items()
    }
    lines = ["metric," + ",".join(methods)]
    for metric in (*_SCORES, "excluded"):
        lines.append(f"{metric}," + ",".join(_fmt_cell(table[m][metric]) for m in methods))
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
                rows.append(read_json(rpath, "result", sample_id=(str, str), method=(str, str)))
                if not isinstance(rows[-1].get("requested", {}), dict):
                    raise ConfigError(f"result {rpath} must hold 'requested' as a JSON object")
    if not rows:
        print("no results")
        return 1
    methods = sorted({r["method"] for r in rows})
    if not all(isinstance(table.get(m, {}).get(k), (int, float)) for m in methods for k in (*_SCORES, "excluded")):
        raise ConfigError(f"evaluation summary {eval_path} must hold a table row of numbers for each of {methods}")
    print("metric".ljust(28) + "".join(m.rjust(18) for m in methods))
    for metric in _SCORES:
        cells = ["n/a" if np.isnan(table[m][metric]) else f"{table[m][metric]:.4f}" for m in methods]
        print(metric.ljust(28) + "".join(c.rjust(18) for c in cells))
    print("excluded".ljust(28) + "".join(str(int(table[m]["excluded"])).rjust(18) for m in methods))

    strat_path = Path(out_path) if out_path else results_root / "stratified.csv"
    columns = ("noise_ratio", "separation", "density", "thickness", *_SCORES)  # the difficulty coordinates, then scores
    lines = [",".join(("sample_id", "method", *columns))]
    for r in sorted(rows, key=lambda r: (r["method"], r["sample_id"])):
        values = {**r.get("requested", {}), **r}
        lines.append(",".join([r["sample_id"], r["method"], *(_fmt_cell(values.get(c, float("nan"))) for c in columns)]))
    _write(strat_path, lines)
    return 0
