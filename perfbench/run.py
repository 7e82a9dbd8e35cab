"""Benchmark of the screeb pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload ci --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` times whole passes over the workload with nothing wrapped and
reports the end-to-end metrics: medians over the passes that fit in
``--seconds`` (at least one). Times of calls into the package are CPU
times of the single-threaded process corrected for the shared host's speed
(see ``clock.py``), except that ``evaluate_s`` on ``ci`` is user CPU time
of fresh processes (see ``evaluate_probe.py``); ``setup_s`` is the plain CPU
time of fresh processes.
``--trace 1`` makes one untraced pass and one pass with
every public function of each ``screeb`` module wrapped (see ``tracer.py``),
and reports per-layer self times, call counts and work counters, with the
tracing overhead as the traced minus the untraced pass time (both
corrected). Self times are plain wall time and include the clock's ticks,
about 3%.

Every pass checks its outputs, and all passes of a run must produce
byte-identical outputs. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a check failed and 2 when the package sources are missing.
``--workload all`` runs each workload in its own process and prints every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from warmup import SRC, THREAD_VARS, pin_environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh processes per CPU that setup_s is the median of.
SETUP_PROBES = 2

WORKLOAD_NAMES = ("ci", "ladder", "union")


def parse_args(argv=None) -> argparse.Namespace:
    def non_negative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=non_negative, default=0)
    parser.add_argument("--seconds", type=non_negative, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment_record(bench_workers_given) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "bench_workers": os.environ["BENCH_WORKERS"],
        "bench_workers_given": bench_workers_given,
        "platform": platform.platform(),
    }


def measure_setup() -> float:
    """CPU time (user plus system, from start to exit) of a fresh process
    that imports the package and makes one warm-up call (``warmup.py``):
    the median over ``SETUP_PROBES`` such processes pinned to each CPU in
    turn (see ``clock.py``). It is single-threaded, so this is its run time
    when it has a core to itself."""
    from clock import allowed_cpus, on_cpu

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    times = []
    for _ in range(SETUP_PROBES):
        for cpu in allowed_cpus():
            with on_cpu(cpu):  # the probe inherits the pin
                start = children_cpu()
                subprocess.run([sys.executable, str(HERE / "warmup.py")], check=True, timeout=120, cwd=ROOT)
                times.append(children_cpu() - start)
    return statistics.median(times)


def compare_passes(passes, problems: list[str]) -> None:
    """Every pass of a run must produce the same bytes and the same scores."""
    first = passes[0]
    for i, other in enumerate(passes[1:], start=2):
        changed = sorted(k for k in first.digests.keys() | other.digests.keys() if first.digests.get(k) != other.digests.get(k))
        if changed:
            problems.append(f"pass {i} digests differ from pass 1: {changed[:5]} ({len(changed)} files)")
        if other.quality != first.quality:
            problems.append(f"pass {i} quality differs from pass 1: {other.quality} vs {first.quality}")


def run_untraced(run_pass, seed: int, work: Path, seconds: float, problems: list[str]):
    from clock import SpeedClock

    passes = []
    measuring = perf_counter()
    with SpeedClock() as clock:
        while True:
            passes.append(run_pass(seed, work / f"pass{len(passes)}").finish(clock))
            elapsed = perf_counter() - measuring
            if elapsed + statistics.median(p.raw["wall"] for p in passes) > seconds:
                break
    compare_passes(passes, problems)
    metrics = {}
    for key in ("generate_s", "run_s", "evaluate_s", "screeb_s", "screebtower_s"):
        metrics[key] = statistics.median(p.times[key] for p in passes)
    metrics.update(passes[0].quality)
    return passes, metrics


def run_traced(run_pass, seed: int, work: Path, problems: list[str]):
    import selftest
    import tracer as tracing
    from clock import SpeedClock

    problems.extend(selftest.run_checks())
    tracer = tracing.Tracer()
    with SpeedClock() as clock:
        untraced = run_pass(seed, work / "untraced", per_layer=True).finish(clock)
        tracer.install()
        try:
            traced = run_pass(seed, work / "traced", per_layer=True).finish(clock)
        finally:
            tracer.remove()
    left = tracing.Tracer.installed_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")
    compare_passes([untraced, traced], problems)
    metrics = tracer.metrics()
    metrics["trace.untraced_pass_s"] = untraced.times["wall"]
    metrics["trace.traced_pass_s"] = traced.times["wall"]
    metrics["trace.overhead_s"] = traced.times["wall"] - untraced.times["wall"]
    return [untraced, traced], metrics


def run_one(args) -> int:
    if not (SRC / "screeb" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    bench_workers_given = os.environ.get("BENCH_WORKERS")
    pin_environment()
    import screeb
    import tracer as tracing
    import warmup
    import workloads

    if Path(screeb.__file__).resolve().parent != SRC / "screeb":
        print(f"error: imported screeb from {screeb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment_record(bench_workers_given)}))
    warmup.warm_up()

    run_pass = workloads.WORKLOADS[args.workload]
    problems: list[str] = []
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            passes, metrics = run_traced(run_pass, args.seed, work, problems)
            specs = tracing.metric_specs()
        else:
            setup_s = measure_setup()
            passes, metrics = run_untraced(run_pass, args.seed, work, args.seconds, problems)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            specs = workloads.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, p in enumerate(passes, start=1):
        problems.extend(f"pass {i}: {msg}" for msg in p.problems)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    missing = [name for name, _, _ in specs if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for msg in problems:
        print(f"check failed: {msg}")
    print(f"{args.workload}: {len(passes)} pass(es)")
    for key in passes[0].times:
        print(f"  {key:16s} wall " + " ".join(f"{p.raw[key]:9.4f}" for p in passes) + "  corrected " + " ".join(f"{p.times[key]:9.4f}" for p in passes))
    for name, unit, _ in specs:
        print(f"  {name:40s} {metrics.get(name, float('nan')):>16.6f} {unit}")
    if args.trace:
        for layer, feeds in tracing.LAYER_FEEDS.items():
            print(f"  {layer} feeds {feeds}")
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; every metric by name and unit."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(line for line in lines if line.startswith("check failed")))
            print(f"{name}: exit code {proc.returncode}")
            status = 1
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>16.6f} {entry['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
