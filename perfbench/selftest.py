"""Self-test of the tracer on a tiny cloud: ``python3 perfbench/selftest.py``.

Checks that wrapped call counts match the package's known call structure,
that self times are non-negative and sum to no more than the wall time, that
tracing changes no output, that every wrapper is removed afterwards, and
that BENCHMARK.json names exactly the metrics the benchmark prints. Traced
runs of ``run.py`` make the same checks first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from warmup import pin_environment

ROOT = Path(__file__).resolve().parent.parent


def _traced(call):
    import tracer as tracing

    t = tracing.Tracer()
    t.install()
    start = perf_counter()
    try:
        result = call()
    finally:
        wall = perf_counter() - start
        t.remove()
    return t, result, wall


def run_checks() -> list[str]:
    """Problems found; empty when every check holds."""
    import screeb
    import tracer as tracing
    import workloads
    from warmup import tiny_cloud

    problems: list[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            problems.append(f"selftest: {message}")

    cloud = tiny_cloud()
    params = screeb.ReebParams(levels=2)
    plain = screeb.graph_to_json(screeb.screeb_tower(cloud, params).graph(2))
    t, tower, wall = _traced(lambda: screeb.screeb_tower(cloud, params))
    check(screeb.graph_to_json(tower.graph(2)) == plain, "traced screeb_tower output differs")
    # Level 0 and each of the two condensed levels run screeb once; knn_graph
    # is reached through screeb.reeb (3 calls) and screeb.geometry (2 calls).
    expected = {"reeb.screeb_tower": 1, "reeb.screeb": 3, "geometry.condense": 2, "geometry.knn_graph": 5}
    for name, calls in expected.items():
        check(t.calls(name) == calls, f"{name} made {t.calls(name)} calls, expected {calls}")
    check(t.calls("reeb.reeb_graph") >= 3, "reeb_graph was not traced inside screeb")
    self_times = t.self_times()
    check(all(v >= 0.0 for v in self_times.values()), f"negative self time in {self_times}")
    check(sum(self_times.values()) <= wall, f"self times sum to {sum(self_times.values())} > wall {wall}")
    check(t.metrics()["reeb.reduced_vertices"] == sum(tower.graph(i).n_vertices for i in range(3)), "reduced_vertices")

    # Every candidate sample either raises a reject or is validated.
    cfg = screeb.GeneratorConfig()
    t, sample, _ = _traced(lambda: screeb.generate_sample(cfg, workloads.CI_SEED, 0))
    m = t.metrics()
    check(m["synthgen.attempts"] == sample.metadata["reject_count"] + 1, f"attempts {m['synthgen.attempts']}")
    check(abs(m["synthgen.accept_ratio"] * m["synthgen.attempts"] - 1.0) < 1e-9, "accept_ratio")

    left = tracing.Tracer.installed_wrappers()
    check(not left, f"wrappers left installed: {left}")

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        e2e = [m["name"] for m in spec["end_to_end"]]
        check(e2e == [name for name, _, _ in workloads.END_TO_END], "BENCHMARK.json end_to_end names differ")
        layers = [m["name"] for m in spec["per_layer"]]
        check(layers == [name for name, _, _ in tracing.metric_specs()], "BENCHMARK.json per_layer names differ")
    return problems


if __name__ == "__main__":
    pin_environment()
    found = run_checks()
    for msg in found:
        print(msg)
    print("selftest:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
