"""The benchmark under ``perfbench/`` reads package internals (the tracer
wraps public functions by name and reads ``NeighborGraph.neighbor_ids``), so
its self-test runs with the tier-1 suite: a library change that breaks
traced benchmark runs fails here."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_selftest_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    assert selftest.run_checks() == []
