"""The benchmark under ``perfbench/`` reads package internals (the tracer
wraps public functions by name and reads ``NeighborGraph.neighbor_ids`` and
``NeighborGraph.symmetrized``), so its self-test runs with the tier-1 suite:
a library change that breaks traced benchmark runs fails here."""

from pathlib import Path

import numpy as np

from screeb import PointCloud, knn_graph
from screeb.geometry import induced_neighbor_subgraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_selftest_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    assert selftest.run_checks() == []


def test_tracer_neighbor_views_are_the_undirected_edges(monkeypatch, rng):
    # The tracer counts geometry.knn_edges as half the neighbor_ids entries
    # when ``symmetrized``, and slice_counts re-derives a graph's pairs from
    # neighbor_ids: both must see exactly undirected_edges().
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    nbrs = knn_graph(PointCloud(rng.normal(size=(60, 2))), 5)
    piece = induced_neighbor_subgraph(nbrs, rng.permutation(60)[:25])
    for g in (nbrs, piece):
        edges = g.undirected_edges()[0]
        assert g.symmetrized is True
        assert len(g.neighbor_ids) == g.n
        assert sum(map(len, g.neighbor_ids)) == 2 * len(edges)
        assert all(np.all(np.diff(ids) > 0) and not ids.flags.writeable for ids in g.neighbor_ids)
        listed = sorted((min(u, v), max(u, v)) for u, ids in enumerate(g.neighbor_ids) for v in ids.tolist())
        assert listed == sorted(2 * list(map(tuple, edges.tolist())))
        # Rounding ties some filter values, as equal points do in screeb.
        f = np.round(rng.normal(size=g.n), 1)
        distinct = np.unique(f)
        lo, hi = np.searchsorted(distinct, np.sort(f[edges], axis=1)).T
        assert tracer.slice_counts(g, f) == (distinct.size - 1, int((hi - lo).sum()))
    assert induced_neighbor_subgraph(nbrs, []).neighbor_ids == ()
