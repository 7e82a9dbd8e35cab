"""Topology-aware scoring on small hand-built graphs.

Shows the edge-length persistence diagram, the Wasserstein persistence
similarity and the approximate graph edit distance on a segment, a circle,
and a theta graph.
"""

from screeb import Edge, Multigraph, compare, edge_length_diagram


def main():
    segment = Multigraph(2, (Edge(0, 1, 1.0),))
    circle = Multigraph(1, (Edge(0, 0, 6.0),))
    theta = Multigraph(2, (Edge(0, 1, 2.0), Edge(0, 1, 3.0), Edge(0, 1, 4.0)))

    print("edge-length diagrams (normalized):")
    for name, g in (("segment", segment), ("circle", circle), ("theta", theta)):
        d = edge_length_diagram(g)
        print(f"  {name:>8}: H0 deaths {d.h0_deaths.tolist()}, essential {d.h0_essential}, H1 births {d.h1_births.tolist()}")

    print()
    print("pairwise comparison (similarity up, GED down):")
    graphs = {"segment": segment, "circle": circle, "theta": theta}
    names = list(graphs)
    print(f"{'':>8}" + "".join(f"{n:>22}" for n in names))
    for a in names:
        cells = []
        for b in names:
            r = compare(graphs[a], graphs[b])
            cells.append(f"sim={r.wasserstein_similarity:.3f} ged={r.ged:.0f}")
        print(f"{a:>8}" + "".join(f"{c:>22}" for c in cells))

if __name__ == "__main__":
    main()
