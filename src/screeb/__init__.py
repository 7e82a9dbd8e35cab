"""Graph-shape recovery from point clouds.

Recovers reduced multigraph skeletons from high-dimensional point clouds
via diffusion Reeb graphs, generates synthetic benchmarks with known latent
topology, and scores recovered graphs with topology-aware metrics.
"""

from .geometry import (
    AffinityMatrix,
    NeighborGraph,
    PointCloud,
    adaptive_affinity,
    condense,
    fiedler_filter,
    knn_graph,
    load_points_csv,
    save_points_csv,
    transition_matrix,
)
from .graph import (
    BettiPair,
    Edge,
    Multigraph,
    betti,
    connected_components,
    disjoint_union,
    graph_from_json,
    graph_to_json,
    load_graph,
    reduce,
    save_graph,
)
from .mapper import MapperParams, dbscan, mapper_graph, pca_lens, third_neighbor_eps
from .metrics import (
    ComparisonResult,
    PersistenceDiagram,
    approx_ged,
    compare,
    edge_length_diagram,
    persistence_similarity,
    wasserstein_breakdown,
    wasserstein_distance,
)
from .reeb import ReebParams, ReebTower, reeb_graph, screeb, screeb_tower
from .synthgen import (
    DifficultyCoords,
    GeneratorConfig,
    SyntheticSample,
    embed_graph,
    generate_sample,
    sample_point_cloud,
    sample_topology_meta,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "BettiPair",
    "ComparisonResult",
    "DifficultyCoords",
    "Edge",
    "GeneratorConfig",
    "MapperParams",
    "Multigraph",
    "NeighborGraph",
    "PersistenceDiagram",
    "PointCloud",
    "ReebParams",
    "ReebTower",
    "SyntheticSample",
    "adaptive_affinity",
    "approx_ged",
    "betti",
    "compare",
    "condense",
    "connected_components",
    "dbscan",
    "disjoint_union",
    "edge_length_diagram",
    "embed_graph",
    "fiedler_filter",
    "generate_sample",
    "graph_from_json",
    "graph_to_json",
    "knn_graph",
    "load_graph",
    "load_points_csv",
    "mapper_graph",
    "pca_lens",
    "persistence_similarity",
    "reduce",
    "reeb_graph",
    "sample_point_cloud",
    "sample_topology_meta",
    "save_graph",
    "save_points_csv",
    "screeb",
    "screeb_tower",
    "third_neighbor_eps",
    "transition_matrix",
    "validate",
    "wasserstein_breakdown",
    "wasserstein_distance",
]
