"""Time-aware topological summaries of dynamic graphs, and a forecaster.

The package turns a sequence of weighted graph snapshots into zigzag
persistence diagrams and images, measures distances between them, and
feeds the images through a reference spatio-temporal graph network whose
gradients are verified against finite differences.
"""

from .dyngraph import (
    DynamicNetwork,
    FeatureSeries,
    Snapshot,
    normalize_transaction_weights,
    rbf_censored_weights,
    reduce_top_edges,
    sliding_windows,
    union_graph,
)
from .filtration import (
    FiltrationMode,
    SimplicialComplex,
    betti_numbers,
    build_complex,
)
from .metrics import MatchingResult, linf_distance, wasserstein1
from .zigzag import (
    ZPD,
    betti_consistency_check,
    build_zigzag,
    compute_zigzag_persistence,
    zigzag_series,
)
from .zpi import (
    GridSpec,
    WeightingSpec,
    ZPIGrid,
    default_domain,
    default_theta,
    render_zpi,
)

__version__ = "0.1.0"

__all__ = [
    "DynamicNetwork",
    "FeatureSeries",
    "FiltrationMode",
    "GridSpec",
    "MatchingResult",
    "SimplicialComplex",
    "Snapshot",
    "WeightingSpec",
    "ZPD",
    "ZPIGrid",
    "betti_consistency_check",
    "betti_numbers",
    "build_complex",
    "build_zigzag",
    "compute_zigzag_persistence",
    "default_domain",
    "default_theta",
    "linf_distance",
    "normalize_transaction_weights",
    "rbf_censored_weights",
    "reduce_top_edges",
    "render_zpi",
    "sliding_windows",
    "union_graph",
    "wasserstein1",
    "zigzag_series",
]
