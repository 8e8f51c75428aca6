"""Kernel k-means with Nystrom landmark acceleration, plus a numerical lab
for sign-complexity and excess-risk scaling checks at desk scale."""

from .kernels import (
    KernelSpec,
    GramMatrix,
    Spectrum,
    gram_matrix,
    spectrum_of,
    effective_dimension,
    eigendecay_xi_bound,
)
from .clustering import (
    Assignment,
    ClusterCostTrace,
    cluster_cost,
    kernel_lloyd,
    brute_force_erm,
    random_assignment,
)
from .seeding import (
    SeedingResult,
    kernel_kmeanspp,
    local_search_improve,
    approximate_erm,
)
from .nystrom import (
    LandmarkSet,
    EmbeddedDataset,
    sample_landmarks_uniform,
    landmark_size,
    nystrom_embed,
    nystrom_kkmeans,
)
from .rademacher import (
    RadEstimate,
    LowerBoundInstance,
    coordinate_rad,
    signed_scatter_supremum,
    lower_bound_construction,
    finite_class_rad,
    khintchine_check,
    CheckRow,
    rad_check_cell,
    theorem_bound_value,
)
from .risk import (
    DistributionSpec,
    CellRecord,
    RiskReport,
    MPolicy,
    population_risk,
    optimal_risk,
    run_cell,
    scaling_fit,
    beta_ratio_study,
    standard_benchmark,
)

__version__ = "0.1.0"
