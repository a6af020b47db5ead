"""One-bit sensing on the sphere: geometry, sign maps, nets, widths, checks.

The package splits into small layers: ``sphere`` holds geometry and sign
geometry primitives, ``measurements`` the direction ensembles and bit maps,
``nets`` packing/covering and shattering machinery, ``processes`` the width
and empirical-process estimators, ``verify`` the theorem-level check
routines, and ``harness``/``cli`` the seeded experiment runner.
"""

from .errors import (
    DimensionMismatchError,
    FeasibilityError,
    InvalidDimensionError,
    NumericalError,
    PreconditionError,
)
from .harness import (
    EXPERIMENT_ORDER,
    EXPERIMENTS,
    ExperimentConfig,
    ReportRow,
    resolve_m,
    run,
    run_experiment,
    summarize,
)
from .measurements import HALF_NORMAL_MEAN, MeasurementEnsemble, sign_matrix
from .nets import (
    NetReport,
    VcReport,
    canonical_witness,
    first_uncovered_cover,
    greedy_packing,
    sandwich_check,
    shatter_check,
)
from .processes import (
    SudakovReport,
    WidthEstimate,
    covariance_matrix,
    estimate_gaussian_width,
    estimate_hemisphere_width_cholesky,
    estimate_hemisphere_width_empirical,
    hemisphere_empirical_samples,
    sudakov_check,
)
from .rng import substream
from .sphere import (
    PointSet,
    SparseSpec,
    pairwise_chord,
    pairwise_geodesic,
    signs,
    sparse_net,
    transversal_mask,
    uniform_sphere_rows,
    wedge_mask,
)
from .verify import (
    PairAudit,
    finite_embedding,
    linear_l1_rip,
    metric_ratio_check,
    one_bit_rip,
    sign_product_rip,
    small_cells_check,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "EXPERIMENTS",
    "EXPERIMENT_ORDER",
    "ExperimentConfig",
    "FeasibilityError",
    "HALF_NORMAL_MEAN",
    "InvalidDimensionError",
    "MeasurementEnsemble",
    "NetReport",
    "NumericalError",
    "PairAudit",
    "PointSet",
    "PreconditionError",
    "ReportRow",
    "SparseSpec",
    "SudakovReport",
    "VcReport",
    "WidthEstimate",
    "canonical_witness",
    "covariance_matrix",
    "estimate_gaussian_width",
    "estimate_hemisphere_width_cholesky",
    "estimate_hemisphere_width_empirical",
    "finite_embedding",
    "first_uncovered_cover",
    "greedy_packing",
    "hemisphere_empirical_samples",
    "linear_l1_rip",
    "metric_ratio_check",
    "one_bit_rip",
    "pairwise_chord",
    "pairwise_geodesic",
    "resolve_m",
    "run",
    "run_experiment",
    "sandwich_check",
    "shatter_check",
    "sign_matrix",
    "sign_product_rip",
    "signs",
    "small_cells_check",
    "sparse_net",
    "substream",
    "sudakov_check",
    "summarize",
    "transversal_mask",
    "uniform_sphere_rows",
    "wedge_mask",
]
