"""Regularized estimation of large covariance matrices.

Banding, tapering, and Cholesky-factor banding of the inverse, with
resampling-based bandwidth selection, simulation benchmarks, eigenstructure
diagnostics, and a partitioned linear-prediction workflow.
"""

import types as _types

from .bench import (
    ExperimentReport,
    ExperimentSpec,
    ReplicationRecord,
    parse_spec,
    read_experiment_report,
    run_simulation_experiment,
    write_experiment_report,
    write_ratio_table,
)
from .errors import (
    BandwidthTooLarge,
    CovbandError,
    DataFormatError,
    InsufficientData,
    NotPositiveDefinite,
    SingularBlock,
    SingularDesign,
    SpectralDegeneracy,
    ZeroTrace,
)
from .estimators import (
    ESTIMATORS,
    BandedCholeskyFactors,
    banded_covariance,
    cholesky_banded_covariance,
    cholesky_covariance_path,
    factors_to_matrices,
    fit_banded_cholesky,
    fit_covariance,
    load_data_csv,
    sample_covariance,
    save_data_csv,
    tapered_covariance,
)
from .forecast import (
    TRANSFORMS,
    ForecastOutcome,
    PartitionedMoments,
    conditional_coefficients,
    forecast_error,
    forecast_workflow,
    ingest_counts,
    partition_moments,
    predict_second_half,
    write_forecast_report,
)
from .matcore import (
    NORMS,
    TAPER_FAMILIES,
    EigenDecomposition,
    TaperSpec,
    band,
    cholesky_factor,
    effective_bandwidth,
    is_positive_definite,
    load_matrix_csv,
    matrix_norm,
    require_symmetric,
    save_matrix_csv,
    schur_product,
    sym_eigen,
    symmetrize,
    taper_weights,
)
from .selection import (
    ESTIMATOR_KINDS,
    SELECTION_NORMS,
    RiskCurve,
    SelectionResult,
    default_k_grid,
    estimate_risk,
    log_split_size,
    oracle_k0,
    oracle_k1,
    read_risk_curve,
    select_k,
    theoretical_bandwidth,
    write_risk_curve,
)
from .simgen import (
    MODEL_KINDS,
    CovarianceModel,
    build_covariance,
    parse_model,
    sample_gaussian,
    substream,
    substream_seed,
)
from .spectral import (
    DEGENERACY_GAP,
    EigenComparison,
    eigen_compare,
    variance_captured,
    write_comparison_csv,
)

__version__ = "0.1.0"

# Every public name bound above; the submodules themselves are not API.
__all__ = sorted(name for name, value in list(globals().items())
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
