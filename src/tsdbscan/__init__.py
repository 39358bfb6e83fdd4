"""DBSCAN with automatic radius tuning via ternary search on k(eps)."""

from .core import (
    NOISE,
    CurveSample,
    KCurve,
    Labeling,
    RunStats,
    approximate_diameter_ub,
    count_clusters,
    dbscan,
    distance,
    noise_fraction,
    region_query,
)
from .curve import (
    UnimodalityReport,
    curve_to_sample,
    dip_p_value,
    dip_statistic,
    sweep_curve,
    unimodality_report,
)
from .data_io import load_labels, load_matrix, synth_blobs
from .metrics import approximation_ratio, ari, exclude_noise, nmi
from .search import (
    SearchBounds,
    TuneConfig,
    cond,
    effective_k,
    estimate_lower_bound,
    estimate_upper_bound,
    ternary_search,
    ts_clustering,
    tse_clustering,
    tse_estimate,
)
from .theory import (
    ConcentrationConfig,
    UniformModel,
    concentration_experiment,
    concentration_thresholds,
    expected_k_closed_form,
    mode_epsilon_closed_form,
    monte_carlo_expected_k,
    sample_uniform_dataset,
)

__version__ = "0.1.0"
