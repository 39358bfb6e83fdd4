"""DBSCAN with automatic radius tuning via ternary search on k(eps)."""

from .core import (
    NOISE,
    CurveSample,
    KCurve,
    Labeling,
    PreparedPoints,
    RunStats,
    approximate_diameter_ub,
    dbscan,
)
from .curve import curve_to_sample, dip_p_value, dip_statistic, sweep_curve
from .data_io import load_labels, load_matrix, synth_blobs
from .metrics import ari, exclude_noise, nmi
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
    concentration_experiment,
    concentration_thresholds,
    expected_k_closed_form,
    mode_epsilon_closed_form,
    monte_carlo_expected_k,
)

__version__ = "0.1.0"
