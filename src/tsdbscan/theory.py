"""Closed-form and Monte Carlo checks of the uniform-data theory.

For iid U[0,1] data in 1-D with min_pts=2 the expected cluster count has
a closed form with a mode near ln(2)/N and peak near N/4. For
min_pts = rho*N the count concentrates: above a threshold radius a
single cluster forms with high probability, below a smaller threshold
none does, in any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RunStats, dbscan

PROBE_MARGIN = 0.1  # relative distance of a concentration probe beyond its threshold


@dataclass
class ConcentrationConfig:
    """Parameters of the concentration statements."""

    rho: float
    beta: float
    delta: float

    def __post_init__(self):
        if not 0 < self.rho < 0.25:
            raise ValueError("rho must be in (0, 1/4)")
        if not 1 < self.beta < math.inf:
            raise ValueError(f"beta must be in (1, inf), got {self.beta}")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")


def expected_k_closed_form(n: int, epsilon: float) -> float:
    """Expected cluster count for 1-D uniform data at min_pts=2.

    Valid near the mode; at epsilon -> 0 the expression tends to 1
    while the true count is 0, so callers should not rely on it far
    below the mode.
    """
    if n < 3:
        raise ValueError("closed form requires n >= 3")
    a = max(1.0 - epsilon, 0.0)
    b = max(1.0 - 2.0 * epsilon, 0.0)
    return (n - 1) * a**n - (n - 2) * b**n


def mode_epsilon_closed_form(n: int) -> float:
    """Radius maximizing the closed form; about ln(2)/n for large n."""
    if n < 3:
        raise ValueError("closed form requires n >= 3")
    a = ((2 * n - 2) / (n - 2)) ** (1.0 / (n - 1))
    return (a - 1) / (2 * a - 1)


def monte_carlo_expected_k(n: int, epsilon: float, trials: int, seed: int,
                           stats: RunStats | None = None) -> tuple[float, float]:
    """Mean and standard error of k over independent 1-D uniform datasets
    clustered at min_pts=2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if trials < 1:
        raise ValueError("trials must be positive")
    ks = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        ks[t] = dbscan(rng.random((n, 1)), epsilon, 2, stats=stats).n_clusters
    stderr = float(ks.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(ks.mean()), stderr


def concentration_thresholds(cfg: ConcentrationConfig, dims: int = 1) -> tuple[float, float]:
    """(eps_low, eps_high): below eps_low k=0 w.h.p., above eps_high k=1."""
    if dims < 1:
        raise ValueError("dims must be positive")
    base = 0.5 * cfg.rho ** (1.0 / dims)
    eps_low = base / cfg.beta
    eps_high = math.sqrt(dims) * cfg.beta * base
    return eps_low, eps_high


def concentration_experiment(cfg: ConcentrationConfig, dims: int, n: int,
                             trials: int, seed: int, stats: RunStats | None = None) -> dict:
    """Probe both thresholds with a safety margin and report pass rates.

    The statements are asymptotic, so the probes sit ``PROBE_MARGIN`` beyond
    each threshold. The experiment passes when each regime shows up in
    at least a 1-delta fraction of trials.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    min_pts = max(2, round(cfg.rho * n))
    eps_low, eps_high = concentration_thresholds(cfg, dims)
    probe_high = eps_high * (1 + PROBE_MARGIN)
    probe_low = eps_low * (1 - PROBE_MARGIN)
    ones = zeros = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x = rng.random((n, dims))
        if dbscan(x, probe_high, min_pts, stats=stats).n_clusters == 1:
            ones += 1
        if dbscan(x, probe_low, min_pts, stats=stats).n_clusters == 0:
            zeros += 1
    frac_one = ones / trials
    frac_zero = zeros / trials
    return {
        "dims": dims,
        "n": n,
        "min_pts": min_pts,
        "trials": trials,
        "eps_low": eps_low,
        "eps_high": eps_high,
        "probe_low": probe_low,
        "probe_high": probe_high,
        "fraction_single_cluster": frac_one,
        "fraction_no_cluster": frac_zero,
        "passed": frac_one >= 1 - cfg.delta and frac_zero >= 1 - cfg.delta,
    }
