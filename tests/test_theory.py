import numpy as np
import pytest

import tsdbscan.core
from tsdbscan import (
    ConcentrationConfig,
    concentration_experiment,
    concentration_thresholds,
    expected_k_closed_form,
    mode_epsilon_closed_form,
    monte_carlo_expected_k,
)


CONC = ConcentrationConfig(rho=0.1, beta=2.0, delta=0.05)


@pytest.mark.parametrize("call,name", [
    pytest.param(lambda: monte_carlo_expected_k(100.5, 0.01, 2, 0), "n", id="monte_carlo-n"),
    pytest.param(lambda: monte_carlo_expected_k(100, 0.01, 2.5, 0), "trials", id="monte_carlo-trials"),
    pytest.param(lambda: concentration_experiment(CONC, 1.5, 100, 2, 0), "dims", id="concentration-dims"),
    pytest.param(lambda: concentration_experiment(CONC, 1, 100, 2.5, 0), "trials", id="concentration-trials"),
])
def test_counts_must_be_integers(call, name):
    # a float count failed with numpy's or range's TypeError, which the
    # command line's ValueError handler does not catch
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


class TestClosedForm:
    def test_direct_evaluation(self):
        assert expected_k_closed_form(10, 0.5) == pytest.approx(9 / 1024)

    def test_vanishes_beyond_one(self):
        assert expected_k_closed_form(10, 1.0) == 0.0
        assert expected_k_closed_form(10, 1.7) == 0.0

    def test_peak_near_quarter_n(self):
        n = 1000
        peak = expected_k_closed_form(n, mode_epsilon_closed_form(n))
        assert peak == pytest.approx(n / 4, rel=0.02)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            expected_k_closed_form(2, 0.1)

    def test_grid_unimodal_above_tiny_epsilon(self):
        # one strict local maximum over a fine grid (plateau tolerant)
        n = 200
        grid = np.linspace(1e-4, 0.5, 2000)
        vals = np.array([expected_k_closed_form(n, e) for e in grid])
        rising = np.flatnonzero(np.diff(vals) > 1e-12)
        falling = np.flatnonzero(np.diff(vals) < -1e-12)
        assert rising.size and falling.size
        assert rising.max() < falling.min()


class TestModeEpsilon:
    def test_exact_small_case(self):
        assert mode_epsilon_closed_form(3) == pytest.approx(1 / 3)

    def test_asymptotic_ratio(self):
        n = 10_000
        ratio = mode_epsilon_closed_form(n) / (np.log(2) / n)
        assert abs(ratio - 1) < 0.05

    def test_agrees_with_grid_argmax(self):
        # the stated mode is an asymptotic expression, accurate to a few
        # percent of ln(2)/n at n=100; check against the grid argmax at a
        # matching resolution
        n = 100
        grid = np.linspace(1e-4, 0.02, 50)
        vals = [expected_k_closed_form(n, e) for e in grid]
        best = grid[int(np.argmax(vals))]
        assert mode_epsilon_closed_form(n) == pytest.approx(best, abs=grid[1] - grid[0])


class TestMonteCarlo:
    def test_diameter_regime(self):
        mean, se = monte_carlo_expected_k(100, 1.0, trials=5, seed=0)
        assert mean == 1.0
        assert se == 0.0

    def test_no_core_regime(self):
        mean, _ = monte_carlo_expected_k(100, 1e-9, trials=5, seed=0)
        assert mean == 0.0

    def test_near_quarter_n_at_mode(self):
        n = 1000
        mean, _ = monte_carlo_expected_k(n, np.log(2) / n, trials=50, seed=1)
        assert mean == pytest.approx(n / 4, rel=0.05)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            monte_carlo_expected_k(10, float("nan"), 3, 0)

    def test_builds_no_per_point_labels(self, monkeypatch):
        # the oracle's probes read only k; with the label builder refusing,
        # the Monte Carlo runs and both concentration probes in 1-D and 2-D
        # still run
        def refuse(*forest):
            raise AssertionError("a probe built per-point labels")

        monkeypatch.setattr(tsdbscan.core, "_label_points", refuse)
        mean, _ = monte_carlo_expected_k(200, np.log(2) / 200, trials=5, seed=0)
        assert mean > 1
        cfg = ConcentrationConfig(rho=0.1, beta=2.0, delta=0.05)
        for dims in (1, 2):
            assert concentration_experiment(cfg, dims=dims, n=400, trials=2, seed=0)["passed"]

    def test_deterministic(self):
        a = monte_carlo_expected_k(200, 0.005, trials=10, seed=3)
        b = monte_carlo_expected_k(200, 0.005, trials=10, seed=3)
        assert a == b


class TestConcentration:
    def test_threshold_formulas_1d(self):
        cfg = ConcentrationConfig(rho=0.1, beta=2.0, delta=0.05)
        lo, hi = concentration_thresholds(cfg, dims=1)
        assert (lo, hi) == (pytest.approx(0.025), pytest.approx(0.1))

    def test_threshold_formulas_4d(self):
        cfg = ConcentrationConfig(rho=0.1, beta=2.0, delta=0.05)
        lo, hi = concentration_thresholds(cfg, dims=4)
        base = 0.5 * 0.1 ** 0.25
        assert lo == pytest.approx(base / 2)
        assert hi == pytest.approx(2 * 2 * base)

    def test_beta_to_one_limit(self):
        cfg = ConcentrationConfig(rho=0.1, beta=1.0 + 1e-9, delta=0.05)
        lo, hi = concentration_thresholds(cfg, dims=1)
        assert lo == pytest.approx(0.05, rel=1e-6)
        assert hi == pytest.approx(0.05, rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConcentrationConfig(rho=0.3, beta=2.0, delta=0.05)
        for beta in (1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"beta must be in \(1, inf\)"):
                ConcentrationConfig(rho=0.1, beta=beta, delta=0.05)
        with pytest.raises(ValueError):
            ConcentrationConfig(rho=0.1, beta=2.0, delta=0.0)

    def test_experiment_rejects_no_trials(self):
        cfg = ConcentrationConfig(rho=0.1, beta=2.0, delta=0.2)
        with pytest.raises(ValueError, match="trials must be positive"):
            concentration_experiment(cfg, dims=1, n=100, trials=0, seed=0)

    def test_small_scale_experiment(self):
        cfg = ConcentrationConfig(rho=0.1, beta=2.0, delta=0.2)
        rep = concentration_experiment(cfg, dims=1, n=3000, trials=5, seed=0)
        assert rep["min_pts"] == 300
        assert rep["fraction_single_cluster"] >= 0.8
        assert rep["fraction_no_cluster"] >= 0.8
        assert rep["passed"]


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: mode_epsilon_closed_form(2), "n >= 3", id="mode_epsilon-n"),
    pytest.param(lambda: monte_carlo_expected_k(1, 0.1, 3, 0), "n must be at least 2", id="monte_carlo-n"),
    pytest.param(lambda: monte_carlo_expected_k(10, 0.1, 0, 0), "trials must be positive",
                 id="monte_carlo-trials"),
    pytest.param(lambda: concentration_thresholds(ConcentrationConfig(0.1, 2.0, 0.05), dims=0),
                 "dims must be positive", id="thresholds-dims"),
])
def test_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
