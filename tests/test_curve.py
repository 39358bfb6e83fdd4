from pathlib import Path

import numpy as np
import pytest

from tsdbscan import (
    CurveSample,
    RunStats,
    curve_to_sample,
    dip_p_value,
    dip_statistic,
    sweep_curve,
)
from tsdbscan.curve import count_strict_local_maxima, epsilon_grid
from tsdbscan.data_io import load_matrix

from conftest import brute_force_dip

DATA_DIR = Path(__file__).parent / "data"

TWO_CLUSTERS_1D = np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])[:, None]


def bell_curve_sample():
    """A one-peaked k(eps) curve on a 100-point grid, histogram-expanded."""
    eps = np.linspace(0.05, 5.0, 100)
    k = np.round(20 * np.exp(-((eps - 1.5) / 0.8) ** 2)).astype(int)
    return curve_to_sample([CurveSample(float(e), int(c), 0.0) for e, c in zip(eps, k)])


class TestEpsilonGrid:
    @pytest.mark.parametrize("x", [
        pytest.param(np.ones((5, 2)), id="coincident"),
        pytest.param(np.array([[0.0], [5e-324], [1e-323], [0.0]]), id="underflow"),
    ])
    def test_zero_diameter_bound_warns_and_ends_at_float64_eps(self, x):
        with pytest.warns(UserWarning, match="diameter bound is 0, because the points "
                                             "coincide or their distances underflow"):
            grid = epsilon_grid(x, 10)
        assert len(grid) == 10
        assert grid[-1] == np.finfo(np.float64).eps
        assert grid[0] > 0


class TestSweep:
    def test_boundary_laws(self):
        x = np.array([[0.0], [10.0], [20.0]])
        curve = sweep_curve(x, [0.5, 25.0], min_pts=2)
        assert [(c.epsilon, c.k, c.noise) for c in curve] == [(0.5, 0, 1.0), (25.0, 1, 0.0)]

    def test_two_cluster_max(self):
        curve = sweep_curve(TWO_CLUSTERS_1D, np.linspace(0.01, 40, 400), min_pts=2)
        assert max(c.k for c in curve) == 2

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            sweep_curve(TWO_CLUSTERS_1D, [], min_pts=2)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            sweep_curve(TWO_CLUSTERS_1D, [1.0, 1.0], min_pts=2)
        with pytest.raises(ValueError):
            sweep_curve(TWO_CLUSTERS_1D, [-1.0, 1.0], min_pts=2)

    def test_sweep_errors_of_the_build(self):
        with pytest.raises(ValueError, match="min_pts"):
            sweep_curve(TWO_CLUSTERS_1D, [1.0], min_pts=1)
        with pytest.raises(ValueError, match="zero vectors"):
            sweep_curve([[0.0, 0.0], [1.0, 0.0]], [1.0], min_pts=2, metric="cosine")

    def test_one_build_and_no_dbscan_run(self):
        stats = RunStats()
        sweep_curve(TWO_CLUSTERS_1D, np.linspace(0.01, 40, 50), min_pts=2, stats=stats)
        assert (stats.dbscan_invocations, stats.point_evaluations) == (0, 0)
        assert stats.curve_builds == 1


class TestCurveToSample:
    def test_direct_expansion(self):
        curve = [CurveSample(1, 2, 0.0), CurveSample(2, 0, 0.0), CurveSample(3, 1, 0.0)]
        assert curve_to_sample(curve).tolist() == [1, 1, 3]

    def test_single(self):
        assert curve_to_sample([CurveSample(1, 1, 0.0)]).tolist() == [1]

    def test_uniform_replication(self):
        curve = [CurveSample(e, 3, 0.0) for e in (1.0, 2.0, 3.0)]
        assert curve_to_sample(curve).tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            curve_to_sample([CurveSample(1, 0, 1.0)])


@pytest.mark.parametrize("func,arg,message", [
    pytest.param(curve_to_sample, [CurveSample(1.0, 2, 0.0), CurveSample(2.0, -1, 0.0)],
                 "negative cluster counts", id="curve_to_sample-negative-k"),
    pytest.param(dip_statistic, [0.0, float("nan"), 1.0], "NaN or Inf", id="dip_statistic-nan"),
])
def test_rejects_bad_input(func, arg, message):
    with pytest.raises(ValueError, match=message):
        func(arg)


class TestDipStatistic:
    def test_two_points(self):
        assert dip_statistic([0.0, 1.0]) == pytest.approx(0.25)

    def test_even_grid_is_nearly_uniform(self):
        assert dip_statistic(np.linspace(0, 1, 1000)) <= 0.001

    def test_two_point_masses(self):
        assert dip_statistic([0.0] * 50 + [1.0] * 50) == pytest.approx(0.25)

    def test_bounds_on_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            s = rng.normal(size=n)
            d = dip_statistic(s)
            assert 1 / (2 * n) - 1e-12 <= d <= 0.25 + 1e-12

    def test_matches_lp_oracle_on_small_samples(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            s = rng.random(int(rng.integers(4, 9)))
            assert dip_statistic(s) == pytest.approx(brute_force_dip(s), abs=1e-5)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=80)
        base = dip_statistic(s)
        assert dip_statistic(3.5 * s + 11.0) == pytest.approx(base)

    def test_too_small_errors(self):
        with pytest.raises(ValueError):
            dip_statistic([1.0])

    @pytest.mark.parametrize("sample, dip", [
        (np.random.default_rng(10).random(567), 0.018575189014966385),
        (np.round(np.random.default_rng(11).normal(size=400), 1), 0.02875),  # 50 distinct values
        (bell_curve_sample(), 0.017761989342806393),
    ])
    def test_pinned_values(self, sample, dip):
        # the dips of the reference two-loop AS 217 code, bit for bit
        assert dip_statistic(sample) == dip

    def test_reflection_invariance(self):
        rng = np.random.default_rng(12)
        for s in (rng.normal(size=300), np.round(rng.normal(size=300), 1), rng.standard_cauchy(50)):
            assert dip_statistic(-s) == pytest.approx(dip_statistic(s))


class TestDipPValue:
    def test_bimodal_significant(self):
        rng = np.random.default_rng(3)
        s = np.concatenate([np.zeros(100), np.ones(100)]) + rng.normal(0, 0.01, 200)
        assert dip_p_value(s, 200, seed=0) < 0.05

    def test_triangular_insignificant(self):
        rng = np.random.default_rng(4)
        s = rng.triangular(0, 0.5, 1, 500)
        assert dip_p_value(s, 200, seed=0) > 0.05

    def test_zero_boot_errors(self):
        with pytest.raises(ValueError):
            dip_p_value([0.0, 1.0], 0, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=100)
        assert dip_p_value(s, 50, seed=7) == dip_p_value(s, 50, seed=7)

    def test_nonincreasing_in_observed_dip(self):
        # samples sharing n but with growing bimodality
        rng = np.random.default_rng(6)
        spread = [0.3, 0.8, 2.0]
        dips, ps = [], []
        for gap in spread:
            s = np.concatenate([rng.normal(0, 0.2, 100), rng.normal(gap, 0.2, 100)])
            dips.append(dip_statistic(s))
            ps.append(dip_p_value(s, 100, seed=9))
        order = np.argsort(dips)
        assert all(ps[order[i]] >= ps[order[i + 1]] for i in range(len(order) - 1))


class TestNonUnimodalFixture:
    def test_fixture_shows_two_local_maxima(self):
        pts = load_matrix(DATA_DIR / "nonunimodal_2d.csv")
        assert pts.shape[1] == 2
        curve = sweep_curve(pts, np.linspace(0.05, 35.0, 700), min_pts=2)
        assert count_strict_local_maxima(curve) >= 2
