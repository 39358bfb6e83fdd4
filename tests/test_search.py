import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import tsdbscan.core
import tsdbscan.search
from tsdbscan import (
    CurveSample,
    PreparedPoints,
    RunStats,
    SearchBounds,
    TuneConfig,
    approximate_diameter_ub,
    cond,
    dbscan,
    effective_k,
    estimate_lower_bound,
    estimate_upper_bound,
    sweep_curve,
    ternary_search,
    ts_clustering,
    tse_clustering,
    tse_estimate,
)
from tsdbscan.data_io import synth_blobs

TWO_CLUSTERS_1D = np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])[:, None]


def sweep_max_k(x, min_pts, lo, hi, n=1000):
    curve = sweep_curve(x, np.linspace(lo, hi, n), min_pts)
    return max(c.k for c in curve)


class TestEffectiveK:
    def test_chance_single_cluster(self):
        assert effective_k(CurveSample(1.0, 1, 0.98)) == 0

    def test_converged_single_cluster(self):
        assert effective_k(CurveSample(1.0, 1, 0.05)) == 1

    def test_rule_only_at_k_one(self):
        assert effective_k(CurveSample(1.0, 7, 0.95)) == 7


class TestCond:
    B = SearchBounds(0.0, 9.0)

    @pytest.mark.parametrize("k_l,k_r,expect", [
        (1, 1, (0.0, 3.0)),
        (0, 1, (3.0, 6.0)),
        (0, 0, (6.0, 9.0)),
        (5, 2, (0.0, 6.0)),
        (2, 5, (3.0, 9.0)),
    ])
    def test_branches(self, k_l, k_r, expect):
        out = cond(self.B, 3.0, 6.0, k_l, k_r)
        assert (out.lower, out.upper) == expect

    def test_reduction_is_third_or_two_thirds_subset(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lo = float(rng.uniform(0, 5))
            hi = lo + float(rng.uniform(0.1, 10))
            b = SearchBounds(lo, hi)
            m_l = (2 * lo + hi) / 3
            m_r = (lo + 2 * hi) / 3
            out = cond(b, m_l, m_r, int(rng.integers(0, 6)), int(rng.integers(0, 6)))
            assert out.lower >= lo - 1e-12 and out.upper <= hi + 1e-12
            ratio = (out.upper - out.lower) / (hi - lo)
            assert ratio == pytest.approx(1 / 3) or ratio == pytest.approx(2 / 3)


class TestTernarySearch:
    def test_finds_two_cluster_mode(self):
        cfg = TuneConfig(min_pts=2, itr=6)
        eps = ternary_search(TWO_CLUSTERS_1D, SearchBounds(0.0, 40.0), cfg)
        assert 0.0 < eps < 40.0
        k = dbscan(TWO_CLUSTERS_1D, eps, 2).n_clusters
        assert k == sweep_max_k(TWO_CLUSTERS_1D, 2, 0.01, 40.0) == 2

    def test_degenerate_interval_returns_midpoint(self):
        a = 2.0
        b = float(np.nextafter(a, np.inf))
        with pytest.warns(UserWarning):
            out = ternary_search(TWO_CLUSTERS_1D, SearchBounds(a, b),
                                 TuneConfig(min_pts=2))
        assert out == pytest.approx(0.5 * (a + b))

    def test_result_within_initial_bounds_and_budget(self):
        rng = np.random.default_rng(1)
        x = rng.random((40, 2))
        cfg = TuneConfig(min_pts=3, itr=5)
        stats = RunStats()
        eps = ternary_search(x, SearchBounds(0.0, 3.0), cfg, stats)
        assert 0.0 <= eps <= 3.0
        assert stats.dbscan_invocations == 2 * cfg.itr

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_probes_build_no_per_point_labels(self, monkeypatch, metric):
        # a probe reads only k and the noise fraction, which dbscan knows
        # without numbering labels: with the label builder refusing, a
        # search over 2-D data (border points and noise included) and one
        # over one column still run
        def refuse(*forest):
            raise AssertionError("a probe built per-point labels")

        monkeypatch.setattr(tsdbscan.core, "_label_points", refuse)
        x = np.random.default_rng(2).random((60, 2))
        cfg = TuneConfig(min_pts=4, itr=6, metric=metric)
        for points in (x, x[:, :1] + 1.0):
            stats = RunStats()
            assert 0.0 < ternary_search(points, SearchBounds(0.0, 1.5), cfg, stats) < 1.5
            assert stats.dbscan_invocations == 2 * cfg.itr

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_a_prepared_set_searches_as_its_matrix(self, metric):
        # ternary_search takes a prepared set as dbscan does: the same
        # probes, so the same radius and counters; a set prepared for
        # another metric is refused
        x = np.random.default_rng(3).random((60, 3)) + 0.1
        cfg = TuneConfig(min_pts=4, itr=4, metric=metric)
        bounds = SearchBounds(0.0, 1.0)
        on_matrix, on_set = RunStats(), RunStats()
        assert ternary_search(PreparedPoints(x, metric), bounds, cfg, on_set) == \
            ternary_search(x, bounds, cfg, on_matrix)
        assert on_set == on_matrix and on_set.dbscan_invocations == 2 * cfg.itr
        other = "euclidean" if metric != "euclidean" else "manhattan"
        with pytest.raises(ValueError, match="prepared for metric"):
            ternary_search(PreparedPoints(x, other), bounds, cfg)

    def test_a_small_search_computes_its_matrix_once(self, monkeypatch):
        # the points 0, 1, ..., 9 beside a zero column: N^2 = 100 cells fit
        # one block, so the first probe builds the set's curve, which
        # computes the whole 10 x 10 x 2 matrix in one call and keeps only
        # the curve, and each of the 2 * itr probes reads its counts off
        # that curve. With min_pts 3, each probe finds one cluster: eps 3
        # and 6 (the thirds of [0, 9]) give k 1 and 1, so the interval
        # becomes [0, 3], and its thirds are eps 1 and 2. A probe reads no
        # labels, so none checks a ball end on the key: the build's matrix
        # is the one kernel call and its cells all the counter holds
        x = np.c_[np.arange(10.0), np.zeros(10)]
        calls = []

        def counted_cdist(a, b, *args, **kwargs):
            calls.append((a.shape, b.shape))
            return cdist(a, b, *args, **kwargs)

        monkeypatch.setattr(tsdbscan.core, "cdist", counted_cdist)
        cfg = TuneConfig(min_pts=3, itr=2)
        stats = RunStats()
        assert ternary_search(x, SearchBounds(0.0, 9.0), cfg, stats) == 1.5
        assert calls == [((10, 2), (10, 2))]
        assert stats == RunStats(dbscan_invocations=2 * cfg.itr, point_evaluations=10 * 10 * 2,
                                 curve_builds=1)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_a_cached_search_reads_every_probe_off_one_curve(self, monkeypatch, metric):
        # the N^2 of 60 x 3 rows fits one block: the 12 probes of a search
        # build the set's curve once, at the first probe, and run no pass
        def refuse(*args):
            raise AssertionError("a probe ran the pass")

        monkeypatch.setattr(tsdbscan.core, "_windowed", refuse)
        x = np.random.default_rng(4).random((60, 3)) + 0.1
        cfg = TuneConfig(min_pts=4, itr=6, metric=metric)
        stats = RunStats()
        assert 0.0 < ternary_search(x, SearchBounds(0.0, 1.0), cfg, stats) < 1.0
        assert (stats.dbscan_invocations, stats.curve_builds) == (12, 1)
        assert stats.point_evaluations == 60 * 60 * 3

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_a_one_column_search_reads_every_probe_off_one_curve(self, monkeypatch, metric):
        # a prepared set with one column reads its counts off its curve at
        # any N: 1000 rows, whose N^2 exceeds one block, so the build
        # computes no matrix. The 12 probes build the curve once, at the first
        # probe, and neither check a ball end nor run the pass. The build
        # computes one kernel value for each row's core distance, join
        # radius and reach radius, 3N cells at D = 1, less the join radius
        # of the first sorted row, which has no row before it: inf, with no
        # kernel value
        def refuse(*args):
            raise AssertionError("a probe ran the pass")

        monkeypatch.setattr(tsdbscan.core, "_one_column", refuse)
        monkeypatch.setattr(tsdbscan.core, "_ball_ends", refuse)
        x = np.random.default_rng(5).random((1000, 1)) + 0.1
        assert len(x) ** 2 > tsdbscan.core._BLOCK_CELLS
        cfg = TuneConfig(min_pts=4, itr=6, metric=metric)
        stats = RunStats()
        assert 0.0 < ternary_search(x, SearchBounds(0.0, 0.1), cfg, stats) < 0.1
        assert stats == RunStats(dbscan_invocations=12, point_evaluations=3 * 1000 - 1, curve_builds=1)

    def test_interval_shrink_rate(self):
        # cond keeps at most 2/3 per iteration; final midpoint must sit
        # inside the worst-case residual interval around some point
        cfg = TuneConfig(min_pts=2, itr=8)
        b = SearchBounds(0.0, 40.0)
        eps1 = ternary_search(TWO_CLUSTERS_1D, b, cfg)
        cfg2 = TuneConfig(min_pts=2, itr=12)
        eps2 = ternary_search(TWO_CLUSTERS_1D, b, cfg2)
        k1 = dbscan(TWO_CLUSTERS_1D, eps1, 2).n_clusters
        k2 = dbscan(TWO_CLUSTERS_1D, eps2, 2).n_clusters
        assert k1 == k2 == 2

    def test_exactly_unimodal_curve_reaches_sweep_max(self):
        # evenly spaced points within each group keep k(eps) an exact
        # staircase: 0 below the spacing, 3 until groups merge, then 2, 1
        base = np.arange(30) * 0.01
        x = np.concatenate([base, base + 5, base + 11])[:, None]
        cfg = TuneConfig(min_pts=3, itr=10)
        eps = ternary_search(x, SearchBounds(0.0, 30.0), cfg)
        assert dbscan(x, eps, 3).n_clusters == sweep_max_k(x, 3, 0.005, 30.0) == 3


class TestCollapsedInterval:
    # a trisection point can round onto an end of a 1-ulp interval; were it
    # probed, cond could build an empty SearchBounds and the run would fail

    def test_long_tse_run_on_small_blobs(self):
        # `tsdbscan synth --k 3 --per-cluster 30 --dims 2 --separation 30
        # --seed 8`, then `tse --min-pts 3 --itr 30 --seed 8`, exited 1 with
        # "need 0 <= lower < upper"
        x, _ = synth_blobs(3, 30, 2, 30.0, 8)
        eps, lab = tse_clustering(x, TuneConfig(min_pts=3, itr=30, seed=8))
        assert eps > 0
        assert len(lab.labels) == len(x)

    def test_long_searches_stay_strictly_inside_their_bounds(self, monkeypatch):
        probes, searches, resolved = [], [], []
        real_effective_k = tsdbscan.search.effective_k
        real_search = tsdbscan.search.ternary_search
        real_resolve = tsdbscan.search._resolve_bounds

        def counted_effective_k(probe):  # once per probe
            probes.append(1)
            return real_effective_k(probe)

        def checked_search(x, bounds, cfg, stats=None):
            before = len(probes)
            eps = real_search(x, bounds, cfg, stats)
            searches.append((bounds.lower, eps, bounds.upper, len(probes) > before))
            return eps

        def checked_resolve(*args):
            bounds = real_resolve(*args)
            resolved.append((bounds.lower, bounds.upper))
            return bounds

        monkeypatch.setattr(tsdbscan.search, "effective_k", counted_effective_k)
        monkeypatch.setattr(tsdbscan.search, "ternary_search", checked_search)
        monkeypatch.setattr(tsdbscan.search, "_resolve_bounds", checked_resolve)
        rng = np.random.default_rng(0)
        blobs, _ = synth_blobs(3, 4, 2, 30.0, 0)
        for x in (rng.random((12, 2)), blobs):
            for itr in (30, 100, 200):
                for alpha in (0.5, 1.0):
                    for metric in ("euclidean", "manhattan", "cosine"):
                        cfg = TuneConfig(min_pts=3, itr=itr, alpha=alpha, m=2, metric=metric)
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            ts_clustering(x, cfg)
                            tse_clustering(x, cfg)
        assert len(resolved) == 2 * 2 * 3 * 2 * 3
        assert all(lb < ub for lb, ub in resolved)
        assert all(lower < eps < upper for lower, eps, upper, probed in searches if probed)


class TestBoundEstimators:
    def test_alpha_one_upper_reduces_to_full_search(self):
        cfg = TuneConfig(min_pts=2, alpha=1.0, seed=3)
        ub0 = 40.0
        got = estimate_upper_bound(TWO_CLUSTERS_1D, cfg, ub0=ub0)
        want = ternary_search(TWO_CLUSTERS_1D, SearchBounds(0.0, ub0), cfg)
        assert got == want

    def test_alpha_one_lower_reduces_to_full_search(self):
        cfg = TuneConfig(min_pts=2, alpha=1.0, seed=3)
        got = estimate_lower_bound(TWO_CLUSTERS_1D, 5.0, cfg)
        want = ternary_search(TWO_CLUSTERS_1D, SearchBounds(0.0, 5.0), cfg)
        assert got == want

    def test_one_dimension_projection_is_identity(self):
        cfg = TuneConfig(min_pts=2, alpha=0.3, seed=4)
        got = estimate_lower_bound(TWO_CLUSTERS_1D, 5.0, cfg)
        want = ternary_search(TWO_CLUSTERS_1D, SearchBounds(0.0, 5.0), cfg)
        assert got == want

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        x = rng.random((60, 4))
        cfg = TuneConfig(min_pts=3, seed=11)
        ub0 = approximate_diameter_ub(x)
        assert estimate_upper_bound(x, cfg, ub0) == estimate_upper_bound(x, cfg, ub0)
        assert estimate_lower_bound(x, 1.0, cfg) == estimate_lower_bound(x, 1.0, cfg)

    def test_lower_bound_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            estimate_lower_bound(TWO_CLUSTERS_1D, 0.0, TuneConfig(min_pts=2))

    def test_subsample_too_small_warns_and_returns_ub0(self):
        x = np.random.default_rng(6).random((10, 2))
        stats = RunStats()
        with pytest.warns(UserWarning, match="subsample too small for the upper-bound heuristic"):
            ub = estimate_upper_bound(x, TuneConfig(min_pts=5, alpha=0.2), 3.5, stats)
        assert ub == 3.5
        assert stats.dbscan_invocations == 0


class TestTsClustering:
    def test_two_cluster_dataset(self):
        cfg = TuneConfig(min_pts=2, alpha=0.5, seed=0)
        eps, lab = ts_clustering(TWO_CLUSTERS_1D, cfg)
        assert (lab.n_clusters, lab.n_noise) == (2, 0)

    def test_invocation_budget(self):
        rng = np.random.default_rng(7)
        x = rng.random((100, 3))
        cfg = TuneConfig(min_pts=3, itr=4, seed=1)
        stats = RunStats()
        ts_clustering(x, cfg, stats)
        assert stats.dbscan_invocations == 6 * cfg.itr

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    @pytest.mark.parametrize("tune", [ts_clustering, tse_clustering])
    def test_the_final_clustering_is_the_run_on_the_matrix(self, monkeypatch, tune, metric):
        # over a budget of 1000 cells the 120 x 3 rows (14400 cells) build
        # groups wherever a caller prepared them: the final search's set,
        # whose groups the final clustering of ts_clustering reuses, and
        # the set tse_clustering prepares for its final clustering. The
        # row subsets of the upper bound and of TSE (24 rows) fit one block
        # and read a curve, and the projections onto ceil(0.2 * 3) = 1 dimension need
        # no block, so each pipeline builds once. The final clustering runs
        # uncounted: the counters hold the searches' probes alone
        monkeypatch.setattr(tsdbscan.core, "_BLOCK_CELLS", 1000)
        build, builds = tsdbscan.core._farthest_first, []
        monkeypatch.setattr(tsdbscan.core, "_farthest_first", lambda *args: builds.append(1) or build(*args))
        x, _ = synth_blobs(4, 30, 3, 20.0, 0)
        cfg = TuneConfig(min_pts=4, itr=4, m=3, seed=0, metric=metric)
        stats = RunStats()
        eps, lab = tune(x, cfg, stats)
        expected = dbscan(x, eps, cfg.min_pts, metric=metric)
        assert np.array_equal(lab.labels, expected.labels) and np.array_equal(lab.roles, expected.roles)
        assert len(builds) == 1
        probes = 6 * cfg.itr if tune is ts_clustering else 4 * cfg.itr + 2 * cfg.itr * cfg.m
        assert stats.dbscan_invocations == probes

    def test_underflowing_distances_warn_of_a_zero_diameter_bound(self):
        # distinct points, but every distance between them underflows to 0;
        # alpha 1 keeps the upper-bound search, so this is the only warning
        x = np.array([[0.0], [5e-324], [1e-323], [0.0]])
        with pytest.warns(UserWarning, match="diameter bound is 0, because the points "
                                             "coincide or their distances underflow"):
            eps, lab = ts_clustering(x, TuneConfig(min_pts=2, alpha=1.0))
        assert eps > 0

    @pytest.mark.parametrize("tune", [ts_clustering, tse_clustering])
    def test_each_fallback_warns_once(self, tune):
        # 10 coincident rows: UB0 is 0, and ceil(0.2 * 10) = 2 rows cannot
        # hold a cluster at min_pts=2; each rule fires at its one site
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eps, lab = tune(np.ones((10, 2)), TuneConfig(min_pts=2, m=3, seed=2))
        messages = [str(w.message) for w in caught]
        assert sum("diameter bound is 0" in m for m in messages) == 1
        assert sum("subsample too small" in m for m in messages) == 1
        assert 0 < eps < np.finfo(np.float64).eps
        assert (lab.n_clusters, lab.n_noise) == (1, 0)

    @pytest.mark.parametrize("tune", [ts_clustering, tse_clustering])
    def test_fewer_points_than_min_pts_errors(self, tune):
        with pytest.raises(ValueError, match="need at least min_pts=5 points, got 4"):
            tune(np.random.default_rng(12).random((4, 2)), TuneConfig(min_pts=5))

    def test_search_errors_propagate(self, monkeypatch):
        # only a too-small row subsample falls back to the trivial bound;
        # any other error inside the upper-bound search reaches the caller
        real = tsdbscan.search.ternary_search
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("inside the search")
            return real(*args, **kwargs)

        monkeypatch.setattr(tsdbscan.search, "ternary_search", fail_first)
        x = np.random.default_rng(11).random((100, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="inside the search"):
                ts_clustering(x, TuneConfig(min_pts=3, seed=0))

    @pytest.mark.parametrize("tune", [ts_clustering, tse_clustering])
    @pytest.mark.parametrize("power", [-60, -70, -200])
    def test_scaling_the_data_by_a_power_of_two_scales_the_radius(self, tune, power):
        # scaling by 2^power is exact, so every probe sees the same k and
        # the radius scales exactly; a degenerate-interval check with an
        # absolute floor of eps skipped every probe on such data
        x, _ = synth_blobs(5, 40, 2, 20.0, 0)
        cfg = TuneConfig(min_pts=4, seed=0)
        eps, lab = tune(x, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small_eps, small_lab = tune(np.ldexp(x, power), cfg)
        assert small_eps == np.ldexp(eps, power)
        assert np.array_equal(small_lab.labels, lab.labels)
        assert lab.n_clusters == 5

    def test_overflowing_distances_are_rejected(self):
        # an infinite diameter bound gave eps = inf and one cluster
        x, _ = synth_blobs(5, 40, 2, 20.0, 0)
        with pytest.raises(ValueError, match="diameter bound overflows"):
            ts_clustering(np.ldexp(x, 1000), TuneConfig(min_pts=4, seed=0))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.random((80, 4))
        cfg = TuneConfig(min_pts=3, seed=9)
        e1, l1 = ts_clustering(x, cfg)
        e2, l2 = ts_clustering(x, cfg)
        assert e1 == e2
        assert np.array_equal(l1.labels, l2.labels)


class TestTse:
    def test_degenerate_sampling_equals_full_search(self):
        cfg = TuneConfig(min_pts=2, alpha=1.0, m=1, seed=0)
        b = SearchBounds(0.0, 40.0)
        assert tse_estimate(TWO_CLUSTERS_1D, b, cfg) == ternary_search(TWO_CLUSTERS_1D, b, cfg)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(9)
        x = rng.random((60, 5))
        cfg = TuneConfig(min_pts=3, m=4, seed=13)
        b = SearchBounds(0.0, 2.0)
        assert tse_estimate(x, b, cfg) == tse_estimate(x, b, cfg)

    def test_invocation_budget(self):
        rng = np.random.default_rng(10)
        x = rng.random((60, 5))
        cfg = TuneConfig(min_pts=3, itr=3, m=5, seed=0)
        stats = RunStats()
        tse_estimate(x, SearchBounds(0.0, 2.0), cfg, stats)
        assert stats.dbscan_invocations == 2 * cfg.itr * cfg.m


def sparse_rows(n=200, d=10, nonzeros=2, seed=5):
    """Nonnegative rows with ``nonzeros`` positive entries each, so no row is
    zero but most projections onto a few dimensions zero some rows out."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, d))
    for row in x:
        row[rng.choice(d, nonzeros, replace=False)] = rng.random(nonzeros) + 0.1
    return x


class TestCosineZeroRows:
    def test_tuning_runs_on_sparse_rows(self):
        x = sparse_rows()
        cfg = TuneConfig(min_pts=5, metric="cosine", seed=5, m=5)
        # the lower bound keeps ceil(0.2 * 10) = 2 dimensions
        assert (np.abs(x[:, :2]).sum(axis=1) == 0).any()
        eps, lab = ts_clustering(x, cfg)
        # the radius found when cosine distances of zero rows were NaN
        assert eps == pytest.approx(0.20168867217551834, rel=1e-12)
        assert len(lab.labels) == len(x)
        eps, lab = tse_clustering(x, cfg)
        assert eps == pytest.approx(0.2637226654267116, rel=1e-12)
        assert len(lab.labels) == len(x)

    def test_projected_zero_rows_count_as_noise(self):
        x = np.array([[1.0, 0.0], [1.0, 0.01], [1.0, 0.02], [0.0, 1.0], [0.01, 1.0]])
        padded = np.vstack([x, np.zeros((3, 2))])
        cfg = TuneConfig(min_pts=2, metric="cosine")
        bare = tsdbscan.search._prober(x, cfg, None)(0.01)
        probe = tsdbscan.search._prober(padded, cfg, None)(0.01)
        assert probe.k == bare.k == 2
        assert probe.noise == 3 / 8

    def test_all_zero_projection_is_all_noise(self):
        stats = RunStats()
        probe = tsdbscan.search._prober(np.zeros((4, 2)), TuneConfig(min_pts=2, metric="cosine"), stats)(0.5)
        assert (probe.k, probe.noise) == (0, 1.0)
        assert stats.dbscan_invocations == 0

    def test_caller_zero_rows_rejected(self):
        x = np.vstack([sparse_rows(), np.zeros((1, 10))])
        for tune in (ts_clustering, tse_clustering):
            with pytest.raises(ValueError, match="zero vectors"):
                tune(x, TuneConfig(min_pts=5, metric="cosine"))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"min_pts": 1},
        {"min_pts": 2, "itr": 0},
        {"min_pts": 2, "alpha": 0.0},
        {"min_pts": 2, "alpha": 1.5},
        {"min_pts": 2, "m": 0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TuneConfig(**kwargs)

    @pytest.mark.parametrize("name", ["itr", "m"])
    def test_counts_must_be_integers(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 2.5"):
            TuneConfig(min_pts=3, **{name: 2.5})
        assert getattr(TuneConfig(min_pts=3, **{name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("upper", [float("inf"), float("nan")])
    def test_bounds_reject_an_upper_end_that_is_not_finite(self, upper):
        # with an infinite upper end every trisection point is inf, so a
        # search would probe nothing and return inf
        with pytest.raises(ValueError, match="need 0 <= lower < upper < inf"):
            SearchBounds(0.0, upper)

    def test_bounds_reject_inverted(self):
        with pytest.raises(ValueError):
            SearchBounds(2.0, 1.0)
        with pytest.raises(ValueError):
            SearchBounds(-0.5, 1.0)
