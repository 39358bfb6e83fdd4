import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdbscan import (
    CurveSample,
    RunStats,
    curve_to_sample,
    dip_p_value,
    dip_statistic,
    sweep_curve,
)
from tsdbscan import curve
from tsdbscan.curve import (
    _CHUNK_CELLS,
    _dip_rows,
    _lockstep_dips,
    _minorant_rows,
    _minorant_touches,
    epsilon_grid,
)
from tsdbscan.data_io import load_matrix

from conftest import (
    _dip_of_sorted,
    _majorant_touches,
    brute_force_dip,
    count_strict_local_maxima,
    scalar_dip,
)

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

    @pytest.mark.parametrize("x, grid_size, bound", [
        # UB0 / 1000 rounds to 0
        pytest.param(np.array([[0.0], [1e-322], [2e-322], [3e-322]]), 10, "6.03e-322", id="zero-radius"),
        # the first radius is the least subnormal, but neighbours coincide
        pytest.param(np.array([[0.0], [1.5e-321]]), 1000, "3.004e-321", id="equal-radii"),
    ])
    def test_a_subnormal_bound_too_small_for_the_grid_is_rejected(self, x, grid_size, bound):
        # the grid is one sweep_curve would reject; under euclidean the
        # distances underflow to a zero bound, which ends at float64 eps
        with pytest.raises(ValueError, match=f"the diameter bound {bound} is too small for "
                                             f"{grid_size} distinct positive radii; rescale the data"):
            epsilon_grid(x, grid_size, "manhattan")
        with pytest.warns(UserWarning, match="diameter bound is 0"):
            grid = epsilon_grid(x, grid_size)
        assert len(sweep_curve(x, grid, min_pts=2)) == grid_size


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_grid_fails_before_the_build(self, monkeypatch, bad):
        def refuse(*args):
            raise AssertionError("the curve was built")

        monkeypatch.setattr(curve, "KCurve", refuse)
        with pytest.raises(ValueError, match="positive and finite"):
            sweep_curve(TWO_CLUSTERS_1D, [1.0, bad], min_pts=2)

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


@pytest.mark.parametrize("call,name", [
    pytest.param(lambda: dip_p_value([0.1, 0.5, 0.9], 10.5, 0), "n_boot", id="dip_p_value-n_boot"),
    pytest.param(lambda: epsilon_grid([[0.0], [1.0]], 2.5), "grid_size", id="epsilon_grid-grid_size"),
])
def test_counts_must_be_integers(call, name):
    # a float count failed with numpy's or range's TypeError, which the
    # command line's ValueError handler does not catch
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


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


@st.composite
def sorted_rows(draw):
    """Sorted rows of one length on a grid: ties, runs of duplicates and
    constant rows, from n = 2 up."""
    n = draw(st.one_of(st.integers(2, 6), st.integers(7, 40)))
    rows = draw(st.integers(1, 6))
    levels = draw(st.integers(0, 6))  # 0: every row is constant
    step = draw(st.sampled_from([1.0, 0.1, 1 / 3, 2.0 ** -40]))
    x = np.array(draw(st.lists(st.lists(st.integers(0, levels), min_size=n, max_size=n),
                               min_size=rows, max_size=rows))) * step
    if draw(st.booleans()):
        x[0] = x[0, 0]
    return np.sort(x, axis=1)


@settings(max_examples=300, deadline=None)
@given(x=sorted_rows())
def test_row_pass_is_the_scalar_pass_on_every_row(x):
    rows, n = x.shape
    buffer = np.empty((rows, n + 1))
    buffer[:, :n] = x
    touches = np.empty(buffer.shape, dtype=np.intp)
    _minorant_rows(buffer, touches)
    assert np.array_equal(buffer[:, :n], x)
    for row, mn in zip(x, touches):
        assert mn[:n].tolist() == _minorant_touches(row.tolist())


def lockstep_pass(x):
    """The dips of the sorted rows of x by the bootstrap's chunk pass: the
    rows and their mirrors through ``_minorant_rows``, then ``_dip_rows``."""
    rows, n = x.shape
    buffer = np.empty((2 * rows, n + 1))
    buffer[:rows, :n] = x
    np.negative(x[:, ::-1], out=buffer[rows:, :n])
    touches = np.empty(buffer.shape, dtype=np.intp)
    _minorant_rows(buffer, touches)
    return _dip_rows(buffer, touches)


@settings(max_examples=300, deadline=None)
@given(x=sorted_rows())
def test_lockstep_dip_is_the_scalar_dip_on_every_row(x):
    dips = []
    for row in x.tolist():
        try:
            dips.append(_dip_of_sorted(row, _minorant_touches(row), _majorant_touches(row)))
        except ZeroDivisionError:
            # the scalar loop has no dip for this row, so the pass must not return one
            with pytest.raises(FloatingPointError):
                lockstep_pass(x)
            return
    assert lockstep_pass(x).tolist() == dips


@settings(max_examples=300, deadline=None)
@given(x=sorted_rows())
def test_dip_statistic_is_the_scalar_dip_on_every_row(x):
    for row in x:
        try:
            dip = scalar_dip(row)
        except ZeroDivisionError:
            # the scalar loop has no dip for this row, so neither has the library
            with pytest.raises(FloatingPointError):
                dip_statistic(row)
        else:
            assert dip_statistic(row) == dip


@pytest.mark.parametrize("seed", [0, 2718])
def test_every_replicate_dip_is_the_scalar_one(seed):
    # the blobs16 curve's n: 4 full chunks of 230 replicates and one of 80
    n, n_boot = 567, 1000
    chunk = _CHUNK_CELLS // (2 * (n + 1))
    assert (chunk, n_boot % chunk) == (230, 80)
    dips = list(_lockstep_dips(n, n_boot, seed, chunk))
    assert dips == [scalar_dip(np.random.default_rng([seed, b]).random(n)) for b in range(n_boot)]


def test_a_tail_chunk_under_the_lockstep_rows_is_the_scalar_one(monkeypatch):
    # a full chunk of 230 replicates in lockstep, then one of 1, whose 2
    # rows take the one-row hull pass
    n, n_boot, seed = 567, 231, 5
    chunk = _CHUNK_CELLS // (2 * (n + 1))
    assert 2 * (n_boot - chunk) < curve._LOCKSTEP_ROWS <= 2 * chunk
    seen = []
    monkeypatch.setattr(curve, "_minorant_touches", lambda x: seen.append(1) or _minorant_touches(x))
    dips = list(_lockstep_dips(n, n_boot, seed, chunk))
    assert len(seen) == 2
    assert dips == [scalar_dip(np.random.default_rng([seed, b]).random(n)) for b in range(n_boot)]


# replicates of the bootstrap at this n fill a chunk of 65, so crossing the
# chunk's boundaries costs a few hundred replicates
LOCKSTEP_N = 2000
LOCKSTEP_CHUNK = _CHUNK_CELLS // (2 * (LOCKSTEP_N + 1))
BOOT_SEED = 4


@pytest.fixture(scope="module")
def scalar_bootstrap():
    """A uniform sample of ``LOCKSTEP_N``, its dip, and the dips of the first
    replicates of the bootstrap at ``BOOT_SEED``, each from ``scalar_dip``."""
    sample = np.random.default_rng(20).random(LOCKSTEP_N)
    dips = [scalar_dip(np.random.default_rng([BOOT_SEED, b]).random(LOCKSTEP_N))
            for b in range(2 * LOCKSTEP_CHUNK + 7)]
    return sample, scalar_dip(sample), dips


class TestLockstepBootstrap:
    @pytest.mark.parametrize("n_boot", [1, LOCKSTEP_CHUNK - 1, LOCKSTEP_CHUNK, LOCKSTEP_CHUNK + 1,
                                        2 * LOCKSTEP_CHUNK + 7])
    def test_p_value_is_the_scalar_one(self, scalar_bootstrap, n_boot):
        sample, observed, dips = scalar_bootstrap
        hits = sum(d >= observed for d in dips[:n_boot])
        assert dip_p_value(sample, n_boot, BOOT_SEED) == hits / n_boot
        if n_boot > 1:
            assert 0 < hits < n_boot

    @pytest.mark.parametrize("n, n_boot, calls", [
        # the observed dip's 2 rows, then one chunk of 130 rows in lockstep
        pytest.param(LOCKSTEP_N, LOCKSTEP_CHUNK, 2, id="lockstep"),
        # then one chunk of 6 rows: at this n no chunk reaches the lockstep rows
        pytest.param(20_000, 3, 2 + 2 * 3, id="one-row"),
    ])
    def test_the_hull_pass_is_picked_per_chunk(self, monkeypatch, n, n_boot, calls):
        sample = np.random.default_rng(21).random(n)
        expected = [scalar_dip(np.random.default_rng([BOOT_SEED, b]).random(n)) for b in range(n_boot)]
        hits = sum(d >= scalar_dip(sample) for d in expected)
        seen = []
        monkeypatch.setattr(curve, "_minorant_touches", lambda x: seen.append(1) or _minorant_touches(x))
        assert dip_p_value(sample, n_boot, BOOT_SEED) == hits / n_boot
        assert len(seen) == calls

    @pytest.mark.parametrize("seed, p", [(0, 0.267), (2718, 0.27)])
    def test_pinned_on_the_bell_curve(self, seed, p):
        # the p-values of the one-replicate-at-a-time bootstrap
        assert dip_p_value(bell_curve_sample(), 1000, seed) == p

    @pytest.mark.parametrize("seed, p", [(0, 0.267), (2718, 0.274)])
    def test_pinned_on_a_blobs16_curve(self, blob_suite, seed, p):
        x = blob_suite[0][0]  # N = 2000, D = 16: the benchmark's blobs16 at seed 0
        sample = curve_to_sample(sweep_curve(x, epsilon_grid(x, 100), min_pts=10))
        assert len(sample) == 567
        assert dip_p_value(sample, 1000, seed) == p

    @pytest.mark.parametrize("n, n_boot", [(567, 231), (20_000, 3)])
    def test_peak_allocation_is_bounded(self, n, n_boot):
        # a 4 MiB chunk: two chunks at n = 567, the second reusing the
        # buffers, and one chunk of 3 replicates at n = 20000
        sample = np.random.default_rng(22).random(n)
        tracemalloc.start()
        try:
            dip_p_value(sample, n_boot, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2 ** 20


class TestNonUnimodalFixture:
    def test_fixture_shows_two_local_maxima(self):
        pts = load_matrix(DATA_DIR / "nonunimodal_2d.csv")
        assert pts.shape[1] == 2
        curve = sweep_curve(pts, np.linspace(0.05, 35.0, 700), min_pts=2)
        assert count_strict_local_maxima(curve) >= 2
