"""Invariants of the diameter bound and the k(eps) probe, and agreement
with the brute-force oracle and of the exact curve engine with DBSCAN,
for every metric."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from tsdbscan import NOISE, approximate_diameter_ub, core, dbscan, search
from tsdbscan.search import SearchBounds, TuneConfig, ternary_search, ts_clustering, tse_clustering
from tsdbscan.core import METRICS, KCurve, PreparedPoints, RunStats, _distance_block, _validate

from conftest import (PLAN, _prim_radii, assert_curve_is_prims, brute_force_dbscan, brute_force_distances, distance,
                      given_groups, key_window)

# the bound's approximation factor: 2 from the triangle inequality, 4
# under cosine, where the triangle inequality holds only for angles
FACTOR = {"euclidean": 2.0, "manhattan": 2.0, "cosine": 4.0}

# round-off between the bound and the pairwise distances it brackets
TOL = 1e-9

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def point_sets(draw, metric, min_n=2):
    n = draw(st.integers(min_n, 12))
    d = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, d),
                    elements=st.floats(-1e3, 1e3, allow_subnormal=False, width=64)))
    return with_direction(x) if metric == "cosine" else x


def with_direction(x):
    """``x`` with 1.0 in the first coordinate of each row whose squares all
    vanish: every row has a direction under cosine, so no draw is discarded."""
    x = x.copy()
    x[np.einsum("ij,ij->i", x, x) == 0, 0] = 1.0
    return x


def diameter_bound(x, metric):
    """``approximate_diameter_ub``, asserting its zero-bound warning exactly
    when every distance from the first row is 0: the rows coincide (in
    direction, under cosine) or their distances underflow."""
    if all(distance(x[0], q, metric) == 0 for q in x):
        with pytest.warns(UserWarning, match="diameter bound is 0"):
            return approximate_diameter_ub(x, metric)
    return approximate_diameter_ub(x, metric)


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_bound_brackets_the_diameter(metric, data):
    x = data.draw(point_sets(metric))
    diam = max(distance(p, q, metric) for p in x for q in x)
    ub = diameter_bound(x, metric)
    assert diam <= ub * (1 + TOL) + TOL
    assert ub <= FACTOR[metric] * diam * (1 + TOL) + TOL


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_one_cluster_at_the_bound(metric, data):
    x = data.draw(point_sets(metric))
    min_pts = data.draw(st.integers(2, len(x)))
    # coincident draws get the float64-eps floor, which still holds them all
    ub = diameter_bound(x, metric)
    lab = dbscan(x, ub, min_pts, metric=metric)
    assert (lab.n_clusters, lab.n_noise) == (1, 0)


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_noise_nonincreasing_in_epsilon(metric, data):
    x = data.draw(point_sets(metric))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    radii = data.draw(st.lists(st.floats(1e-6, 4e3), min_size=2, max_size=6, unique=True))
    fracs = [dbscan(x, eps, min_pts, metric=metric).n_noise / len(x) for eps in sorted(radii)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


@st.composite
def point_sets_with_duplicates(draw, metric, min_n=2):
    # D <= 4 keeps numpy's sums in the oracle in scipy's order, so the
    # distances, and the closed-ball tests at exact distances, agree bit
    # for bit
    x = draw(point_sets(metric, min_n))
    copies = draw(st.lists(st.integers(0, len(x) - 1), max_size=4))
    return np.vstack([x, x[copies]])


# a row scaled by 1e-160 has differences whose squares underflow; one
# scaled by 1e150 has squares near overflow
SCALES = st.sampled_from([1.0, 1e-160, 1e150])


@st.composite
def scaled_rows(draw, metric, x):
    """The rows of ``x``, each scaled by one of SCALES.

    Under cosine, an exact power of two first brings each row's largest
    entry into [0.5, 1), as the unit-row scaling does, so its direction is
    unchanged, and under every scale its squared norm stays positive
    (subnormal at 1e-160) and finite."""
    if metric == "cosine":
        x = with_direction(x)
        x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1))[1][:, None])
    return x * np.array(draw(st.lists(SCALES, min_size=len(x), max_size=len(x))))[:, None]


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_dbscan_matches_the_oracle(metric, data):
    x = data.draw(point_sets_with_duplicates(metric))
    x = data.draw(scaled_rows(metric, x))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    exact = np.unique(brute_force_distances(x, metric))
    exact = exact[exact > 0].tolist()
    eps = data.draw(st.one_of(st.just(1e-300), st.floats(1e-6, 4e3),
                              *([st.sampled_from(exact)] if exact else [])))
    got = dbscan(x, eps, min_pts, metric=metric).labels
    assert np.array_equal(got, brute_force_dbscan(x, eps, min_pts, metric))


def k_and_noise(x, eps, min_pts, metric):
    lab = dbscan(x, eps, min_pts, metric=metric)
    return lab.n_clusters, lab.n_noise / len(x)


def edge_radii(x, metric):
    """Every finite exact pairwise distance, the float just below each
    (the largest float below one that overflows), and 1e-300. A radius must
    be finite."""
    exact = np.unique(brute_force_distances(x, metric))
    exact = exact[exact > 0]
    below = np.nextafter(exact, 0)
    return [1e-300, *exact[exact < np.inf].tolist(), *below[below > 0].tolist()]


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_kcurve_matches_dbscan(metric, data):
    # min_pts up to N + 1, and N down to 1, so no point may be core
    x = data.draw(point_sets_with_duplicates(metric, min_n=1))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    radii = [*edge_radii(x, metric), *data.draw(st.lists(st.floats(1e-6, 4e3), max_size=4))]
    curve = KCurve(x, min_pts, metric)
    for eps in radii:
        assert (curve.k(eps), curve.noise(eps)) == k_and_noise(x, eps, min_pts, metric), eps


@st.composite
def cached_sets(draw, metric, scaled=True):
    """Rows whose prepared set fits one block and reads its counts off the
    curve it keeps, two columns or more, and a ``min_pts`` up to N + 1: 1
    to 12 rows, some drawn again, and one of them repeated up to ``min_pts``
    times more, so a set may hold ``min_pts`` equal rows with zero-weight
    edges. Outside cosine the rows are scaled by 1, 1e-300 or 1e300, at
    which squares underflow or distances overflow to inf, and manhattan's
    sums of four differences of rows at 1e305 overflow too; under cosine
    the rows are scaled as scaled_rows scales them. ``scaled`` False keeps
    every row as drawn."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(2, 4))
    x = draw(arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3, allow_subnormal=False, width=64)))
    x = np.vstack([x, x[draw(st.lists(st.integers(0, n - 1), max_size=3))]])
    min_pts = draw(st.integers(2, len(x) + 1))
    x = np.vstack([x, np.repeat(x[draw(st.integers(0, n - 1))][None], draw(st.integers(0, min_pts)), axis=0)])
    if not scaled:
        return with_direction(x) if metric == "cosine" else x, min_pts
    if metric == "cosine":
        return draw(scaled_rows(metric, x)), min_pts
    scales = [1.0, 1e-300, 1e300] + ([1e305] if metric == "manhattan" else [])
    return x * np.array(draw(st.lists(st.sampled_from(scales), min_size=len(x), max_size=len(x))))[:, None], min_pts


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_a_build_that_fits_one_block_computes_its_matrix_in_one_call(metric, data):
    # on two columns or more, a build whose N^2 fits one block computes the
    # whole matrix of its rows in one kernel call, N x N x D cells in its
    # stats, and reads its core distances, reach radii and Prim's rows from
    # it; when min_pts > N leaves no point core, it computes nothing. Its
    # curve is the one a build over a budget below N^2 gives, which computes
    # a block of rows at a time and then one row a step of Prim's loop
    x, min_pts = data.draw(cached_sets(metric))
    calls = []

    def counted_cdist(a, b, *args, **kwargs):
        calls.append(a.shape[0] * b.shape[0] * a.shape[1])
        return cdist(a, b, *args, **kwargs)

    stats = RunStats()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "cdist", counted_cdist)
        curve = KCurve(x, min_pts, metric, stats)
        n, d = x.shape
        assert calls == ([n * n * d] if min_pts <= n else [])
        assert stats.point_evaluations == sum(calls)
        mp.setattr(core, "_BLOCK_CELLS", n * n - 1)
        by_rows = KCurve(x, min_pts, metric)
    for radii in ("_core", "_edges", "_reach"):
        assert np.array_equal(getattr(curve, radii), getattr(by_rows, radii)), radii


@pytest.mark.parametrize("cells", [1, 3, 7, 50])
@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_a_build_past_one_block_is_prims_bit_for_bit(metric, cells, data):
    # a budget below N^2 from N = 3 on builds the curve by Borůvka over the
    # set's groups, in blocks of a row or a few: on rows as drawn, or on one
    # group where rows scaled to 1e-300 or 1e300 fall outside [2^-450,
    # 2^450]. Its sorted radii must be dense Prim's, with the zero-weight
    # edges between copies and the inf edges of rows never core, also at
    # N = 1 and 2 and when min_pts > N leaves no point core
    x, min_pts = data.draw(cached_sets(metric, scaled=data.draw(st.booleans())))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CELLS", cells)
        curve = KCurve(x, min_pts, metric)
    assert_curve_is_prims(curve, x, min_pts, metric)


@st.composite
def clustered_sets(draw, metric):
    """Up to 120 rows of 2 or 3 columns in 1 to 6 clusters of up to 20 rows
    each, around centres up to 1e3 apart, with coordinates rounded to a
    grid so that copies and equal distances are common, and a ``min_pts``
    from 2 to 8: enough groups, trees and rounds for the later rounds of
    Borůvka, their kept least weights and their ties to run."""
    d = draw(st.integers(2, 3))
    centres = draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=st.floats(-1e3, 1e3, width=64)))
    sizes = draw(st.lists(st.integers(1, 20), min_size=len(centres), max_size=len(centres)))
    seed, grid = draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from([0.5, 1.0, 4.0]))
    x = np.repeat(centres, sizes, axis=0) + np.random.default_rng(seed).normal(scale=3.0, size=(sum(sizes), d))
    x = np.round(x / grid) * grid
    return (with_direction(x) if metric == "cosine" else x), draw(st.integers(2, 8))


@pytest.mark.parametrize("metric", METRICS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_rounds_on_clustered_sets_are_prims_bit_for_bit(metric, data):
    # budgets of 50 and 500 cells split the set's groups into blocks of a
    # few rows; at the default budget, a set whose N^2 fits one block runs
    # the contracted rounds on its whole matrix
    x, min_pts = data.draw(clustered_sets(metric))
    for cells in (50, 500, 1 << 19):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_CELLS", cells)
            curve = KCurve(x, min_pts, metric)
        assert_curve_is_prims(curve, x, min_pts, metric)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the oracle's squares
@SETTINGS
@given(data=st.data())
def test_counts_read_off_a_cached_sets_curve_match_the_oracle_and_the_pass(metric, data):
    # a prepared set whose N^2 fits one block answers each run's counts off
    # its curve; a first read of the labels runs the pass on the same set.
    # Both must give the oracle's counts, and the pass its labels, at the
    # exact pairwise distances (the closed ball's edge), the floats on
    # either side of them, 1e-300, and under cosine radii of 2 or more,
    # where the kernel's clip puts every pair within the radius
    x, min_pts = data.draw(cached_sets(metric))
    exact = np.unique(brute_force_distances(x, metric))
    exact = exact[(exact > 0) & (exact < np.inf)]
    beside = np.concatenate((np.nextafter(exact, 0), np.nextafter(exact, np.inf)))
    radii = [1e-300, *exact.tolist(), *beside[(beside > 0) & (beside < np.inf)].tolist()]
    radii = data.draw(st.lists(st.sampled_from(radii), min_size=1, max_size=10))
    if metric == "cosine":
        radii += data.draw(st.lists(st.floats(2.0, 4.0), min_size=1, max_size=2))
    points = PreparedPoints(x, metric)
    stats = RunStats()
    for eps in radii:
        lab = dbscan(points, eps, min_pts, metric, stats)
        counts = lab.n_clusters, lab.n_noise
        expected = brute_force_dbscan(x, eps, min_pts, metric)
        assert counts == (np.unique(expected[expected != NOISE]).size, np.count_nonzero(expected == NOISE)), eps
        assert np.array_equal(lab.labels, expected), eps
        assert counts == (np.unique(lab.labels[lab.labels != NOISE]).size, np.count_nonzero(lab.labels == NOISE))
    assert (stats.dbscan_invocations, stats.curve_builds) == (len(radii), 1)


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_distance_blocks_are_symmetric(metric, data):
    # the core-count pass reads d_ji off the block that holds d_ij
    d = data.draw(st.integers(1, 40))
    rows = arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)),
                  elements=st.floats(-1e6, 1e6, allow_subnormal=False, width=64))
    a, b = data.draw(rows), data.draw(rows)
    if metric == "cosine":
        a, b = with_direction(a), with_direction(b)
    a, b = _validate(a, metric), _validate(b, metric)
    assert np.array_equal(_distance_block(a, b, metric, None), _distance_block(b, a, metric, None).T)


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_one_coordinate_bounds_the_kernel_from_below(metric, data):
    # dbscan's window rests on this: the kernel on one column of the rows
    # never exceeds the kernel on all of them, also where squares underflow
    d = data.draw(st.integers(1, 40))
    x = data.draw(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)),
                         elements=st.floats(-1e3, 1e3, allow_subnormal=False, width=64)))
    x = np.vstack([x, x[data.draw(st.lists(st.integers(0, len(x) - 1), max_size=3))]])
    x = _validate(data.draw(scaled_rows(metric, x)), metric)
    full = _distance_block(x, x, metric, None)
    for c in range(d):
        assert np.all(_distance_block(x[:, [c]], x[:, [c]], metric, None) <= full), c


# one column scaled from 1e-300 to 1e300: squares of the gaps underflow
# below about 1e-162 and overflow above about 1e154
WIDE_SCALES = st.sampled_from([1.0, 1e-300, 1e-170, 1e150, 1e300])


@st.composite
def one_column(draw, metric):
    """One column of 1 to 12 rows and up to 4 copies of them. Each row is
    scaled by one of WIDE_SCALES, or under cosine, where the row's square
    must stay positive and finite, as ``scaled_rows`` scales it."""
    x = draw(arrays(np.float64, (draw(st.integers(1, 12)), 1),
                    elements=st.floats(-1e3, 1e3, allow_subnormal=False, width=64)))
    x = np.vstack([x, x[draw(st.lists(st.integers(0, len(x) - 1), max_size=4))]])
    if metric == "cosine":
        return draw(scaled_rows(metric, x))
    return x * np.array(draw(st.lists(WIDE_SCALES, min_size=len(x), max_size=len(x))))[:, None]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the oracle's squares
@SETTINGS
@given(data=st.data())
def test_one_column_matches_two_columns_and_the_oracle(metric, data):
    # one column takes the exact one-column path; a zero column beside it
    # keeps the sort key and every kernel value, and takes the windowed path
    x = data.draw(one_column(metric))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    eps = data.draw(st.sampled_from(edge_radii(x, metric)))
    lab = dbscan(x, eps, min_pts, metric=metric)
    wide = dbscan(np.c_[x, 0 * x], eps, min_pts, metric=metric)
    assert np.array_equal(lab.labels, wide.labels) and np.array_equal(lab.roles, wide.roles)
    assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, min_pts, metric))


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the oracle's squares
@SETTINGS
@given(data=st.data())
def test_one_column_curves_match_the_oracle_and_the_pass(metric, data):
    # on one column, KCurve and a prepared set's runs read their counts off
    # a curve built on the sorted keys. Both must give the oracle's counts
    # and the one-shot pass's, at the exact pairwise distances, the floats
    # on either side of them and 1e-300, on 1 to 16 rows scaled as
    # one_column scales them, with one row repeated up to min_pts times
    # more and min_pts up to N + 1. The finite join radii are the edges of
    # a minimum spanning tree, as dense Prim finds them
    x = data.draw(one_column(metric))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    copies = data.draw(st.integers(0, min_pts))
    x = np.vstack([x, np.repeat(x[data.draw(st.integers(0, len(x) - 1))][None], copies, axis=0)])
    exact = np.unique(brute_force_distances(x, metric))
    exact = exact[(exact > 0) & (exact < np.inf)]
    beside = np.concatenate((np.nextafter(exact, 0), np.nextafter(exact, np.inf)))
    radii = [1e-300, *exact.tolist(), *beside[(beside > 0) & (beside < np.inf)].tolist()]
    radii = data.draw(st.lists(st.sampled_from(radii), min_size=1, max_size=10))
    curve = KCurve(x, min_pts, metric)
    points, stats = PreparedPoints(x, metric), RunStats()
    for eps in radii:
        expected = brute_force_dbscan(x, eps, min_pts, metric)
        counts = np.unique(expected[expected != NOISE]).size, np.count_nonzero(expected == NOISE)
        once = dbscan(x, eps, min_pts, metric)
        lab = dbscan(points, eps, min_pts, metric, stats)
        assert (curve.k(eps), curve.n_noise(eps)) == counts == (once.n_clusters, once.n_noise), eps
        assert (lab.n_clusters, lab.n_noise) == counts, eps
    assert stats.dbscan_invocations == len(radii) and stats.curve_builds == 1
    assert stats.point_evaluations <= 3 * len(x)
    assert np.array_equal(lab.labels, expected)
    _, edges, _ = _prim_radii(_validate(x, metric), min_pts, metric, None)
    assert np.array_equal(curve._edges[curve._edges < np.inf], np.sort(edges[edges < np.inf]))


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_difference_block_is_the_pair_kernel(metric, data):
    # the one-column path computes each kernel value from the pair's
    # difference, in a block of the origin against the differences: bit for
    # bit the value of the pair, also where its square underflows or it
    # overflows, and one cell per pair
    a, b = (_validate(data.draw(one_column(metric)), metric) for _ in range(2))
    with np.errstate(over="ignore"):
        gaps = (a - b.T).ravel()
    stats = RunStats()
    got = core._gap_kernel(gaps, metric, stats).reshape(len(a), len(b))
    assert np.array_equal(got, _distance_block(a, b, metric, None))
    assert stats.point_evaluations == gaps.size


@st.composite
def sorted_keys(draw):
    """An ascending column of 1 to 40 keys from gaps that are 0 (runs of
    copies), near 1e-170 (their squares underflow), near 1 or near 1e154
    (their squares overflow)."""
    start = draw(st.sampled_from([0.0, -1e-168, -1.0, -1e155]))
    gaps = draw(st.lists(st.sampled_from([0.0, 1e-170, 1.0, 1e154]), max_size=39))
    return np.cumsum([start, *(g * draw(st.floats(1, 2)) for g in gaps)])


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_ball_ends_are_the_last_rows_within_epsilon(metric, data):
    # the bounded search finds, for each row, the last row whose one-column
    # kernel is within epsilon, at exact kernel values and at extreme radii
    key = data.draw(sorted_keys())
    with np.errstate(over="ignore"):
        kernel = core._gap_kernel((key[None, :] - key[:, None]).ravel(), metric, None).reshape(key.size, -1)
    exact = np.unique(kernel[(kernel > 0) & np.isfinite(kernel)]).tolist()
    eps = data.draw(st.sampled_from([1e-300, 1e300, *exact]))
    expected = [np.flatnonzero(row <= eps).max() for row in kernel]
    assert core._ball_ends(key, eps, metric, None).tolist() == expected


@pytest.mark.parametrize("cells", [1, 3, 7])
@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_small_blocks_change_no_result(metric, cells, data):
    # a budget of a few cells splits every pass into blocks of one row or a
    # few, with ragged last blocks, so the column sums of the symmetric
    # counts pass, the joins of points that turn core in a later block and
    # the block edges and windows of the late re-check and the border pass
    # all run
    x = data.draw(point_sets_with_duplicates(metric, min_n=1))
    x = data.draw(scaled_rows(metric, x))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    radii = edge_radii(x, metric)
    radii = [radii[0], *data.draw(st.lists(st.sampled_from(radii), max_size=6)),
             *data.draw(st.lists(st.floats(1e-6, 4e3), max_size=2))]
    whole = [dbscan(x, eps, min_pts, metric=metric) for eps in radii]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CELLS", cells)
        curve = KCurve(x, min_pts, metric)
        for eps, ref in zip(radii, whole):
            lab = dbscan(x, eps, min_pts, metric=metric)
            assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, min_pts, metric)), eps
            assert np.array_equal(lab.labels, ref.labels) and np.array_equal(lab.roles, ref.roles), eps
            assert (curve.k(eps), curve.noise(eps)) == (lab.n_clusters, lab.n_noise / len(x)), eps


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_point_evaluations_count_the_kernel_cells(metric, data):
    # every distance dbscan computes goes through _distance_block with its
    # stats: the counter is rows x cols x D summed over the kernel's calls.
    # So it is on a prepared set, whose two runs read their counts off the
    # set's curve, built in the first with its own kernel calls, and whose
    # first read of a run's labels then runs the pass
    x = data.draw(point_sets_with_duplicates(metric, min_n=1))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    radii = data.draw(st.lists(st.sampled_from(edge_radii(x, metric)), min_size=2, max_size=2))
    eps = radii[0]
    calls = []

    def counted_cdist(a, b, *args, **kwargs):
        calls.append(a.shape[0] * b.shape[0] * a.shape[1])
        return cdist(a, b, *args, **kwargs)

    stats = RunStats()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CELLS", data.draw(st.sampled_from([1, 3, 7, 50])))
        mp.setattr(core, "cdist", counted_cdist)
        lab = dbscan(x, eps, min_pts, metric=metric, stats=stats)
    assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, min_pts, metric))
    assert (stats.dbscan_invocations, stats.point_evaluations) == (1, sum(calls))
    calls.clear()
    points, stats = PreparedPoints(x, metric), RunStats()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "cdist", counted_cdist)
        runs = [dbscan(points, r, min_pts, metric=metric, stats=stats) for r in radii]
        assert (stats.curve_builds, stats.point_evaluations) == (1, sum(calls))
        labels = runs[-1].labels
    assert np.array_equal(labels, brute_force_dbscan(x, radii[-1], min_pts, metric))
    assert (stats.dbscan_invocations, stats.point_evaluations) == (2, sum(calls))


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_counts_read_before_the_labels_match_them(metric, data):
    # dbscan knows k and the noise count from its forest and border pass,
    # and numbers the labels only when they are first read. min_pts up to
    # N + 1 and N down to 1, so no point may be core; one column or more
    x = data.draw(point_sets_with_duplicates(metric, min_n=1))
    x = data.draw(scaled_rows(metric, x))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    eps = data.draw(st.sampled_from(edge_radii(x, metric)))
    label_points, built = core._label_points, []

    def counted(*forest):
        built.append(len(forest[0]))
        return label_points(*forest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CELLS", data.draw(st.sampled_from([1, 3, 7, 50, 1 << 19])))
        mp.setattr(core, "_label_points", counted)
        lab = dbscan(x, eps, min_pts, metric=metric)
        k, noise = lab.n_clusters, lab.n_noise
        assert not built
        labels = lab.labels
        assert built == [len(x)]
    assert k == np.unique(labels[labels != NOISE]).size
    assert noise == np.count_nonzero(labels == NOISE)
    assert np.array_equal(labels, brute_force_dbscan(x, eps, min_pts, metric))


@pytest.mark.parametrize("metric", METRICS)
def test_kcurve_of_one_point(metric):
    x = [[1.0, 2.0]]
    curve = KCurve(x, 2, metric)
    for eps in (1e-300, 1.0, 1e300):
        assert (curve.k(eps), curve.noise(eps)) == (0, 1.0) == k_and_noise(x, eps, 2, metric)


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_nothing_clusters_below_the_closest_pair(metric, data):
    # distinct rows (in direction, under cosine): each ball holds only its
    # centre. Dropping repeated rows first leaves the assume to discard only
    # sets with fewer than two distinct rows, parallel rows under cosine and
    # distances that underflow to 0
    x = np.unique(data.draw(point_sets(metric)), axis=0)
    assume(len(x) >= 2)
    d = brute_force_distances(x, metric)[~np.eye(len(x), dtype=bool)]
    assume(np.all(d > 0))
    eps = d.min() / 2
    assume(eps > 0)
    min_pts = data.draw(st.integers(2, len(x) + 1))
    curve = KCurve(x, min_pts, metric)
    assert k_and_noise(x, eps, min_pts, metric) == (0, 1.0)
    assert (curve.k(eps), curve.noise(eps)) == (0, 1.0)


@pytest.mark.parametrize("metric", METRICS)
@settings(max_examples=50, deadline=None)  # each example runs five searches twice
@given(data=st.data())
def test_searches_read_the_cached_matrix_as_they_would_compute_it(metric, data):
    # a search prepares its rows once. These sets fit one block, so each
    # search builds its curve at its first probe, from the whole matrix of
    # its rows computed in one call, and reads every probe off it; a budget
    # of a few cells, below N^2 from N = 3 on, makes every probe run the
    # pass instead, so the curve is compared with the pass. Zeroed entries
    # make a dimension subsample zero some rows out, and the extra zero rows
    # of the lone search have no direction under cosine: both are noise.
    # The radius, the labels and roles, and each probe's (eps, k, noise)
    # must not move
    x = data.draw(point_sets_with_duplicates(metric))
    x = np.where(data.draw(arrays(np.bool_, x.shape)), 0.0, x)
    if metric == "cosine":
        x = with_direction(x)
    padded = np.vstack([x, np.zeros((data.draw(st.integers(0, 3)), x.shape[1]))])
    bounds = SearchBounds(0.0, data.draw(st.sampled_from(edge_radii(x, metric))))
    cfg = TuneConfig(min_pts=data.draw(st.integers(2, len(x))), itr=3, m=2,
                     alpha=data.draw(st.sampled_from([0.5, 1.0])), seed=data.draw(st.integers(0, 3)),
                     metric=metric)
    effective_k = search.effective_k

    def run():
        probes = []

        def recorded(probe):
            probes.append((probe.epsilon, probe.k, probe.noise))
            return effective_k(probe)

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degenerate intervals and bounds
            mp.setattr(search, "effective_k", recorded)
            out = [ternary_search(padded, bounds, cfg)]
            for tune in (ts_clustering, tse_clustering):
                eps, lab = tune(x, cfg)
                out.append((eps, lab.labels.tolist(), lab.roles.tolist()))
        return out, probes

    cached = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CELLS", data.draw(st.sampled_from([1, 3, 7])))
        assert run() == cached


@st.composite
def collinear_rows(draw, metric):
    """Rows t v on one line through the origin (or, under cosine, through
    a point off it, so the rows keep a direction) with some rows repeated:
    the triangle inequality is tight, so some pair of groups sits on the
    inclusion bound to within rounding."""
    d = draw(st.integers(2, 4))
    v = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
    assume(np.any(v))
    t = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False, width=64), min_size=3, max_size=14))
    t = np.array(t)
    x = t[:, None] * v + (5.0 if metric == "cosine" else 0.0)
    copies = draw(st.lists(st.integers(0, len(x) - 1), max_size=4))
    return np.vstack([x, x[copies]])


def inclusion_radii(points, metric):
    """For each pair of groups of ``points``, d^(c_A, c_B) + r_A + r_B as a
    radius (s^2 / 2 under cosine, whose groups bound the chord s), the
    floats on either side of it, and a radius just past the margin, where
    the pair is inside. None when the set has no groups."""
    groups = points._grouping(None)
    if not groups:
        return []
    edge = np.unique(groups.between + groups.radius[:, None] + groups.radius)
    if metric == "cosine":
        edge = edge * edge / 2
    past = edge * (1 + (points.x.shape[1] + 8) * 2.0 ** -47) + 2.0 ** -490
    radii = np.concatenate((edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf), past))
    return radii[(radii > 0) & (radii < np.inf)].tolist()


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the oracle's squares
@SETTINGS
@given(data=st.data())
def test_the_group_bound_matches_the_key_window_and_the_oracle(metric, data):
    # a budget of a few cells puts N^2 over one block from N = 3 on, so a
    # prepared set builds its groups at its first run; at 1, 3 and 7 cells
    # a group takes a block a row, at 50 a small group fits one block and a
    # larger one needs several, and at 200 (N >= 15) every group fits one
    # block. Every group-plan block fits the budget unless it is one row.
    # The key window and the plan dbscan runs, the group bound wherever
    # the set has groups, run on the same set, with duplicate rows, at
    # every exact pairwise kernel value (the closed ball's edge, where the
    # triangle inequality of collinear rows is tight) and the float below
    # it, and at each pair of groups' inclusion bound, the floats on either
    # side of it and a radius past its margin, where the pair counts and
    # joins with no kernel cell. Rows at 1e-300 or 1e300 are outside the
    # scales the bound is proved for: the set builds no groups, and both
    # runs are the key window. Under cosine the unit rows have no such
    # scale, and rows scaled as scaled_rows does keep a direction
    x = data.draw(st.one_of(point_sets_with_duplicates(metric), collinear_rows(metric)))
    if x.shape[1] == 1:
        x = np.c_[x, 0 * x]  # groups need two columns
    if metric == "cosine":
        x = data.draw(scaled_rows(metric, x))
    else:
        x = x * data.draw(st.sampled_from([1.0, 1e-300, 1e300]))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    cells = data.draw(st.sampled_from([1, 3, 7, 50, 200]))
    runs, plans = {}, []

    def recorded(*args):
        plans.append(PLAN(*args))
        return plans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CELLS", cells)
        points = PreparedPoints(x, metric)
        radii = edge_radii(x, metric) + (inclusion_radii(points, metric) if len(x) ** 2 > cells else [])
        radii = data.draw(st.lists(st.sampled_from(radii), min_size=1, max_size=8))
        for name, plan in (("key", key_window), ("group", recorded)):
            mp.setattr(core, "_plan", plan)
            runs[name] = [dbscan(points, eps, min_pts, metric) for eps in radii]
    for plan, eps in zip(plans, radii):
        assert all(e - s == 1 or (e - s) * window.size <= cells for s, e, window, _ in plan.blocks())
        # every pair of an inside pair of groups is within eps
        starts = plan.groups.starts
        for a, b in zip(*np.nonzero(plan.inside)):
            rows, cols = plan.groups.x[starts[a] : starts[a + 1]], plan.groups.x[starts[b] : starts[b + 1]]
            assert np.all(_distance_block(rows, cols, metric, None) <= eps), (eps, a, b)
    top = np.abs(points.x).max()
    assert bool(points._groups) == (len(x) ** 2 > cells and 2.0 ** -450 <= top <= 2.0 ** 450)
    for i, eps in enumerate(radii):
        expected = brute_force_dbscan(x, eps, min_pts, metric)
        key = runs["key"][i]
        assert np.array_equal(key.labels, expected), eps
        lab = runs["group"][i]
        assert np.array_equal(lab.labels, expected) and np.array_equal(lab.roles, key.roles), eps
        assert (lab.n_clusters, lab.n_noise) == (key.n_clusters, key.n_noise), eps


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the oracle's squares
@SETTINGS
@given(data=st.data())
def test_any_groups_with_true_radii_give_the_oracles_labels(metric, data):
    # the group bound's proof needs only each group's radius about its
    # centre and the centres' distances. Rows put in groups at random, in
    # any order, one group or a group a row, mix inside, kept and far pairs
    # of groups in ways the farthest-first groups of a small set seldom
    # do. Small integer grids put many pairs exactly at the radii drawn.
    # A fault in a rare mix may still pass here: the two that TestGroupBound
    # pins with given groups showed in about one such draw in a thousand
    grid = arrays(np.float64, st.tuples(st.integers(3, 12), st.just(2)), elements=st.integers(1, 6))
    x = data.draw(st.one_of(grid, point_sets_with_duplicates(metric), collinear_rows(metric)))
    if x.shape[1] == 1:
        x = np.c_[x, 0 * x]
    most = data.draw(st.integers(0, len(x) - 1))
    group = np.array(data.draw(st.lists(st.integers(0, most), min_size=len(x), max_size=len(x))))
    group = np.unique(group, return_inverse=True)[1]
    min_pts = data.draw(st.integers(2, len(x) + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_CELLS", data.draw(st.sampled_from([1, 3, 7, 50])))
        points = PreparedPoints(x, metric)
        # the scales at which the bound is proved (see _Groups)
        assume(2.0 ** -450 <= np.abs(points.x).max() <= 2.0 ** 450)
        given_groups(points, group)
        radii = edge_radii(x, metric) + inclusion_radii(points, metric)
        for eps in data.draw(st.lists(st.sampled_from(radii), min_size=1, max_size=8)):
            lab = dbscan(points, eps, min_pts, metric)
            assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, min_pts, metric)), eps


@SETTINGS
@given(data=st.data())
def test_union_points_every_node_at_the_smallest_index_of_its_tree(data):
    # a flat forest (each node at its tree's smallest index) joined along
    # random pairs must be the flat forest of the joined trees
    n = data.draw(st.integers(1, 40))
    tree = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    parent = np.array([np.flatnonzero(tree == t)[0] for t in tree])
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    a, b = np.array([p for p, _ in pairs], dtype=np.intp), np.array([q for _, q in pairs], dtype=np.intp)
    expected = parent.copy()
    for p, q in pairs:  # merge the two trees by relabelling, one pair at a time
        low, high = sorted((expected[p], expected[q]))
        expected[expected == high] = low
    core._union(parent, a, b)
    assert parent.tolist() == expected.tolist()
