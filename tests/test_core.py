import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from tsdbscan import (
    NOISE,
    PreparedPoints,
    RunStats,
    TuneConfig,
    approximate_diameter_ub,
    core,
    dbscan,
    ts_clustering,
)
from tsdbscan.core import ROLE_BORDER, ROLE_CORE, ROLE_NOISE, KCurve, validate_points
from tsdbscan.data_io import synth_blobs

from conftest import PLAN, assert_curve_is_prims, brute_force_dbscan, distance, given_groups, key_window


class TestDistance:
    def test_pythagorean(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_identity(self):
        assert distance((1.5, -2), (1.5, -2)) == 0.0

    def test_manhattan(self):
        assert distance((0, 0), (3, 4), "manhattan") == 7.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for metric in ("euclidean", "manhattan", "cosine"):
            p, q = rng.normal(size=(2, 5))
            assert distance(p, q, metric) == pytest.approx(distance(q, p, metric))

    def test_unknown_metric(self):
        for build in (lambda x: dbscan(x, 1.0, 2, "chebyshev"), lambda x: KCurve(x, 2, "chebyshev")):
            with pytest.raises(ValueError, match="unknown metric 'chebyshev'"):
                build([[0.0], [1.0]])


class TestRegionQuery:
    """The region query of DBSCAN: the closed eps-ball, its centre included,
    seen through the roles and labels of ``dbscan``."""

    X = np.array([[0.0], [0.5], [2.0]])

    def test_closed_ball_boundary(self):
        lab = dbscan(self.X, 0.5, 2)
        assert lab.labels.tolist() == [0, 0, NOISE]
        assert lab.roles.tolist() == [ROLE_CORE, ROLE_CORE, ROLE_NOISE]
        assert np.all(dbscan(self.X, np.nextafter(0.5, 0), 2).labels == NOISE)

    def test_isolated(self):
        assert np.all(dbscan(self.X, 0.1, 2).labels == NOISE)

    def test_all_within(self):
        # only the middle ball holds all three points
        lab = dbscan(self.X, 1.5, 3)
        assert lab.labels.tolist() == [0, 0, 0]
        assert lab.roles.tolist() == [ROLE_BORDER, ROLE_CORE, ROLE_BORDER]

    def test_self_membership(self):
        # a point whose ball holds m others is core at min_pts m + 1, not m + 2
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        d = np.linalg.norm(x[:, None] - x[None], axis=2)
        for eps in (1e-9, 0.5, 10.0):
            for i in range(20):
                others = int(np.count_nonzero(d[i] <= eps)) - 1
                if others:
                    assert dbscan(x, eps, others + 1).roles[i] == ROLE_CORE
                assert dbscan(x, eps, others + 2).roles[i] != ROLE_CORE

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            dbscan(self.X, float("nan"), 2)


# two clusters, in descending order of the sort key, with the border point
# 1 between them
LINE = np.array([3.0, 3.0, 3.0, 2.0, 1.0, 0.0, -1.0, -1.0, -1.0])


class TestDbscan:
    def test_all_noise_below_min_spacing(self):
        lab = dbscan(np.array([[0.0], [10.0], [20.0]]), 1.0, 2)
        assert lab.n_clusters == 0
        assert np.all(lab.labels == NOISE)

    def test_single_cluster_at_diameter(self):
        lab = dbscan(np.array([[0.0], [10.0], [20.0]]), 25.0, 2)
        assert lab.n_clusters == 1

    def test_four_point_roles(self):
        lab = dbscan(np.array([[0.0], [1.0], [2.0], [2.9]]), 1.0, 3)
        assert (lab.n_clusters, lab.n_noise) == (1, 0)
        assert lab.roles.tolist() == [ROLE_BORDER, ROLE_CORE, ROLE_CORE, ROLE_BORDER]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 50))
            d = int(rng.integers(1, 4))
            x = rng.random((n, d))
            eps = float(rng.uniform(0.05, 1.0))
            min_pts = int(rng.integers(2, 6))
            got = dbscan(x, eps, min_pts).labels
            assert np.array_equal(got, brute_force_dbscan(x, eps, min_pts))

    def test_core_set_monotone_in_epsilon(self):
        rng = np.random.default_rng(3)
        x = rng.random((60, 2))
        for eps in (0.05, 0.1, 0.2, 0.4):
            small = dbscan(x, eps, 3).roles == ROLE_CORE
            large = dbscan(x, eps * 1.5, 3).roles == ROLE_CORE
            assert np.all(large[small])

    def test_noise_monotone_in_epsilon(self):
        rng = np.random.default_rng(4)
        x = rng.random((50, 2))
        fracs = [dbscan(x, e, 3).n_noise / len(x) for e in np.linspace(0.02, 1.5, 15)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_permutation_invariance_of_k(self):
        rng = np.random.default_rng(5)
        x = rng.random((40, 2))
        k = dbscan(x, 0.15, 3).n_clusters
        for _ in range(5):
            perm = rng.permutation(len(x))
            assert dbscan(x[perm], 0.15, 3).n_clusters == k

    def test_noise_points_not_near_core(self):
        rng = np.random.default_rng(6)
        x = rng.random((50, 2))
        eps = 0.12
        lab = dbscan(x, eps, 3)
        cores = np.flatnonzero(lab.roles == ROLE_CORE)
        for i in np.flatnonzero(lab.labels == NOISE):
            assert all(distance(x[i], x[c]) > eps for c in cores)

    def test_every_cluster_has_a_core(self):
        rng = np.random.default_rng(8)
        x = rng.random((50, 2))
        lab = dbscan(x, 0.15, 3)
        for cid in np.unique(lab.labels[lab.labels != NOISE]):
            assert np.any((lab.labels == cid) & (lab.roles == ROLE_CORE))

    def test_rejects_bad_params(self):
        x = np.zeros((3, 1))
        with pytest.raises(ValueError):
            dbscan(x, -1.0, 2)
        with pytest.raises(ValueError):
            dbscan(x, float("nan"), 2)
        with pytest.raises(ValueError, match="epsilon must be positive and finite, got inf"):
            dbscan(x, float("inf"), 2)
        with pytest.raises(ValueError):
            dbscan(x, 1.0, 1)
        with pytest.raises(ValueError):
            dbscan(np.array([[np.nan]]), 1.0, 2)

    def test_stats_counter(self):
        stats = RunStats()
        dbscan(np.zeros((5, 2)), 1.0, 2, stats=stats)
        assert stats.dbscan_invocations == 1
        assert stats.point_evaluations >= 5 * 5 * 2

    @pytest.mark.parametrize("cells, pairs", [
        (1, 20 * 21 // 2),  # one-row blocks: the lower triangle and the diagonal
        (200, 10 * 10 + 10 * 20),  # rows [0, 10) x [0, 10), then [10, 20) x [0, 20)
        (400, 20 * 20),  # one block
    ])
    def test_counts_pass_computes_blocks_on_and_below_the_diagonal(self, monkeypatch, cells, pairs):
        # the rows 0.3 e_i are 0.3 sqrt(2) > eps apart, so no point is core
        # and the run is the counts pass alone. Every coordinate spans
        # 0.3 <= eps, so the key ball of each row, found from the key (19
        # zeros, then 0.3), is all 20 rows, and the window of rows [s, e)
        # keeps all of [0, e). Finding the balls costs one cell per row (D =
        # 1): each guessed end, the last row, is near, and no row is past it
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        stats = RunStats()
        lab = dbscan(0.3 * np.eye(20), 0.4, 2, stats=stats)
        assert np.all(lab.labels == NOISE)
        assert stats.point_evaluations == pairs * 20 + 20

    @pytest.mark.parametrize("x, eps, min_pts, cells, evaluations", [
        # each line runs as np.c_[x, 0 * x], which takes the windowed path
        # with the sort key and kernel bits of x alone: each pair whose key
        # kernel the ball ends are checked on counts one cell (D = 1), and
        # each pair of a block two (D = 2).
        # No point of the line is core (at most 3 points in a ball), so the
        # run is the counts pass alone. The ball ends: each of the 20 rows
        # checks its guessed end i + 1 (19 for the last row), which is near,
        # and the 18 rows whose end is not the last row check the row past
        # it, which is far. The window of rows [s, e) starts at s - 1, the
        # first row of the key ball of s
        (np.arange(20.0), 1.5, 4, 1, 20 + 18 + 2 * (1 + 19 * 2)),  # [s, s + 1) x [s - 1, s + 1)
        (np.arange(20.0), 1.5, 4, 40, 20 + 18 + 2 * (2 * 2 + 9 * 2 * 3)),  # [s, s + 2) x [s - 1, s + 2)
        (np.arange(20.0), 1.5, 4, 1 << 19, 20 + 18 + 2 * 20 * 20),  # one block: no column to rule out
        # points 1..18 are core, each only once its next neighbour's row is
        # seen, so the counts pass (as above) joins no pair, and all 18 are
        # late. The re-check meets each in a one-row block with the core
        # points in its key ball [i - 1, i + 1]: 1 x 2 (points 1 and 18) or
        # 1 x 3. The border points 0 and 19 each meet one core point. The
        # ball ends cost 20 + 18 cells, as above: each guess i + 1 is near
        (np.arange(20.0), 1.0, 3, 1, 20 + 18 + 2 * (1 + 19 * 2 + 2 * 2 + 16 * 3 + 2 * 1)),
        # a point and its copy in each two-row block [s, s + 2), each core by
        # the block's end, with a window that starts at the block (eps 0.5)
        # or at the copies of the point below (eps 1.0). The ball ends: each
        # of the 20 rows checks its guessed end, the last copy of its own
        # point (eps 0.5) or of the next (eps 1.0), which is near, and each
        # row whose end is not the last row (18 or 16 rows) checks the row
        # past it, which is far
        (np.repeat(np.arange(10.0), 2), 0.5, 2, 40, 20 + 18 + 2 * 10 * 2 * 2),
        (np.repeat(np.arange(10.0), 2), 1.0, 2, 40, 20 + 16 + 2 * (2 * 2 + 9 * 2 * 4)),
        # 0 and 1 are late (a neighbour while short of min_pts) until row 2
        # turns all three core and joins them in one tree. Nothing is checked
        # again, which would add 1 x 3 pairs for each of 0 and 1. The ball
        # ends cost 3 cells, each guess the last row; the blocks 1 + 2 + 3
        (np.array([0.0, 0.1, 0.2]), 1.0, 3, 1, 3 + 2 * (1 + 2 + 3)),
    ])
    def test_window_leaves_out_points_far_on_the_sort_coordinate(self, monkeypatch, x, eps, min_pts, cells,
                                                                 evaluations):
        x = np.c_[x, 0 * x]
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        stats = RunStats()
        lab = dbscan(x, eps, min_pts, stats=stats)
        assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, min_pts))
        assert stats.point_evaluations == evaluations

    @pytest.mark.parametrize("x, eps, metric, evaluations", [
        # each row checks its guessed end, then the row after it unless the
        # end is the last row; here the guess i + 1 holds
        (np.arange(20.0), 1.5, "euclidean", 20 + 18),
        # the guess from the keys is each row itself. The squares of these
        # gaps underflow to 0, so under euclidean every pair is within
        # 1e-300: rows 0, 1 and 2 find the row after the guess near and
        # gallop on from it, rows 0 and 1 one row (to rows 2 and 3), then row
        # 0, whose next step of two rows would pass the last row, halves
        # its bracket [2, 4) at row 3. Under manhattan each row after the
        # guess is far
        ([0.0, 1e-170, 2e-170, 3e-170], 1e-300, "euclidean", 4 + 3 + 2 + 1),
        ([0.0, 1e-170, 2e-170, 3e-170], 1e-300, "manhattan", 4 + 3),
        # the row after the guess of each copy of 0 is near, and it stands
        # for its run of copies, which ends at the last row: no search
        ([0.0, 0.0, 0.0, 1e-170, 1e-170], 1e-300, "euclidean", 5 + 3),
        # the square of the gap 2e154 overflows: the guessed end of row 0,
        # the last row, is too far, and its search's first probe, row 1, is
        # near
        ([0.0, 1e154, 2e154], 1e300, "euclidean", 3 + 1),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the oracle's squares
    def test_one_column_ball_ends_are_fixed_up_with_the_kernel(self, x, eps, metric, evaluations):
        # a one-column run computes no distance block: each pair whose
        # kernel it checks counts one cell at D = 1
        x = np.array(x)[:, None]
        stats = RunStats()
        lab = dbscan(x, eps, 2, metric=metric, stats=stats)
        assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, 2, metric))
        assert stats.point_evaluations == evaluations

    def test_ball_end_search_is_bounded(self, monkeypatch):
        # 2000 distinct keys within 1e-170: the squares of their gaps
        # underflow, so under euclidean every pair is within 1e-300, and the
        # guess from the keys, each row itself, misses every end but the
        # last. One call checks each guess and the row after it; then each
        # row gallops to the last row and halves its bracket, in fewer than
        # 2 ceil(log2 N) calls more, each for all rows left
        x = np.arange(2000) * 1e-173
        gap_kernel, calls = core._gap_kernel, []

        def counted(gaps, metric, stats):
            calls.append(gaps.size)
            return gap_kernel(gaps, metric, stats)

        monkeypatch.setattr(core, "_gap_kernel", counted)
        expected = brute_force_dbscan(x[:, None], 1e-300, 2)
        assert np.all(expected == 0)
        for rows in (x[:, None], np.c_[x, 0 * x]):
            calls.clear()
            assert np.array_equal(dbscan(rows, 1e-300, 2).labels, expected)
            assert len(calls) <= 2 + 2 * math.ceil(math.log2(len(x)))

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_a_span_that_overflows_warns_of_nothing(self, metric, columns):
        # the rows span more than the largest float; so does their distance
        x = np.array([[1e308], [-1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lab = dbscan(np.c_[x, np.zeros((2, columns - 1))], 1.0, 2, metric=metric)
        assert np.all(lab.labels == NOISE)

    @pytest.mark.parametrize("cells", [1, 4, 7, 8, 16])
    @pytest.mark.parametrize("x, roles", [
        # 0.0 and 0.4 are near but both short of min_pts when their pair is
        # computed, and each turns core only as a later row's column
        ([0.0, 0.4, -0.4, 0.8], [ROLE_CORE, ROLE_CORE, ROLE_BORDER, ROLE_BORDER]),
        # 0.0 is core by its own row, but 0.4, short of min_pts when its row
        # meets 0.0, turns core only as the column of row 0.8
        ([0.4, -0.3, 0.8, 0.0, -0.2, -0.1],
         [ROLE_CORE, ROLE_CORE, ROLE_BORDER, ROLE_CORE, ROLE_CORE, ROLE_CORE]),
    ])
    def test_first_block_points_become_core_through_later_columns(self, monkeypatch, cells, x, roles):
        # in one-row blocks no pair of the pass joins 0.4 to 0.0, so only the
        # late re-check does, and 0.4 is late by its own row's pairs; the
        # zero column keeps the run on the windowed path
        x = np.array(x)
        x = np.c_[x, 0 * x]
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        lab = dbscan(x, 0.45, 3)
        assert lab.labels.tolist() == brute_force_dbscan(x, 0.45, 3).tolist() == [0] * len(x)
        assert lab.roles.tolist() == roles

    @pytest.mark.parametrize("cells", [1, 2, 3, 5, 8, 1 << 19])
    def test_a_point_that_had_a_neighbour_only_as_a_column_is_late(self, monkeypatch, cells):
        # in sorted order (the far point 5 makes x the widest coordinate)
        # row 3 turns core with 0, 1 and 2 in its ball; 0 had no neighbour
        # as a row and turns core only with row 4, which stays a border
        # point, so only the late re-check of 0 joins 0 and 3
        x = np.array([[0.0, 0.0], [0.2, -0.7], [0.25, -0.8], [0.3, -0.35], [0.35, 0.35], [10.0, 0.0]])
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        lab = dbscan(x, 0.5, 3)
        assert lab.labels.tolist() == brute_force_dbscan(x, 0.5, 3).tolist() == [0, 0, 0, 0, 0, NOISE]
        assert lab.roles.tolist() == [ROLE_CORE] * 4 + [ROLE_BORDER, ROLE_NOISE]

    def test_a_row_that_turns_core_in_a_later_chunk_of_its_block_is_late(self, monkeypatch):
        # one-row blocks over rows already in the order of the sort key, x
        # (the far point 5 makes it the widest): the tree of 0, 0.1 and 0.2
        # on the axis, the tree of (0.3, 1), (0.5, 1) and (0.9, 0.9) above
        # it, then row 6 = (1, 0). Row 6's window is rows 0 to 6, and rows 0
        # to 2 are core in one tree, so its nearest chunk is rows 3 to 6,
        # where it meets only (0.9, 0.9) and stays short of min_pts; it turns
        # core only in its next chunk, rows 0 to 2. Each chunk joins at once,
        # so row 6 is late, and only the re-check of row 6 joins the two
        # trees through it: without it they are two clusters.
        # Cells: each of the 8 rows checks its guessed end and the 7 rows
        # whose end is not the last row the row past it (D = 1); rows 0 to 6
        # meet their windows [0, s + 1), rows 4 to 6 in two chunks, and row
        # 7 itself: 29 pairs. The late core rows, 0 and 1 (neighbours before
        # row 2 turned them core), 3 and 4 (before row 5 did) and 6, each
        # meet the 7 core points of their windows again: 35 pairs (D = 2)
        x = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 1.0], [0.5, 1.0], [0.9, 0.9], [1.0, 0.0],
                      [5.0, 0.0]])
        core_blocks, rechecked = core._core_blocks, []

        def spy(plan, rows, cores, epsilon, stats):
            rechecked.append(plan.order[rows].tolist())
            return core_blocks(plan, rows, cores, epsilon, stats)

        monkeypatch.setattr(core, "_BLOCK_CELLS", len(x))
        monkeypatch.setattr(core, "_core_blocks", spy)
        stats = RunStats()
        lab = dbscan(x, 1.0, 3, stats=stats)
        assert lab.labels.tolist() == brute_force_dbscan(x, 1.0, 3).tolist() == [0] * 7 + [NOISE]
        assert rechecked == [[0, 1, 3, 4, 6]]  # the re-check; no border pass
        assert stats.point_evaluations == 8 + 7 + 2 * (29 + 35)

    @pytest.mark.parametrize("cells", [1, 2, 3, 5, 9, 20, 50, 1 << 19])
    @pytest.mark.parametrize("border_at", [0, 8])
    @pytest.mark.parametrize("left_first", [True, False])
    def test_border_point_takes_the_smaller_cluster_id(self, monkeypatch, cells, border_at, left_first):
        # two clusters 2 apart whose inner core points, 0 and 2, are within
        # eps of the border point 1; it has too few neighbours to be core
        left, right = [-1.0, -1.0, -1.0, 0.0], [2.0, 3.0, 3.0, 3.0]
        rows = left + right if left_first else right + left
        x = np.insert(rows, border_at, 1.0)
        x = np.c_[x, 0 * x]  # the windowed path
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        lab = dbscan(x, 1.0, 4)
        assert lab.labels.tolist() == brute_force_dbscan(x, 1.0, 4).tolist()
        assert lab.n_clusters == 2
        assert lab.labels[border_at] == 0 and lab.roles[border_at] == ROLE_BORDER

    @pytest.mark.parametrize("cells", [1, 2, 3, 5, 9, 20, 50, 1 << 19])
    def test_clusters_are_numbered_in_caller_order(self, monkeypatch, cells):
        # rows in descending order of the sort key, so the sort reverses the
        # clusters: the right one, first in the caller's order, is number 0,
        # and so is the border point 1 between them
        x = np.c_[LINE, 0 * LINE]  # the windowed path
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        lab = dbscan(x, 1.0, 4)
        assert lab.labels.tolist() == brute_force_dbscan(x, 1.0, 4).tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1]
        assert lab.roles[4] == ROLE_BORDER

    def test_one_column_numbers_clusters_and_borders_in_caller_order(self):
        # the border point 1 is within eps of the nearest core point on each
        # side, 2 and 0, and takes the smaller id
        lab = dbscan(LINE[:, None], 1.0, 4)
        assert lab.labels.tolist() == brute_force_dbscan(LINE[:, None], 1.0, 4).tolist() == [0] * 5 + [1] * 4
        assert lab.roles.tolist() == [ROLE_CORE] * 4 + [ROLE_BORDER] + [ROLE_CORE] * 4

    @pytest.mark.parametrize("cells, pairs, eps, k", [
        # two-row blocks [s, s + 2): at eps 0.5 the points lie in 10 trees,
        # so no block's far columns are core in one tree, and each block
        # meets its whole window [0, s + 2)
        (40, 2 * sum(range(2, 21, 2)), 0.5, 10),
        # at eps 1.0 the first two blocks meet their whole windows, [0, 2)
        # and [0, 4), for 2 x 2 + 2 x 4 pairs: the nearest chunk holds the
        # block and the max(min_pts, 2) = 2 columns before it, which reaches
        # column 0. From s = 4 on, the far columns [0, s - 2) are core in one
        # tree; the chunk [s - 2, s + 2) makes both rows core and joins them
        # to that tree, so the far columns are skipped: 2 x 4 pairs for each
        # of the 8 blocks left
        (40, 2 * 2 + 2 * 4 + 8 * 2 * 4, 1.0, 1),
        (400, 20 * 20, 0.5, 10),  # one block
        (400, 20 * 20, 1.0, 1),
    ])
    def test_points_core_in_their_own_block_compute_no_pair_twice(self, monkeypatch, cells, pairs, eps, k):
        # each block holds a point and its copy, so every point is core by
        # the end of its own block: the run is the counts pass alone. The
        # rows 0.4 e_i are 0.4 sqrt(2) apart, so in 10 clusters at eps 0.5
        # and one at 1.0. Every coordinate spans 0.4 <= eps, so the key ball
        # of each row is all 20 rows and the window of rows [s, e) is all
        # of [0, e). Finding the balls costs one cell per row (D = 1): each
        # guessed end, the last row, is near, and no row is past it
        x = np.repeat(0.4 * np.eye(10), 2, axis=0)
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        stats = RunStats()
        lab = dbscan(x, eps, 2, stats=stats)
        assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, 2))
        assert lab.n_clusters == k and np.all(lab.roles == ROLE_CORE)
        assert stats.point_evaluations == pairs * 10 + 20

    @pytest.mark.parametrize("eps, ends, pairs", [
        # the key ball of grid column i holds columns i - 2 to i + 2. The
        # ball ends: each row's guessed end, the last row of column i + 2 (or
        # of the grid), is near, and the 70 rows of columns 0 to 6 check the
        # row past it, which is far
        (2.5, 100 + 70, 100 + 10 * 20 + 8 * 10 * 20),
        # columns i - 3 to i + 3; the rows of columns 0 to 5 check the row
        # past their end
        (3.5, 100 + 60, 100 + 10 * 20 + 8 * 10 * 20),
    ])
    def test_all_core_blocks_skip_the_far_columns_of_one_tree(self, monkeypatch, eps, ends, pairs):
        # a 10 x 10 integer grid, already in the order of its sort key, the
        # first coordinate, in blocks of 10 rows: block i is grid column i.
        # Every point has at least min_pts = 3 points within eps in its own
        # column, so it is core by the end of its block, and the columns
        # join in one tree. Block 0 meets [0, 10), and block 1 its whole
        # window [0, 20): the nearest chunk, the block and the 10 columns
        # before it, reaches column 0. From block 2 on, the columns before
        # the nearest chunk [10 (i - 1), 10 (i + 1)) are core in one tree,
        # and the chunk joins the block's rows to it, so each block computes
        # 10 x 20 pairs. The whole windows, 3 (eps 2.5) or 4 (eps 3.5)
        # grid columns wide, would cost 2700 or 3400 pairs
        x = np.array([(i, j) for i in range(10) for j in range(10)], dtype=float)
        monkeypatch.setattr(core, "_BLOCK_CELLS", 10 * 100)
        stats = RunStats()
        lab = dbscan(x, eps, 3, stats=stats)
        assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, 3))
        assert lab.n_clusters == 1 and np.all(lab.roles == ROLE_CORE)
        assert stats.point_evaluations == ends + 2 * pairs


class TestPreparedPoints:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_runs_on_prepared_points_match_runs_on_the_matrix(self, metric):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 3))
        x = np.vstack([x, x[:5]])  # duplicate rows
        points = PreparedPoints(x, metric)
        for eps in (0.05, 0.3, 1.0, 3.0):
            a, b = dbscan(points, eps, 3, metric), dbscan(x, eps, 3, metric)
            assert np.array_equal(a.labels, b.labels) and np.array_equal(a.roles, b.roles)
            assert np.array_equal(a.labels, brute_force_dbscan(x, eps, 3, metric))

    def test_the_matrix_is_computed_by_the_first_run_only(self):
        # the points 0, ..., 5 beside a zero column: the first run builds
        # the set's curve at min_pts 3, whose one kernel call is the 6 x 6 x 2
        # matrix, and both runs read their counts off that curve, checking
        # no ball end. A first read of a run's labels runs its pass, which
        # checks the ball ends on the key, one cell each, every guessed end
        # i + 1 (the last row for rows 4 and 5) and, for the rows 0 to 3, the
        # row past it: 6 + 4 cells. The pass then computes its own blocks:
        # all 6 rows fit one block against their window [0, 6), 6 x 6 x 2
        # cells, which make 1 to 4 core in one tree and leave 0 and 5 border,
        # so no late core point meets the core points again, and the border
        # pass computes the 2 border rows against the 4 core points in their
        # window, 2 x 4 x 2 cells: 10 + 72 + 16 = 98 cells a read
        x = np.c_[np.arange(6.0), np.zeros(6)]
        points = PreparedPoints(x)
        stats = RunStats()
        first = dbscan(points, 1.0, 3, stats=stats)
        assert stats == RunStats(dbscan_invocations=1, point_evaluations=6 * 6 * 2, curve_builds=1)
        second = dbscan(points, 1.0, 3, stats=stats)
        assert stats == RunStats(dbscan_invocations=2, point_evaluations=6 * 6 * 2, curve_builds=1)
        assert (first.n_clusters, first.n_noise) == (second.n_clusters, second.n_noise) == (1, 0)
        assert first.labels.tolist() == [0] * 6
        read = 6 + 4 + 6 * 6 * 2 + 2 * 4 * 2
        assert stats.point_evaluations == 6 * 6 * 2 + read == 170
        assert second.labels.tolist() == [0] * 6
        assert stats.point_evaluations == 6 * 6 * 2 + 2 * read == 268

    @pytest.mark.parametrize("n", [6, 10])
    def test_a_set_is_freed_with_its_last_reference(self, monkeypatch, n):
        # a set holds its curve (6 rows fit 50 cells) or its groups (10 rows
        # do not), and each run builds its own plan, which the set does not
        # keep; were any of them to point back at the set, every searched
        # set would stay alive until the cycle collector ran
        monkeypatch.setattr(core, "_BLOCK_CELLS", 50)
        points = PreparedPoints(np.c_[np.arange(float(n)), np.zeros(n)])
        for eps in (1.0, 3.0):
            dbscan(points, eps, 3)
        assert (3 in points._curves) == (n == 6) and (points._groups is not None) == (n == 10)
        ref = weakref.ref(points)
        gc.disable()
        try:
            del points
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("build", [lambda points: dbscan(points, 1.0, 2, metric="cosine"),
                                       lambda points: KCurve(points, 2, "cosine")], ids=["dbscan", "KCurve"])
    def test_the_metric_must_be_the_prepared_one(self, build):
        with pytest.raises(ValueError, match="prepared for metric 'euclidean', not 'cosine'"):
            build(PreparedPoints(np.ones((3, 2))))


# 40 points on a line, some doubled, beside a zero column: 45 rows
_LINE = np.array([0, 1, 2, 3, 5, 8, 9, 10, 11, 15, 16, 17, 18, 19, 20, 21, 27, 28, 29, 30,
                  31, 32, 40, 41, 42, 43, 44, 45, 46, 47, 55, 56, 57, 58, 59, 60, 61, 62, 70, 71.0])
COLLINEAR = np.c_[np.r_[_LINE, _LINE[::9]], np.zeros(45)]


class TestGroupBound:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_collinear_rows_at_every_exact_radius(self, monkeypatch, metric):
        # 40 points on a line, some doubled, beside a zero column: every
        # distance is an exact integer, and the triangle inequality is tight,
        # so at each radius some pair of groups sits exactly on the bound.
        # N^2 exceeds the budget, so the set builds ceil(sqrt(45 / 2)) = 5
        # groups at its first run
        x = COLLINEAR
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1000)
        points = PreparedPoints(x, metric)
        for eps in range(1, 72):
            expected = brute_force_dbscan(x, eps, 4, metric)
            for plan in (key_window, PLAN):
                monkeypatch.setattr(core, "_plan", plan)
                lab = dbscan(points, float(eps), 4, metric)
                assert np.array_equal(lab.labels, expected), (eps, plan)
        assert len(points._groups.sizes) == 5

    def test_a_set_with_groups_runs_them_at_every_radius(self, monkeypatch):
        # the 45 collinear rows over a budget of 1000 cells: N^2 = 2025 does
        # not fit, so the prepared set builds groups, and every run goes
        # through them, never through the set as one group. A matrix that
        # dbscan prepares for its one run, a prepared set whose N^2 fits
        # (31^2 = 961), and rows scaled by 2^500, outside the scales the
        # bound is proved for, build no groups and run the key window: the
        # sorted rows as one group, the set's own rows where the test
        # prepared it, whose blocks are _block_rows(N) rows, each on its
        # diagonal
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1000)
        plans = []
        monkeypatch.setattr(core, "_plan", lambda *args: plans.append(PLAN(*args)) or plans[-1])
        points = PreparedPoints(COLLINEAR)
        for eps in range(1, 72):
            dbscan(points, float(eps), 4)
        assert len(plans) == 71 and all(plan.groups is points._groups for plan in plans)
        for x, eps, prepared in ((COLLINEAR, 10.0, False), (COLLINEAR[:31], 10.0, True),
                                 (COLLINEAR * 2.0 ** 500, 10 * 2.0 ** 500, True)):
            plans.clear()
            points = PreparedPoints(x) if prepared else x
            lab = dbscan(points, eps, 4)
            assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, 4))
            (plan,) = plans
            n, step = len(x), core._block_rows(len(x))
            assert plan.groups.sizes.tolist() == [n]
            assert np.array_equal(plan.groups.x, x[plan.groups.order])
            if prepared:
                assert plan.groups.x is points.x and not points._groups
            assert plan.s.tolist() == list(range(0, n, step))
            assert plan.e.tolist() == [min(s + step, n) for s in range(0, n, step)]
            assert plan.diagonal.all()

    def test_each_group_takes_the_fewest_blocks_its_window_allows(self, monkeypatch):
        # the 45 collinear rows above, over a budget of 300 cells. Farthest-
        # first from 0 takes 71, then 32 (32 from 0, 39 from 71), then 16
        # (16 from both 0 and 32, before 55), then 55 (16 from 71); each row
        # joins its nearest centre, a tie the earlier one. So the groups of
        # the centres 0, 71, 32, 16 and 55 hold 0-8 (7 rows with the copy of
        # 0, radius 8), 70-71 (2, radius 1), 27-43 (11 with the copy of 29,
        # radius 11), 9-21 (11 with the copy of 15, radius 7) and 44-62 (14
        # with the copies of 45 and 61, radius 11). At eps 20 a pair of
        # groups is inside when its centres' distance plus both radii is
        # below 20, and kept unless the distance less both radii exceeds 20:
        # the groups of 0, 71 and 16 are inside themselves (2 r = 16, 2 and
        # 14), and the pairs (16, 0), (32, 0), (32, 16), (55, 32) and (55,
        # 71) are kept but not inside. So the groups of 0 and 71 run no
        # block: every kept pair B <= A is inside. That of 32 meets 8, the
        # one row of group 0 within 20 of its rows 27-43, and its own 11
        # rows, 12 columns, in 300 // 12 = 25-row blocks: one. That of 16,
        # inside itself, meets no diagonal: 0-8 (7 rows) and 27-41 (9)
        # within 20 of its rows 9-21, 16 columns, in 18-row blocks: one. That of 55 meets 70-71 (2), 27-43 (11) and its
        # own 14 rows, 27 columns, in 11-row blocks: 11 and 3. Blocks of
        # _block_rows(45) = 6 rows would take 2, 2 and 3
        x = COLLINEAR
        monkeypatch.setattr(core, "_BLOCK_CELLS", 300)
        plans = []
        monkeypatch.setattr(core, "_plan", lambda *args: plans.append(PLAN(*args)) or plans[-1])
        points = PreparedPoints(x)
        lab = dbscan(points, 20.0, 4)
        assert np.array_equal(lab.labels, brute_force_dbscan(x, 20.0, 4))
        assert points._groups.sizes.tolist() == [7, 2, 11, 11, 14]
        assert points._groups.radius.tolist() == [8, 1, 11, 7, 11]
        (plan,) = plans
        assert np.flatnonzero(plan.inside.diagonal()).tolist() == [0, 1, 3]
        assert (plan.e - plan.s).tolist() == [11, 11, 11, 3]
        assert plan.diagonal.tolist() == [True, False, True, True]
        assert all((e - s) * window.size <= 300 for s, e, window, _ in plan.blocks())

    @pytest.mark.parametrize("min_pts", [4, 45, 46])
    def test_a_run_with_every_kept_pair_inside_computes_no_block(self, monkeypatch, min_pts):
        # the 45 collinear rows over a budget of 1000 cells: their groups
        # (above) have centres at most 71 apart plus radii at most 80, so at
        # eps 81 every pair of groups is inside, and a run counts and joins
        # every pair at group level. Its only kernel cells are the ball
        # ends: each row's guessed end, the last row, is near, and no row is
        # past it, one cell (D = 1) each. Every row has all 45 rows in its
        # ball: one cluster, or all noise at min_pts 46
        x = COLLINEAR
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1000)
        points = PreparedPoints(x)
        dbscan(points, 1.0, min_pts)  # builds the groups
        blocks = []
        distance_block = core._distance_block
        monkeypatch.setattr(core, "_distance_block",
                            lambda a, b, *args: blocks.append(a.shape[1]) or distance_block(a, b, *args))
        stats = RunStats()
        lab = dbscan(points, 81.0, min_pts, stats=stats)
        assert stats.point_evaluations == 45 and set(blocks) == {1}
        assert np.array_equal(lab.labels, brute_force_dbscan(x, 81.0, min_pts))
        assert (lab.n_clusters, lab.n_noise) == ((1, 0) if min_pts <= 45 else (0, 45))

    @pytest.mark.parametrize("cells", [1, 50])
    def test_a_border_point_takes_the_core_points_of_its_inside_groups(self, monkeypatch, cells):
        # the points 2, 5, 10, 16, 24, 25, 26, 28 and 29 on a line: farthest-
        # first from 2 takes 29, then 16 (14 from 2, 13 from 29), so the
        # groups are {2, 5} (radius 3), {24, ..., 29} (radius 5) and {10, 16}
        # (radius 6). At eps 7 only {2, 5} is inside a group, itself (2 x 3
        # <= 7). 5 is core (2, 5 and 10), and 2, with 2 and 5 alone in its
        # ball, is a border point whose one core neighbour lies in its
        # inside group: no block of the run meets the pair
        x = np.c_[[24.0, 16, 5, 10, 25, 29, 26, 28, 2], np.zeros(9)]
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        plans = []
        monkeypatch.setattr(core, "_plan", lambda *args: plans.append(PLAN(*args)) or plans[-1])
        lab = dbscan(PreparedPoints(x), 7.0, 3)
        assert lab.labels.tolist() == brute_force_dbscan(x, 7.0, 3).tolist() == [0, 1, 1, 1, 0, 0, 0, 0, 1]
        assert lab.roles[8] == ROLE_BORDER and lab.n_noise == 0
        (plan,) = plans
        assert plan.inside.astype(int).tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_a_row_with_no_diagonal_is_late_by_one_neighbour(self, monkeypatch):
        # nine points in one-row blocks. Farthest-first from (0, 5) takes
        # (7, 10), then (2, 11): the groups are the six points around (0,
        # 5) (radius 4), {(7, 10), (8, 8)} (radius sqrt 5) and {(2, 11)}.
        # At eps 6 the second and third groups are each inside themselves,
        # so their blocks hold no diagonal, and each row starts with its
        # group's size. Row (7, 10) meets one neighbour in its block, (4, 5),
        # 5.8 away, while its count is 3 < min_pts: it is late, though its
        # block's count is 1. It turns core only as the column of (2, 11),
        # 5.1 away, so only the late re-check joins it to (4, 5)'s cluster
        x = np.array([[0.0, 5.0], [3.0, 4.0], [7.0, 10.0], [0.0, 3.0], [8.0, 8.0], [1.0, 5.0],
                      [1.0, 4.0], [2.0, 11.0], [4.0, 5.0]])
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
        plans = []
        monkeypatch.setattr(core, "_plan", lambda *args: plans.append(PLAN(*args)) or plans[-1])
        lab = dbscan(PreparedPoints(x), 6.0, 4)
        assert lab.labels.tolist() == brute_force_dbscan(x, 6.0, 4).tolist() == [0] * 9
        roles = [ROLE_CORE] * 4 + [ROLE_BORDER] + [ROLE_CORE] * 2 + [ROLE_BORDER, ROLE_CORE]
        assert lab.roles.tolist() == roles
        (plan,) = plans
        assert np.flatnonzero(plan.inside.diagonal()).tolist() == [1, 2]

    def test_a_late_row_whose_own_group_is_inside_may_meet_no_core_column(self, monkeypatch):
        # the groups {(1, 2), (2, 2)} (centre (1, 2), radius 1), {(0, 0)}
        # and {(0, 1), (1, 0), (1, 2)} (centre (0, 1), radius sqrt 2), in
        # one-row blocks at eps 1: only {(0, 0)} is inside a group, itself,
        # and it is far from the first. (0, 0) is late: the block of (0, 1)
        # meets it while its count is 2 < min_pts 3, and that of (1, 0)
        # makes it core. Both end as border points, so in the late re-check
        # its one core column, (1, 2) in its key window but sqrt 5 away, is
        # not near it: the row must join nothing
        x = np.array([[1, 2], [2, 2], [0, 0], [0, 1], [1, 0], [1, 2]], dtype=float)
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
        points = PreparedPoints(x)
        given_groups(points, [0, 0, 1, 2, 2, 2])
        assert np.flatnonzero(points._groups.pairs(1.0)[1]).tolist() == [4]
        lab = dbscan(points, 1.0, 3)
        assert lab.labels.tolist() == brute_force_dbscan(x, 1.0, 3).tolist() == [0, 0, 1, 1, 1, 0]
        assert lab.roles.tolist() == [ROLE_CORE] * 3 + [ROLE_BORDER] * 2 + [ROLE_CORE]

    def test_an_inside_pair_spanning_a_hooked_root_stays_joined(self, monkeypatch):
        # the points 1, 6, 4 and 3 on a line, each its own group of radius
        # 0, in that order, at eps 2 and min_pts 2: 4 and 3 are inside each
        # other, and the pairs (1, 3) and (4, 6), exactly 2 apart, are kept
        # but not inside, for the margin. 4 and 3 are core by that pair
        # alone and join before any block. The block of 4 then hooks their
        # root under 6's, and that of 3, past it, joins 3 to 1: 3 must point
        # at the new root by then, or the join of 3 and 1 overwrites the
        # hook, and the chain 1 - 3 - 4 - 6 splits in two
        x = np.c_[[1.0, 6, 4, 3], np.zeros(4)]
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
        points = PreparedPoints(x)
        given_groups(points, [0, 1, 2, 3])
        assert points._groups.pairs(2.0)[1].astype(int).tolist() == [[1, 0, 0, 0], [0, 1, 0, 0],
                                                                     [0, 0, 1, 1], [0, 0, 1, 1]]
        lab = dbscan(points, 2.0, 2)
        assert lab.labels.tolist() == brute_force_dbscan(x, 2.0, 2).tolist() == [0] * 4

    def test_an_inside_pair_keeps_its_margin(self, monkeypatch):
        # three rows of one direction, the last scaled by 1e-160, so its
        # unit row differs from the others' by rounding: two groups, each of
        # radius 0, whose centres' chord b is about 1.9e-16. At eps b^2 / 2
        # the chord bound sqrt(2 eps) reaches b, but the pair's kernel
        # exceeds eps: the margin keeps the pair out of the inside ones, and
        # the run computes it
        x = np.array([[0.625] * 3, [0.625] * 3, [6.25e-161] * 3])
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1)
        points = PreparedPoints(x, "cosine")
        groups = points._grouping(None)
        b = groups.between[0, 1]
        eps = b * b / 2
        assert groups.radius.tolist() == [0, 0] and math.sqrt(2 * eps) >= b
        assert not groups.pairs(eps)[1][0, 1]
        lab = dbscan(points, eps, 2, "cosine")
        assert lab.labels.tolist() == brute_force_dbscan(x, eps, 2, "cosine").tolist() == [0, 0, NOISE]

    def test_the_build_counts_its_cells_once(self, monkeypatch):
        # the points 0, ..., 9 beside a zero column, over a budget of 50
        # cells: N^2 = 100 does not fit, so the first run builds the groups.
        # Farthest-first from row 0 takes row 9 (9 away), then row 4, the
        # first of the rows 4 and 5 that are 4 from both; ceil(sqrt(10 / 2))
        # = 3 centres, each against the 10 rows: 3 x 10 x 2 = 60 cells. The
        # second run at the same radius does the same work but the build
        x = np.c_[np.arange(10.0), np.zeros(10)]
        calls = []

        def counted_cdist(a, b, *args, **kwargs):
            calls.append((a.shape, b.shape))
            return cdist(a, b, *args, **kwargs)

        monkeypatch.setattr(core, "_BLOCK_CELLS", 50)
        monkeypatch.setattr(core, "cdist", counted_cdist)
        points = PreparedPoints(x)
        stats = RunStats()
        first = dbscan(points, 1.0, 3, stats=stats)
        one, run = stats.point_evaluations, calls[:]
        calls.clear()
        second = dbscan(points, 1.0, 3, stats=stats)
        assert sorted(run) == sorted(calls + [((1, 2), (10, 2))] * 3)
        assert one - (stats.point_evaluations - one) == 3 * 10 * 2
        assert stats.dbscan_invocations == 2
        assert first.labels.tolist() == second.labels.tolist() == [0] * 10
        assert points._groups.sizes.tolist() == [3, 3, 4]

    def test_a_run_on_a_matrix_builds_no_groups(self, monkeypatch):
        # dbscan prepares a matrix for its one run, where a build would
        # not pay for itself
        built = []
        monkeypatch.setattr(core, "_BLOCK_CELLS", 50)
        monkeypatch.setattr(core, "_farthest_first", lambda *args: built.append(args))
        lab = dbscan(np.c_[np.arange(10.0), np.zeros(10)], 1.0, 3)
        assert lab.labels.tolist() == [0] * 10 and not built


class TestUnion:
    def test_a_root_hooked_in_an_earlier_round_reaches_the_new_root(self):
        # round 1 hooks root 3 under 1 and root 2 under 0; round 2 hooks 1
        # under 0. Node 4, a child of 3, must end at 0, not at 1
        parent = np.array([0, 1, 2, 3, 3])
        core._union(parent, np.array([3, 3, 2]), np.array([2, 1, 0]))
        assert parent.tolist() == [0] * 5

    def test_a_run_whose_joins_hook_roots_over_several_rounds(self, monkeypatch):
        # in blocks of 50 cells this set joins a tree through roots hooked
        # in different rounds of one _union call; a node left pointing at a
        # hooked root was labelled as a second cluster of a run with one
        x = np.array([[0, 4], [3, 4], [2, 1], [5, 0], [4, 5], [2, 5], [1, 0], [2, 4], [2, 4],
                      [3, 2], [2, 1], [0, 4], [2, 3]], dtype=float)
        monkeypatch.setattr(core, "_BLOCK_CELLS", 50)
        expected = brute_force_dbscan(x, 1.5, 4)
        for points in (x, PreparedPoints(x)):
            lab = dbscan(points, 1.5, 4)
            assert np.array_equal(lab.labels, expected)
            assert lab.n_clusters == 1 and lab.labels.max() == 0


class TestCurveBuild:
    @pytest.fixture(scope="class")
    def blobs(self):
        # 20 blobs at least 20 apart, 2000 x 16: the pairs within the
        # largest core distance are a few percent, and only 19 tree edges,
        # those between blobs, are longer
        return synth_blobs(20, 100, 16, 20.0, seed=0)[0]

    def test_the_build_prunes_the_pairs_of_far_groups(self, blobs):
        # the core distances meet the pairs of groups of one blob (5% of
        # N^2 x D); the rounds after the first meet the pairs of groups of
        # different blobs whose low bounds are below a tree's lightest edge
        # (16% at this seed); building the groups costs 1.6%. Dense work,
        # as Prim's 2 N^2 cells or one N^2 matrix, is four times more
        stats = RunStats()
        curve = KCurve(blobs, 10, "euclidean", stats)
        n, d = blobs.shape
        assert stats.point_evaluations < 0.25 * n * n * d
        assert np.count_nonzero(curve._edges > curve._core[-1]) == 19

    def test_the_build_holds_blocks_not_a_matrix(self, blobs):
        # the set's groups copy its rows (N x D, 250 KiB); the build adds a
        # few blocks of 2^15 cells (256 KiB each) and O(N) arrays. The
        # matrix would take 30.5 MiB and a list of the pairs within the
        # groups' caps 4.8 MiB
        points = PreparedPoints(blobs)
        tracemalloc.start()
        try:
            KCurve(points, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("x, min_pts", [
        pytest.param([[0.0, 0.0]], 2, id="one-row"),
        pytest.param([[0.0, 0.0], [3.0, 4.0]], 2, id="two-rows"),
        pytest.param([[0.0, 0.0], [3.0, 4.0]], 3, id="min_pts-above-N"),
        pytest.param([[1.0, 1.0]] * 3 + [[4.0, 5.0]], 2, id="copies"),
        pytest.param([[0.0, 0.0], [1e300, 1e300], [-1e300, 0.0]], 2, id="overflow"),
    ])
    @pytest.mark.parametrize("cells", [1, 1 << 19])
    def test_tiny_sets_are_prims(self, x, min_pts, cells, monkeypatch):
        # a budget of one cell builds on groups or, past 2^450, on one
        # group; the default builds on the whole matrix. Distances that
        # overflow are inf, and so is every edge of a row never core
        monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
        with np.errstate(over="ignore"):
            curve = KCurve(x, min_pts)
        assert_curve_is_prims(curve, np.asarray(x), min_pts, "euclidean")

    def test_trees_that_choose_each_other_share_one_edge(self):
        parent = np.arange(4)
        joined = core._merge(parent, np.array([0, 1, 2]), np.array([1, 0, 3]), np.array([2.0, 2.0, 5.0]))
        assert sorted(joined.tolist()) == [2.0, 5.0] and parent.tolist() == [0, 0, 2, 2]

    def test_a_cycle_of_equal_choices_drops_one_edge(self):
        # three trees at equal distance each choose the next: two edges
        # join them, and the lighter edge of a fourth tree joins too
        parent = np.arange(5)
        joined = core._merge(parent, np.array([0, 1, 2, 3]), np.array([1, 2, 0, 4]),
                             np.array([1.0, 1.0, 1.0, 0.5]))
        assert sorted(joined.tolist()) == [0.5, 1.0, 1.0] and parent.tolist() == [0, 0, 0, 3, 3]


class TestCounting:
    def test_all_noise(self):
        lab = dbscan(np.array([[0.0], [10.0], [20.0]]), 1.0, 2)
        assert (lab.n_clusters, lab.n_noise) == (0, 3)

    def test_direct_count(self):
        lab = dbscan(np.array([[0.0], [0.5], [10.0], [10.5], [20.0]]), 1.0, 2)
        assert lab.labels.tolist() == [0, 0, 1, 1, NOISE]
        assert lab.roles.tolist() == [ROLE_CORE] * 4 + [ROLE_NOISE]
        assert lab.n_clusters == 2
        assert lab.n_noise / 5 == pytest.approx(0.2)

    def test_noise_fraction_third(self):
        lab = dbscan(np.array([[0.0], [0.5], [5.0], [10.0], [10.5], [15.0]]), 1.0, 2)
        assert lab.labels.tolist() == [0, 0, NOISE, 1, 1, NOISE]
        assert lab.n_noise / 6 == pytest.approx(1 / 3)


def test_1d_points_become_a_column():
    assert validate_points([1.0, 2.0, 3.0]).tolist() == [[1.0], [2.0], [3.0]]


CURVE = KCurve([[0.0], [1.0], [5.0]], 2)


@pytest.mark.parametrize("func,arg,message", [
    pytest.param(validate_points, np.zeros((2, 2, 2)), "nonempty 2-D", id="points-3d"),
    pytest.param(validate_points, np.zeros((0, 2)), "nonempty 2-D", id="points-no-rows"),
    pytest.param(validate_points, [], "nonempty 2-D", id="points-empty-1d"),
    *(pytest.param(getattr(CURVE, f), eps, "epsilon must be positive", id=f"KCurve.{f}-{eps}")
      for f in ("k", "noise") for eps in (0.0, -1.0, float("nan"), float("inf"))),
])
def test_rejects_bad_input(func, arg, message):
    with pytest.raises(ValueError, match=message):
        func(arg)


@pytest.mark.parametrize("build", [
    pytest.param(lambda min_pts: dbscan([[0.0], [1.0]], 1.0, min_pts), id="dbscan"),
    pytest.param(lambda min_pts: KCurve([[0.0], [1.0]], min_pts), id="KCurve"),
    pytest.param(lambda min_pts: TuneConfig(min_pts=min_pts), id="TuneConfig"),
])
def test_one_min_pts_rule(build):
    # every caller takes an integer of at least 2, numpy's included, and
    # rejects the rest with the same ValueError
    build(2)
    build(np.int64(3))
    for min_pts, message in ((3.5, "must be an integer, got 3.5"), (3.0, "must be an integer, got 3.0"),
                             ("3", "must be an integer, got '3'"), (1, "must be at least 2"),
                             (np.int64(-4), "must be at least 2")):
        with pytest.raises(ValueError, match=f"^min_pts {message}$"):
            build(min_pts)


class TestDiameterBound:
    def test_direct(self):
        assert approximate_diameter_ub(np.array([[0.0], [3.0], [10.0]])) == 20.0

    def test_duplicates_warn_and_give_float64_eps(self):
        with pytest.warns(UserWarning, match="diameter bound is 0, .*; using float64 eps"):
            ub = approximate_diameter_ub(np.array([[5.0], [5.0]]))
        assert ub == np.finfo(np.float64).eps

    def test_triangle(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ub = approximate_diameter_ub(x)
        assert ub == pytest.approx(2.0)
        assert ub >= np.sqrt(2)  # exhaustive pairwise maximum

    def test_brackets_true_diameter(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=(rng.integers(2, 30), 3))
            diam = max(distance(p, q) for p in x for q in x)
            ub = approximate_diameter_ub(x)
            assert diam <= ub + 1e-12 <= 2 * diam + 1e-12

    def test_single_point_errors(self):
        with pytest.raises(ValueError):
            approximate_diameter_ub(np.array([[1.0]]))

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_overflow_is_rejected(self, metric):
        # the rows are finite, but their distance overflows to inf
        with pytest.raises(ValueError, match="diameter bound overflows"):
            approximate_diameter_ub(np.array([[0.0], [1e308], [-1e308]]), metric)

    def test_cosine_bounds_the_widest_angle(self):
        # the first vector sits between the other two, so the widest
        # pair spans twice the angle seen from the first
        angles = np.array([0.0, 0.1, -0.1])
        x = np.column_stack([np.cos(angles), np.sin(angles)])
        diam = distance(x[1], x[2], "cosine")
        assert diam == pytest.approx(1 - np.cos(0.2))
        ub = approximate_diameter_ub(x, "cosine")
        assert diam <= ub <= 4 * diam

    def test_cosine_opposite_vectors_cap_at_two(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert approximate_diameter_ub(x, "cosine") == pytest.approx(2.0)

    def test_cosine_opposite_rows_lie_within_the_cap(self):
        # |u - v|^2 / 2 of these unit rows rounds to 2.0000000000000004
        x = np.array([[-3.0, -3.0], [1.5, 1.5]])
        assert distance(x[0], x[1], "cosine") == 2.0
        assert dbscan(x, approximate_diameter_ub(x, "cosine"), 2, metric="cosine").n_clusters == 1


class TestCosineZeroVectors:
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.01], [0.0, 0.0]])

    def test_dbscan_rejects(self):
        with pytest.raises(ValueError, match="zero vectors"):
            dbscan(self.X, 0.5, 2, metric="cosine")

    def test_a_row_whose_norm_underflows_is_accepted(self):
        # the squared norm of [1e-200, 0] underflows to 0, and [3e-310,
        # 4e-310] is subnormal, yet a power-of-two prescale brings each to
        # unit length: the first lies 0 from [1, 0], the second next to
        # [0.6, 0.8]
        x = np.array([[1e-200, 0.0], [1.0, 0.0], [2.0, 0.0], [3e-310, 4e-310], [0.6, 0.8], [1.2, 1.6]])
        for eps, k in ((1e-6, 2), (0.5, 1), (1.5, 1)):
            lab = dbscan(x, eps, 2, metric="cosine")
            assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, 2, "cosine"))
            assert lab.n_clusters == k

    def test_a_row_whose_norm_overflows_is_accepted(self):
        # the squared norms of [1e300, 1e300] and [1e200, -1e200] overflow,
        # yet a power-of-two prescale brings each to unit length, next to
        # [1, 1] and [1, -1], which lie at cosine distance 1 from them
        x = np.array([[1e300, 1e300], [1.0, 1.0], [1e200, -1e200], [1.0, -1.0]])
        for eps, k in ((1e-6, 2), (0.5, 2), (1.5, 1)):
            lab = dbscan(x, eps, 2, metric="cosine")
            assert np.array_equal(lab.labels, brute_force_dbscan(x, eps, 2, "cosine"))
            assert lab.n_clusters == k

    def test_diameter_bound_rejects(self):
        with pytest.raises(ValueError, match="zero vectors"):
            approximate_diameter_ub(self.X, "cosine")

    def test_other_metrics_accept(self):
        for metric in ("euclidean", "manhattan"):
            assert dbscan(self.X, 0.5, 2, metric=metric).n_clusters == 2


class TestCosineDuplicateRows:
    @staticmethod
    def row():
        # a row whose cosine self-distance 1 - u.v/(|u||v|) is about 1e-16 in scipy, not 0
        x = np.random.default_rng(0).normal(size=(2000, 5))
        return next(r for r in x if cdist(r[None], r[None], "cosine")[0, 0] > 0)

    def test_copies_are_neighbours(self):
        copies = np.tile(self.row(), (5, 1))
        assert distance(copies[0], copies[1], "cosine") == 0.0
        for metric in ("cosine", "euclidean"):
            lab = dbscan(copies, 1e-300, 5, metric=metric)
            assert np.all(lab.labels == 0) and np.all(lab.roles == ROLE_CORE)

    def test_tuning_clusters_copies(self):
        with pytest.warns(UserWarning, match="degenerate"):
            _, lab = ts_clustering(np.tile(self.row(), (40, 1)), TuneConfig(min_pts=5, metric="cosine"))
        assert (lab.n_clusters, lab.n_noise) == (1, 0)

    def test_tiny_row_has_an_exact_direction(self):
        # the square of this row is subnormal, so x / |x| would be -1.0000000028
        x = np.array([[1.0], [-2.0236432494005135e-158]])
        assert distance(x[0], x[1], "cosine") == 2.0
        assert approximate_diameter_ub(x, "cosine") == 2.0
