"""Invariants of the diameter bound and the k(eps) probe, and agreement
with the brute-force oracle and of the exact curve engine with DBSCAN,
for every metric."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsdbscan import approximate_diameter_ub, count_clusters, dbscan, distance, noise_fraction
from tsdbscan.core import METRICS, KCurve

from conftest import brute_force_dbscan, brute_force_distances

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
    if metric == "cosine":
        assume(np.all(np.einsum("ij,ij->i", x, x) > 0))
    return x


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_bound_brackets_the_diameter(metric, data):
    x = data.draw(point_sets(metric))
    diam = max(distance(p, q, metric) for p in x for q in x)
    ub = approximate_diameter_ub(x, metric)
    assert diam <= ub * (1 + TOL) + TOL
    assert ub <= FACTOR[metric] * diam * (1 + TOL) + TOL


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_one_cluster_at_the_bound(metric, data):
    x = data.draw(point_sets(metric))
    min_pts = data.draw(st.integers(2, len(x)))
    ub = approximate_diameter_ub(x, metric)
    assume(ub > 0)
    lab = dbscan(x, ub, min_pts, metric=metric)
    assert count_clusters(lab) == 1
    assert noise_fraction(lab) == 0.0


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_noise_nonincreasing_in_epsilon(metric, data):
    x = data.draw(point_sets(metric))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    radii = data.draw(st.lists(st.floats(1e-6, 4e3), min_size=2, max_size=6, unique=True))
    fracs = [noise_fraction(dbscan(x, eps, min_pts, metric=metric)) for eps in sorted(radii)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


@st.composite
def point_sets_with_duplicates(draw, metric, min_n=2):
    # D <= 4 keeps numpy's sums in the oracle in scipy's order, so the
    # distances, and the closed-ball tests at exact distances, agree bit
    # for bit
    x = draw(point_sets(metric, min_n))
    copies = draw(st.lists(st.integers(0, len(x) - 1), max_size=4))
    return np.vstack([x, x[copies]])


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_dbscan_matches_the_oracle(metric, data):
    x = data.draw(point_sets_with_duplicates(metric))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    exact = np.unique(brute_force_distances(x, metric))
    exact = exact[exact > 0].tolist()
    eps = data.draw(st.one_of(st.just(1e-300), st.floats(1e-6, 4e3),
                              *([st.sampled_from(exact)] if exact else [])))
    got = dbscan(x, eps, min_pts, metric=metric).labels
    assert np.array_equal(got, brute_force_dbscan(x, eps, min_pts, metric))


def k_and_noise(x, eps, min_pts, metric):
    lab = dbscan(x, eps, min_pts, metric=metric)
    return count_clusters(lab), noise_fraction(lab)


@pytest.mark.parametrize("metric", METRICS)
@SETTINGS
@given(data=st.data())
def test_kcurve_matches_dbscan(metric, data):
    # min_pts up to N + 1, and N down to 1, so no point may be core
    x = data.draw(point_sets_with_duplicates(metric, min_n=1))
    min_pts = data.draw(st.integers(2, len(x) + 1))
    exact = np.unique(brute_force_distances(x, metric))
    exact = exact[exact > 0]
    below = np.nextafter(exact, 0)
    radii = [1e-300, *exact.tolist(), *below[below > 0].tolist(),
             *data.draw(st.lists(st.floats(1e-6, 4e3), max_size=4))]
    curve = KCurve(x, min_pts, metric)
    for eps in radii:
        assert (curve.k(eps), curve.noise(eps)) == k_and_noise(x, eps, min_pts, metric), eps


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
    # distinct rows (in direction, under cosine): each ball holds only its centre
    x = data.draw(point_sets(metric))
    d = brute_force_distances(x, metric)[~np.eye(len(x), dtype=bool)]
    assume(np.all(d > 0))
    eps = d.min() / 2
    assume(eps > 0)
    min_pts = data.draw(st.integers(2, len(x) + 1))
    curve = KCurve(x, min_pts, metric)
    assert k_and_noise(x, eps, min_pts, metric) == (0, 1.0)
    assert (curve.k(eps), curve.noise(eps)) == (0, 1.0)
