"""Invariants of the diameter bound and the k(eps) probe, and agreement
with the brute-force oracle, for every metric."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsdbscan import approximate_diameter_ub, count_clusters, dbscan, distance, noise_fraction
from tsdbscan.core import METRICS

from conftest import brute_force_dbscan, brute_force_distances

# the bound's approximation factor: 2 from the triangle inequality, 4
# under cosine, where the triangle inequality holds only for angles
FACTOR = {"euclidean": 2.0, "manhattan": 2.0, "cosine": 4.0}

# round-off between the bound and the pairwise distances it brackets
TOL = 1e-9

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def point_sets(draw, metric):
    n = draw(st.integers(2, 12))
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
def point_sets_with_duplicates(draw, metric):
    # D <= 4 keeps numpy's sums in the oracle in scipy's order, so the
    # distances, and the closed-ball tests at exact distances, agree bit
    # for bit
    x = draw(point_sets(metric))
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
