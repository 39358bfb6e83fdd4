"""Invariants of the diameter bound and the k(eps) probe, for every metric."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsdbscan import approximate_diameter_ub, count_clusters, dbscan, distance, noise_fraction
from tsdbscan.core import METRICS

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
