import numpy as np
import pytest

from tsdbscan import NOISE, ari, exclude_noise, nmi

from conftest import brute_force_ari, brute_force_nmi


class TestExcludeNoise:
    def test_drops_predicted_noise(self):
        t, p = exclude_noise([0, 0, 1], [0, NOISE, 1])
        assert t.tolist() == [0, 1]
        assert p.tolist() == [0, 1]

    def test_identity_without_noise(self):
        t, p = exclude_noise([0, 1, 2], [2, 1, 0])
        assert t.tolist() == [0, 1, 2]
        assert p.tolist() == [2, 1, 0]

    def test_drops_truth_noise_too(self):
        t, p = exclude_noise([0, NOISE, 1], [0, 0, 1])
        assert t.tolist() == [0, 1]

    def test_all_noise_errors(self):
        with pytest.raises(ValueError):
            exclude_noise([0, 1], [NOISE, NOISE])

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            exclude_noise([0, 1], [0])


class TestNmi:
    def test_identical(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_independent(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_worked_example(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(0.8)

    def test_single_class_degenerate(self):
        assert nmi([0, 0, 0], [5, 5, 5]) == 1.0
        assert nmi([0, 0, 1], [5, 5, 5]) == 0.0

    def test_symmetry_and_relabeling(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 4, n)
            assert nmi(a, b) == pytest.approx(nmi(b, a))
            assert nmi(a + 10, b * 7 + 3) == pytest.approx(nmi(a, b))


class TestAri:
    def test_identical(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_worked_example(self):
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_single_cluster_vs_two(self):
        assert ari([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 4, n)
            assert ari(a, b) == pytest.approx(ari(b, a))

    def test_single_point_errors(self):
        with pytest.raises(ValueError):
            ari([0], [0])


class TestOracleEquivalence:
    def test_both_metrics_match_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            a = rng.integers(0, 5, n)
            b = rng.integers(0, 5, n)
            assert nmi(a, b) == pytest.approx(brute_force_nmi(a, b), abs=1e-9)
            assert ari(a, b) == pytest.approx(brute_force_ari(a, b), abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 4, n)
            assert 0.0 <= nmi(a, b) <= 1.0
            assert ari(a, b) <= 1.0


@pytest.mark.parametrize("score", [exclude_noise, nmi, ari])
def test_empty_labels_error(score):
    with pytest.raises(ValueError, match="empty label array"):
        score([], [])
