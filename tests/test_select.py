import itertools

import numpy as np
import pytest

from wtanet import kwta, solve_box_lp, solve_ksum_lp, solve_simplex_lp, wta


def sort_topk_oracle(x, k):
    """Top-k indices by descending score, smaller index first on ties."""
    return [i for i, _ in sorted(enumerate(x), key=lambda p: (-p[1], p[0]))[:k]]


class TestWta:
    def test_simple_max(self):
        assert wta([0.2, 0.9, 0.5]) == 1

    def test_tie_breaks_to_smallest_index(self):
        assert wta([7, 7, 7]) == 0

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.uniform(-10, 10, size=int(rng.integers(1, 40)))
            best, arg = -np.inf, -1
            for i, v in enumerate(x):
                if v > best:
                    best, arg = v, i
            assert wta(x) == arg

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            wta([])
        with pytest.raises(ValueError, match="index 1"):
            wta([1.0, np.nan])

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = rng.uniform(-5, 5, size=int(rng.integers(2, 30)))
            shift = float(rng.uniform(-100, 100))
            scale = float(rng.uniform(0.01, 50))
            assert wta(x) == wta(x + shift) == wta(x * scale)


class TestKwta:
    def test_top_two_by_hand(self):
        result = kwta([3, 1, 4, 1, 5], 2)
        assert result.winners == (4, 2)
        assert result.values == (5.0, 4.0)

    def test_k_equals_length_is_full_ranking(self):
        result = kwta([2, 7, 7, 1], 4)
        assert result.winners == (1, 2, 0, 3)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 64))
            # coarse grid provokes plenty of ties
            x = rng.integers(0, 6, size=n).astype(float)
            k = int(rng.integers(1, n + 1))
            assert list(kwta(x, k).winners) == sort_topk_oracle(x, k)

    def test_nesting_property(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            x = rng.uniform(-1, 1, size=n)
            k = int(rng.integers(1, n))
            smaller = set(kwta(x, k).winners)
            larger = set(kwta(x, k + 1).winners)
            assert smaller < larger

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            kwta([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            kwta([1.0, 2.0], 3)


class TestSimplexLp:
    def test_vertex_optimum_at_argmax(self):
        sol = solve_simplex_lp([0.1, 0.7, 0.2])
        np.testing.assert_array_equal(sol.x, [0, 1, 0])
        assert sol.objective == 0.7
        assert sol.certificate == "simplex"

    def test_constant_costs_pick_first_vertex(self):
        sol = solve_simplex_lp([3.5, 3.5, 3.5])
        np.testing.assert_array_equal(sol.x, [1, 0, 0])
        assert sol.objective == 3.5

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            c = rng.uniform(-5, 5, size=int(rng.integers(1, 20)))
            sol = solve_simplex_lp(c)
            assert sol.objective == max(float(v) for v in c)
            assert sol.x.sum() == 1.0 and np.all(sol.x >= 0)


class TestKsumLp:
    def test_top_two_sum(self):
        sol = solve_ksum_lp([3, 1, 4, 1, 5], 2)
        np.testing.assert_array_equal(sol.x, [0, 0, 1, 0, 1])
        assert sol.objective == 9.0
        assert sol.certificate == "ksum"

    def test_k_equals_n_takes_everything(self):
        c = [1.5, -2.0, 0.25]
        sol = solve_ksum_lp(c, 3)
        np.testing.assert_array_equal(sol.x, [1, 1, 1])
        assert sol.objective == float(np.dot(c, np.ones(3)))

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            c = rng.uniform(-3, 3, size=n)
            k = int(rng.integers(1, n + 1))
            sol = solve_ksum_lp(c, k)
            best = max(
                float(np.dot(c, _indicator(n, support)))
                for support in itertools.combinations(range(n), k)
            )
            assert sol.objective == best


def _indicator(n, support):
    x = np.zeros(n)
    x[list(support)] = 1.0
    return x


class TestBoxLp:
    def test_signs_pick_bounds(self):
        sol = solve_box_lp([1, -2], [0, 0], [3, 5])
        np.testing.assert_array_equal(sol.x, [3, 0])
        assert sol.objective == 3.0
        assert sol.certificate == "box"

    def test_zero_cost_takes_lower(self):
        sol = solve_box_lp([0.0, 0.0], [-1.0, 2.0], [5.0, 6.0])
        np.testing.assert_array_equal(sol.x, [-1.0, 2.0])
        assert sol.objective == float(np.dot([0.0, 0.0], [-1.0, 2.0]))

    def test_matches_corner_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 10))
            lower = rng.uniform(-4, 0, size=n)
            upper = lower + rng.uniform(0, 4, size=n)
            c = rng.uniform(-3, 3, size=n)
            sol = solve_box_lp(c, lower, upper)
            # per-coordinate independence makes the corner oracle exact
            best_x = np.where(c * upper > c * lower, upper, lower)
            assert sol.objective == float(np.dot(c, best_x))
            assert np.all(sol.x >= lower) and np.all(sol.x <= upper)

    @pytest.mark.parametrize("lower, upper, message", [
        ([0.0, np.nan], [1.0, 1.0], "non-finite lower bound at index 1"),
        ([0.0, 0.0], [np.inf, 1.0], "non-finite upper bound at index 0"),
    ], ids=["lower-nan", "upper-inf"])
    def test_rejects_non_finite_bounds_naming_index(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            solve_box_lp([1.0, 1.0], lower, upper)

    def test_rejects_crossed_bounds_naming_index(self):
        with pytest.raises(ValueError, match="index 1"):
            solve_box_lp([1.0, 1.0], [0.0, 3.0], [1.0, 2.0])


class TestSharedTiePolicy:
    def test_ksum_ties_match_kwta(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 16))
            c = rng.integers(-3, 4, size=n).astype(float)
            k = int(rng.integers(1, n + 1))
            winners = kwta(c, k).winners
            sol = solve_ksum_lp(c, k)
            assert set(np.nonzero(sol.x)[0]) == set(winners)
