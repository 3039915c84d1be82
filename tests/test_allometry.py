import math

import numpy as np
import pytest
from scipy import stats

from flowallometry import (DegenerateFit, NotATree, TooFewPoints, analyze,
                           chain, classify, fit, random_tree, star,
                           tree_allometry)
from flowallometry.netcore import FlowNetwork

# Oracle values for the worked three-node example, frozen from an
# independent OLS implementation on (log10 T, log10 C) with
# T = (3, 2, 2), C = (7, 3, 2).
FIXTURE_ETA = 2.5896936467371026
FIXTURE_STDERR = 0.8660254037844393
FIXTURE_R2 = 0.8994167942176633


class TestFit:
    def test_exact_power_law(self):
        thru = np.array([1.0, 10.0, 100.0])
        impact = np.array([1.0, 10.0 ** 1.5, 1000.0])
        result = fit(thru, impact)
        assert result.eta == pytest.approx(1.5, abs=1e-12)
        assert result.r2 == pytest.approx(1.0, abs=1e-12)
        assert result.stderr == pytest.approx(0.0, abs=1e-12)

    def test_worked_example_matches_oracle(self, three_node_net):
        result = analyze(three_node_net)
        out = fit(result.throughflow, result.impact)
        assert out.eta == pytest.approx(FIXTURE_ETA, rel=1e-9)
        assert out.stderr == pytest.approx(FIXTURE_STDERR, rel=1e-9)
        assert out.r2 == pytest.approx(FIXTURE_R2, rel=1e-9)
        assert out.n == 3

    def test_matches_independent_ols_on_random_data(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(4, 60))
            thru = rng.uniform(0.1, 1e6, size=n)
            impact = thru ** rng.uniform(0.5, 2.0) * rng.uniform(0.5, 2.0, size=n)
            mine = fit(thru, impact)
            oracle = stats.linregress(np.log10(thru), np.log10(impact))
            assert mine.eta == pytest.approx(oracle.slope, rel=1e-9)
            assert mine.stderr == pytest.approx(oracle.stderr, rel=1e-9, abs=1e-12)
            assert mine.r2 == pytest.approx(oracle.rvalue ** 2, rel=1e-9)

    def test_uniform_chain_flow_is_degenerate(self):
        result = analyze(chain(5, 2.0))
        with pytest.raises(DegenerateFit):
            fit(result.throughflow, result.impact)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit([1.0, 2.0], [1.0, 2.0])

    def test_nonpositive_pairs_excluded(self):
        result = fit([1, 10, 100, 0, 5], [1, 10, 100, 5, -1])
        assert result.n == 3

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        thru = rng.uniform(1, 100, 20)
        impact = thru ** 1.3 * rng.uniform(0.9, 1.1, 20)
        base = fit(thru, impact)
        scaled = fit(1e6 * thru, 123.0 * impact)
        assert scaled.eta == pytest.approx(base.eta, rel=1e-12)
        assert scaled.r2 == pytest.approx(base.r2, rel=1e-12)
        assert scaled.classification == base.classification


class TestClassify:
    @pytest.mark.parametrize("eta,stderr,expected", [
        (1.136, 0.026, "hierarchical"),
        (1.001, 0.020, "neutral"),
        (0.90, 0.01, "flat"),
        (1.37, 0.0, "hierarchical"),
        (1.0, 0.0, "neutral"),
    ])
    def test_trichotomy(self, eta, stderr, expected):
        assert classify(eta, stderr) == expected

    def test_fit_carries_classification(self):
        thru = np.array([1.0, 10.0, 100.0, 1000.0])
        assert fit(thru, thru ** 1.37).classification == "hierarchical"


class TestTreeAllometry:
    def test_chain_closed_forms(self):
        n = 12
        counts, sums = tree_allometry(chain(n))
        expected_counts = [n - k for k in range(n)]
        expected_sums = [(n - k) * (n - k + 1) / 2 for k in range(n)]
        assert counts.tolist() == expected_counts
        assert sums.tolist() == expected_sums

    def test_star_values(self):
        n = 9
        counts, sums = tree_allometry(star(n))
        assert counts[0] == n and sums[0] == 2 * n - 1
        assert np.all(counts[1:] == 1) and np.all(sums[1:] == 1)

    def test_star_slope_closed_form(self):
        for n in (10, 100, 1000):
            counts, sums = tree_allometry(star(n))
            slope = fit(counts, sums).eta
            assert slope == pytest.approx(math.log(2 * n - 1) / math.log(n),
                                          abs=1e-9)

    def test_chain_slope_approaches_two(self):
        slopes = []
        for n in (10, 100, 1000):
            counts, sums = tree_allometry(chain(n))
            slopes.append(fit(counts, sums).eta)
        assert slopes == sorted(slopes)
        assert slopes[1] >= 1.8
        assert 1.8 <= slopes[2] <= 2.0

    def test_cycle_rejected(self):
        net = FlowNetwork.from_edges(
            {("AAA", "BBB"): 1.0, ("BBB", "CCC"): 1.0, ("CCC", "AAA"): 1.0})
        with pytest.raises(NotATree):
            tree_allometry(net)

    def test_multiple_roots_rejected(self):
        net = FlowNetwork.from_edges(
            {("AAA", "BBB"): 1.0, ("CCC", "DDD"): 1.0})
        with pytest.raises(NotATree):
            tree_allometry(net)

    def test_multi_parent_rejected(self):
        net = FlowNetwork.from_edges(
            {("AAA", "CCC"): 1.0, ("BBB", "CCC"): 1.0, ("AAA", "BBB"): 1.0})
        with pytest.raises(NotATree):
            tree_allometry(net)

    def test_random_tree_slopes_within_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 201))
            net = random_tree(n, seed=int(rng.integers(0, 2**31)))
            counts, sums = tree_allometry(net)
            slope = fit(counts, sums).eta
            assert 1.0 - 1e-9 <= slope <= 2.0 + 1e-9
