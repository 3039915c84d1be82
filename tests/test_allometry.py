import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
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


def reference_fit(thru, impact):
    """The fit's formula in its plainest numpy form: the positive pairs by a
    boolean index, then ``np.mean``; (eta, stderr, r2, n)."""
    thru, impact = np.asarray(thru, dtype=float), np.asarray(impact, dtype=float)
    positive = (thru > 0) & (impact > 0)
    n = int(positive.sum())
    x, y = np.log10(thru[positive]), np.log10(impact[positive])
    x_dev, y_dev = x - np.mean(x), y - np.mean(y)
    sxx, syy = float(x_dev @ x_dev), float(y_dev @ y_dev)
    slope = float(x_dev @ y_dev) / sxx
    residual = y_dev - slope * x_dev
    sse = max(float(residual @ residual), 0.0)
    r2 = 1.0 if syy == 0.0 else min(max(1.0 - sse / syy, 0.0), 1.0)
    return slope, math.sqrt(sse / (n - 2) / sxx), r2, n


# Mostly positive values, so that many draws have no pair to drop.
POINTS = st.lists(st.tuples(*[st.one_of(st.floats(1e-300, 1e300), st.sampled_from(
    [0.0, -0.0, -3.5, 1.0]))] * 2), min_size=3, max_size=40)


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

    @pytest.mark.parametrize("thru, impact", [
        ([1.0, 2.0, math.inf, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 3.0, 4.0]),
    ])
    def test_non_finite_input_rejected(self, thru, impact):
        with pytest.raises(ValueError, match="^throughflow and impact must be finite$"):
            fit(thru, impact)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError,
                           match="^throughflow and impact vectors differ in length$"):
            fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        thru = rng.uniform(1, 100, 20)
        impact = thru ** 1.3 * rng.uniform(0.9, 1.1, 20)
        base = fit(thru, impact)
        scaled = fit(1e6 * thru, 123.0 * impact)
        assert scaled.eta == pytest.approx(base.eta, rel=1e-12)
        assert scaled.r2 == pytest.approx(base.r2, rel=1e-12)
        assert scaled.classification == base.classification


@given(POINTS)
@example([(1.0, 2.0), (10.0, -0.0), (3.0, 7.0), (0.0, 1.0), (42.0, 5.0), (7.5, 0.25)])
def test_fit_has_the_bits_of_the_reference_formula(points):
    thru, impact = np.array(points).T
    shapes = [thru.shape] + ([(2, len(thru) // 2)] if len(thru) % 2 == 0 else [])
    n = int(((thru > 0) & (impact > 0)).sum())
    for shape in shapes:
        if n < 3:
            with pytest.raises(TooFewPoints):
                fit(thru.reshape(shape), impact.reshape(shape))
            continue
        try:
            result = fit(thru.reshape(shape), impact.reshape(shape))
        except DegenerateFit:
            assert np.ptp(np.log10(thru[(thru > 0) & (impact > 0)])) == 0.0
            continue
        got = (result.eta, result.stderr, result.r2)
        eta, stderr, r2, count = reference_fit(thru, impact)
        assert [v.hex() for v in got] == [v.hex() for v in (eta, stderr, r2)]
        assert result.n == count and type(result.n) is int


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

    def test_cycle_apart_from_root_rejected(self):
        # one root, AAA, whose subtree never reaches the CCC <-> DDD cycle
        net = FlowNetwork.from_edges(
            {("AAA", "BBB"): 1.0, ("CCC", "DDD"): 1.0, ("DDD", "CCC"): 1.0})
        with pytest.raises(NotATree, match="^edge set contains a cycle$"):
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

    @given(st.data())
    def test_random_trees_match_descendant_sets(self, data):
        n = data.draw(st.integers(2, 60))
        parent = [None] + [data.draw(st.integers(0, k - 1)) for k in range(1, n)]
        # Labels in random order, so node order is not parents first.
        label = data.draw(st.permutations(range(n)))
        net = FlowNetwork.from_edges(
            [(f"N{label[parent[k]]:02d}", f"N{label[k]:02d}", 1.0) for k in range(1, n)])
        below = [{k} for k in range(n)]         # each node's descendant set
        for k in range(n):
            node = k
            while parent[node] is not None:
                node = parent[node]
                below[node].add(k)
        counts, sums = tree_allometry(net)
        at = [net.nodes.index(f"N{label[k]:02d}") for k in range(n)]
        assert [counts[at[k]] for k in range(n)] == [len(d) for d in below]
        assert [sums[at[k]] for k in range(n)] == [
            sum(len(below[j]) for j in d) for d in below]

    def test_deep_chain(self):
        # Five times the default recursion limit; bool flux keeps the input small.
        n = 5000
        net = FlowNetwork([f"N{k:04d}" for k in range(n)],
                          np.eye(n, k=1, dtype=bool), "ALL", 2000)
        counts, sums = tree_allometry(net)
        assert counts.tolist() == [n - k for k in range(n)]
        assert sums.tolist() == [(n - k) * (n - k + 1) / 2 for k in range(n)]

    def test_random_tree_slopes_within_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 201))
            net = random_tree(n, seed=int(rng.integers(0, 2**31)))
            counts, sums = tree_allometry(net)
            slope = fit(counts, sums).eta
            assert 1.0 - 1e-9 <= slope <= 2.0 + 1e-9
