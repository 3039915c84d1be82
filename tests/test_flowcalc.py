import re

import numpy as np
import pytest

from flowallometry import (FlowNetwork, SingularNetwork, analyze, coefficients,
                           fundamental, impact_by_extraction, sources,
                           throughflow, throughflow_residual)
from conftest import random_net


class TestWorkedExample:
    def test_throughflow(self, three_node_net):
        assert throughflow(three_node_net).tolist() == [3.0, 2.0, 2.0]

    def test_sources(self, three_node_net):
        thru = throughflow(three_node_net)
        assert sources(three_node_net, thru).tolist() == [3.0, 0.0, 0.0]

    def test_coefficients(self, three_node_net):
        thru = throughflow(three_node_net)
        coeff = coefficients(three_node_net, thru)
        expected = np.array([[0, 2 / 3, 1 / 3], [0, 0, 1 / 2], [0, 0, 0]])
        assert np.array_equal(coeff, expected)

    def test_fundamental(self, three_node_net):
        thru = throughflow(three_node_net)
        fund = fundamental(coefficients(three_node_net, thru))
        expected = np.array([[1, 2 / 3, 2 / 3], [0, 1, 1 / 2], [0, 0, 1]])
        assert fund == pytest.approx(expected, rel=1e-14)

    def test_closed_form_impacts(self, three_node_net):
        result = analyze(three_node_net)
        assert result.impact == pytest.approx([7.0, 3.0, 2.0], rel=1e-12)

    def test_extraction_impacts_exact(self, three_node_net):
        impacts = [impact_by_extraction(three_node_net, i) for i in range(3)]
        assert impacts == [7.0, 3.0, 2.0]

    def test_flow_balance_residual(self, three_node_net):
        result = analyze(three_node_net)
        assert throughflow_residual(result.throughflow, result.source,
                                    result.coefficients) <= 1e-10


class TestSingleEdge:
    def test_vectors(self):
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0})
        result = analyze(net)
        assert result.throughflow.tolist() == [5.0, 5.0]
        assert result.source.tolist() == [5.0, 0.0]
        assert result.impact.tolist() == [10.0, 5.0]

    def test_scaling_throughflow(self):
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0, ("AAA", "CCC"): 2.0})
        scaled = FlowNetwork.from_edges({("AAA", "BBB"): 50.0, ("AAA", "CCC"): 20.0})
        assert np.array_equal(throughflow(scaled), 10 * throughflow(net))


class TestFundamentalEdgeCases:
    def test_zero_coefficients_give_identity(self):
        assert np.array_equal(fundamental(np.zeros((4, 4))), np.eye(4))

    def test_saturated_two_cycle_is_singular(self):
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0, ("BBB", "AAA"): 5.0})
        thru = throughflow(net)
        coeff = coefficients(net, thru)
        assert np.array_equal(coeff, [[0, 1], [1, 0]])
        with pytest.raises(SingularNetwork):
            fundamental(coeff)

    def test_damping_regularizes_on_request(self):
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0, ("BBB", "AAA"): 5.0})
        result = analyze(net, damping=0.01)
        assert np.all(np.isfinite(result.impact))

    @pytest.mark.parametrize("damping", [-0.5, 1.0, float("nan")])
    def test_analyze_rejects_damping_outside_unit_interval(self, damping):
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0, ("BBB", "AAA"): 5.0})
        with pytest.raises(ValueError, match="damping"):
            analyze(net, damping=damping)

    def test_only_analyze_takes_damping(self, three_node_net):
        with pytest.raises(TypeError):
            fundamental(np.zeros((2, 2)), damping=0.1)
        with pytest.raises(TypeError):
            impact_by_extraction(three_node_net, 0, damping=0.1)

    def test_condition_estimate_is_the_one_norm_condition_number(self):
        # a saturated 3-cycle fed by a 1e-11 leak: condition about 1.2e12
        net = FlowNetwork.from_edges({("AAA", "BBB"): 1.0, ("BBB", "CCC"): 1.0,
                                      ("CCC", "AAA"): 1.0, ("DDD", "AAA"): 1e-11})
        coeff = coefficients(net, throughflow(net))
        cond = np.linalg.cond(np.eye(net.n) - coeff, 1)
        assert cond > 1e12
        with pytest.raises(SingularNetwork, match=re.escape(f"estimate {cond:.3e}")):
            fundamental(coeff)

    def test_extraction_surfaces_surviving_saturated_cycle(self):
        # saturated cycle AAA<->BBB plus a separate component CCC->DDD:
        # extracting CCC leaves the cycle intact, so the solve is singular;
        # extracting a cycle node breaks the cycle and succeeds
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0, ("BBB", "AAA"): 5.0,
                                      ("CCC", "DDD"): 3.0})
        with pytest.raises(SingularNetwork):
            impact_by_extraction(net, net.nodes.index("CCC"))
        assert impact_by_extraction(net, net.nodes.index("AAA")) == 10.0


class TestOracleEquivalence:
    def test_closed_form_matches_extraction_on_random_networks(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            net = random_net(rng, back=0.05)
            result = analyze(net)
            for i in range(net.n):
                oracle = impact_by_extraction(net, i)
                assert result.impact[i] == pytest.approx(oracle, rel=1e-9)

    def test_throughflow_identity_on_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            net = random_net(rng, back=0.1)
            result = analyze(net)
            assert throughflow_residual(result.throughflow, result.source,
                                        result.coefficients) <= 1e-10
            assert np.all(result.source >= 0)
            assert np.all(result.coefficients.sum(axis=1) <= 1 + 1e-12)
            assert np.all(result.fundamental >= -1e-12)
            assert np.all(np.diagonal(result.fundamental) >= 1 - 1e-12)

    def test_extraction_never_increases_throughflow(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_net(rng)
            thru = throughflow(net)
            src = sources(net, thru)
            coeff = coefficients(net, thru)
            for i in range(net.n):
                reduced = coeff.copy()
                reduced[:, i] = 0.0
                rhs = src.copy()
                rhs[i] = 0.0
                new_thru = np.linalg.solve(np.eye(net.n) - reduced.T, rhs)
                assert np.all(new_thru <= thru * (1 + 1e-12))

    def test_closed_form_equals_naive_triple_sum(self):
        # the O(N^2) factorization must agree with the direct triple sum
        rng = np.random.default_rng(55)
        for _ in range(10):
            net = random_net(rng, n=10, density=0.5, back=0.1)
            result = analyze(net)
            fund, src = result.fundamental, result.source
            naive = np.zeros(net.n)
            for i in range(net.n):
                total = 0.0
                for k in range(net.n):
                    for j in range(net.n):
                        total += src[j] * fund[j, i] * fund[i, k] / fund[i, i]
                naive[i] = total
            assert result.impact == pytest.approx(naive, rel=1e-12)

    def test_extraction_matches_power_series(self):
        # third route: T' as the convergent series sum_k (M'^T)^k S'
        rng = np.random.default_rng(99)
        for _ in range(10):
            net = random_net(rng, n=12, density=0.5)
            thru = throughflow(net)
            src = sources(net, thru)
            coeff = coefficients(net, thru)
            for i in range(net.n):
                reduced = coeff.copy()
                reduced[:, i] = 0.0
                rhs = src.copy()
                rhs[i] = 0.0
                series = np.zeros(net.n)
                term = rhs.copy()
                for _ in range(200):
                    series += term
                    term = reduced.T @ term
                    if np.abs(term).max() < 1e-14 * max(np.abs(thru).max(), 1):
                        break
                assert impact_by_extraction(net, i) == pytest.approx(
                    float((thru - series).sum()), rel=1e-9)

    def test_impact_at_least_throughflow(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            net = random_net(rng, back=0.05)
            result = analyze(net)
            assert np.all(result.impact >= result.throughflow * (1 - 1e-12))


class TestInvariances:
    def test_homogeneity_exact_for_power_of_two(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, n=12, density=0.5)
        scale = 2.0 ** 20
        scaled = FlowNetwork(net.nodes, net.flux * scale, net.product, net.year)
        base = analyze(net)
        big = analyze(scaled)
        assert np.array_equal(big.throughflow, scale * base.throughflow)
        assert np.array_equal(big.source, scale * base.source)
        assert np.array_equal(big.coefficients, base.coefficients)
        assert np.array_equal(big.fundamental, base.fundamental)
        assert np.array_equal(big.impact, scale * base.impact)

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, n=10, density=0.6)
        perm = rng.permutation(net.n)
        permuted = FlowNetwork([net.nodes[i] for i in perm],
                               net.flux[np.ix_(perm, perm)],
                               net.product, net.year)
        base = analyze(net)
        other = analyze(permuted)
        # permuted network keeps all nodes: every node had incident flow
        lookup = [permuted.nodes.index(c) for c in net.nodes]
        assert other.throughflow[lookup] == pytest.approx(
            base.throughflow, rel=1e-12)
        assert other.impact[lookup] == pytest.approx(base.impact, rel=1e-12)
