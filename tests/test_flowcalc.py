import re
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from flowallometry import (FlowAnalysis, FlowNetwork, SingularNetwork, analyze,
                           impact_by_extraction, random_flow, throughflow_residual)
from flowallometry.flowcalc import COND_LIMIT, _fundamental
from conftest import random_net


def balance(net):
    """(T, S, M) of ``net`` from their definitions, independent of analyze."""
    thru = np.maximum(net.flux.sum(axis=0), net.flux.sum(axis=1))
    return thru, thru - net.flux.sum(axis=0), net.flux / thru[:, None]


class TestWorkedExample:
    def test_throughflow(self, three_node_net):
        assert analyze(three_node_net).throughflow.tolist() == [3.0, 2.0, 2.0]

    def test_sources(self, three_node_net):
        assert analyze(three_node_net).source.tolist() == [3.0, 0.0, 0.0]

    def test_coefficients(self, three_node_net):
        coeff = analyze(three_node_net).coefficients
        expected = np.array([[0, 2 / 3, 1 / 3], [0, 0, 1 / 2], [0, 0, 0]])
        assert np.array_equal(coeff, expected)

    def test_fundamental(self, three_node_net):
        fund = analyze(three_node_net).fundamental
        expected = np.array([[1, 2 / 3, 2 / 3], [0, 1, 1 / 2], [0, 0, 1]])
        assert fund == pytest.approx(expected, rel=1e-14)

    def test_closed_form_impacts(self, three_node_net):
        result = analyze(three_node_net)
        assert result.impact == pytest.approx([7.0, 3.0, 2.0], rel=1e-12)

    def test_extraction_impacts_exact(self, three_node_net):
        impacts = [impact_by_extraction(three_node_net, i) for i in range(3)]
        assert impacts == [7.0, 3.0, 2.0]

    def test_flow_balance_residual(self, three_node_net):
        assert throughflow_residual(analyze(three_node_net)) <= 1e-10

    def test_residual_reads_the_fundamental(self, three_node_net, monkeypatch):
        # T = M^T T + S holds whatever U is; T^T = S^T U does not.
        result = analyze(three_node_net)
        monkeypatch.setattr("flowallometry.flowcalc._fundamental",
                            lambda coeff: _fundamental(coeff) * (1 + 1e-6))
        assert throughflow_residual(result) >= 1e-7


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
        assert np.array_equal(analyze(scaled).throughflow,
                              10 * analyze(net).throughflow)


class TestFundamentalEdgeCases:
    def test_zero_coefficients_give_identity(self):
        assert np.array_equal(_fundamental(np.zeros((4, 4))), np.eye(4))

    def test_saturated_two_cycle_is_singular(self):
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0, ("BBB", "AAA"): 5.0})
        with pytest.raises(SingularNetwork,
                           match="^flow balance is singular: Singular matrix$"):
            analyze(net)

    def test_overflowing_impact_raises(self):
        # Each node total is finite, but AAA's impact is not, by either path.
        for edges in ([("AAA", dst, 3e307) for dst in ("BBB", "CCC", "DDD", "EEE")]
                      + [("BBB", "CCC", 3e307)],
                      [("AAA", "BBB", 5e307), ("AAA", "CCC", 5e307), ("BBB", "CCC", 3.3e307),
                       ("CCC", "DDD", 3.3e307)]):
            net = FlowNetwork.from_edges(edges)
            with pytest.raises(ValueError, match="^an impact exceeds the float range$"):
                analyze(net)
            with pytest.raises(ValueError, match="^an impact exceeds the float range$"):
                impact_by_extraction(net, 0)

    def test_impacts_near_the_float_range_keep_their_bits(self):
        # Scaled by 2**960, every impact is still finite and keeps its bits.
        net = random_net(np.random.default_rng(3), n=12, density=0.5)
        scale = 2.0 ** 960
        big = analyze(FlowNetwork(net.nodes, net.flux * scale, net.product, net.year))
        assert np.array_equal(big.impact, scale * analyze(net).impact)

    def test_no_function_takes_damping(self, three_node_net):
        with pytest.raises(TypeError):
            analyze(three_node_net, damping=0.1)
        with pytest.raises(TypeError):
            _fundamental(np.zeros((2, 2)), damping=0.1)
        with pytest.raises(TypeError):
            impact_by_extraction(three_node_net, 0, damping=0.1)

    def test_condition_estimate_is_the_one_norm_condition_number(self):
        # a saturated 3-cycle fed by a 1e-11 leak: condition about 1.2e12
        net = FlowNetwork.from_edges({("AAA", "BBB"): 1.0, ("BBB", "CCC"): 1.0,
                                      ("CCC", "AAA"): 1.0, ("DDD", "AAA"): 1e-11})
        cond = np.linalg.cond(np.eye(net.n) - balance(net)[2], 1)
        assert cond > 1e12
        with pytest.raises(SingularNetwork, match=re.escape(f"estimate {cond:.3e}")):
            analyze(net)

    def test_extraction_refusal_carries_the_one_norm_condition_number(self):
        # Extracting SNK from the fed ring at k = 11 leaves I - M' with a
        # condition of about 1.95e12, the estimate analyze gives for I - M.
        net = fed_ring(11)
        i = net.nodes.index("SNK")
        coeff = balance(net)[2]
        coeff[:, i] = 0.0
        cond = np.linalg.cond(np.eye(net.n) - coeff, 1)
        assert cond > COND_LIMIT
        with pytest.raises(SingularNetwork) as err:
            impact_by_extraction(net, i)
        assert str(err.value) == f"flow balance nearly singular (condition estimate {cond:.3e})"

    def test_extraction_surfaces_surviving_saturated_cycle(self):
        # saturated cycle AAA<->BBB plus a separate component CCC->DDD:
        # extracting CCC leaves the cycle intact, so the solve is singular;
        # extracting a cycle node breaks the cycle and succeeds
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0, ("BBB", "AAA"): 5.0,
                                      ("CCC", "DDD"): 3.0})
        with pytest.raises(SingularNetwork):
            impact_by_extraction(net, net.nodes.index("CCC"))
        assert impact_by_extraction(net, net.nodes.index("AAA")) == 10.0


def stored_cases(three_node_net):
    """The worked example plus seeded random networks, cyclic and acyclic,
    and one of them again with a Fortran-ordered flux."""
    rng = np.random.default_rng(31)
    nets = [three_node_net] + [random_net(rng, back=back)
                               for back in (0.0, 0.1, 0.3) for _ in range(4)]
    last = nets[-1]
    return nets + [FlowNetwork(last.nodes, np.asfortranarray(last.flux),
                               last.product, last.year)]


class TestStoredArrays:
    """An analysis owns no n x n array; M and U are derived from the shared
    flux, with the bits analyze inverted."""

    def test_coefficients_bitwise_equal_flux_over_throughflow(self, three_node_net):
        for net in stored_cases(three_node_net):
            expected = balance(net)[2]
            got = analyze(net).coefficients
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            assert not got.flags.writeable

    def test_analysis_owns_no_matrix(self, three_node_net):
        assert [f.name for f in fields(FlowAnalysis)] == ["throughflow", "source",
                                                          "impact", "flux"]
        for net in stored_cases(three_node_net):
            result = analyze(net)
            matrices = [f.name for f in fields(result)
                        if np.ndim(getattr(result, f.name)) == 2]
            assert matrices == ["flux"]
            assert np.shares_memory(result.flux, net.flux)
            assert result.n == net.n

    def test_fundamental_bitwise_equal_solve_with_identity(self, three_node_net):
        for net in stored_cases(three_node_net):
            coeff = balance(net)[2]
            identity = np.eye(net.n)
            expected = np.linalg.solve(identity - coeff, identity)
            result = analyze(net)
            first, second = result.fundamental, result.fundamental
            assert first is not second
            for fund in (first, second):
                assert fund.tobytes() == expected.tobytes()
                assert not fund.flags.writeable

    def test_retained_memory_is_linear(self):
        """Twenty analyses of one network hold their vectors, not a matrix
        each; when every analysis kept U, each held about 103% of 8n²."""
        net = random_net(np.random.default_rng(5), n=120, density=0.5, back=0.1)
        analyze(net)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            analyses = [analyze(net) for _ in range(20)]
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(analyses) == 20
        assert (after - before) / 20 < 0.05 * 8 * net.n ** 2

    def test_analyze_peak_memory(self):
        """analyze holds I - M and U at its peak: block elimination writes
        each product into a block of either that is no longer read, at one
        to three levels of recursion (n = 200 and 260), so only numpy's
        fixed element-wise buffers come on top, 2.6 and 2.4 x 8n² in all.
        With an identity, a second copy of M and |.| copies it reached
        about 4 x 8n²."""
        for n in (200, 260):
            net = random_net(np.random.default_rng(6), n=n, density=0.5, back=0.1)
            analyze(net)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                result = analyze(net)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.n == n
            assert peak - before < 3 * 8 * net.n ** 2, n

    def test_equality_and_hash_are_by_identity(self, three_node_net):
        first, second = analyze(three_node_net), analyze(three_node_net)
        assert first == first
        assert first != second
        assert first in [second, first]
        assert second not in [first]
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2


def gravity_net(rng, n):
    """Dense gravity-like network: log-normal masses, flows scaled by both
    ends' masses, 30 % of pairs absent, no self-loops."""
    mass = rng.lognormal(0.0, 1.5, n)
    flux = np.outer(mass, mass) * rng.lognormal(0.0, 1.0, (n, n))
    flux[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(flux, 0.0)
    return FlowNetwork([f"N{i:03d}" for i in range(n)], flux, "ALL", 2000)


def block_cases():
    """A dense cyclic network and an acyclic one, both above the 64-node
    threshold of block elimination."""
    return [gravity_net(np.random.default_rng(21), 160),
            random_flow(130, density=0.3, seed=22)]


def ring(n, shortcut=0.0):
    """Closed ring of n saturated nodes, each also feeding the node two
    ahead with ``shortcut`` when that is positive."""
    edges = [(f"N{i:03d}", f"N{(i + 1) % n:03d}", 1.0) for i in range(n)]
    if shortcut:
        edges += [(f"N{i:03d}", f"N{(i + 2) % n:03d}", shortcut) for i in range(n)]
    return FlowNetwork.from_edges(edges)


class TestBlockRoute:
    """Below 64 nodes U is LAPACK's inverse bit for bit; from 64 on it comes
    from block elimination, checked against the extraction oracle."""

    def test_small_networks_keep_lapack_bits(self):
        rng = np.random.default_rng(17)
        for n in range(2, 64):
            # Redraw while a node is stripped, so that every size is covered.
            while (net := random_net(rng, n=n, density=0.5, back=0.2)).n != n:
                pass
            coeff = balance(net)[2]
            expected = np.linalg.inv(np.eye(n) - coeff)
            assert _fundamental(coeff.copy()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", [0, 1], ids=["gravity-160", "acyclic-130"])
    def test_impacts_match_extraction_above_the_threshold(self, case):
        net = block_cases()[case]
        assert net.n >= 130
        result = analyze(net)
        for i in range(net.n):
            assert result.impact[i] == pytest.approx(impact_by_extraction(net, i), rel=1e-9)

    def test_extraction_never_takes_the_block_route(self, monkeypatch):
        net = gravity_net(np.random.default_rng(21), 80)
        expected = analyze(net).impact

        def refuse(matrix, out):
            raise AssertionError("the extraction oracle reached _invert")

        monkeypatch.setattr("flowallometry.flowcalc._invert", refuse)
        got = [impact_by_extraction(net, i) for i in range(net.n)]
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    @pytest.mark.parametrize("case", [0, 1], ids=["gravity-160", "acyclic-130"])
    def test_fundamental_matches_lapack_above_the_threshold(self, case):
        net = block_cases()[case]
        expected = np.linalg.inv(np.eye(net.n) - balance(net)[2])
        np.testing.assert_allclose(analyze(net).fundamental, expected, rtol=1e-12)

    @pytest.mark.parametrize("n", [70, 200])
    @pytest.mark.parametrize("shortcut", [0.0, 1e-14], ids=["ring", "shortcuts"])
    def test_saturated_rings_are_singular(self, n, shortcut):
        net = ring(n, shortcut)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNetwork, match="^flow balance (is|nearly) singular"):
                analyze(net)


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
            assert throughflow_residual(result) <= 1e-10
            assert np.all(result.source >= 0)
            assert np.all(result.coefficients.sum(axis=1) <= 1 + 1e-12)
            assert np.all(result.fundamental >= -1e-12)
            assert np.all(np.diagonal(result.fundamental) >= 1 - 1e-12)

    def test_extraction_never_increases_throughflow(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_net(rng)
            thru, src, coeff = balance(net)
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
            thru, src, coeff = balance(net)
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
        # 12 nodes take LAPACK's inverse, 100 nodes block elimination.
        for n, back in ((12, 0.0), (100, 0.1)):
            rng = np.random.default_rng(3)
            net = random_net(rng, n=n, density=0.5, back=back)
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


def exact_impacts(net):
    """Impacts of ``net`` in exact rational arithmetic: T, S and M from the
    flux, U by Gauss-Jordan elimination of [I - M | I]."""
    n = net.n
    flux = [[Fraction(x) for x in row] for row in net.flux.tolist()]
    inflow = [sum(column) for column in zip(*flux)]
    thru = [max(inn, sum(row)) for inn, row in zip(inflow, flux)]
    src = [t - inn for t, inn in zip(thru, inflow)]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows = [[e - f / t for e, f in zip(unit, row)] + unit
            for unit, row, t in zip(eye, flux, thru)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    fund = [row[n:] for row in rows]
    return [sum(src[j] * fund[j][i] for j in range(n)) * sum(fund[i]) / fund[i][i]
            for i in range(n)]


def fed_ring(k):
    """A saturated 12-node ring fed by SRC -> R00 and drained by R05 -> SNK,
    both of weight 10^-k; I - M's condition grows as 10^k."""
    nodes = [f"R{i:02d}" for i in range(12)]
    edges = [(nodes[i], nodes[(i + 1) % 12], 1.0) for i in range(12)]
    return FlowNetwork.from_edges(edges + [("SRC", "R00", 10.0 ** -k),
                                           ("R05", "SNK", 10.0 ** -k)])


def reexport_hub(k):
    """HUB sends 1, 2, 3 and 4 to partners P0-P3 and gets back all but a
    fraction 10^-k of it; the rest goes on to SNK, and SRC feeds HUB what
    leaks.  I - M's condition is about 36 * 10^k."""
    leak = 10.0 ** -k
    edges = [("SRC", "HUB", 10.0 * leak)]
    for j, w in enumerate((1.0, 2.0, 3.0, 4.0)):
        edges += [("HUB", f"P{j}", w), (f"P{j}", "HUB", w * (1 - leak)),
                  (f"P{j}", "SNK", w * leak)]
    return FlowNetwork.from_edges(edges)


def worst_error(impacts, exact):
    """Largest relative error of float ``impacts`` against ``exact``."""
    return max(abs(Fraction(got) - want) / want for got, want in zip(impacts, exact))


EXACT_CASES = pytest.mark.parametrize("net", [
    *(random_flow(n, density=0.4, back_density=0.1, seed=n) for n in (16, 18, 20)),
    *(fed_ring(k) for k in (2, 4, 6, 8, 10)),
    *(reexport_hub(k) for k in range(2, 11)),
], ids=["random16", "random18", "random20", *(f"ring1e-{k}" for k in (2, 4, 6, 8, 10)),
        *(f"hub1e-{k}" for k in range(2, 11))])


class TestExactOracle:
    """Both impact routes against impacts in exact arithmetic, within
    4 * cond * 2^-53 relative, cond the 1-norm condition number of I - M.
    The extraction oracle sums the throughflow an extraction removes, terms
    of one sign, so even on the fed ring, where SNK's impact is about 10^-k
    of the total, it cancels no more than the closed form."""

    @EXACT_CASES
    def test_closed_form_within_the_condition_bound(self, net):
        result = analyze(net)
        cond = np.linalg.cond(np.eye(net.n) - result.coefficients, 1)
        assert worst_error(result.impact.tolist(), exact_impacts(net)) <= 4 * cond * 2.0 ** -53

    @EXACT_CASES
    def test_extraction_within_the_condition_bound(self, net):
        cond = np.linalg.cond(np.eye(net.n) - balance(net)[2], 1)
        impacts = [impact_by_extraction(net, i) for i in range(net.n)]
        assert worst_error(impacts, exact_impacts(net)) <= 4 * cond * 2.0 ** -53

    def test_reexport_hub_above_the_limit_is_refused(self):
        # At k = 11 the condition is about 3.6e12.  A condition-free route
        # (ROADMAP item 10) would give impacts here, and must record that.
        net = reexport_hub(11)
        assert np.linalg.cond(np.eye(net.n) - balance(net)[2], 1) > COND_LIMIT
        with pytest.raises(SingularNetwork, match="^flow balance nearly singular"):
            analyze(net)

    def test_reexport_hub_extractions_by_analyzes_rule(self):
        # At k = 11 extracting SNK or SRC keeps the near-closed circulation
        # through HUB, and is refused with analyze's own estimate; extracting
        # HUB or a partner breaks it, and is answered within the condition
        # bound of the extracted balance.
        net = reexport_hub(11)
        exact = exact_impacts(net)
        with pytest.raises(SingularNetwork) as err:
            analyze(net)
        message = str(err.value)
        assert message == "flow balance nearly singular (condition estimate 3.600e+12)"
        for i, node in enumerate(net.nodes):
            coeff = balance(net)[2]
            coeff[:, i] = 0.0
            cond = np.linalg.cond(np.eye(net.n) - coeff, 1)
            if node in ("SNK", "SRC"):
                with pytest.raises(SingularNetwork) as err:
                    impact_by_extraction(net, i)
                assert str(err.value) == message
            else:
                got = impact_by_extraction(net, i)
                assert worst_error([got], [exact[i]]) <= 4 * cond * 2.0 ** -53
