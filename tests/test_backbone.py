import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowallometry import FlowNetwork, extract, random_flow, star
from conftest import random_net


def mass_quantile(fractions, target):
    """Reference rule, one endpoint at a time: the smallest fraction value v
    with sum of fractions <= v at least ``target`` (tied values pooled)."""
    values, inverse = np.unique(fractions, return_inverse=True)
    mass = np.zeros(len(values))
    np.add.at(mass, inverse, fractions)
    cumulative = np.cumsum(mass)
    idx = int(np.searchsorted(cumulative, target - 1e-12, side="left"))
    return float(values[min(idx, len(values) - 1)])


def reference_kept(net, alpha):
    """Edges kept by the backbone rule, evaluated node by node and edge by edge."""
    flux = net.flux
    out_strength = flux.sum(axis=1)
    in_strength = flux.sum(axis=0)
    out_threshold = np.zeros(net.n)
    in_threshold = np.zeros(net.n)
    for i in range(net.n):
        row, col = flux[i], flux[:, i]
        if out_strength[i] > 0:
            out_threshold[i] = mass_quantile(row[row > 0] / out_strength[i],
                                             1.0 - alpha)
        if in_strength[i] > 0:
            in_threshold[i] = mass_quantile(col[col > 0] / in_strength[i],
                                            1.0 - alpha)
    return {(net.nodes[s], net.nodes[d]) for s, d in zip(*np.nonzero(flux))
            if flux[s, d] / out_strength[s] >= out_threshold[s]
            or flux[s, d] / in_strength[d] >= in_threshold[d]}


def hub_with_heavy_spoke(n_light=99, heavy=10.0):
    edges = {("HUB", "AAA"): heavy}
    edges.update({("HUB", f"L{k:03d}"): 1.0 for k in range(n_light)})
    return FlowNetwork.from_edges(edges)


class TestRule:
    def test_single_edge_always_kept(self):
        net = FlowNetwork.from_edges({("AAA", "BBB"): 5.0})
        for alpha in (0.01, 0.05, 0.5, 1.0):
            assert extract(net, alpha).kept == {("AAA", "BBB")}

    def test_equal_spokes_all_kept(self):
        net = star(12, 3.0)
        bone = extract(net, 0.05)
        assert len(bone.kept) == 11

    def test_heavy_spoke_dominates_hub_distribution(self):
        net = hub_with_heavy_spoke()
        bone = extract(net, 0.05)
        # every edge survives (each is its leaf's maximum) ...
        assert len(bone.kept) == 100
        # ... but only the heavy spoke clears the hub-side threshold
        flux = net.flux
        hub = net.index("HUB")
        out = flux[hub].sum()
        threshold = mass_quantile(flux[hub][flux[hub] > 0] / out, 0.95)
        assert threshold == pytest.approx(10.0 / 109.0)
        assert 1.0 / 109.0 < threshold

    def test_alpha_one_keeps_everything(self):
        net = random_net(np.random.default_rng(41))
        bone = extract(net, 1.0)
        assert len(bone.kept) == np.count_nonzero(net.flux)

    def test_alpha_out_of_range(self):
        net = star(4)
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                extract(net, alpha)


class TestReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_extract_matches_node_by_node_rule(self, seed):
        rng = np.random.default_rng(900 + seed)
        net = random_net(rng, back=float(rng.uniform(0.0, 0.5)))
        # Rounding every weight up to one of 1..4 makes many fractions tie.
        tied = FlowNetwork(net.nodes, np.ceil(net.flux / 25.0),
                           net.product, net.year)
        for case in (net, tied):
            for alpha in (0.01, 0.05, 0.3, 0.6, 0.99, 1.0):
                assert extract(case, alpha).kept == reference_kept(case, alpha)


class TestInvariants:
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_in_alpha(self, seed):
        net = random_flow(12, density=0.5, weight=(1.0, 50.0), seed=seed)
        kept = [extract(net, alpha).kept
                for alpha in (0.01, 0.05, 0.2, 0.6, 1.0)]
        for smaller, larger in zip(kept, kept[1:]):
            assert smaller <= larger

    def test_scale_invariant(self):
        net = random_net(np.random.default_rng(43))
        scaled = FlowNetwork(net.nodes, net.flux * 1e6, net.product, net.year)
        assert extract(net, 0.07).kept == extract(scaled, 0.07).kept

    def test_relabel_equivariant(self):
        rng = np.random.default_rng(44)
        net = random_net(rng, n=10, density=0.6)
        perm = rng.permutation(net.n)
        permuted = FlowNetwork([net.nodes[i] for i in perm],
                               net.flux[np.ix_(perm, perm)],
                               net.product, net.year)
        assert extract(net, 0.1).kept == extract(permuted, 0.1).kept

    def test_every_node_keeps_an_edge(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            net = random_net(rng)
            bone = extract(net, 0.01)
            touched = {c for edge in bone.kept for c in edge}
            assert touched == set(net.nodes)

    def test_kept_subset_of_edges(self):
        net = random_net(np.random.default_rng(46))
        edges = {(net.nodes[i], net.nodes[j]) for i, j in zip(*np.nonzero(net.flux))}
        assert extract(net, 0.3).kept <= edges


class TestNodeAttributes:
    def test_roles_and_sizes(self):
        net = FlowNetwork.from_edges(
            {("AAA", "BBB"): 7.0, ("BBB", "CCC"): 2.0})
        bone = extract(net, 0.5)
        assert bone.roles == {"AAA": "exporter", "BBB": "importer",
                              "CCC": "importer"}
        assert bone.sizes == {"AAA": 7.0, "BBB": 7.0, "CCC": 2.0}
