import re
import tracemalloc

import numpy as np
import pytest

from flowallometry import (BadSpec, EmptySelection, FlowNetwork, SynthSpec,
                           TradeTable, analyze, chain, generate, parse_trades,
                           random_flow, random_tree, star, tree_allometry,
                           write_trades)
from flowallometry.synth import to_table


def scalar_tree(n, lo, hi, seed):
    """Reference flux of ``random_tree``: the per-edge loop that drew one
    parent, then one weight if ``lo < hi``, for each child in turn."""
    rng = np.random.Generator(np.random.PCG64(seed))
    flux = np.zeros((n, n))
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        flux[parent, child] = lo if lo == hi else rng.uniform(lo, hi)
    return flux


def rows_table(net, product="1", year=None):
    """Reference ``to_table``: one row per edge, through ``from_rows``."""
    year = net.year if year is None else year
    rows = ((year, net.nodes[i], net.nodes[j], product, net.flux[i, j].item())
            for i, j in np.argwhere(net.flux).tolist())
    return TradeTable.from_rows(rows)


UNSORTED = FlowNetwork(["ZZ", "AA", "MM"], [[0.0, 2.0, 0.5], [0.0, 0.0, 3.0], [1.0, 0.0, 0.0]],
                       "7", 1990)


class TestDeterministicKinds:
    def test_star_definition(self):
        net = star(5, 1.0)
        assert net.flux[0].tolist() == [0, 1, 1, 1, 1]
        assert np.count_nonzero(net.flux[1:]) == 0

    def test_chain_definition(self):
        net = chain(3, 2.0)
        assert net.flux[0, 1] == 2.0 and net.flux[1, 2] == 2.0
        assert np.count_nonzero(net.flux) == 2

    def test_node_codes_sort_in_construction_order(self):
        net = chain(11)
        assert net.nodes == tuple(sorted(net.nodes))


class TestRandomKinds:
    def test_random_flow_reproducible(self):
        spec = SynthSpec("random_flow", 15, (1.0, 9.0), 0.4, 0.1, seed=42)
        assert generate(spec) == generate(spec)

    def test_different_seeds_differ(self):
        a = random_flow(15, density=0.4, seed=1)
        b = random_flow(15, density=0.4, seed=2)
        assert a != b

    def test_weights_within_range(self):
        net = random_flow(20, density=0.5, weight=(2.0, 3.0), seed=9)
        weights = net.flux[net.flux > 0]
        assert np.all((weights >= 2.0) & (weights <= 3.0))

    def test_acyclic_random_flow_always_analyzable(self):
        for seed in range(15):
            net = random_flow(18, density=0.3, seed=seed)
            result = analyze(net)
            assert np.all(np.isfinite(result.impact))

    def test_random_tree_is_a_tree(self):
        for seed in (0, 5, 123):
            net = random_tree(40, seed=seed)
            counts, _ = tree_allometry(net)
            assert counts.max() == net.n

    @pytest.mark.parametrize("n", [2, 3, 17, 150, 1000])
    def test_single_weight_tree_equals_the_scalar_loop(self, n):
        for seed in (0, 1, 3, 5, 123, 2**40 + 7):
            for weight in (1.0, 0.1, 5.0, 1e-300):
                flux = random_tree(n, weight, seed=seed).flux
                assert flux.tobytes() == scalar_tree(n, weight, weight, seed).tobytes()

    def test_forward_edges_lie_above_the_diagonal(self):
        acyclic = random_flow(40, density=0.4, back_density=0.0, seed=8)
        assert np.array_equal(acyclic.flux, np.triu(acyclic.flux, 1))
        cyclic = random_flow(40, density=0.4, back_density=0.2, seed=8)
        assert not np.diagonal(cyclic.flux).any() and np.tril(cyclic.flux).any()
        # The forward mask is drawn first, so back edges leave it as it was.
        assert np.array_equal(np.triu(cyclic.flux) > 0, acyclic.flux > 0)

    @pytest.mark.parametrize("back", [0.0, 0.05])
    def test_edge_fractions_match_the_densities(self, back):
        n, density = 300, 0.3
        flux = random_flow(n, density=density, back_density=back, seed=12).flux
        pairs = n * (n - 1) / 2
        for fraction, p in ((np.count_nonzero(np.triu(flux)) / pairs, density),
                            (np.count_nonzero(np.tril(flux)) / pairs, back)):
            assert abs(fraction - p) <= 5 * np.sqrt(p * (1 - p) / pairs)

    def test_random_flow_peak_memory(self):
        """The builder's array is the network's flux, not copied: the peak is
        the builder's own, about 1.26 x 8n²; with a copy it was 2.01 x 8n²."""
        n = 1000
        random_flow(20, weight=(1.0, 100.0), back_density=0.05, seed=7)
        tracemalloc.start()
        try:
            random_flow(n, density=0.3, weight=(1.0, 100.0), back_density=0.05, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    def test_network_without_edges_raises(self):
        with pytest.raises(EmptySelection, match="^network has no nonzero flows$"):
            random_flow(2, density=1e-300)


class TestSpecValidation:
    @pytest.mark.parametrize("spec", [
        SynthSpec("ring", 5),
        SynthSpec("star", 1),
        SynthSpec("star", 5, -1.0),
        SynthSpec("star", 5, (1.0, 2.0)),
        SynthSpec("random_flow", 5, 1.0, density=0.0),
        SynthSpec("random_flow", 5, 1.0, density=0.5, back_density=1.5),
        SynthSpec("star", 5.5),
        SynthSpec("random_tree", 5, seed=1.5),
        SynthSpec("random_tree", 5, seed=-1),
        SynthSpec("random_tree", 5, (1.0,)),
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(BadSpec):
            generate(spec)


class TestRecordsRoundTrip:
    def test_star_emits_canonical_rows(self):
        table = to_table(star(5, 2.0), product="3", year=1995)
        assert len(table) == 4
        assert {table.countries[e] for e in table.exporter} == {"N0000"}
        assert table.products == ("3",) and set(table.year.tolist()) == {1995}
        assert table.value.tolist() == [2.0] * 4

    @pytest.mark.parametrize("net,product,year", [
        (star(6, 2.0), "3", 1995),
        (chain(5, 0.25), "1", None),
        (random_tree(40, weight=(0.5, 9.0), seed=4), "0042", -3),
        (random_flow(30, density=0.3, back_density=0.1, seed=5), "9999", 2**62),
        (UNSORTED, 7, 1990.0),
        (UNSORTED, "12", None),
    ])
    def test_table_equals_the_one_built_from_rows(self, net, product, year):
        table, reference = to_table(net, product, year), rows_table(net, product, year)
        assert (table.countries, table.products) == (reference.countries, reference.products)
        for name in ("year", "exporter", "importer", "product", "value"):
            column, expected = getattr(table, name), getattr(reference, name)
            assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("product,year", [
        ("12345", 2000), ("7a", 2000), ("", 2000.7), ("1", 2000.7), ("1", "2000"),
        ("1", 2**63), ("1", -2**63 - 1), ("1", float("inf")), ("1", float("nan")),
    ])
    def test_bad_product_or_year_raises_as_from_rows_does(self, product, year):
        with pytest.raises(Exception) as expected:
            rows_table(UNSORTED, product, year)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            to_table(UNSORTED, product, year)

    def test_round_trip_through_csv(self):
        net = random_flow(12, density=0.5, seed=3)
        table = to_table(net, product="42")
        assert parse_trades(write_trades(table)) == table
