import numpy as np
import pytest

from flowallometry import (BadSpec, SynthSpec, analyze, chain, generate,
                           parse_trades, random_flow, random_tree, star,
                           tree_allometry, write_trades)
from flowallometry.synth import to_table


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


class TestSpecValidation:
    @pytest.mark.parametrize("spec", [
        SynthSpec("ring", 5),
        SynthSpec("star", 1),
        SynthSpec("star", 5, -1.0),
        SynthSpec("star", 5, (1.0, 2.0)),
        SynthSpec("random_flow", 5, 1.0, density=0.0),
        SynthSpec("random_flow", 5, 1.0, density=0.5, back_density=1.5),
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

    def test_round_trip_through_csv(self):
        net = random_flow(12, density=0.5, seed=3)
        table = to_table(net, product="42")
        assert parse_trades(write_trades(table)) == table
