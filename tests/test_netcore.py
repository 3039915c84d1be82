import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowallometry import (ALL, EmptySelection, FlowDataWarning, FlowNetwork,
                           NegativeFlow, TradeRecord, build_network,
                           country_id, product_code)


class TestIdentifiers:
    def test_country_id_uppercases(self):
        assert country_id("usa") == "USA"

    @pytest.mark.parametrize("bad", ["", "U SA", "US\t", "A\nB"])
    def test_country_id_rejects(self, bad):
        with pytest.raises(ValueError):
            country_id(bad)

    @pytest.mark.parametrize("code", ["0", "71", "710", "7100"])
    def test_product_code_ok(self, code):
        assert product_code(code) == code

    @pytest.mark.parametrize("bad", ["", "71005", "71A0", "7.1", "-1",
                                     "\u00b2", "\u0661", "\u0660\u0661"])
    def test_product_code_rejects(self, bad):
        with pytest.raises(ValueError):
            product_code(bad)

    @given(st.text(st.one_of(st.characters(), st.sampled_from(
        " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000"))))
    def test_country_id_matches_per_character_whitespace_rule(self, raw):
        def reference(raw):
            code = str(raw).upper()
            if not code:
                raise ValueError("empty country code")
            if any(ch.isspace() for ch in code):
                raise ValueError(f"country code contains whitespace: {raw!r}")
            return code

        def outcome(fn):
            try:
                return fn(raw)
            except ValueError as exc:
                return str(exc)

        assert outcome(country_id) == outcome(reference)


class TestFlowNetwork:
    def test_strips_isolated_nodes(self):
        net = FlowNetwork(["AAA", "BBB", "ZZZ"],
                          [[0, 1, 0], [0, 0, 0], [0, 0, 0]], "1", 2000)
        assert net.nodes == ("AAA", "BBB")
        assert net.flux.shape == (2, 2)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            FlowNetwork(["AAA", "BBB"], [[1, 1], [0, 0]], "1", 2000)

    def test_rejects_negative_flux(self):
        with pytest.raises(NegativeFlow):
            FlowNetwork(["AAA", "BBB"], [[0, -1], [0, 0]], "1", 2000)

    def test_all_zero_is_empty(self):
        with pytest.raises(EmptySelection):
            FlowNetwork(["AAA", "BBB"], [[0, 0], [0, 0]], "1", 2000)

    def test_flux_is_read_only(self, three_node_net):
        with pytest.raises(ValueError):
            three_node_net.flux[0, 1] = 9.0

    def test_from_edges_sums_repeated_pairs_in_any_order(self):
        # Left-to-right addition gives 1e16 one way and 1e16 + 2 the other.
        forward = FlowNetwork.from_edges(
            [("AAA", "BBB", 1e16), ("AAA", "BBB", 1.0), ("AAA", "BBB", 1.0)])
        backward = FlowNetwork.from_edges(
            [("AAA", "BBB", 1.0), ("AAA", "BBB", 1.0), ("AAA", "BBB", 1e16)])
        assert forward.flux.tobytes() == backward.flux.tobytes()
        assert forward.flux[0, 1] == 1e16 + 2.0

    def test_from_edges_overflowing_pair_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="exceeds the float range"):
                FlowNetwork.from_edges([("AAA", "BBB", 1e308), ("AAA", "BBB", 1e308)])


class TestBuildNetwork:
    def test_sums_matching_records(self):
        records = [TradeRecord(2000, "USA", "JPN", "7100", 2.0),
                   TradeRecord(2000, "USA", "JPN", "7102", 3.0)]
        net = build_network(records, "71", 2000, 2)
        assert net.flux[net.index("USA"), net.index("JPN")] == 5.0

    def test_self_loop_dropped_with_counted_warning(self):
        records = [TradeRecord(2000, "USA", "USA", "7100", 9.0),
                   TradeRecord(2000, "USA", "JPN", "7100", 1.0)]
        with pytest.warns(FlowDataWarning, match=r"dropped 1 self-loop"):
            net = build_network(records, "71", 2000, 2)
        assert net.flux.sum() == 1.0

    def test_year_filter(self):
        records = [TradeRecord(1999, "USA", "JPN", "7100", 5.0),
                   TradeRecord(2000, "USA", "JPN", "7100", 2.0)]
        net = build_network(records, "71", 2000, 2)
        assert net.flux.sum() == 2.0

    def test_empty_selection(self, three_node_records):
        with pytest.raises(EmptySelection):
            build_network(three_node_records, "99", 2000, 2)

    def test_negative_value_rejected(self):
        records = [TradeRecord(2000, "USA", "JPN", "7100", -1.0)]
        with pytest.raises(NegativeFlow):
            build_network(records, "71", 2000, 2)

    def test_nodes_sorted_unique(self):
        records = [TradeRecord(2000, "ZMB", "AUT", "11", 1.0),
                   TradeRecord(2000, "AUT", "MEX", "11", 1.0)]
        net = build_network(records, "11", 2000, 2)
        assert net.nodes == ("AUT", "MEX", "ZMB")

    def test_all_sentinel_matches_every_code(self, three_node_records):
        extra = three_node_records + [TradeRecord(2000, "DDD", "AAA", "05", 4.0)]
        net = build_network(extra, ALL, 2000, 1)
        assert net.flux.sum() == 8.0

    def test_short_codes_excluded_with_warning(self):
        records = [TradeRecord(2000, "USA", "JPN", "7", 5.0),
                   TradeRecord(2000, "USA", "JPN", "7100", 2.0)]
        with pytest.warns(FlowDataWarning, match="shorter"):
            net = build_network(records, "71", 2000, 2)
        assert net.flux.sum() == 2.0

    def test_min_flow_filter(self):
        records = [TradeRecord(2000, "USA", "JPN", "71", 5.0),
                   TradeRecord(2000, "USA", "MEX", "71", 0.5)]
        net = build_network(records, "71", 2000, 2, min_flow=1.0)
        assert net.nodes == ("JPN", "USA")

    def test_product_must_match_digit_level(self, three_node_records):
        with pytest.raises(ValueError):
            build_network(three_node_records, "7", 2000, 2)

    @given(st.permutations(range(6)))
    def test_aggregation_order_independent(self, order):
        base = [
            TradeRecord(2000, "AAA", "BBB", "7100", 0.1),
            TradeRecord(2000, "AAA", "BBB", "7101", 0.2),
            TradeRecord(2000, "AAA", "BBB", "7109", 1e8),
            TradeRecord(2000, "BBB", "CCC", "7100", 3.7),
            TradeRecord(2000, "CCC", "AAA", "7100", 0.003),
            TradeRecord(2000, "AAA", "BBB", "7100", 12.5),
        ]
        reference = build_network(base, "71", 2000, 2)
        shuffled = build_network([base[i] for i in order], "71", 2000, 2)
        assert shuffled == reference

    def test_flux_total_is_sum_minus_self_loops(self):
        rng = np.random.default_rng(5)
        records = []
        for _ in range(200):
            a, b = rng.integers(0, 6, size=2)
            records.append(TradeRecord(
                2000, f"C{a:02d}", f"C{b:02d}", "11", float(rng.uniform(0, 10))))
        matching = sum(r.value for r in records)
        loops = sum(r.value for r in records if r.exporter == r.importer)
        with pytest.warns(FlowDataWarning):
            net = build_network(records, "11", 2000, 2)
        assert net.flux.sum() == pytest.approx(matching - loops, rel=1e-12)
