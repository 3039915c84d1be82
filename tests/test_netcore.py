import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowallometry import netcore
from flowallometry import (ALL, EmptySelection, FlowDataWarning, FlowNetwork,
                           NegativeFlow, TradeTable, analyze, build_network,
                           country_id, extract, parse_trades, product_code,
                           random_flow)
from flowallometry.synth import to_table


class TestIdentifiers:
    def test_country_id_uppercases(self):
        assert country_id("usa") == "USA"

    @pytest.mark.parametrize("bad", ["", "U SA", "US\t", "A\nB", "A,B", 'A"B',
                                     "U\x00S", "A\x7f", "\u200bX"])
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
        " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000\x00\x7f\u200b"))))
    def test_country_id_matches_per_character_whitespace_rule(self, raw):
        def reference(raw):
            code = str(raw).upper()
            if not code:
                raise ValueError("empty country code")
            if any(ch.isspace() for ch in code):
                raise ValueError(f"country code contains whitespace: {raw!r}")
            if not all(ch.isprintable() for ch in code):
                raise ValueError(f"country code contains an unprintable character: {raw!r}")
            if any(ch in ',"' for ch in code):
                raise ValueError(f"country code contains a comma or a double quote: {raw!r}")
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

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError, match="^duplicate nodes$"):
            FlowNetwork(["AAA", "aaa"], [[0, 1], [0, 0]], "1", 2000)

    @pytest.mark.parametrize("flux", [[[0, 1, 0], [0, 0, 0]], [0, 1, 0, 0]],
                             ids=["rows", "flat"])
    def test_rejects_flux_of_wrong_shape(self, flux):
        with pytest.raises(ValueError, match=r"^flux shape \(.*\) does not match 2 nodes$"):
            FlowNetwork(["AAA", "BBB"], flux, "1", 2000)

    def test_names_checked_once_per_distinct_name(self, monkeypatch):
        calls = []
        monkeypatch.setattr(netcore, "country_id",
                            lambda raw: calls.append(raw) or country_id(raw))
        netcore._node_id.cache_clear()
        for _ in range(3):
            net = FlowNetwork(["aaa", "BBB"], [[0, 1], [0, 0]], "1", 2000)
            for bad in ("A A", ""):        # a failed check is made again
                with pytest.raises(ValueError) as err:
                    FlowNetwork(["AAA", bad], [[0, 1], [0, 0]], "1", 2000)
                with pytest.raises(ValueError) as expected:
                    country_id(bad)
                assert str(err.value) == str(expected.value)
        assert net.nodes == ("AAA", "BBB")
        assert sorted(calls) == ["", "", "", "A A", "A A", "A A", "AAA", "BBB", "aaa"]

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

    def test_from_edges_infinite_weight_raises(self):
        with pytest.raises(ValueError, match="^aggregated trade value exceeds the float range$"):
            FlowNetwork.from_edges([("AAA", "BBB", 1.0), ("BBB", "CCC", float("inf"))])

    def test_from_edges_overflowing_pair_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="exceeds the float range"):
                FlowNetwork.from_edges([("AAA", "BBB", 1e308), ("AAA", "BBB", 1e308)])

    @pytest.mark.parametrize("flux", [
        [[0, 1e308, 1e308], [0, 0, 1], [1, 0, 0]],      # AAA's outflow
        [[0, 0, 1e308], [0, 0, 1e308], [1, 0, 0]],      # CCC's inflow
    ], ids=["outflow", "inflow"])
    def test_overflowing_node_total_raises(self, flux):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="exceeds the float range"):
                FlowNetwork(["AAA", "BBB", "CCC"], flux, "1", 2000)

    @pytest.mark.parametrize("flux, error, match", [
        ([[0, np.nan, 1e308], [-1, 1, 1e308], [0, 0, 0]], ValueError, "must be finite"),
        ([[0, -np.inf, np.inf], [1, 1, 0], [0, 0, 0]], ValueError, "must be finite"),
        ([[0, -1, 1e308], [0, 1, 1e308], [0, 0, 0]], NegativeFlow, "nonnegative"),
        ([[0, 0, 1e308], [0, 1, 1e308], [0, 0, 0]], ValueError, "diagonal"),
    ], ids=["nan", "infinities", "negative", "diagonal"])
    def test_entry_errors_come_before_the_total_error(self, flux, error, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match=match):
                FlowNetwork(["AAA", "BBB", "CCC"], flux, "1", 2000)

    def test_totals_are_read_only_sums_of_the_stripped_flux(self):
        rng = np.random.default_rng(3)
        flux = rng.uniform(0.0, 1.0, (30, 30)) * (rng.random((30, 30)) < 0.4)
        np.fill_diagonal(flux, 0.0)
        flux[[4, 17], :] = 0.0
        flux[:, [4, 17]] = 0.0
        net = FlowNetwork([f"N{i:02d}" for i in range(30)], flux, "1", 2000)
        assert net.n == 28 and net.flux.flags.c_contiguous
        assert net.outflow.tobytes() == net.flux.sum(axis=1).tobytes()
        assert net.inflow.tobytes() == net.flux.sum(axis=0).tobytes()
        for total in (net.outflow, net.inflow):
            with pytest.raises(ValueError, match="read-only"):
                total[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 60), density=st.floats(0.2, 1.0), seed=st.integers(0, 2**31 - 1),
       alpha=st.sampled_from([0.05, 0.3, 1.0]))
def test_flux_layout_does_not_change_any_bit(n, density, seed, alpha):
    try:
        base = random_flow(n, density, seed=seed)
    except EmptySelection:
        assume(False)
    padded = np.zeros((2 * base.n, 3 * base.n))
    padded[::2, ::3] = base.flux
    layouts = [np.ascontiguousarray(base.flux), np.asfortranarray(base.flux),
               padded[::2, ::3]]
    nets = [FlowNetwork(base.nodes, flux, base.product, base.year) for flux in layouts]
    analyses = [analyze(net) for net in nets]
    bones = [extract(net, alpha) for net in nets]
    for net, analysis, bone in zip(nets, analyses, bones):
        assert net == nets[0] and bone == bones[0]
        assert net.outflow.tobytes() == nets[0].outflow.tobytes()
        assert net.inflow.tobytes() == nets[0].inflow.tobytes()
        for name in ("throughflow", "source", "impact"):
            assert getattr(analysis, name).tobytes() == getattr(analyses[0], name).tobytes()
        assert (analysis.throughflow.tobytes()
                == np.maximum(net.inflow, net.outflow).tobytes())


class TestTradeTable:
    # The bad row is in 1999; an analysis of 2000 never selects it.
    ROWS = [(2000, "USA", "JPN", "7100", 2.0),
            (1999, "MEX", "CAN", "7101", 1.0),
            (2000, "JPN", "USA", "7100", 3.0)]

    @staticmethod
    def bare(rows):
        years, exporters, importers, codes, values = zip(*rows)
        countries, products = ("CAN", "JPN", "MEX", "USA"), ("7100", "7101")
        return TradeTable(countries, products, np.array(years),
                          np.array([countries.index(c) for c in exporters]),
                          np.array([countries.index(c) for c in importers]),
                          np.array([products.index(c) for c in codes]),
                          np.array(values, dtype=float))

    @pytest.mark.parametrize("value, error", [
        (float("nan"), ValueError), (float("inf"), ValueError),
        (float("-inf"), ValueError), (-1.0, NegativeFlow),
    ], ids=["nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize("build", [TradeTable.from_rows, bare],
                             ids=["from_rows", "constructor"])
    def test_rejects_bad_value_in_any_year(self, build, value, error):
        rows = list(self.ROWS)
        rows[1] = rows[1][:4] + (value,)
        with pytest.raises(error, match=r"trade value .* \(MEX->CAN, 7101\)$"):
            build(rows)

    @pytest.mark.parametrize("name, column, match", [
        ("year", np.array([2000, 1999]), "column year has 2 rows, value has 3"),
        ("importer", np.array([1, 0, 3, 0]), "column importer has 4 rows, value has 3"),
        ("exporter", np.array([3, 4, 1]), "column exporter holds an id outside its 4-entry"),
        ("importer", np.array([1, -1, 3]), "column importer holds an id outside its 4-entry"),
        ("product", np.array([0, 2, 0]), "column product holds an id outside its 2-entry"),
        ("countries", ("CAN", "JPN", "USA", "MEX"), "roster countries is not sorted"),
        ("countries", ("CAN", "JPN", "JPN", "USA"), "roster countries is not sorted"),
        ("products", ("7101", "7100"), "roster products is not sorted"),
        # rosters write_trades could not write back
        ("countries", ("A B", "C,D", "MEX", "USA"),
         "^roster countries: country code contains whitespace: 'A B'$"),
        ("countries", ("C,D", "JPN", "MEX", "USA"),
         "^roster countries: country code contains a comma or a double quote: 'C,D'$"),
        ("countries", ("CAN", "JPN", "MEX", "usa"),
         "^roster countries: 'usa' is not in canonical form$"),
        ("products", ("12345", "7100"),
         "^roster products: product code must be 1-4 decimal digits: '12345'$"),
        ("products", (7100, 7101), "^roster products: 7100 is not in canonical form$"),
    ], ids=["short_year", "long_importer", "exporter_past_roster", "negative_importer",
            "product_past_roster", "unsorted_countries", "repeated_country",
            "unsorted_products", "country_with_whitespace", "country_with_comma",
            "lowercase_country", "five_digit_product", "product_not_a_string"])
    def test_constructor_rejects_inconsistent_columns(self, name, column, match):
        table = self.bare(self.ROWS)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(table, **{name: column})

    def test_from_rows_year_past_int64_is_a_value_error(self):
        with pytest.raises(ValueError, match="^a year is outside the 64-bit integer range$"):
            TradeTable.from_rows([(10**20, "USA", "JPN", "7100", 1.0)])

    def test_concat_of_no_tables_raises(self):
        with pytest.raises(ValueError, match="^no tables to concatenate$"):
            TradeTable.concat([])

    @pytest.mark.parametrize("make", [
        lambda rows: parse_trades("year,exporter,importer,product,value\n" + "".join(
            f"{y},{e},{i},{p},{v}\n" for y, e, i, p, v in rows)),
        TradeTable.from_rows,
        lambda rows: TradeTable.concat([TradeTable.from_rows(rows[:1]),
                                        TradeTable.from_rows(rows[1:])]),
        lambda rows: to_table(FlowNetwork.from_edges([r[1:3] + r[4:] for r in rows])),
    ], ids=["parse_trades", "from_rows", "concat", "to_table"])
    def test_columns_are_read_only(self, make):
        table = make(self.ROWS)
        with pytest.raises(ValueError, match="read-only"):
            table.value[0] = -5.0
        assert not any(getattr(table, name).flags.writeable
                       for name in ("year", "exporter", "importer", "product", "value"))


class TestBuildNetwork:
    def test_sums_matching_records(self):
        rows = [(2000, "USA", "JPN", "7100", 2.0),
                (2000, "USA", "JPN", "7102", 3.0)]
        net = build_network(TradeTable.from_rows(rows), "71", 2000, 2)
        assert net.flux[net.nodes.index("USA"), net.nodes.index("JPN")] == 5.0

    def test_self_loop_dropped_with_counted_warning(self):
        rows = [(2000, "USA", "USA", "7100", 9.0),
                (2000, "USA", "JPN", "7100", 1.0)]
        with pytest.warns(FlowDataWarning, match=r"dropped 1 self-loop"):
            net = build_network(TradeTable.from_rows(rows), "71", 2000, 2)
        assert net.flux.sum() == 1.0

    def test_year_filter(self):
        rows = [(1999, "USA", "JPN", "7100", 5.0),
                (2000, "USA", "JPN", "7100", 2.0)]
        net = build_network(TradeTable.from_rows(rows), "71", 2000, 2)
        assert net.flux.sum() == 2.0

    def test_empty_selection(self, three_node_table):
        with pytest.raises(EmptySelection):
            build_network(three_node_table, "99", 2000, 2)

    def test_negative_value_rejected(self):
        rows = [(2000, "USA", "JPN", "7100", -1.0)]
        # The table refuses the row, so no network is built from it.
        with pytest.raises(NegativeFlow, match=r"negative trade value -1.0 \(USA->JPN, 7100\)"):
            TradeTable.from_rows(rows)

    def test_nodes_sorted_unique(self):
        rows = [(2000, "ZMB", "AUT", "11", 1.0),
                (2000, "AUT", "MEX", "11", 1.0)]
        net = build_network(TradeTable.from_rows(rows), "11", 2000, 2)
        assert net.nodes == ("AUT", "MEX", "ZMB")

    def test_all_sentinel_matches_every_code(self, three_node_rows):
        extra = three_node_rows + [(2000, "DDD", "AAA", "05", 4.0)]
        net = build_network(TradeTable.from_rows(extra), ALL, 2000, 1)
        assert net.flux.sum() == 8.0

    def test_short_codes_excluded_with_warning(self):
        rows = [(2000, "USA", "JPN", "7", 5.0),
                (2000, "USA", "JPN", "7100", 2.0)]
        with pytest.warns(FlowDataWarning, match="shorter"):
            net = build_network(TradeTable.from_rows(rows), "71", 2000, 2)
        assert net.flux.sum() == 2.0

    def test_min_flow_filter(self):
        rows = [(2000, "USA", "JPN", "71", 5.0),
                (2000, "USA", "MEX", "71", 0.5)]
        net = build_network(TradeTable.from_rows(rows), "71", 2000, 2, min_flow=1.0)
        assert net.nodes == ("JPN", "USA")

    def test_product_must_match_digit_level(self, three_node_table):
        with pytest.raises(ValueError):
            build_network(three_node_table, "7", 2000, 2)

    @given(st.permutations(range(6)))
    def test_aggregation_order_independent(self, order):
        base = [
            (2000, "AAA", "BBB", "7100", 0.1),
            (2000, "AAA", "BBB", "7101", 0.2),
            (2000, "AAA", "BBB", "7109", 1e8),
            (2000, "BBB", "CCC", "7100", 3.7),
            (2000, "CCC", "AAA", "7100", 0.003),
            (2000, "AAA", "BBB", "7100", 12.5),
        ]
        reference = build_network(TradeTable.from_rows(base), "71", 2000, 2)
        shuffled = build_network(TradeTable.from_rows([base[i] for i in order]), "71", 2000, 2)
        assert shuffled == reference

    def test_flux_total_is_sum_minus_self_loops(self):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(200):
            a, b = rng.integers(0, 6, size=2)
            rows.append((
                2000, f"C{a:02d}", f"C{b:02d}", "11", float(rng.uniform(0, 10))))
        matching = sum(value for *_, value in rows)
        loops = sum(value for _, src, dst, _, value in rows if src == dst)
        with pytest.warns(FlowDataWarning):
            net = build_network(TradeTable.from_rows(rows), "11", 2000, 2)
        assert net.flux.sum() == pytest.approx(matching - loops, rel=1e-12)
