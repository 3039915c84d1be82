import math
import random
import warnings
from collections import defaultdict
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowallometry import (ALL, DegenerateFit, EmptySelection, FlowDataWarning,
                           FlowNetwork, SingularNetwork, TooFewPoints,
                           TradeTable, batch, build_network, complexity_table,
                           correlate_complexity, enumerate_products, histogram,
                           analyze, prody_all, random_flow,
                           summarize_network, timeseries)
from flowallometry.pipeline import MAX_BINS, ProductResult
from flowallometry.synth import to_table


class Row(NamedTuple):
    """One row, as ``TradeTable.from_rows`` takes it."""

    year: int
    exporter: str
    importer: str
    product: str
    value: float


trades = TradeTable.from_rows


def corpus(year=2000):
    """Two random products over shared countries, plus a tiny third product."""
    return TradeTable.concat([
        to_table(random_flow(12, density=0.5, seed=1), "1", year),
        to_table(random_flow(14, density=0.5, seed=2), "2", year),
        trades([(year, "N0000", "N0001", "3", 5.0)])])


def mixed_corpus():
    """Two years of 4-digit rows under three 2-digit codes, many rows per
    cell and widely spread values, plus a short code and a self-loop."""
    rng = np.random.default_rng(5)
    countries = [f"C{i:02d}" for i in range(12)]
    records = []
    for year in (1999, 2000):
        for _ in range(600):
            src, dst = rng.choice(12, size=2, replace=False)
            code = f"{rng.choice(['11', '12', '27'])}{rng.integers(0, 100):02d}"
            records.append(Row(year, countries[src], countries[dst],
                               code, float(rng.lognormal(3.0, 3.0))))
    records.append(Row(2000, "C00", "C01", "1", 7.0))
    records.append(Row(2000, "C02", "C02", "1100", 3.0))
    return records


def data_warnings(call):
    """The messages of the FlowDataWarnings ``call()`` gives, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [str(w.message) for w in caught if issubclass(w.category, FlowDataWarning)]


def result_row(product, eta, prefix_year=2000):
    return ProductResult(product, prefix_year, eta, 0.01, 0.9, "neutral",
                         0.5, 0.3, 10, ())


class TestBatch:
    def test_count_contract(self):
        outcome = batch(corpus(), 2000, 1, min_countries=3)
        assert [r.product for r in outcome.results] == ["1", "2"]
        assert outcome.integrated is not None
        assert outcome.integrated.product == ALL
        assert [s.product for s in outcome.skipped] == ["3"]

    def test_small_product_skipped_with_reason(self):
        outcome = batch(corpus(), 2000, 1, min_countries=3)
        skip = outcome.skipped[0]
        assert skip.reason.startswith("TooFewPoints")

    def test_every_product_appears_exactly_once(self):
        outcome = batch(corpus(), 2000, 1, min_countries=3)
        seen = ([r.product for r in outcome.results]
                + [s.product for s in outcome.skipped])
        assert sorted(seen) == ["1", "2", "3"]

    @pytest.mark.filterwarnings("ignore::flowallometry.FlowDataWarning")
    def test_rows_equal_analyze_product(self):
        records = mixed_corpus()
        year_records = [r for r in records if r.year == 2000]
        outcome = batch(trades(records), 2000, 2, min_countries=3)
        assert [r.product for r in outcome.results] == ["11", "12", "27"]
        for row in outcome.results + [outcome.integrated]:
            net = build_network(trades(year_records), row.product, 2000, 2)
            assert row == summarize_network(net, analyze(net))

    @pytest.mark.filterwarnings("ignore::flowallometry.FlowDataWarning")
    def test_record_order_is_bitwise_irrelevant(self):
        records = mixed_corpus()
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        assert (batch(trades(shuffled), 2000, 2, min_countries=3)
                == batch(trades(records), 2000, 2, min_countries=3))
        gdp = {f"C{i:02d}": 1000.0 * (i + 1) for i in range(12)}
        table = complexity_table(trades(records), 2000, 2, gdp=gdp)
        other = complexity_table(trades(shuffled), 2000, 2, gdp=gdp)
        assert table.exports.tobytes() == other.exports.tobytes()
        assert prody_all(table) == prody_all(other)

    def test_one_self_loop_warning_per_batch(self):
        records = mixed_corpus()
        for call in (lambda: batch(trades(records), 2000, 2, min_countries=3),
                     lambda: build_network(trades([r for r in records if r.year == 2000]),
                                           ALL, 2000, 2),
                     lambda: complexity_table(trades(records), 2000, 2)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            loops = [str(w.message) for w in caught if "self-loop" in str(w.message)]
            assert loops == ["dropped 1 self-loop record(s) worth 3.0"]

    def test_short_code_self_loop_reported_alike(self):
        # The year's only self-loop has a code shorter than the digit level.
        records = [r for r in mixed_corpus() if r.exporter != r.importer]
        table = trades(records + [Row(2000, "C05", "C05", "2", 4.0)])
        expected = ["excluded 2 record(s) with codes shorter than 2 digits",
                    "dropped 1 self-loop record(s) worth 4.0"]
        assert data_warnings(lambda: batch(table, 2000, 2, min_countries=3)) == expected
        assert data_warnings(lambda: complexity_table(table, 2000, 2)) == expected

    @pytest.mark.parametrize("product, warned", [
        ("11", ["excluded 1 record(s) with codes shorter than 2 digits",
                "dropped 1 self-loop record(s) worth 3.0"]),
        ("12", ["excluded 1 record(s) with codes shorter than 2 digits",
                "dropped 1 self-loop record(s) worth 5.0"]),
        (ALL, ["dropped 2 self-loop record(s) worth 8.0"]),
    ])
    def test_build_network_reports_the_rows_it_draws_on(self, product, warned):
        table = trades(mixed_corpus() + [Row(2000, "C03", "C03", "1200", 5.0)])
        assert data_warnings(lambda: build_network(table, product, 2000, 2)) == warned

    @pytest.mark.parametrize("call", [
        lambda records: batch(records, 2000, 2, min_countries=3),
        lambda records: build_network(records, "11", 2000, 2),
        lambda records: complexity_table(records, 2000, 2),
        lambda records: enumerate_products(records, 2),
    ], ids=["batch", "build_network", "complexity_table", "enumerate_products"])
    def test_warnings_point_at_the_caller(self, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(trades(mixed_corpus()))
        flagged = [w for w in caught if issubclass(w.category, FlowDataWarning)]
        assert flagged and all(w.filename == __file__ for w in flagged)

    @pytest.mark.filterwarnings("ignore::flowallometry.FlowDataWarning")
    @pytest.mark.parametrize("digit_level", [1, 2, 4])
    def test_other_years_rows_change_nothing(self, digit_level):
        # 9100 and country Z99 occur only in 1999, code 1 only in 2000
        records = mixed_corpus() + [Row(1999, "Z99", "C01", "9100", 2.0),
                                    Row(1999, "C03", "C04", "9100", 4.0)]
        both = trades(records)
        alone = trades([r for r in records if r.year == 2000])
        assert "9100" in both.products and "9100" not in alone.products
        outcome = batch(both, 2000, digit_level, min_countries=3)
        assert outcome == batch(alone, 2000, digit_level, min_countries=3)
        assert not any(s.product.startswith("9") for s in outcome.skipped)
        table, expected = (complexity_table(t, 2000, digit_level) for t in (both, alone))
        assert (table.countries, table.products) == (expected.countries, expected.products)
        assert table.exports.tobytes() == expected.exports.tobytes()

    def test_empty_year(self):
        with pytest.raises(EmptySelection, match="^no records for year 1980$"):
            batch(corpus(), 1980, 1)

    @pytest.mark.filterwarnings("ignore::flowallometry.FlowDataWarning")
    def test_year_of_only_self_loops_gives_its_skip_list(self):
        table = TradeTable.from_rows([(2000, "AAA", "BBB", "1", 1.0),
                                      (2001, "AAA", "AAA", "1", 2.0)])
        outcome = batch(table, 2001, 1, min_countries=3)
        assert outcome.results == [] and outcome.integrated is None
        assert [s.product for s in outcome.skipped] == ["1", ALL]

    def test_min_countries_floor(self):
        with pytest.raises(ValueError):
            batch(corpus(), 2000, 1, min_countries=2)

    @pytest.mark.parametrize("min_flow", [-1.0, -1e-300, float("nan")])
    def test_min_flow_must_be_nonnegative(self, min_flow):
        with pytest.raises(ValueError, match="min_flow must be >= 0"):
            batch(corpus(), 2000, 1, min_countries=3, min_flow=min_flow)
        with pytest.raises(ValueError, match="min_flow must be >= 0"):
            build_network(corpus(), ALL, 2000, 1, min_flow=min_flow)
        with pytest.raises(ValueError, match="min_flow must be >= 0"):
            timeseries(corpus(), 1, min_countries=3, min_flow=min_flow)


def reference_cells(records, year, digit_level, key, product=None):
    """Dict of lists plus math.fsum: the aggregation rule, record by record."""
    cells = defaultdict(list)
    for rec in records:
        if rec.year != year or rec.exporter == rec.importer:
            continue
        if product != ALL and len(rec.product) < digit_level:
            continue
        if product in (None, ALL) or rec.product[:digit_level] == product:
            cells[key(rec)].append(rec.value)
    return {cell: math.fsum(values) for cell, values in cells.items()}


def reference_network(records, product, year, digit_level, min_flow):
    totals = reference_cells(records, year, digit_level,
                             lambda r: (r.exporter, r.importer), product)
    if min_flow > 0.0:
        totals = {pair: v for pair, v in totals.items() if v >= min_flow}
    return FlowNetwork.from_edges(totals, product, year)


def outcome(build, *args):
    """A network's nodes and flux bytes, or the type of the error raised."""
    try:
        net = build(*args)
    except EmptySelection:
        return EmptySelection
    return net.nodes, net.flux.tobytes()


def reference_row(records, product, year, digit_level, min_flow):
    try:
        net = reference_network(records, product, year, digit_level, min_flow)
        if net.n < 3:
            return TooFewPoints
        return summarize_network(net, analyze(net))
    except (EmptySelection, SingularNetwork, DegenerateFit, TooFewPoints) as exc:
        return type(exc)


RECORD = st.builds(
    Row, st.sampled_from([1999, 2000]),
    st.sampled_from(["AAA", "BBB", "CCC", "DDD"]),
    st.sampled_from(["AAA", "BBB", "CCC", "DDD"]),
    st.sampled_from(["1", "11", "1100", "1109", "12", "1200", "2", "21", "2101"]),
    st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 0.1, 0.7, 1.0, 1e16, 1e300]),
              st.floats(0.0, 1e12, allow_nan=False)))
# Left-to-right addition rounds 1e16 + 1.0 + 1.0 to 1e16; fsum does not.
ROUNDING_CELL = [Row(2000, "AAA", "BBB", "1100", v) for v in (1e16, 1.0, 1.0)] + [
    Row(2000, "BBB", "CCC", "1109", 2.0), Row(2000, "CCC", "AAA", "1200", 3.0)]
# Three countries, but the impact of AAA underflows to 0, so the fit has two
# positive pairs and batch skips the product with TooFewPoints.
UNDERFLOW_IMPACT = [Row(2000, "BBB", "AAA", "1", 1e-300),
                    Row(2000, "BBB", "CCC", "1", 1e300)]


class TestAggregationOracle:
    @settings(max_examples=60, deadline=None)
    @example(ROUNDING_CELL, 2, 0.0)
    @example(ROUNDING_CELL, 1, 0.0)
    @example(UNDERFLOW_IMPACT, 1, 0.0)
    @given(st.lists(RECORD, min_size=1, max_size=60), st.sampled_from([1, 2]),
           st.sampled_from([0.0, 1.0, 1e6]))
    def test_equals_dict_fsum_reference(self, records, digit_level, min_flow):
        year = 2000
        codes = sorted({r.product[:digit_level] for r in records
                        if r.year == year and len(r.product) >= digit_level})
        rows = trades(records)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlowDataWarning)
            for product in codes + [ALL]:
                assert (outcome(build_network, rows, product, year, digit_level,
                                min_flow)
                        == outcome(reference_network, records, product, year,
                                   digit_level, min_flow))
            if not codes and all(r.year != year for r in records):
                with pytest.raises(EmptySelection):
                    batch(rows, year, digit_level, min_countries=3)
                return
            result = batch(rows, year, digit_level, min_countries=3,
                           min_flow=min_flow)
            table = complexity_table(rows, year, digit_level)

        rows = {r.product: r for r in result.results}
        if result.integrated is not None:
            rows[ALL] = result.integrated
        rows.update((s.product, s.reason.split(":")[0]) for s in result.skipped)
        expected = {}
        for product in codes + [ALL]:
            row = reference_row(records, product, year, digit_level, min_flow)
            expected[product] = row if isinstance(row, ProductResult) else row.__name__
        assert rows == expected

        exports = reference_cells(records, year, digit_level,
                                  lambda r: (r.exporter, r.product[:digit_level]))
        assert table.countries == tuple(sorted({c for c, _ in exports}))
        assert table.products == tuple(sorted({p for _, p in exports}))
        reference = np.zeros(table.exports.shape)
        for (c, p), total in exports.items():
            reference[table.countries.index(c), table.products.index(p)] = total
        assert table.exports.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("values", [[1e308, 1e308]], ids=["overflow"])
    @pytest.mark.parametrize("aggregate", [
        lambda records: batch(records, 2000, 2, min_countries=3),
        lambda records: complexity_table(records, 2000, 2),
    ], ids=["batch", "complexity_table"])
    def test_non_finite_cell_raises(self, values, aggregate):
        records = [Row(2000, "AAA", "BBB", "1100", v) for v in values]
        records += [Row(2000, "BBB", "CCC", "1100", 5.0),
                    Row(2000, "CCC", "AAA", "1200", 3.0)]
        with pytest.raises(ValueError, match="exceeds the float range"):
            aggregate(trades(records))


SUMMARY_FIELDS = ("eta", "stderr", "r2", "gini", "dominance")


def assert_same_rows(outcome, expected):
    """Every row of two batch outcomes, products and ALL, agrees within
    1e-12 relative, with the same class, size and skips."""
    rows = outcome.results + [outcome.integrated]
    reference = expected.results + [expected.integrated]
    assert ([(r.product, r.classification, r.n_countries) for r in rows]
            == [(r.product, r.classification, r.n_countries) for r in reference])
    for row, ref in zip(rows, reference):
        assert ([getattr(row, f) for f in SUMMARY_FIELDS]
                == pytest.approx([getattr(ref, f) for f in SUMMARY_FIELDS], rel=1e-12))
    assert outcome.skipped == expected.skipped


@pytest.mark.filterwarnings("ignore::flowallometry.FlowDataWarning")
@pytest.mark.parametrize("digit_level", [1, 2])
class TestBatchMetamorphic:
    def test_countries_relabelled_in_reversed_order(self, digit_level):
        records = mixed_corpus()
        countries = sorted({r.exporter for r in records} | {r.importer for r in records})
        label = {c: f"R{len(countries) - k:03d}" for k, c in enumerate(countries)}
        relabelled = [r._replace(exporter=label[r.exporter], importer=label[r.importer])
                      for r in records]
        assert_same_rows(batch(trades(relabelled), 2000, digit_level, min_countries=3),
                         batch(trades(records), 2000, digit_level, min_countries=3))

    @pytest.mark.parametrize("factor", [1000.0, 2.0 ** 10])
    def test_values_scaled(self, digit_level, factor):
        records = mixed_corpus()
        scaled = [r._replace(value=r.value * factor) for r in records]
        assert_same_rows(batch(trades(scaled), 2000, digit_level, min_countries=3),
                         batch(trades(records), 2000, digit_level, min_countries=3))


class TestHistogram:
    def test_single_bin(self):
        rows = [result_row("1", 1.0), result_row("2", 1.05), result_row("3", 1.09)]
        hist = histogram(rows, 0.1)
        assert hist.edges[0] == pytest.approx(1.0)
        assert hist.counts == (3,)

    def test_totals_preserved_across_bins(self):
        rng = np.random.default_rng(6)
        rows = [result_row(str(i % 10), float(e))
                for i, e in enumerate(rng.uniform(0.7, 1.4, size=50))]
        hist = histogram(rows, 0.05)
        assert sum(hist.counts) == 50

    def test_prefix_split_rule(self):
        rows = [result_row("31", 1.0), result_row("71", 1.0)]
        hist = histogram(rows, 0.1, stack_by="class")
        assert hist.stacks["primary"] == (1,)
        assert hist.stacks["manufactured"] == (1,)

    def test_empty_stack_group_is_zero_height(self):
        rows = [result_row("71", 1.0), result_row("72", 1.12)]
        hist = histogram(rows, 0.1, stack_by="class")
        assert sum(hist.stacks["primary"]) == 0
        assert sum(hist.stacks["manufactured"]) == sum(hist.counts) == 2

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="^no results to bin$"):
            histogram([], 0.1)

    def test_unknown_stacking_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown stacking mode 'digit'$"):
            histogram([result_row("1", 1.0)], 0.1, stack_by="digit")

    @pytest.mark.parametrize("width", [0.0, -0.1, float("nan"), float("inf"),
                                       float("-inf")])
    def test_bin_width_must_be_finite_and_positive(self, width):
        with pytest.raises(ValueError, match="finite and positive"):
            histogram([result_row("1", 1.0)], width)

    @pytest.mark.parametrize("rows, width", [
        ([result_row("1", 1.0), result_row("2", 1.05)], 1e-300),
        ([result_row("1", 1.0), result_row("2", 1.05)], 1e-12),
        ([result_row("1", 1.0)], 1e-300),
        ([result_row("1", 1.0)], 5e-324),
        ([result_row("1", 0.0), result_row("2", float(MAX_BINS))], 1.0),
    ], ids=["two_rows_1e-300", "two_rows_1e-12", "one_row_1e-300", "subnormal",
            "one_bin_past_the_cap"])
    def test_too_fine_width_rejected_before_binning(self, rows, width):
        with pytest.raises(ValueError, match=f"^bin width {width} is too fine"):
            histogram(rows, width)

    def test_bins_up_to_the_cap_accepted(self):
        hist = histogram([result_row("1", 0.0), result_row("2", MAX_BINS - 1.0)], 1.0)
        assert len(hist.counts) == MAX_BINS and sum(hist.counts) == 2

    def test_stacks_sum_to_totals(self):
        rng = np.random.default_rng(8)
        rows = [result_row(f"{i % 10}{i % 7}", float(e))
                for i, e in enumerate(rng.uniform(0.8, 1.3, size=40))]
        hist = histogram(rows, 0.07, stack_by="prefix")
        stacked = np.sum([hist.stacks[g] for g in hist.stacks], axis=0)
        assert tuple(stacked) == hist.counts


@pytest.mark.parametrize("call", [
    lambda t: build_network(t, ALL, 2000, 5), lambda t: batch(t, 2000, 5),
    lambda t: complexity_table(t, 2000, 5), lambda t: timeseries(t, 5),
], ids=["build_network", "batch", "complexity_table", "timeseries"])
def test_digit_level_past_four_rejected(call):
    with pytest.raises(ValueError, match="^digit level must be in 1..4, got 5$"):
        call(corpus(2000))


class TestTimeseries:
    def test_two_years(self):
        series = timeseries(TradeTable.concat([corpus(1999), corpus(2000)]), 1,
                            min_countries=3)
        assert set(series) == {"1", "2"}
        assert set(series["1"]) == {1999, 2000}
        assert all(v is not None for v in series["1"].values())

    def test_gap_for_missing_year(self):
        records = TradeTable.concat([
            corpus(2000), to_table(random_flow(12, density=0.5, seed=4), "5", 1999)])
        series = timeseries(records, 1, min_countries=3)
        assert series["5"][1999] is not None
        assert series["5"][2000] is None
        assert series["1"][1999] is None

    def test_no_years_rejected(self):
        with pytest.raises(ValueError, match="^no years requested$"):
            timeseries(corpus(2000), 1, years=[])

    def test_single_year_is_fine(self):
        series = timeseries(corpus(2000), 1, min_countries=3)
        assert all(len(points) == 1 for points in series.values())

    @pytest.mark.filterwarnings("ignore::flowallometry.FlowDataWarning")
    def test_equals_per_year_batch(self, monkeypatch):
        records = TradeTable.concat([corpus(1998), corpus(1999), trades(mixed_corpus())])
        years = (1998, 1999, 2000)
        expected = {yr: {r.product: r.eta
                         for r in batch(records, yr, 1, min_countries=3).results}
                    for yr in years}
        handed = []

        def counting_batch(table, year, *args, **kwargs):
            handed.append((len(table), year))
            return batch(table, year, *args, **kwargs)

        monkeypatch.setattr("flowallometry.pipeline.batch", counting_batch)
        series = timeseries(records, 1, min_countries=3)
        assert all(len(expected[yr]) == 2 for yr in years)
        codes = sorted({code for fits in expected.values() for code in fits})
        assert series == {code: {yr: expected[yr].get(code) for yr in years}
                          for code in codes}
        # one batch per year, each over the whole table
        assert handed == [(len(records), yr) for yr in years]


class TestCorrelate:
    def test_identical_column_gives_unit_correlation(self):
        rows = [result_row(str(code), 1.0 + code / 50) for code in range(8)]
        column = {r.product: r.eta for r in rows}
        r, pairs = correlate_complexity(rows, column)
        assert r == pytest.approx(1.0)
        assert len(pairs) == 8

    def test_exclusion_shrinks_pair_table(self):
        rows = [result_row(str(code), 1.0 + code / 50) for code in range(8)]
        column = {r.product: float(code) for code, r in enumerate(rows)}
        _, pairs = correlate_complexity(rows, column)
        _, fewer = correlate_complexity(rows, column, exclusions={"3"})
        assert len(pairs) - len(fewer) == 1

    def test_inner_join_skips_missing(self):
        rows = [result_row(str(code), 1.0 + code / 50) for code in range(5)]
        column = {"0": 1.0, "1": 2.0, "2": 3.0}
        _, pairs = correlate_complexity(rows, column)
        assert [p[0] for p in pairs] == ["0", "1", "2"]

    def test_too_few_after_exclusions(self):
        rows = [result_row(str(code), 1.0) for code in range(3)]
        column = {r.product: 1.0 for r in rows}
        with pytest.raises(TooFewPoints):
            correlate_complexity(rows, column, exclusions={"0"})
