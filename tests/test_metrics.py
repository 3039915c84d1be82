import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowallometry import (AllZero, ComplexityTable, EmptySelection, NoMarket,
                           TooFewPoints, TradeTable, ZeroVariance,
                           complexity_table, dominance_share, gini,
                           inequality_report, pearson, prody_all, rca_column)
from flowallometry.metrics import TOP_K


def gini_pairwise(values):
    """O(n^2) mean-absolute-difference oracle."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))


class TestGini:
    def test_perfect_equality(self):
        assert gini([4, 4, 4, 4]) == pytest.approx(0.0, abs=1e-15)

    def test_one_to_five(self):
        assert gini([1, 2, 3, 4, 5]) == pytest.approx(0.26667, abs=1e-5)
        assert gini([1, 2, 3, 4, 5]) == pytest.approx(gini_pairwise([1, 2, 3, 4, 5]),
                                                      abs=1e-12)

    def test_single_holder_is_max(self):
        values = [0, 0, 0, 0, 10]
        assert gini(values) == pytest.approx(0.8, abs=1e-12)
        assert gini(values) == pytest.approx(1 - 1 / len(values), abs=1e-12)

    def test_all_zero(self):
        with pytest.raises(AllZero):
            gini([0.0, 0.0, 0.0])

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            gini([1.0, -1.0])

    @pytest.mark.parametrize("values", [[], [3.0], [[1.0, 2.0], [3.0, 4.0]]])
    def test_fewer_than_two_values_rejected(self, values):
        with pytest.raises(ValueError, match="^need a vector of at least 2 values$"):
            gini(values)

    def test_subnormal_values(self):
        assert gini([5e-324, 0.0]) == 0.5
        with pytest.raises(AllZero):
            gini(np.array([5e-324, 5e-324]) * 0.5)

    @given(arrays(float, st.integers(2, 60),
                  elements=st.floats(0, 1e9, allow_nan=False,
                                     allow_subnormal=False)))
    def test_sorted_form_equals_pairwise_oracle(self, values):
        if values.sum() == 0:
            return
        assert gini(values) == pytest.approx(gini_pairwise(values), abs=1e-9)

    @given(arrays(float, st.integers(2, 40),
                  elements=st.floats(0.0, 1e6, allow_nan=False,
                                     allow_subnormal=False)),
           st.floats(1e-6, 1e6))
    def test_scale_invariant_and_bounded(self, values, scale):
        if values.sum() == 0:
            return
        base = gini(values)
        assert gini(values * scale) == pytest.approx(base, rel=1e-9, abs=1e-12)
        assert -1e-12 <= base <= 1 - 1 / len(values) + 1e-12


@pytest.mark.parametrize("values", [[1e308, 1e308], [0.0, 1e308], [1.0, 9e307, 9e307],
                                    [0.0, 5e307]])
def test_gini_and_report_raise_where_a_sum_overflows(values):
    # A sum of these values overflows; GINI and dominance are those of the
    # values scaled by 2**-1000, whose sums fit.
    names = [f"C{i}" for i in range(len(values))]
    scaled = np.ldexp(values, -1000)
    assert gini(values).hex() == gini(scaled).hex()
    report, expected = inequality_report(names, values), inequality_report(names, scaled)
    assert report.gini.hex() == expected.gini.hex()
    assert report.dominance.hex() == expected.dominance.hex()
    assert report.topk == tuple((name, np.ldexp(value, 1000)) for name, value in expected.topk)


@pytest.mark.parametrize("values", [[1e301, 1e301], [0.0, 1e300, 2e307], [1e305] * 10])
def test_gini_of_large_values_that_fit_keeps_the_formula(values):
    # Large values whose sums fit keep the bits of the formula.
    x = np.array(values)
    n = len(x)
    weighted = float(np.arange(1, n + 1) @ np.sort(x))
    expected = 2.0 * weighted / (n * float(x.sum())) - (n + 1.0) / n
    assert gini(x).hex() == expected.hex()
    report = inequality_report([f"C{i}" for i in range(n)], x)
    assert report.gini.hex() == expected.hex()
    assert report.dominance.hex() == dominance_share(x).hex()


class TestDominance:
    @pytest.mark.parametrize("impacts,expected", [
        ([1, 2, 3, 4, 5], 0.3333),
        ([1, 1.4, 1.7, 2, 2.2], 0.2651),
        ([1, 4, 9, 16, 25], 0.4545),
    ])
    def test_worked_triple(self, impacts, expected):
        assert dominance_share(impacts) == pytest.approx(expected, abs=1e-3)

    def test_all_zero(self):
        with pytest.raises(AllZero):
            dominance_share([0.0, 0.0])

    @pytest.mark.parametrize("impact", [[-1.0, 2.0], [1.0, np.nan], [1.0, np.inf],
                                        [np.inf, np.inf], [-np.inf, 1.0]])
    def test_rejects_negative_or_non_finite(self, impact):
        with pytest.raises(ValueError, match="^values must be finite and nonnegative$"):
            dominance_share(impact)

    @pytest.mark.parametrize("impact", [[[1.0, 2.0], [3.0, 4.0]], 5.0, [[5.0]]])
    def test_rejects_non_vectors(self, impact):
        with pytest.raises(ValueError, match="^need a vector of values$"):
            dominance_share(impact)

    def test_empty_vector_is_all_zero(self):
        with pytest.raises(AllZero):
            dominance_share([])

    def test_overflowing_sum_raises(self):
        # the sum overflows; the share is that of the values halved
        assert dominance_share([1e308, 1e308]) == 0.5
        assert dominance_share([1e308, 0.0]) == 1.0


class TestInequalityReport:
    def test_topk_ranked_with_deterministic_ties(self):
        # C09, C10 and C11 tie across the 10th place and are listed in
        # reverse code order: the ranking keeps ten, the tie going to C09
        countries = tuple(f"C{i:02d}" for i in range(12))[::-1]
        impact = [1.0, 1.0, 1.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]
        report = inequality_report(countries, impact)
        assert TOP_K == 10
        assert report.topk == tuple((f"C{i:02d}", 12.0 - i) for i in range(9)) + (
            ("C09", 1.0),)
        assert report.dominance == pytest.approx(12.0 / 75.0)

    def test_short_vector_ranks_every_node(self):
        report = inequality_report(("AAA", "BBB", "CCC", "DDD"), [2.0, 5.0, 2.0, 9.0])
        assert report.topk == (("DDD", 9.0), ("BBB", 5.0), ("AAA", 2.0), ("CCC", 2.0))
        assert report.dominance == pytest.approx(9.0 / 18.0)

    @pytest.mark.parametrize("impact", [[1.0, 2.0, 3.0], [1.0]])
    def test_length_mismatch_rejected(self, impact):
        with pytest.raises(ValueError, match="differ in length"):
            inequality_report(["AAA", "BBB"], impact)

    def test_k_is_not_an_option(self):
        with pytest.raises(TypeError):
            inequality_report(["AAA", "BBB", "CCC"], [1.0, 2.0, 3.0], k=2)

    @given(st.lists(st.tuples(
        st.text(st.characters(categories=["L", "N", "P", "S"]), min_size=1, max_size=3),
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324]), st.floats(0.0, 1e300))),
        min_size=2, max_size=40))
    @example([("B", 1.0), ("A", 1.0), ("C", -0.0), ("A", 0.0), ("D", 2.5), ("A", 1.0)])
    def test_report_has_the_bits_of_the_reference_ranking_gini_and_dominance(self, rows):
        # Few distinct names and values, so exact ties in impact, in names
        # and in both are common; the names come in no particular order.
        countries = [name for name, _ in rows]
        values = [value for _, value in rows]
        impact = np.array(values)
        assume(impact.sum() > 0)
        report = inequality_report(countries, impact)
        order = sorted(range(len(values)), key=lambda i: (-values[i], countries[i]))
        expected = tuple((countries[i], values[i]) for i in order[:TOP_K])
        assert report.topk == expected
        assert [v.hex() for _, v in report.topk] == [v.hex() for _, v in expected]
        assert report.gini.hex() == gini(impact).hex()
        assert report.dominance.hex() == dominance_share(impact).hex()

    @pytest.mark.parametrize("impact, error, match", [
        ([1.0], ValueError, "^need a vector of at least 2 values$"),
        ([1.0, -1.0], ValueError, "^values must be finite and nonnegative$"),
        ([1.0, np.nan], ValueError, "^values must be finite and nonnegative$"),
        ([0.0, 0.0], AllZero, "^cannot compute GINI of an all-zero vector$"),
    ])
    def test_rejects_what_gini_rejects(self, impact, error, match):
        with pytest.raises(error, match=match):
            inequality_report([f"C{i}" for i in range(len(impact))], impact)


def toy_table(gdp=None):
    return ComplexityTable(("C1", "C2"), ("P1", "P2"),
                           np.array([[5.0, 5.0], [0.0, 10.0]]), gdp)


class TestRca:
    def test_sole_exporter(self):
        table = ComplexityTable(("C1", "C2"), ("P1", "P2"),
                                np.array([[10.0, 0.0], [0.0, 10.0]]))
        assert rca_column(table, "P1").tolist() == [1.0, 0.0]

    def test_shared_market(self):
        table = toy_table()
        assert rca_column(table, "P2") == pytest.approx([1 / 3, 2 / 3])

    def test_scale_invariance(self):
        table = toy_table()
        scaled = ComplexityTable(table.countries, table.products,
                                 table.exports * 1e6)
        for p in table.products:
            assert rca_column(scaled, p) == pytest.approx(rca_column(table, p),
                                                          rel=1e-12)

    def test_no_exports(self):
        # a country that exports nothing overall has zero advantage
        table = ComplexityTable(("C1", "C2"), ("P1",),
                                np.array([[5.0], [0.0]]))
        assert rca_column(table, "P1").tolist() == [1.0, 0.0]

    def test_no_market(self):
        table = ComplexityTable(("C1", "C2"), ("P1", "P2"),
                                np.array([[5.0, 0.0], [5.0, 0.0]]))
        with pytest.raises(NoMarket, match="no country exports product P2"):
            rca_column(table, "P2")

    def test_unknown_product_named(self):
        with pytest.raises(ValueError, match="^product 'P9' is not in the table$"):
            rca_column(toy_table(), "P9")

    def test_columns_sum_to_one_on_random_tables(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            exports = rng.uniform(0, 100, size=(6, 9))
            exports[rng.random(exports.shape) < 0.4] = 0.0
            exports[0, 0] = 1.0  # keep at least one active cell
            countries = tuple(f"C{i}" for i in range(6))
            products = tuple(str(1000 + j)[:4] for j in range(9))
            table = ComplexityTable(countries, products, exports)
            for p in products:
                if exports[:, table.products.index(p)].sum() > 0:
                    assert rca_column(table, p).sum() == pytest.approx(
                        1.0, abs=1e-12)


class TestPrody:
    def test_sole_exporter_weight_one(self):
        table = ComplexityTable(("C1", "C2"), ("P1", "P2"),
                                np.array([[10.0, 0.0], [0.0, 10.0]]),
                                np.array([30000.0, 9000.0]))
        assert prody_all(table)["P1"] == pytest.approx(30000.0)

    def test_worked_example(self):
        table = toy_table(np.array([9000.0, 36000.0]))
        assert prody_all(table)["P2"] == pytest.approx(27000.0)

    def test_identical_gdp_everywhere(self):
        table = toy_table(np.array([15000.0, 15000.0]))
        values = prody_all(table)
        assert list(values) == list(table.products)
        for value in values.values():
            assert value == pytest.approx(15000.0)

    def test_bounded_by_gdp_range(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            exports = rng.uniform(0, 50, size=(5, 7))
            exports[0, :] += 1.0
            gdp = rng.uniform(500, 80000, size=5)
            table = ComplexityTable(tuple(f"C{i}" for i in range(5)),
                                    tuple(str(10 + j) for j in range(7)),
                                    exports, gdp)
            for p, value in prody_all(table).items():
                assert gdp.min() - 1e-9 <= value <= gdp.max() + 1e-9

    def test_requires_gdp(self):
        with pytest.raises(ValueError, match="no gdp_percap"):
            prody_all(toy_table())

    def test_marketed_means_a_nonzero_share(self):
        # C1's 1e-300 of P2 is a zero share beside its 1e300 of P1, so no
        # country has a share of P2: rca_column and prody_all both pass it by.
        table = ComplexityTable(("C1", "C2"), ("P1", "P2"),
                                [[1e300, 1e-300], [5.0, 0.0]], [1000.0, 2000.0])
        with pytest.raises(NoMarket, match="no country exports product P2"):
            rca_column(table, "P2")
        assert prody_all(table) == {"P1": float(table.gdp_percap @ rca_column(table, "P1"))}

    @pytest.mark.parametrize("exports", [[[1e308, 1e308], [5.0, 0.0]],
                                         [[1e308, 0.0], [1e308, 5.0]]],
                             ids=["country_total", "product_total"])
    def test_overflowing_export_total_raises(self, exports):
        # Each cell is finite, a row or column total is not; the results
        # are those of the table scaled by 2**-1000, whose totals fit.
        gdp = np.array([1000.0, 2000.0])
        table = ComplexityTable(("C1", "C2"), ("P1", "P2"), np.array(exports), gdp)
        scaled = ComplexityTable(table.countries, table.products,
                                 np.ldexp(table.exports, -1000), gdp)
        assert ({p: v.hex() for p, v in prody_all(table).items()}
                == {p: v.hex() for p, v in prody_all(scaled).items()})
        for product in table.products:
            assert (rca_column(table, product).tobytes()
                    == rca_column(scaled, product).tobytes())


class TestPearson:
    def test_perfect_linear(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_pinned_oracle(self):
        # independent covariance-formula oracle value
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            pearson([1, 2], [3, 4])

    @pytest.mark.parametrize("x,y", [([1, 2, 3], [1, 2, 3, 4]),
                                     ([[1, 2], [3, 4]], [[1, 2], [3, 4]])])
    def test_mismatched_or_nonvector_shapes_rejected(self, x, y):
        with pytest.raises(ValueError, match="^vectors must share one dimension$"):
            pearson(x, y)

    @pytest.mark.parametrize("x,y", [([1, 2, np.nan], [1, 2, 3]),
                                     ([1, 2, 3], [1, np.inf, 3]),
                                     ([-np.inf, 2, 3], [1, 2, 3])])
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(ValueError, match="^vectors must be finite$"):
            pearson(x, y)

    @pytest.mark.parametrize("x,y,r", [([1e200, -1e200, 0], [1, 2, 3], -0.5),
                                       ([1e100, -1e100, 0], [1e100, 0, -1e100], 0.5),
                                       ([1e308, 1e308, 1e308], [1, 2, 3], None)],
                             ids=["sum_of_squares", "product_of_sums", "mean"])
    def test_overflow_raises(self, x, y, r):
        # Unscaled, a sum of squares, their product or a mean overflows.
        if r is None:
            with pytest.raises(ZeroVariance):
                pearson(x, y)
        else:
            assert pearson(x, y) == r

    def test_tiny_values_are_not_zero_variance(self):
        base = pearson([1, 2, 4], [1, 2, 3])
        for k in range(-1074, 1):
            assert pearson(np.ldexp([1.0, 2.0, 4.0], k), [1, 2, 3]) == pytest.approx(
                base, rel=1e-12), k

    def test_scaling_by_powers_of_two_down_to_the_normal_range(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(0.5, 2.0, size=20)
        y = 0.3 * x + rng.uniform(0.5, 2.0, size=20)
        base = pearson(x, y)
        for k in range(-1000, 1):
            scale = 2.0 ** k
            assert pearson(scale * x, y) == pytest.approx(base, abs=1e-12)
            assert pearson(x, scale * y) == pytest.approx(base, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=30)
        y = 0.4 * x + rng.normal(size=30)
        base = pearson(x, y)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(base, rel=1e-12)
        assert pearson(x, 0.1 * y - 2.0) == pytest.approx(base, rel=1e-12)


class TestComplexityTable:
    @pytest.mark.parametrize("exports,gdp,message", [
        ([[1.0, 2.0]], None, "exports shape does not match country/product lists"),
        ([[1.0, -2.0], [0.0, 1.0]], None, "exports must be finite and nonnegative"),
        ([[1.0, 2.0], [0.0, 1.0]], [1000.0], "gdp_percap length does not match countries"),
        ([[1.0, 2.0], [0.0, 1.0]], [1000.0, 0.0], "gdp_percap must be finite and positive"),
    ], ids=["shape", "negative_export", "gdp_length", "gdp_not_positive"])
    def test_constructor_rejects(self, exports, gdp, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ComplexityTable(("C1", "C2"), ("P1", "P2"), np.array(exports),
                            None if gdp is None else np.array(gdp))

    @pytest.mark.parametrize("countries,products,message", [
        (("C1", "C1"), ("P1", "P2"), "duplicate countries"),
        (("C1", "C2"), ("P1", "P1"), "duplicate products"),
    ])
    def test_duplicate_labels_rejected(self, countries, products, message):
        # one PRODY for two columns, or an RCA of the first, would follow
        with pytest.raises(ValueError, match=f"^{message}$"):
            ComplexityTable(countries, products, np.array([[5.0, 5.0], [0.0, 10.0]]),
                            np.array([1.0, 2.0]))

    def test_copies_its_inputs_read_only(self):
        exports, gdp = np.array([[5.0, 5.0], [0.0, 10.0]]), np.array([1.0, 2.0])
        table = ComplexityTable(("C1", "C2"), ("P1", "P2"), exports, gdp)
        assert exports.flags.writeable and gdp.flags.writeable
        exports[0, 0] = gdp[0] = 99.0
        assert table.exports.tolist() == [[5.0, 5.0], [0.0, 10.0]]
        assert table.gdp_percap.tolist() == [1.0, 2.0]
        for array in (table.exports, table.gdp_percap):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_equality_and_hash_are_by_identity(self):
        first, second = toy_table([1.0, 2.0]), toy_table([1.0, 2.0])
        assert first == first
        assert first != second
        assert second not in [first]
        assert len({first, second, first}) == 2

    def test_from_records(self):
        trades = TradeTable.from_rows([
            (2000, "USA", "JPN", "7100", 5.0),
            (2000, "USA", "JPN", "7102", 5.0),
            (2000, "JPN", "USA", "0111", 10.0),
            (1999, "JPN", "USA", "0111", 99.0),
        ])
        table = complexity_table(trades, 2000, 2)
        assert table.countries == ("JPN", "USA")
        assert table.products == ("01", "71")
        assert table.exports[table.countries.index("USA"),
                             table.products.index("71")] == 10.0

    def test_year_without_records_is_an_empty_selection(self):
        trades = TradeTable.from_rows([(2000, "USA", "JPN", "7100", 5.0)])
        with pytest.raises(EmptySelection, match="^no records for year 1999$"):
            complexity_table(trades, 1999, 2)

    def test_missing_gdp_rejected(self):
        trades = TradeTable.from_rows([(2000, "USA", "JPN", "7100", 5.0)])
        with pytest.raises(ValueError, match="missing"):
            complexity_table(trades, 2000, 2, gdp={"JPN": 30000.0})

    def test_gdp_must_cover_exporters_only(self):
        trades = TradeTable.from_rows([(2000, "USA", "JPN", "7100", 5.0)])
        table = complexity_table(trades, 2000, 2, gdp={"USA": 30000.0})
        assert table.countries == ("USA",)
