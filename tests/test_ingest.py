import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowallometry import (CountryAttribute, FlowAnalysisError, FlowDataWarning,
                           ParseError, TradeTable, enumerate_products,
                           parse_attributes, parse_exclusions,
                           parse_product_column, parse_trades, write_trades)

HEADER = "year,exporter,importer,product,value\n"


class TestParseTrades:
    def test_direct_field_mapping(self):
        table = parse_trades(HEADER + "2000,USA,JPN,7100,1500.0\n")
        assert table == TradeTable.from_rows([(2000, "USA", "JPN", "7100", 1500.0)])
        assert (table.countries, table.products) == (("JPN", "USA"), ("7100",))
        assert table.year.tolist() == [2000] and table.value.tolist() == [1500.0]
        assert (table.exporter.tolist(), table.importer.tolist()) == ([1], [0])

    def test_lowercase_country_normalized(self):
        table = parse_trades(HEADER + "2000,usa,jpn,7100,5\n2000,USA,Jpn,7100,6\n")
        assert table.countries == ("JPN", "USA")
        assert table.exporter.tolist() == [1, 1] and table.importer.tolist() == [0, 0]

    def test_bad_code_reported_at_its_first_row_and_column(self):
        text = HEADER + "2000,USA,JPN,7100,5\n2000,JPN,U SA,7100,5\n2000,U SA,JPN,7100,5\n"
        with pytest.raises(ParseError) as err:
            parse_trades(text)
        assert err.value.row == 2 and err.value.column == "importer"

    @pytest.mark.parametrize("field", ['"A,B"', '"A""B"'])
    def test_comma_or_quote_in_country_aborts(self, field):
        with pytest.raises(ParseError) as err:
            parse_trades(HEADER + f"2000,USA,JPN,7100,5\n2000,{field},JPN,7100,5\n")
        assert err.value.row == 2 and err.value.column == "exporter"

    def test_bad_product_aborts(self):
        with pytest.raises(ParseError) as err:
            parse_trades(HEADER + "2000,USA,JPN,71A0,5\n")
        assert err.value.row == 1 and err.value.column == "product"

    def test_negative_value_aborts(self):
        with pytest.raises(ParseError) as err:
            parse_trades(HEADER + "2000,USA,JPN,7100,-5\n")
        assert err.value.row == 1 and err.value.column == "value"

    @pytest.mark.parametrize("code", ["\u00b2", "\u0661", "\u0660\u0661"])
    def test_non_ascii_digit_code_aborts(self, code):
        with pytest.raises(ParseError) as err:
            parse_trades(HEADER + f"2000,USA,JPN,{code},5\n")
        assert err.value.row == 1 and err.value.column == "product"

    def test_oversized_field_is_parse_error(self):
        text = HEADER + "2000,USA,JPN,7100,5\n2000,USA,JPN,7100," + "9" * 200_000 + "\n"
        with pytest.raises(ParseError) as err:
            parse_trades(text)
        assert err.value.row == 2 and "field larger than field limit" in str(err.value)

    def test_invalid_utf8_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_trades(b"\xff\xfe")
        assert err.value.row == 0 and "UTF-8" in str(err.value)

    def test_bad_year_aborts(self):
        with pytest.raises(ParseError) as err:
            parse_trades(HEADER + "2OOO,USA,JPN,7100,5\n")
        assert err.value.column == "year"

    def test_row_numbers_count_data_rows(self):
        text = HEADER + "2000,USA,JPN,7100,5\n2000,USA,JPN,7100,bad\n"
        with pytest.raises(ParseError) as err:
            parse_trades(text)
        assert err.value.row == 2

    def test_wrong_header(self):
        with pytest.raises(ParseError) as err:
            parse_trades("a,b,c,d,e\n1,2,3,4,5\n")
        assert err.value.row == 0

    def test_comments_and_blank_lines_ignored(self):
        text = HEADER + "\n# a comment\n2000,USA,JPN,7100,5\n# trailing meta\n"
        assert len(parse_trades(text)) == 1

    def test_accepts_bytes_and_file_like(self):
        text = HEADER + "2000,USA,JPN,7100,5\n"
        assert parse_trades(text.encode()) == parse_trades(io.StringIO(text))

    @given(st.lists(
        st.tuples(st.integers(1962, 2020),
                  st.sampled_from(["USA", "JPN", "DEU", "BRA"]),
                  st.sampled_from(["USA", "JPN", "DEU", "BRA"]),
                  st.sampled_from(["7", "71", "710", "7100", "0111"]),
                  st.floats(0, 1e12, allow_nan=False, allow_infinity=False)),
        max_size=30))
    def test_round_trip(self, rows):
        table = TradeTable.from_rows(rows)
        assert len(table) == len(rows)
        assert parse_trades(write_trades(table)) == table


    @given(st.lists(
        st.tuples(st.integers(1998, 2001),
                  st.sampled_from(["USA", "JPN", "DEU", "BRA", "MEX"]),
                  st.sampled_from(["USA", "JPN", "DEU", "BRA", "MEX"]),
                  st.sampled_from(["7", "71", "7100", "0111", "05"]),
                  st.floats(0, 1e12, allow_nan=False, allow_infinity=False)),
        max_size=30), st.data())
    def test_concat_equals_parsing_joined_text(self, rows, data):
        split = data.draw(st.integers(0, len(rows)))
        first, second = (write_trades(TradeTable.from_rows(part))
                         for part in (rows[:split], rows[split:]))
        joined = parse_trades(first + second.removeprefix(HEADER))
        table = TradeTable.concat([parse_trades(first), parse_trades(second)])
        for name in ("countries", "products", "year", "exporter", "importer",
                     "product", "value"):
            column, expected = getattr(table, name), getattr(joined, name)
            assert np.array_equal(column, expected), name
            assert np.asarray(column).dtype == np.asarray(expected).dtype, name


class TestParseAttributes:
    def test_single_row(self):
        assert parse_attributes("country,value\nUSA,36000\n") == [
            CountryAttribute("USA", 36000.0)]

    def test_duplicate_country(self):
        with pytest.raises(ParseError) as err:
            parse_attributes("country,value\nUSA,1\nUSA,2\n")
        assert err.value.row == 2 and err.value.column == "country"

    def test_empty_file_with_header(self):
        assert parse_attributes("country,value\n") == []

    def test_gdp_must_be_positive(self):
        with pytest.raises(ParseError):
            parse_attributes("country,value\nUSA,0\n", kind="gdp")

    def test_ratio_must_be_in_unit_interval(self):
        with pytest.raises(ParseError):
            parse_attributes("country,value\nUSA,1.2\n", kind="ratio")


class TestProductColumnAndExclusions:
    def test_column_mapping(self):
        assert parse_product_column("product,value\n71,27000\n05,900\n") == {
            "71": 27000.0, "05": 900.0}

    def test_duplicate_product(self):
        with pytest.raises(ParseError):
            parse_product_column("product,value\n71,1\n71,2\n")

    def test_exclusions(self):
        assert parse_exclusions("# outliers\n93\n68\n") == {"93", "68"}

    def test_exclusions_from_bytes_path_and_file_like(self, tmp_path):
        path = tmp_path / "exclude.txt"
        path.write_text("93\n# note\n68\n")
        for source in (b"93\n# note\n68\n", io.BytesIO(b"93\n68\n"),
                       io.StringIO("93\n68\n"), path):
            assert parse_exclusions(source) == {"93", "68"}

    def test_str_is_content_not_a_path(self):
        assert parse_exclusions("93") == {"93"}
        assert len(parse_trades(HEADER.rstrip("\n"))) == 0


def products_table(codes):
    return TradeTable.from_rows((2000, "A", "B", c, 1.0) for c in codes)


class TestEnumerateProducts:
    def test_truncates_to_level(self):
        assert enumerate_products(products_table(["7100", "7102", "0111"]), 1) == ["0", "7"]

    def test_full_depth(self):
        assert enumerate_products(products_table(["7100", "7102"]), 4) == ["7100", "7102"]

    def test_empty(self):
        assert enumerate_products(products_table([]), 2) == []

    def test_short_codes_warn(self):
        with pytest.warns(FlowDataWarning, match=r"excluded 2 record\(s\)"):
            assert enumerate_products(products_table(["7", "7100", "7"]), 2) == ["71"]

    @given(st.lists(st.sampled_from(["7", "71", "710", "7100", "05", "0532"]),
                    max_size=20))
    def test_sorted_and_unique(self, codes):
        out = enumerate_products(products_table(codes), 1)
        assert out == sorted(set(out))


HEADERS = [b"", b"year,exporter,importer,product,value\n", b"country,value\n",
           b"product,value\n"]
CSV_ISH = st.text(st.sampled_from(list(',"#\n\r\t 0123456789.-eE_AUSJ\u00b2\u0661\x00\x1c')))


@pytest.mark.parametrize("parse", [parse_trades, parse_attributes,
                                   parse_product_column, parse_exclusions])
@given(data=st.one_of(
    st.binary(),
    st.tuples(st.sampled_from(HEADERS), st.binary()).map(b"".join),
    st.tuples(st.sampled_from(HEADERS), CSV_ISH.map(str.encode)).map(b"".join)))
def test_any_bytes_parse_or_raise_typed_error(parse, data):
    try:
        parse(data)
    except FlowAnalysisError:
        pass
