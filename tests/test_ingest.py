import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowallometry import (CountryAttribute, DuplicateCountry, FlowAnalysisError,
                           FlowDataWarning, ParseError, TradeRecord, enumerate_products,
                           parse_attributes, parse_exclusions,
                           parse_product_column, parse_trades, write_trades)

HEADER = "year,exporter,importer,product,value\n"


class TestParseTrades:
    def test_direct_field_mapping(self):
        records = parse_trades(HEADER + "2000,USA,JPN,7100,1500.0\n")
        assert records == [TradeRecord(2000, "USA", "JPN", "7100", 1500.0)]

    def test_lowercase_country_normalized(self):
        records = parse_trades(HEADER + "2000,usa,jpn,7100,5\n")
        assert records[0].exporter == "USA"

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
        records = [TradeRecord(*row) for row in rows]
        assert parse_trades(write_trades(records)) == records


class TestParseAttributes:
    def test_single_row(self):
        assert parse_attributes("country,value\nUSA,36000\n") == [
            CountryAttribute("USA", 36000.0)]

    def test_duplicate_country(self):
        with pytest.raises(DuplicateCountry):
            parse_attributes("country,value\nUSA,1\nUSA,2\n")

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
        assert parse_trades(HEADER.rstrip("\n")) == []


class TestEnumerateProducts:
    def test_truncates_to_level(self):
        records = [TradeRecord(2000, "A", "B", c, 1.0)
                   for c in ("7100", "7102", "0111")]
        assert enumerate_products(records, 1) == ["0", "7"]

    def test_full_depth(self):
        records = [TradeRecord(2000, "A", "B", c, 1.0) for c in ("7100", "7102")]
        assert enumerate_products(records, 4) == ["7100", "7102"]

    def test_empty(self):
        assert enumerate_products([], 2) == []

    def test_short_codes_warn(self):
        records = [TradeRecord(2000, "A", "B", "7", 1.0),
                   TradeRecord(2000, "A", "B", "7100", 1.0)]
        with pytest.warns(FlowDataWarning, match="shorter"):
            assert enumerate_products(records, 2) == ["71"]

    @given(st.lists(st.sampled_from(["7", "71", "710", "7100", "05", "0532"]),
                    max_size=20))
    def test_sorted_and_unique(self, codes):
        records = [TradeRecord(2000, "A", "B", c, 1.0) for c in codes]
        out = enumerate_products(records, 1)
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
