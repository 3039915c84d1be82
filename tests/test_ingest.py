import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowallometry import ingest
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

    def test_infinite_value_in_quoted_file_aborts(self):
        # the quote sends the text through the row-wise reader
        with pytest.raises(ParseError, match="not finite: 'inf'") as err:
            parse_trades(HEADER + '2000,"USA",JPN,7100,5\n2000,USA,JPN,7100,inf\n')
        assert err.value.row == 2 and err.value.column == "value"

    @pytest.mark.parametrize("code", ["U\x00S", "U\x7fS"])
    def test_unprintable_country_aborts(self, code):
        with pytest.raises(ParseError, match="unprintable") as err:
            parse_trades(HEADER + f"2000,USA,JPN,7100,5\n2000,JPN,{code},7100,5\n")
        assert err.value.row == 2 and err.value.column == "importer"

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

    def test_year_past_int64_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_trades(HEADER + "2000,USA,JPN,7100,5\n" + "9" * 20 + ",USA,JPN,7100,5\n")
        assert (err.value.row, err.value.column) == (2, "year")
        assert "out of range" in str(err.value)

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_byte_order_mark_dropped(self, line_end, tmp_path):
        text = "\ufeff" + (HEADER + "2000,USA,JPN,7100,5\n").replace("\n", line_end)
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = parse_trades(HEADER + "2000,USA,JPN,7100,5\n")
        for source in (text, text.encode(), io.StringIO(text), path):
            assert parse_trades(source) == expected
        assert ingest._read_blocks(ingest._text(text)) == expected   # both line ends

    @pytest.mark.parametrize("text, row", [
        (HEADER + "2000,USA,JPN,7100,5\n2000\r,JPN,USA,7100,3\n", 2),
        (HEADER + "2000,USA,JPN,7100,5\r2000,JPN,USA,7100,3\n", 1),
        (HEADER + "2000,USA,JPN,7100,5\n# a\rcomment\n", 2),
        (HEADER + "2000,USA,JPN,7100,5\r\r\n", None),
    ], ids=["before-comma", "between-records", "in-comment", "cr-cr-lf"])
    def test_bare_carriage_return_reads_row_wise(self, text, row):
        assert ingest._read_blocks(text) is None
        if row is None:      # csv.reader takes "\r\r\n" as one line end
            assert parse_trades(text) == parse_trades(HEADER + "2000,USA,JPN,7100,5\n")
            return
        with pytest.raises(ParseError) as expected:
            ingest._read_rows(text)
        with pytest.raises(ParseError) as err:
            parse_trades(text)
        assert "new-line character seen in unquoted field" in str(err.value)
        assert ((err.value.row, err.value.column, str(err.value))
                == (row, None, str(expected.value)))

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

    def test_byte_order_mark_dropped(self):
        assert parse_attributes("\ufeffcountry,value\nUSA,1\n") == [
            CountryAttribute("USA", 1.0)]

    @pytest.mark.parametrize("kind", ["ratio", "GDP"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown attribute kind"):
            parse_attributes("country,value\nUSA,0.5\n", kind=kind)

    @pytest.mark.parametrize("code", ["U\x00S", "U\x7fS"])
    def test_unprintable_country_aborts(self, code):
        with pytest.raises(ParseError, match="unprintable") as err:
            parse_attributes(f"country,value\nJPN,1\n{code},2\n")
        assert err.value.row == 2 and err.value.column == "country"


class TestProductColumnAndExclusions:
    def test_column_mapping(self):
        assert parse_product_column("product,value\n71,27000\n05,900\n") == {
            "71": 27000.0, "05": 900.0}

    def test_duplicate_product(self):
        with pytest.raises(ParseError):
            parse_product_column("product,value\n71,1\n71,2\n")

    def test_exclusions(self):
        assert parse_exclusions("# outliers\n93\n68\n") == {"93", "68"}

    def test_byte_order_mark_dropped(self):
        assert parse_product_column(b"\xef\xbb\xbfproduct,value\n71,2\n") == {"71": 2.0}
        assert parse_exclusions(b"\xef\xbb\xbf93\n") == {"93"}

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


# Fields the block reader and the row-wise reader must treat alike, as
# (accepted, rejected): padding, case, signs and underscores, Unicode digits
# and spaces, quotes, NUL, special floats, and fields longer than a small
# size limit.
YEARS = (["2000", "2001", " 2000", "+2000", "1_999", "\u0662\u0660\u0660\u0660", "02000",
          '"2000"'], ["9" * 20, "2OOO", ""])
COUNTRIES = (["USA", "usa", " JPN\t", "\x0cJpn\x85", "DEU", "A#B", "\u00e9x", '"BRA"'],
             ["U SA", "", '"A,B"', "U\x00S", "A\x7fB"])
PRODUCTS = (["7100", "71", "0111", " 05 ", "7", '"0532"'], ["\u00b2", "71000", "7a", ""])
VALUES = (["1500.0", " 5 ", "1_000", "-0.0", "0", "1e308", "5e-324", "0.1", "\u0661\u0665",
           "\u3000 7\x1c", "\x0b5\u2028", "9" * 30], ["inf", "nan", "-1", "0x10", ""])
TRADE_HEADERS = ["year,exporter,importer,product,value", " year , exporter,importer,product,value",
                 "year" + " " * 12 + ",exporter,importer,product,value",
                 "year,exporter,importer,product", "YEAR,exporter,importer,product,value",
                 "\ufeffyear,exporter,importer,product,value"]
SKIPPED_LINES = ["", "   ", "\x1c", "# note", "  # a,b,c,d,e", "#"]


@st.composite
def trade_texts(draw):
    """CSV-like trades text.  A third of the texts may hold rejected fields
    and a third rejected lines; the others give a table, and half of those
    have no quote, NUL or carriage return, so that the block reader reads
    them.  The other half may end lines with CRLF, which it reads too."""
    flaw, plain = draw(st.sampled_from([None, "fields", "lines"])), draw(st.booleans())
    fields = [st.sampled_from(good + bad if flaw == "fields" else
                              [f for f in good if not plain or not {'"', "\0"} & set(f)])
              for good, bad in (YEARS, COUNTRIES, COUNTRIES, PRODUCTS, VALUES)]
    data = st.tuples(*fields).map(",".join)
    other = [st.sampled_from(SKIPPED_LINES)]
    if not plain:
        other.append(data.map(lambda line: line + "\r"))
    if flaw == "lines":
        other += [data.map(lambda line: line + ",extra"),
                  data.map(lambda line: line.rsplit(",", 1)[0])]
    header = draw(st.sampled_from(TRADE_HEADERS if flaw == "lines" else TRADE_HEADERS[:3]))
    lines = draw(st.lists(st.one_of(data, data, data, *other), max_size=40))
    before = draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=3))
    return "\n".join([*before, header, *lines]) + draw(st.sampled_from(["", "\n", "\n\n"]))


def assert_same_table(table, expected):
    assert (table.countries, table.products) == (expected.countries, expected.products)
    for name in ("year", "exporter", "importer", "product", "value"):
        column, reference = getattr(table, name), getattr(expected, name)
        assert column.dtype == reference.dtype, name
        assert column.tobytes() == reference.tobytes(), name


@settings(max_examples=300, deadline=None)
@given(raw=trade_texts(), block=st.sampled_from([8, 64, ingest._BLOCK]),
       limit=st.sampled_from([12, 131_072]))
def test_block_reader_equals_row_reader(raw, block, limit):
    text = ingest._text(raw)
    old_limit = csv.field_size_limit(limit)
    try:
        with mock.patch.object(ingest, "_BLOCK", block):
            blocks = ingest._read_blocks(text)
            try:
                expected = ingest._read_rows(text)
            except ParseError as error:
                # Rejected input is left to the row-wise reader, which names the row.
                assert blocks is None
                with pytest.raises(ParseError) as err:
                    parse_trades(raw)
                assert ((err.value.row, err.value.column, str(err.value))
                        == (error.row, error.column, str(error)))
                return
            assert_same_table(parse_trades(raw), expected)
            plain = ('"' not in text and "\0" not in text
                     and text.count("\r") == text.count("\r\n") + text.endswith("\r"))
            fields = [f for line in text.split("\n") for f in line.split(",")]
            if plain and max(map(len, fields)) < limit:
                assert blocks is not None     # the block reader takes all plain text
                assert_same_table(blocks, expected)
    finally:
        csv.field_size_limit(old_limit)


@pytest.mark.parametrize("excess", [-1, 0, 1])
def test_field_at_the_size_limit_reads_as_row_wise(excess):
    limit = csv.field_size_limit()
    text = HEADER + "2000,USA,JPN,7100," + "0" * (limit + excess - 1) + "5\n"
    try:
        expected = ingest._read_rows(text)
    except ParseError as error:
        with pytest.raises(ParseError, match="field larger than field limit"):
            parse_trades(text)
        assert error.row == 1 and excess > 0
    else:
        assert_same_table(parse_trades(text), expected)


def test_parse_memory_per_row_is_bounded():
    """The block reader holds the table's columns and one block of strings,
    not a tuple per row; the row-tuple parser it replaced peaked near
    290 bytes per row on this text."""
    rng = np.random.default_rng(3)
    names = [a + b + c for a in "ABCDEFGHIJ" for b in "KLMNO" for c in "PQRS"]
    rows = 100_000
    exporter, importer = rng.integers(0, len(names), (2, rows)).tolist()
    codes = rng.integers(0, 10_000, rows).tolist()
    values = rng.lognormal(10.0, 2.0, rows).tolist()
    text = HEADER + "".join(f"2000,{names[e]},{names[i]},{c:04d},{v!r}\n"
                            for e, i, c, v in zip(exporter, importer, codes, values))
    tracemalloc.start()
    try:
        table = parse_trades(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == rows
    assert peak / rows < 100      # the table itself is 40 bytes per row
