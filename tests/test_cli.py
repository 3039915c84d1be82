import json
import re
import shlex
from pathlib import Path

import pytest

from flowallometry import parse_trades
from flowallometry.cli import build_parser, main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
FIXTURE = str(DATA / "fixture_3node.csv")
CORPUS = str(DATA / "corpus_two_products.csv")
# four products in 2000, two of them again in 2001, over seven countries
CORPUS4 = str(DATA / "corpus_four_products.csv")
GDP7 = str(DATA / "gdp_seven_countries.csv")


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, (out.read_text(encoding="utf-8") if out.exists() else None)


class TestGoldenFiles:
    @pytest.mark.parametrize("fmt,golden", [
        ("json", "analyze_fixture.json"),
        ("csv", "analyze_fixture.csv"),
    ])
    def test_analyze_fixture(self, tmp_path, fmt, golden):
        code, text = run(tmp_path, "analyze", "--input", FIXTURE,
                         "--year", "2000", "--product", "71", "--digits", "2",
                         "--format", fmt)
        assert code == 0
        assert text == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt,golden", [
        ("csv", "batch_corpus.csv"),
        ("json", "batch_corpus.json"),
    ])
    def test_batch_corpus(self, tmp_path, fmt, golden):
        code, text = run(tmp_path, "batch", "--input", CORPUS,
                         "--year", "2000", "--digits", "1",
                         "--min-countries", "3", "--format", fmt)
        assert code == 0
        assert text == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv,golden", [
        (("backbone", "--input", FIXTURE, "--year", "2000", "--product", "71",
          "--digits", "2", "--format", "dot"), "backbone_fixture.dot"),
        (("synth", "star", "--n", "5"), "synth_star.csv"),
        (("prody", "--input", CORPUS4, "--year", "2000", "--gdp", GDP7,
          "--format", "json"), "prody_corpus.json"),
        (("prody", "--input", CORPUS4, "--year", "2000", "--gdp", GDP7,
          "--format", "csv"), "prody_corpus.csv"),
        (("timeseries", "--input", CORPUS4, "--min-countries", "3",
          "--format", "json"), "timeseries_corpus.json"),
        (("timeseries", "--input", CORPUS4, "--min-countries", "3",
          "--format", "csv"), "timeseries_corpus.csv"),
        (("correlate", "--input", CORPUS4, "--year", "2000",
          "--min-countries", "3",
          "--complexity-column", str(DATA / "complexity_column.csv"),
          "--exclude", str(DATA / "exclude.txt"), "--format", "csv"),
         "correlate_column.csv"),
        (("correlate", "--input", CORPUS4, "--year", "2000",
          "--min-countries", "3", "--gdp", GDP7, "--format", "json"),
         "correlate_gdp.json"),
        (("backbone", "--input", FIXTURE, "--year", "2000", "--product", "71",
          "--digits", "2", "--format", "json"), "backbone_fixture.json"),
    ])
    def test_footer_outputs(self, tmp_path, argv, golden):
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert text == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_repeated_runs_byte_identical(self, tmp_path):
        args = ("analyze", "--input", FIXTURE, "--year", "2000",
                "--product", "71", "--digits", "2")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second


class TestAnalyzeContent:
    def test_worked_fixture_values(self, tmp_path):
        code, text = run(tmp_path, "analyze", "--input", FIXTURE,
                         "--year", "2000", "--product", "71", "--digits", "2")
        doc = json.loads(text)
        assert [n["throughflow"] for n in doc["nodes"]] == [3.0, 2.0, 2.0]
        assert [n["source"] for n in doc["nodes"]] == [3.0, 0.0, 0.0]
        assert [n["impact"] for n in doc["nodes"]] == pytest.approx(
            [7.0, 3.0, 2.0], rel=1e-12)
        assert doc["eta"] == pytest.approx(2.5896936467371026, rel=1e-9)

    def test_formats_carry_identical_numbers(self, tmp_path):
        _, json_text = run(tmp_path, "analyze", "--input", FIXTURE,
                           "--year", "2000", "--product", "71", "--digits", "2",
                           "--format", "json")
        _, csv_text = run(tmp_path, "analyze", "--input", FIXTURE,
                          "--year", "2000", "--product", "71", "--digits", "2",
                          "--format", "csv")
        doc = json.loads(json_text)
        lines = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == doc["n"]
        for row, node in zip(rows, doc["nodes"]):
            assert float(row["eta"]) == doc["eta"]
            assert float(row["gini"]) == doc["gini"]
            assert row["country"] == node["country"]
            assert float(row["impact"]) == node["impact"]
            assert float(row["log10_impact"]) == node["log10_impact"]

    def test_metadata_block_terminates_output(self, tmp_path):
        for fmt in ("json", "csv"):
            _, text = run(tmp_path, "analyze", "--input", FIXTURE,
                          "--year", "2000", "--product", "71", "--digits", "2",
                          "--format", fmt)
            if fmt == "json":
                assert list(json.loads(text))[-1] == "meta"
            else:
                assert text.splitlines()[-1].startswith("# convention")


class TestMetadata:
    @pytest.mark.parametrize("argv", [
        ("analyze", "--year", "2000", "--product", "1"),
        ("batch", "--year", "2000", "--min-countries", "3"),
        ("timeseries", "--min-countries", "3"),
        ("correlate", "--year", "2000", "--min-countries", "3", "--gdp", GDP7),
        ("backbone", "--year", "2000", "--product", "1", "--format", "json"),
    ], ids=lambda argv: argv[0])
    def test_metadata_records_min_flow(self, tmp_path, argv):
        code, text = run(tmp_path, argv[0], "--input", CORPUS4, *argv[1:],
                         "--min-flow", "2.5")
        assert code == 0
        parameters = json.loads(text)["meta"]["parameters"]
        assert parameters["min_flow"] == 2.5
        assert list(parameters)[-2:] == ["min_flow", "format"]


class TestInputHandling:
    def test_multiple_input_files_merge(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        first.write_text("year,exporter,importer,product,value\n"
                         "2000,AAA,BBB,71,2\n")
        second.write_text("year,exporter,importer,product,value\n"
                          "2000,AAA,CCC,71,1\n2000,BBB,CCC,71,1\n")
        code, text = run(tmp_path, "analyze", "--input", str(first),
                         "--input", str(second), "--year", "2000",
                         "--product", "71", "--digits", "2")
        assert code == 0
        doc = json.loads(text)
        assert doc["n"] == 3
        assert [n["throughflow"] for n in doc["nodes"]] == [3.0, 2.0, 2.0]

    @pytest.mark.parametrize("argv", [
        ("batch", "--min-countries", "3", "--format", "csv"),
        ("batch", "--min-countries", "3", "--format", "json"),
        ("prody", "--gdp", "GDP", "--format", "csv"),
        ("prody", "--gdp", "GDP", "--format", "json"),
    ])
    def test_split_input_matches_single_file(self, tmp_path, argv):
        gdp = tmp_path / "gdp.csv"
        gdp.write_text("country,value\n" + "\n".join(
            f"N{i:04d},{10000 + 1000 * i}" for i in range(14)) + "\n")
        header, *rows = Path(CORPUS).read_text().splitlines()
        halves = ([], [])
        for k, row in enumerate(rows):
            # every third cell is split into three rows across both files
            if k % 3 == 0:
                *key, value = row.split(",")
                for half, share in ((0, 0.3), (0, 0.45), (1, 0.25)):
                    halves[half].append(",".join([*key, repr(float(value) * share)]))
            else:
                halves[k % 2].append(row)
        paths = [tmp_path / name for name in ("single.csv", "a.csv", "b.csv")]
        for path, body in zip(paths, (halves[0] + halves[1], *halves)):
            path.write_text("\n".join([header, *body]) + "\n")
        single, a, b = (str(p) for p in paths)
        argv = [str(gdp) if arg == "GDP" else arg for arg in argv]
        common = ("--year", "2000", "--digits", "1", *argv[1:])
        outputs = []
        for inputs in ((single,), (a, b), (b, a)):
            flags = [flag for path in inputs for flag in ("--input", path)]
            code, text = run(tmp_path, argv[0], *flags, *common)
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("argv", [
        ("timeseries", "--min-countries", "3", "--format", "csv"),
        ("timeseries", "--min-countries", "3", "--format", "json"),
        ("correlate", "--year", "2000", "--min-countries", "3", "--gdp", GDP7,
         "--format", "csv"),
        ("correlate", "--year", "2000", "--min-countries", "3", "--gdp", GDP7,
         "--format", "json"),
    ])
    def test_split_rosters_match_single_file(self, tmp_path, argv):
        header, *rows = [line for line in Path(CORPUS4).read_text().splitlines()
                         if not line.startswith("#")]
        halves = ([], [])
        for row in rows:
            # country N0006 and products 3 and 4 only in the second file
            _, exporter, importer, product, _ = row.split(",")
            halves["N0006" in (exporter, importer) or product in ("3", "4")].append(row)
        paths = [tmp_path / name for name in ("single.csv", "a.csv", "b.csv")]
        for path, body in zip(paths, (halves[0] + halves[1], *halves)):
            path.write_text("\n".join([header, *body]) + "\n")
        first, second = (parse_trades(path) for path in paths[1:])
        assert first.countries != second.countries and first.products != second.products
        single, a, b = (str(p) for p in paths)
        outputs = []
        for inputs in ((single,), (a, b), (b, a)):
            flags = [flag for path in inputs for flag in ("--input", path)]
            code, text = run(tmp_path, argv[0], *flags, *argv[1:])
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_skip_list_lands_in_csv_comments(self, tmp_path):
        trades = tmp_path / "trades.csv"
        rows = ["year,exporter,importer,product,value"]
        for i in range(6):
            rows.append(f"2000,C{i:02d},C{(i + 1) % 6:02d},11,{2.0 + i}")
        rows.append("2000,AAA,BBB,22,5.0")  # two countries: below the floor
        trades.write_text("\n".join(rows) + "\n")
        code, text = run(tmp_path, "batch", "--input", str(trades),
                         "--year", "2000", "--digits", "2",
                         "--min-countries", "3", "--format", "csv")
        assert code == 0
        assert any(line.startswith("# skipped 22: TooFewPoints")
                   for line in text.splitlines())


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        code, _ = run(tmp_path, "analyze", "--input", FIXTURE,
                      "--year", "2000", "--product", "71", "--digits", "2")
        assert code == 0

    def test_empty_selection_is_one(self, tmp_path, capsys):
        code, text = run(tmp_path, "analyze", "--input", FIXTURE,
                         "--year", "2000", "--product", "99", "--digits", "2")
        assert code == 1 and text is None
        assert "no record matches" in capsys.readouterr().err

    def test_missing_file_is_one(self, tmp_path):
        code, _ = run(tmp_path, "analyze", "--input", "/nonexistent.csv",
                      "--year", "2000", "--product", "71", "--digits", "2")
        assert code == 1

    def test_singular_network_is_two(self, tmp_path):
        loop = tmp_path / "loop.csv"
        loop.write_text("year,exporter,importer,product,value\n"
                        "2000,AAA,BBB,11,5\n2000,BBB,AAA,11,5\n")
        code, _ = run(tmp_path, "analyze", "--input", str(loop),
                      "--year", "2000", "--product", "11", "--digits", "2")
        assert code == 2

    @pytest.mark.parametrize("years", ["2001-2000", "2000--1990", "1999,2001-2000"])
    def test_reversed_year_range_is_one(self, tmp_path, capsys, years):
        code, text = run(tmp_path, "timeseries", "--input", CORPUS4, "--digits", "1",
                         "--years", years)
        assert code == 1 and text is None
        assert "empty year range" in capsys.readouterr().err

    @pytest.mark.parametrize("years,part", [("1990,2000-1999999999", "2000-1999999999"),
                                            ("1991-11990,1990", "1990")])
    def test_year_list_past_ten_thousand_is_one(self, tmp_path, capsys, years, part):
        code, text = run(tmp_path, "timeseries", "--input", CORPUS4, "--digits", "1",
                         "--years", years)
        assert code == 1 and text is None
        err = capsys.readouterr().err
        assert err == f"flowallometry: error: year list exceeds 10000 years at {part!r}\n"

    def test_year_list_of_ten_thousand_is_accepted(self, tmp_path):
        code, text = run(tmp_path, "timeseries", "--input", CORPUS4, "--digits", "1",
                         "--min-countries", "3", "--years", "1990,1991-11989",
                         "--format", "json")
        assert code == 0
        assert len(json.loads(text)["years"]) == 10_000

    @pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
    @pytest.mark.parametrize("argv", [
        ("analyze", "--input", FIXTURE, "--year", "2000", "--product", "71",
         "--digits", "2"),
        ("batch", "--input", CORPUS, "--year", "2000", "--min-countries", "3"),
    ], ids=["analyze", "batch"])
    def test_negative_or_nan_min_flow_is_one(self, tmp_path, capsys, argv, value):
        code, text = run(tmp_path, *argv, f"--min-flow={value}")
        assert code == 1 and text is None
        err = capsys.readouterr().err
        assert err == f"flowallometry: error: min_flow must be >= 0, got {float(value)}\n"

    def test_bad_flag_is_one(self, tmp_path, capsys):
        assert main(["analyze", "--nope"]) == 1
        capsys.readouterr()

    def test_removed_workers_flag_is_one(self, tmp_path, capsys):
        code, text = run(tmp_path, "batch", "--input", CORPUS, "--year", "2000",
                         "--workers", "4")
        assert code == 1 and text is None
        assert "--workers" in capsys.readouterr().err

    def test_prody_min_flow_flag_is_one(self, tmp_path, capsys):
        code, text = run(tmp_path, "prody", "--input", CORPUS4, "--year", "2000",
                         "--gdp", GDP7, "--min-flow", "1")
        assert code == 1 and text is None
        assert "unrecognized arguments: --min-flow" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "batch", "prody"])
    @pytest.mark.parametrize("rows", [
        b"2000,AAA,BBB,1," + b"9" * 200_000 + b"\n",
        b"2000,AAA,BBB,1,\xff\xfe5\n",
        "2000,AAA,BBB,\u00b2,5\n".encode(),
        b"2000,AAA,BBB,1,1e308\n2000,AAA,BBB,1,1e308\n",
        b"2000,AAA,BBB,1,1e308\n2000,AAA,CCC,1,1e308\n",
        b'2000,"AAA,BBB",CCC,1,7\n',
        b'2000,AAA,"B""B",1,7\n',
        b"2000,AAA,B\x00B,1,7\n",
        b"2000,A\x7fA,BBB,1,7\n",
    ], ids=["oversized_field", "not_utf8", "superscript_code", "overflow",
            "node_total_overflow", "comma_in_country", "quote_in_country", "nul_in_country",
            "delete_in_country"])
    def test_malformed_input_exits_without_traceback(self, tmp_path, capsys,
                                                     command, rows):
        trades = tmp_path / "bad.csv"
        trades.write_bytes(b"year,exporter,importer,product,value\n" + rows
                           + b"2000,BBB,CCC,1,5\n2000,CCC,AAA,1,3\n")
        gdp = tmp_path / "gdp.csv"
        gdp.write_text("country,value\nAAA,1000\nBBB,2000\nCCC,3000\n")
        extra = {"analyze": ("--product", "1"), "batch": (),
                 "prody": ("--gdp", str(gdp))}[command]
        code, text = run(tmp_path, command, "--input", str(trades),
                         "--year", "2000", "--digits", "1", *extra)
        err = capsys.readouterr().err
        assert code == 1 and text is None
        assert err.startswith("flowallometry: error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_country_export_total_overflow_is_one(self, tmp_path, capsys):
        # each cell is finite, AAA's exports of products 1 and 2 together are not
        trades = tmp_path / "bad.csv"
        trades.write_text("year,exporter,importer,product,value\n"
                          "2000,AAA,BBB,1,1e308\n2000,AAA,CCC,2,1e308\n"
                          "2000,BBB,CCC,1,5\n2000,CCC,AAA,1,3\n2000,BBB,AAA,2,4\n")
        gdp = tmp_path / "gdp.csv"
        gdp.write_text("country,value\nAAA,1000\nBBB,2000\nCCC,3000\n")
        code, text = run(tmp_path, "prody", "--input", str(trades), "--year", "2000",
                         "--digits", "1", "--gdp", str(gdp))
        assert code == 1 and text is None
        assert capsys.readouterr().err == (
            "flowallometry: error: an export total exceeds the float range\n")


    def test_prody_of_a_year_without_records_is_one(self, tmp_path, capsys):
        code, text = run(tmp_path, "prody", "--input", CORPUS4, "--year", "1999",
                         "--gdp", GDP7)
        assert code == 1 and text is None
        assert capsys.readouterr().err == "flowallometry: error: no records for year 1999\n"

    def test_synth_year_past_int64_is_one(self, tmp_path, capsys):
        code, text = run(tmp_path, "synth", "star", "--n", "3",
                         "--year", "100000000000000000000")
        assert code == 1 and text is None
        assert capsys.readouterr().err == (
            "flowallometry: error: a year is outside the 64-bit integer range\n")


class TestSynthCommand:
    def test_star_five_emits_four_rows(self, tmp_path):
        code, text = run(tmp_path, "synth", "star", "--n", "5")
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 4  # header + one row per spoke

    def test_synth_round_trips_through_analyze(self, tmp_path):
        fixture = tmp_path / "net.csv"
        code = main(["synth", "random_flow", "--n", "10", "--density", "0.6",
                     "--weight", "1:50", "--seed", "11", "--product", "4",
                     "--out", str(fixture)])
        assert code == 0
        code, text = run(tmp_path, "analyze", "--input", str(fixture),
                         "--year", "2000", "--product", "4", "--digits", "1")
        assert code == 0 and json.loads(text)["n"] == 10

    def test_deterministic(self, tmp_path):
        args = ("synth", "random_tree", "--n", "20", "--seed", "3")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second


class TestBackboneCommand:
    def test_alpha_one_keeps_all_edges_in_dot(self, tmp_path):
        code, text = run(tmp_path, "backbone", "--input", FIXTURE,
                         "--year", "2000", "--product", "71", "--digits", "2",
                         "--alpha", "1.0", "--format", "dot")
        assert code == 0
        assert text.count("->") == 3
        assert text.splitlines()[-1].startswith("// convention")

    def test_node_link_json(self, tmp_path):
        code, text = run(tmp_path, "backbone", "--input", FIXTURE,
                         "--year", "2000", "--product", "71", "--digits", "2",
                         "--alpha", "0.5", "--format", "json")
        doc = json.loads(text)
        assert doc["directed"] is True
        assert {n["id"] for n in doc["nodes"]} == {"AAA", "BBB", "CCC"}
        assert all(link["weight"] > 0 for link in doc["links"])


class TestOtherCommands:
    def test_timeseries_csv_has_gap_cells(self, tmp_path):
        trades = tmp_path / "trades.csv"
        lines = ["year,exporter,importer,product,value"]
        for year in (1999, 2000):
            for i in range(6):
                lines.append(f"{year},C{i:02d},C{(i+1) % 6:02d},11,{2.0 + i}")
        lines.append("1999,C00,C01,22,9.0")
        lines.append("1999,C01,C02,22,8.0")
        lines.append("1999,C02,C00,22,1.0")
        trades.write_text("\n".join(lines) + "\n")
        code, text = run(tmp_path, "timeseries", "--input", str(trades),
                         "--digits", "2", "--min-countries", "3",
                         "--format", "csv")
        assert code == 0
        rows = [l.split(",") for l in text.splitlines()[1:] if not l.startswith("#")]
        gaps = [r for r in rows if r[0] == "22" and r[1] == "2000"]
        assert gaps and gaps[0][2] == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("years,once", [("2000,2000", "2000"),
                                            ("1999-2000,2000", "1999-2000"),
                                            ("2001,2000,2001", "2001,2000")])
    def test_repeated_years_listed_once(self, tmp_path, fmt, years, once):
        def series(spec):
            code, text = run(tmp_path, "timeseries", "--input", CORPUS4,
                             "--min-countries", "3", "--years", spec, "--format", fmt)
            assert code == 0
            return text

        text = series(years)
        assert text == series(once)
        if fmt == "json":
            doc = json.loads(text)
            keys = [(s["product"], p["year"]) for s in doc["series"] for p in s["points"]]
        else:
            keys = [tuple(l.split(",")[:2]) for l in text.splitlines()[1:]
                    if not l.startswith("#")]
        assert keys and len(keys) == len(set(keys))

    def test_prody_json(self, tmp_path):
        gdp = tmp_path / "gdp.csv"
        gdp.write_text("country,value\n" + "\n".join(
            f"N{i:04d},{10000 + 1000 * i}" for i in range(14)) + "\n")
        code, text = run(tmp_path, "prody", "--input", CORPUS,
                         "--year", "2000", "--digits", "1", "--gdp", str(gdp))
        assert code == 0
        doc = json.loads(text)
        values = [p["prody"] for p in doc["products"]]
        assert len(values) == 2 and all(10000 <= v <= 23000 for v in values)

    def test_correlate_requires_exactly_one_column_source(self, tmp_path, capsys):
        code = main(["correlate", "--input", CORPUS, "--year", "2000",
                     "--digits", "1"])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_correlate_with_column_file(self, tmp_path):
        trades = tmp_path / "trades.csv"
        lines = ["year,exporter,importer,product,value"]
        for p in range(5):
            for i in range(5):
                lines.append(
                    f"2000,C{i:02d},C{(i + 1 + p) % 6:02d},{p + 1},{1.5 * (i + 1) + p}")
        trades.write_text("\n".join(lines) + "\n")
        column = tmp_path / "column.csv"
        column.write_text("product,value\n" + "\n".join(
            f"{p + 1},{1000.0 * (p + 1)}" for p in range(5)) + "\n")
        code, text = run(tmp_path, "correlate", "--input", str(trades),
                         "--year", "2000", "--digits", "1",
                         "--min-countries", "3",
                         "--complexity-column", str(column))
        assert code == 0
        doc = json.loads(text)
        assert doc["n_pairs"] == 5
        assert -1.0 <= doc["r"] <= 1.0

    def test_exclusion_list_applies(self, tmp_path):
        trades = tmp_path / "trades.csv"
        lines = ["year,exporter,importer,product,value"]
        for p in range(5):
            for i in range(5):
                lines.append(
                    f"2000,C{i:02d},C{(i + 1 + p) % 6:02d},{p + 1},{1.5 * (i + 1) + p}")
        trades.write_text("\n".join(lines) + "\n")
        column = tmp_path / "column.csv"
        column.write_text("product,value\n" + "\n".join(
            f"{p + 1},{1000.0 * (p + 1)}" for p in range(5)) + "\n")
        exclude = tmp_path / "exclude.txt"
        exclude.write_text("2\n")
        code, text = run(tmp_path, "correlate", "--input", str(trades),
                         "--year", "2000", "--digits", "1",
                         "--min-countries", "3",
                         "--complexity-column", str(column),
                         "--exclude", str(exclude))
        assert code == 0
        doc = json.loads(text)
        assert doc["n_pairs"] == 4 and doc["excluded"] == ["2"]


class TestReadme:
    def test_cli_examples_parse(self):
        """Every ``flowallometry`` line in the README's ``sh`` blocks is a
        valid command line for the current parser."""
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                            flags=re.DOTALL)
        commands = [line for block in blocks
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("flowallometry ")]
        assert len(commands) >= 7
        parser = build_parser()
        for command in commands:
            argv = shlex.split(command)[1:]
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: {command}")
