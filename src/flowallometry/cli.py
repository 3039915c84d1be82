"""Command-line front end.

Subcommands wrap the library one-to-one: ``analyze`` for a single product
network, ``batch`` for the per-product table plus the integrated network,
``timeseries`` for exponents over years, ``prody`` and ``correlate`` for
complexity columns, ``backbone`` for graph export, and ``synth`` for
synthetic fixture generation.

JSON is the canonical machine format; CSV mirrors it for spreadsheets and
DOT is for backbones only.  Every emitted file ends with a metadata block
(tool version, parameters, conventions), contains no timestamps or paths,
and is byte-identical across repeated runs.  Exit codes: 0 success, 1
input/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, flowcalc, metrics, pipeline
from .backbone import extract
from .errors import FlowAnalysisError, FlowDataWarning, SingularNetwork
from .ingest import (parse_attributes, parse_exclusions, parse_product_column,
                     parse_trades, write_trades)
from .netcore import ALL, TradeTable, build_network
from .synth import KINDS, SynthSpec, generate, to_table

CONVENTIONS = {
    "log_base": "10",
    "stderr": "OLS slope standard error, n-2 dof",
    "neutral_band": "|eta - 1| <= 2 * stderr",
    "gini": "population pairwise form",
    "throughflow": "max(total imports, total exports)",
    "backbone_rule": ("per-endpoint mass-weighted quantile on the directed "
                      "network, ties kept; visualization only"),
}

#: Most years a ``--years`` list may name.
MAX_YEARS = 10_000


# ---------------------------------------------------------------------------
# document rendering
# ---------------------------------------------------------------------------

def _render(args, params: dict, doc: dict, lines: list[str]) -> str:
    """One run's output with its metadata block, the one place either is
    written.  The block names the tool, the command, ``params`` followed by
    ``--min-flow`` and ``--format`` where the subcommand takes them, and the
    conventions.  JSON is ``doc`` with the block last, as ``meta``; any
    other format is the text ``lines``, then the block as a footer whose
    lines start ``//`` for DOT and ``#`` otherwise."""
    params = {**params, **{name: getattr(args, name)
                           for name in ("min_flow", "format") if name in args}}
    meta = {"tool": "flowallometry", "version": __version__,
            "command": args.command, "parameters": params,
            "conventions": CONVENTIONS}
    fmt = getattr(args, "format", None)
    if fmt == "json":
        return json.dumps({**doc, "meta": meta}, indent=2, ensure_ascii=False) + "\n"
    prefix = "//" if fmt == "dot" else "#"
    footer = [f"{prefix} tool: flowallometry {__version__}",
              f"{prefix} command: {args.command}",
              *(f"{prefix} parameter {k}: {v}" for k, v in params.items()),
              *(f"{prefix} convention {k}: {v}" for k, v in CONVENTIONS.items())]
    return "\n".join([*lines, *footer]) + "\n"


def _csv(header: list[str], rows, comments=()) -> list[str]:
    """CSV lines: ``header``, one line per row (None as an empty field),
    then the ``comments``."""
    return [",".join(header),
            *(",".join("" if v is None else str(v) for v in row) for row in rows),
            *comments]


# ---------------------------------------------------------------------------
# input marshalling
# ---------------------------------------------------------------------------

def _read_trades(paths: list[str]) -> TradeTable:
    return TradeTable.concat([parse_trades(Path(path)) for path in paths])


def _read_gdp(path: str) -> dict[str, float]:
    return {a.country: a.value for a in parse_attributes(Path(path), kind="gdp")}


def _parse_years(text: str | None) -> list[int] | None:
    if text is None:
        return None
    years: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = map(int, part.split("-", 1))
            if lo > hi:
                raise ValueError(f"empty year range {part!r}: {lo} is after {hi}")
        else:
            lo = hi = int(part)
        if len(years) + hi - lo + 1 > MAX_YEARS:
            raise ValueError(f"year list exceeds {MAX_YEARS} years at {part!r}")
        years.extend(range(lo, hi + 1))
    return list(dict.fromkeys(years))     # each year once, first occurrence first


def _result_json(result: pipeline.ProductResult) -> dict:
    return {
        "product": result.product,
        "year": result.year,
        "n": result.n_countries,
        "eta": result.eta,
        "stderr": result.stderr,
        "r2": result.r2,
        "classification": result.classification,
        "gini": result.gini,
        "dominance": result.dominance,
        "topk": [{"country": c, "impact": v} for c, v in result.topk],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> str:
    net = build_network(_read_trades(args.input), args.product, args.year,
                        args.digits, min_flow=args.min_flow)
    analysis = flowcalc.analyze(net)
    doc = _result_json(pipeline.summarize_network(net, analysis))
    doc["nodes"] = [{
        "country": code,
        "throughflow": float(analysis.throughflow[i]),
        "source": float(analysis.source[i]),
        "impact": float(analysis.impact[i]),
        "log10_throughflow": math.log10(analysis.throughflow[i]),
        "log10_impact": math.log10(analysis.impact[i]),
    } for i, code in enumerate(net.nodes)]
    # CSV: one row per node, the scalar summary repeated on each
    summary = [k for k in doc if k not in ("topk", "nodes")]
    rows = [[*(doc[k] for k in summary), *node.values()] for node in doc["nodes"]]
    return _render(args, {"product": args.product, "year": args.year,
                          "digits": args.digits},
                   doc, _csv([*summary, *doc["nodes"][0]], rows))


def cmd_batch(args) -> str:
    outcome = pipeline.batch(_read_trades(args.input), args.year, args.digits,
                             min_countries=args.min_countries,
                             min_flow=args.min_flow)
    ordered = sorted(outcome.results, key=lambda r: (-r.eta, r.product))
    if outcome.integrated is not None:
        ordered.append(outcome.integrated)
    doc = {"year": args.year, "digits": args.digits,
           "results": [_result_json(r) for r in ordered],
           "skipped": [{"product": s.product, "reason": s.reason}
                       for s in outcome.skipped]}
    rows = [[r.product, r.eta, r.stderr, r.r2, r.gini, r.dominance,
             r.n_countries] for r in ordered]
    return _render(args, {"year": args.year, "digits": args.digits,
                          "min_countries": args.min_countries},
                   doc, _csv(["code", "eta", "stderr", "r2", "gini", "dominance", "n"], rows,
                             [f"# skipped {s.product}: {s.reason}" for s in outcome.skipped]))


def cmd_timeseries(args) -> str:
    trades = _read_trades(args.input)
    all_years = _parse_years(args.years)
    if all_years is None:
        all_years = np.unique(trades.year).tolist()
    series = pipeline.timeseries(trades, args.digits, years=all_years,
                                 min_countries=args.min_countries,
                                 min_flow=args.min_flow)
    doc = {"digits": args.digits, "years": all_years,
           "series": [{"product": code,
                       "points": [{"year": yr, "eta": by_year[yr]}
                                  for yr in all_years]}
                      for code, by_year in series.items()]}
    rows = [[code, yr, by_year[yr]]
            for code, by_year in series.items() for yr in all_years]
    return _render(args, {"digits": args.digits,
                          "years": ",".join(map(str, all_years)),
                          "min_countries": args.min_countries},
                   doc, _csv(["product", "year", "eta"], rows))


def cmd_prody(args) -> str:
    table = metrics.complexity_table(_read_trades(args.input), args.year,
                                     args.digits, gdp=_read_gdp(args.gdp))
    values = metrics.prody_all(table)
    doc = {"year": args.year, "digits": args.digits,
           "products": [{"product": p, "prody": v} for p, v in values.items()]}
    return _render(args, {"year": args.year, "digits": args.digits},
                   doc, _csv(["product", "prody"], values.items()))


def cmd_correlate(args) -> str:
    if (args.complexity_column is None) == (args.gdp is None):
        raise ValueError("give exactly one of --complexity-column or --gdp")
    trades = _read_trades(args.input)
    outcome = pipeline.batch(trades, args.year, args.digits,
                             min_countries=args.min_countries,
                             min_flow=args.min_flow)
    if args.complexity_column is not None:
        column = parse_product_column(Path(args.complexity_column))
        column_name = "file"
    else:
        # The rows batch drew on, whose dropped rows it has reported.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlowDataWarning)
            table = metrics.complexity_table(trades, args.year, args.digits,
                                             gdp=_read_gdp(args.gdp))
        column = metrics.prody_all(table)
        column_name = "prody"
    exclusions = parse_exclusions(Path(args.exclude)) if args.exclude else set()
    r, pairs = pipeline.correlate_complexity(outcome.results, column,
                                             exclusions=exclusions)
    doc = {"r": r, "n_pairs": len(pairs), "excluded": sorted(exclusions),
           "pairs": [{"product": p, "eta": e, "value": v} for p, e, v in pairs]}
    return _render(args, {"year": args.year, "digits": args.digits,
                          "min_countries": args.min_countries,
                          "column": column_name,
                          "excluded": ",".join(sorted(exclusions))},
                   doc, _csv(["product", "eta", "value"], pairs,
                             [f"# pearson_r: {r!r}", f"# n_pairs: {len(pairs)}"]))


def cmd_backbone(args) -> str:
    net = build_network(_read_trades(args.input), args.product, args.year,
                        args.digits, min_flow=args.min_flow)
    bone = extract(net, args.alpha)
    # Exporter when exports exceed imports; size is the trading volume.
    nodes = [{"id": code, "role": "exporter" if out > into else "importer",
              "size": max(out, into)}
             for code, out, into in zip(net.nodes, net.outflow.tolist(),
                                        net.inflow.tolist())]
    position = {code: i for i, code in enumerate(net.nodes)}
    links = [{"source": s, "target": t,
              "weight": float(net.flux[position[s], position[t]])}
             for s, t in sorted(bone.kept)]
    doc = {"directed": True, "alpha": args.alpha, "nodes": nodes, "links": links}
    lines = []
    if args.format == "dot":
        max_size = max(node["size"] for node in nodes)
        max_weight = max(link["weight"] for link in links)
        lines = ["digraph backbone {",
                 '  node [shape=circle, style=filled, fixedsize=true];']
        for node in nodes:
            color = "lightskyblue" if node["role"] == "exporter" else "darkorange"
            width = 0.3 + 1.2 * math.sqrt(node["size"] / max_size)
            lines.append(f'  "{node["id"]}" [width={width!r}, fillcolor="{color}", '
                         f'tooltip="{node["role"]}, volume {node["size"]!r}"];')
        for link in links:
            penwidth = 0.5 + 4.5 * link["weight"] / max_weight
            lines.append(f'  "{link["source"]}" -> "{link["target"]}" '
                         f'[penwidth={penwidth!r}];')
        lines.append("}")
    return _render(args, {"product": args.product, "year": args.year,
                          "digits": args.digits, "alpha": args.alpha}, doc, lines)


def cmd_synth(args) -> str:
    weight = args.weight
    if ":" in weight:
        lo, hi = weight.split(":", 1)
        weight = (float(lo), float(hi))
    else:
        weight = float(weight)
    spec = SynthSpec(args.kind, args.n, weight, args.density,
                     args.back_density, args.seed)
    text = write_trades(to_table(generate(spec), product=args.product, year=args.year))
    return _render(args, {"kind": args.kind, "n": args.n,
                          "weight": args.weight, "density": args.density,
                          "back_density": args.back_density, "seed": args.seed,
                          "product": args.product, "year": args.year},
                   {}, [text.removesuffix("\n")])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, *, product=False, year=True, min_flow=True,
                formats=("json", "csv")):
    sub.add_argument("--input", action="append", required=True,
                     help="canonical trades CSV (repeatable)")
    if year:
        sub.add_argument("--year", type=int, required=True)
    if product:
        sub.add_argument("--product", default=ALL,
                         help="product code at the digit level, or ALL")
    sub.add_argument("--digits", type=int, default=1,
                     help="product-code digit level, 1..4 (default 1)")
    if min_flow:
        sub.add_argument("--min-flow", type=float, default=0.0,
                         help="drop aggregated edges below this value (default off)")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowallometry",
        description="Hierarchicality analysis of trade flow networks")
    parser.add_argument("--version", action="version",
                        version=f"flowallometry {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="single-network analysis and fit")
    _add_common(p, product=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("batch", help="per-product table plus integrated network")
    _add_common(p)
    p.add_argument("--min-countries", type=int, default=10)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("timeseries", help="exponents per product over years")
    _add_common(p, year=False)
    p.add_argument("--years", help="e.g. 1999,2000 or 1962-2000 (default: all)")
    p.add_argument("--min-countries", type=int, default=10)
    p.set_defaults(func=cmd_timeseries)

    p = sub.add_parser("prody", help="GDP-weighted product sophistication")
    _add_common(p, min_flow=False)
    p.add_argument("--gdp", required=True,
                   help="per-country GDP per capita CSV (country,value)")
    p.set_defaults(func=cmd_prody)

    p = sub.add_parser("correlate", help="exponent vs complexity column")
    _add_common(p)
    p.add_argument("--min-countries", type=int, default=10)
    p.add_argument("--gdp", help="compute sophistication from this GDP file")
    p.add_argument("--complexity-column",
                   help="per-product value CSV (product,value)")
    p.add_argument("--exclude", help="file of product codes to exclude")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("backbone", help="sparse backbone export")
    _add_common(p, product=True, formats=("dot", "json"))
    p.add_argument("--alpha", type=float, default=0.05,
                   help="significance level in (0, 1] (default 0.05)")
    p.set_defaults(func=cmd_backbone)

    p = sub.add_parser("synth", help="generate a synthetic fixture CSV")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", default="1.0", help="W or LO:HI range")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--back-density", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--product", default="1")
    p.add_argument("--year", type=int, default=2000)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text = args.func(args)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    except SingularNetwork as exc:
        print(f"flowallometry: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (FlowAnalysisError, OSError, ValueError) as exc:
        print(f"flowallometry: error: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    return 0


def entrypoint():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
