"""The public surface of ``flowallometry``, pinned so that each removal or
addition is deliberate."""

import ast
from pathlib import Path

import flowallometry as fa

PUBLIC = [
    "ALL", "AllZero", "AllometryFit", "Backbone", "BadSpec", "BatchResult",
    "ComplexityTable", "CountryAttribute", "DegenerateFit", "EmptySelection",
    "FlowAnalysis", "FlowAnalysisError", "FlowDataWarning", "FlowNetwork",
    "Histogram", "InequalityReport", "NegativeFlow", "NoMarket", "NotATree",
    "ParseError", "ProductResult", "SingularNetwork", "SkippedProduct",
    "SynthSpec", "TooFewPoints", "TradeTable", "ZeroVariance", "analyze",
    "batch", "build_network", "chain", "classify", "complexity_table",
    "correlate_complexity", "country_id", "dominance_share",
    "enumerate_products", "extract", "fit", "generate", "gini", "histogram",
    "impact_by_extraction", "inequality_report", "parse_attributes",
    "parse_exclusions", "parse_product_column", "parse_trades", "pearson",
    "product_code", "prody_all", "random_flow", "random_tree", "rca_column",
    "star", "summarize_network", "throughflow_residual", "timeseries",
    "tree_allometry", "write_trades",
]

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(set(PUBLIC))
    assert fa.__all__ == PUBLIC


def test_flow_network_surface_is_pinned():
    assert fa.FlowNetwork.__slots__ == ("nodes", "flux", "outflow", "inflow", "product", "year")


def test_every_public_name_resolves():
    assert [name for name in fa.__all__ if not hasattr(fa, name)] == []


def test_every_name_the_benchmark_calls_resolves():
    """Every ``fa.<name>`` in the benchmark sessions resolves, as public."""
    names = {node.attr for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "fa"}
    assert {"parse_trades", "parse_attributes", "batch", "analyze"} <= names
    assert sorted(names - set(fa.__all__)) == []
