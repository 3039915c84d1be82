"""Hierarchicality analysis of weighted directed flow networks.

Build a flux network per product and year from a table of bilateral trade,
derive throughflow, sources, and extraction impacts, fit the allometric
scaling exponent of impact against throughflow, and summarize inequality
(GINI, dominance) and product complexity (comparative advantage, GDP-
weighted sophistication) across products.
"""

from .allometry import AllometryFit, classify, fit, tree_allometry
from .backbone import Backbone, extract
from .errors import (AllZero, BadSpec, DegenerateFit, EmptySelection,
                     FlowAnalysisError, FlowDataWarning, NegativeFlow,
                     NoMarket, NotATree, ParseError, SingularNetwork,
                     TooFewPoints, ZeroVariance)
from .flowcalc import (FlowAnalysis, analyze, impact_by_extraction,
                       throughflow_residual)
from .ingest import (CountryAttribute, parse_attributes, parse_exclusions,
                     parse_product_column, parse_trades, write_trades)
from .metrics import (ComplexityTable, InequalityReport, complexity_table,
                      dominance_share, gini, inequality_report, pearson,
                      prody_all, rca_column)
from .netcore import (ALL, FlowNetwork, TradeTable, build_network, country_id,
                      enumerate_products, product_code)
from .pipeline import (BatchResult, ProductResult, SkippedProduct, batch,
                       correlate_complexity, summarize_network, timeseries)
from .synth import SynthSpec, chain, generate, random_flow, random_tree, star

__version__ = "0.1.0"

__all__ = [
    "ALL", "AllZero", "AllometryFit", "Backbone", "BadSpec", "BatchResult",
    "ComplexityTable", "CountryAttribute", "DegenerateFit", "EmptySelection",
    "FlowAnalysis", "FlowAnalysisError", "FlowDataWarning", "FlowNetwork",
    "InequalityReport", "NegativeFlow", "NoMarket", "NotATree", "ParseError",
    "ProductResult", "SingularNetwork", "SkippedProduct", "SynthSpec",
    "TooFewPoints", "TradeTable", "ZeroVariance", "analyze", "batch",
    "build_network", "chain", "classify", "complexity_table",
    "correlate_complexity", "country_id", "dominance_share",
    "enumerate_products", "extract", "fit", "generate", "gini",
    "impact_by_extraction", "inequality_report", "parse_attributes",
    "parse_exclusions", "parse_product_column", "parse_trades", "pearson",
    "product_code", "prody_all", "random_flow", "random_tree", "rca_column",
    "star", "summarize_network", "throughflow_residual", "timeseries",
    "tree_allometry", "write_trades",
]
