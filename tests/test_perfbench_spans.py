"""The benchmark's span tracer finds every name it wraps on the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import flowallometry as fa

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module,attr,layer", spans.TARGETS,
                         ids=[f"{m}.{a}" for m, a, _ in spans.TARGETS])
def test_trace_target_resolves(module, attr, layer):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_counts_table_rows_and_restores_names():
    text = ("year,exporter,importer,product,value\n"
            "2000,AAA,BBB,1,2\n2000,AAA,CCC,1,1\n2000,BBB,CCC,1,1\n")
    with spans.Tracer() as tracer:
        table = fa.parse_trades(text)
        fa.pipeline.build_network(table, fa.ALL, 2000, 1)
        tracer.end_phase("setup")
    assert tracer.total("ingest.parse_trades", "rows_out") == len(table) == 3
    assert tracer.total("netcore.build_network", "records_in") == 3
    assert fa.parse_trades is fa.ingest.parse_trades
    assert fa.pipeline.build_network is fa.netcore.build_network


def test_batch_traces_one_analysis_and_one_network_per_analysed_network():
    # The benchmark's per-layer counts read these two names; a fast path
    # around either would leave them reading zero.
    table = fa.parse_trades(Path(__file__).parent / "data" / "corpus_four_products.csv")
    with spans.Tracer() as tracer:
        outcome = fa.batch(table, 2000, 1, min_countries=3)
        tracer.end_phase("round")
    assert not outcome.skipped and outcome.integrated is not None
    analysed = len(outcome.results) + 1
    assert analysed == 5
    assert tracer.total("flowcalc.analyze", "calls") == analysed
    assert tracer.total("netcore.FlowNetwork", "calls") == analysed
