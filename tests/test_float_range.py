"""The overflow rule of the public numeric API: across the float range, every
call returns finite numbers or raises ValueError or a FlowAnalysisError, and
never lets a RuntimeWarning through."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import flowallometry as fa

NODES = ("AAA", "BBB", "CCC", "DDD", "EEE")
FLUX = np.array([[0.0, 5.0, 1.0, 0.0, 2.5],
                 [0.0, 0.0, 3.0, 7.0, 0.0],
                 [0.5, 0.0, 0.0, 1.0, 4.0],
                 [0.0, 0.0, 0.0, 0.0, 1.0],
                 [0.0, 0.75, 0.0, 0.0, 0.0]])
# Every node total is finite, but impacts and the extraction oracle's
# reduction are not.
OVERFLOWING = fa.FlowNetwork.from_edges([("AAA", "BBB", 5e307), ("AAA", "CCC", 5e307),
                                         ("BBB", "CCC", 3.3e307), ("CCC", "DDD", 3.3e307)])
VECTOR = np.array([0.0, 1.0, 2.5, 3.0, 7.0, 100.0])
OTHER = np.array([4.0, 2.0, 3.0, 1.0, 9.0, 50.0])
EXPORTS = np.array([[1.0, 0.0], [2.0, 5.0], [0.0, 3.0], [4.0, 4.0], [0.5, 0.0]])
GDP = np.array([1.0, 3.0, 2.0, 8.0, 0.5])
SCALES = [2.0 ** k for k in range(-1074, 1024)]


def _scaled(x, scale):
    """``x * scale``, an overflow giving inf, which every call must reject."""
    with np.errstate(over="ignore"):
        return x * scale


def _finite_numbers(result):
    """Every float in ``result``, walked through arrays, containers and
    dataclass fields."""
    if isinstance(result, np.ndarray):
        yield from result.ravel().tolist()
    elif dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _finite_numbers(getattr(result, field.name))
    elif isinstance(result, dict):
        yield from _finite_numbers(list(result.values()))
    elif isinstance(result, (tuple, list, frozenset)):
        for item in result:
            yield from _finite_numbers(item)
    elif isinstance(result, float):
        yield result


def _holds(call, *args):
    """Run ``call``; unless it raised ValueError or a FlowAnalysisError, its
    result must hold only finite floats.  Any other error, a RuntimeWarning
    made one included, propagates."""
    try:
        result = call(*args)
    except (ValueError, fa.FlowAnalysisError):
        return None
    assert all(math.isfinite(x) for x in _finite_numbers(result)), (call.__name__, result)
    return result


def _network_calls(net):
    analysis = _holds(fa.analyze, net)
    for i in range(net.n):
        _holds(fa.impact_by_extraction, net, i)
    _holds(fa.extract, net, 0.2)
    if analysis is not None:
        _holds(fa.throughflow_residual, analysis)
        _holds(fa.fit, analysis.throughflow, analysis.impact)


@pytest.mark.parametrize("flux", [FLUX, OVERFLOWING.flux], ids=["five-node", "overflowing"])
def test_networks_across_the_float_range_give_finite_numbers_or_raise(flux):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in SCALES:
            net = _holds(fa.FlowNetwork, NODES[:len(flux)], _scaled(flux, scale), fa.ALL, 2000)
            if net is not None:
                _network_calls(net)


def test_vectors_across_the_float_range_give_finite_numbers_or_raise():
    names = [f"C{i}" for i in range(len(VECTOR))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in SCALES:
            v = _scaled(VECTOR, scale)
            _holds(fa.gini, v)
            _holds(fa.inequality_report, names, v)
            _holds(fa.dominance_share, v)
            _holds(fa.pearson, v, _scaled(OTHER, scale))
            _holds(fa.fit, v, _scaled(OTHER, scale))
            table = _holds(fa.ComplexityTable, NODES, ("A", "B"), _scaled(EXPORTS, scale),
                           _scaled(GDP, scale))
            if table is not None:
                _holds(fa.rca_column, table, "B")
                _holds(fa.prody_all, table)
