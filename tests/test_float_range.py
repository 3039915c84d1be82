"""The overflow rule of the public numeric API: across the float range, every
call returns finite numbers or raises ValueError or a FlowAnalysisError, and
never lets a RuntimeWarning through.  The scale-free metrics keep their bits
under every exact power-of-two scaling."""

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
#: A cyclic network large enough for U to come from block elimination.
BLOCKED = fa.random_flow(80, density=0.3, back_density=0.1, seed=5)
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


def test_block_eliminated_network_across_the_float_range_gives_finite_numbers_or_raise():
    # Every 16th power of two and the largest, to keep the sweep short.
    analysed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in SCALES[::16] + SCALES[-1:]:
            net = _holds(fa.FlowNetwork, BLOCKED.nodes, _scaled(BLOCKED.flux, scale),
                         fa.ALL, 2000)
            analysis = None if net is None else _holds(fa.analyze, net)
            if analysis is not None:
                analysed += 1
                _holds(fa.fit, analysis.throughflow, analysis.impact)
    assert analysed > 0


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


def _exactly_scaled(x, k):
    """``x`` times ``2**k`` if that product is exact, else None."""
    with np.errstate(over="ignore"):
        scaled = np.ldexp(x, k)
    return scaled if np.array_equal(np.ldexp(scaled, -k), x) else None


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def test_exact_power_of_two_scaling_changes_no_bit_of_a_metric():
    # The metrics are scale-free, so scaling the input by a power of two
    # keeps every bit wherever the scaled input is exact.
    names = [f"C{i}" for i in range(len(VECTOR))]
    report = fa.inequality_report(names, VECTOR)
    table = fa.ComplexityTable(NODES, ("A", "B"), EXPORTS, GDP)
    rca, prody = fa.rca_column(table, "B"), fa.prody_all(table)
    r = fa.pearson(VECTOR, OTHER)
    exact = 0
    for k in range(-1074, 1024):
        v, o, exports = (_exactly_scaled(x, k) for x in (VECTOR, OTHER, EXPORTS))
        if v is not None:
            exact += 1
            assert _bits(fa.gini(v)) == _bits(fa.gini(VECTOR)), k
            scaled = fa.inequality_report(names, v)
            assert _bits(scaled.gini, scaled.dominance) == _bits(report.gini,
                                                                 report.dominance), k
            assert scaled.topk == tuple((name, math.ldexp(value, k))
                                        for name, value in report.topk), k
            assert _bits(fa.dominance_share(v)) == _bits(report.dominance), k
            assert _bits(fa.pearson(v, OTHER)) == _bits(r), k
            # each input at its own scale
            o_inverse = _exactly_scaled(OTHER, -k)
            if o_inverse is not None:
                assert _bits(fa.pearson(v, o_inverse)) == _bits(r), k
        if o is not None:
            assert _bits(fa.pearson(VECTOR, o)) == _bits(r), k
        if exports is not None:
            scaled_table = fa.ComplexityTable(NODES, ("A", "B"), exports, GDP)
            assert _bits(*fa.rca_column(scaled_table, "B")) == _bits(*rca), k
            assert fa.prody_all(scaled_table).keys() == prody.keys()
            assert _bits(*fa.prody_all(scaled_table).values()) == _bits(*prody.values()), k
    assert exact > 2000
