"""Independent checks of the program's outputs.

Every reference here is computed from the generator's own arrays with numpy
and scipy, never through ``flowallometry``: cells are summed with
``math.fsum``, the fundamental matrix comes from scipy's inverse, impacts
are cross-checked by brute-force extraction, fits by ``scipy.stats``,
GINI by its pairwise definition, and the backbone by a direct reading of
its documented rule.  Each ``check_*`` function returns a list of problems;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy import linalg, stats

ALL = "ALL"
RTOL = 1e-9            # derived quantities: one dense solve apart
PRODY_RTOL = 1e-12     # PRODY is a convex combination; no solve involved
SKIP_TYPES = ("TooFewPoints", "EmptySelection")


def close(a, b, rtol=RTOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= rtol * np.maximum(1.0, np.abs(np.asarray(b)))))


@dataclass
class Flow:
    """Reference flow calculus of one flux matrix."""

    names: list[str]
    flux: np.ndarray
    thru: np.ndarray
    source: np.ndarray
    coeff: np.ndarray
    fund: np.ndarray
    impact: np.ndarray


def flow_reference(names, flux: np.ndarray) -> Flow:
    inflow = flux.sum(axis=0)
    thru = np.maximum(inflow, flux.sum(axis=1))
    source = thru - inflow
    coeff = flux / thru[:, None]
    fund = linalg.inv(np.eye(len(thru)) - coeff)
    impact = (source @ fund) * fund.sum(axis=1) / np.diagonal(fund)
    return Flow(list(names), flux, thru, source, coeff, fund, impact)


def balance_residual(thru, source, coeff) -> float:
    """Relative residual of T = M^T T + S."""
    return float(np.abs(thru - coeff.T @ thru - source).max() / thru.max())


def extraction_impact(flow: Flow, i: int) -> float:
    """Throughflow lost when node ``i`` is extracted, by re-solving the balance."""
    coeff = flow.coeff.copy()
    coeff[:, i] = 0.0
    source = flow.source.copy()
    source[i] = 0.0
    reduced = linalg.solve(np.eye(len(source)) - coeff.T, source)
    return math.fsum(flow.thru - reduced)


def gini_pairwise(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * len(x) ** 2 * x.mean()))


def fit_reference(thru, impact):
    """(eta, stderr, r2) of log10 impact on log10 throughflow."""
    keep = (thru > 0) & (impact > 0)
    res = stats.linregress(np.log10(thru[keep]), np.log10(impact[keep]))
    return res.slope, res.stderr, res.rvalue ** 2


def classification(eta, stderr) -> set[str]:
    """Admissible classes by the +-2 stderr rule; both sides at the boundary."""
    margin = abs(eta - 1.0) - 2.0 * stderr
    side = "hierarchical" if eta > 1.0 else "flat"
    if abs(margin) <= RTOL:
        return {"neutral", side}
    return {"neutral"} if margin <= 0 else {side}


def check_fit(tag, eta, stderr, r2, cls, flow: Flow) -> list[str]:
    ref_eta, ref_stderr, ref_r2 = fit_reference(flow.thru, flow.impact)
    problems = []
    if not close(eta, ref_eta):
        problems.append(f"{tag}: eta {eta!r} != reference {ref_eta!r}")
    if not close(stderr, ref_stderr):
        problems.append(f"{tag}: stderr {stderr!r} != reference {ref_stderr!r}")
    if not close(r2, ref_r2):
        problems.append(f"{tag}: r2 {r2!r} != reference {ref_r2!r}")
    if cls not in classification(ref_eta, ref_stderr):
        problems.append(f"{tag}: classification {cls!r} breaks the 2-stderr rule")
    return problems


def check_inequality(tag, gini, dominance, topk, flow: Flow) -> list[str]:
    problems = []
    if not close(gini, gini_pairwise(flow.impact)):
        problems.append(f"{tag}: gini {gini!r} != pairwise {gini_pairwise(flow.impact)!r}")
    if not close(dominance, flow.impact.max() / math.fsum(flow.impact)):
        problems.append(f"{tag}: dominance {dominance!r} is not max/sum of impacts")
    impact = dict(zip(flow.names, flow.impact.tolist()))
    values = [v for _, v in topk]
    if len(topk) != min(10, len(impact)) or values != sorted(values, reverse=True):
        problems.append(f"{tag}: top-k list has wrong length or order")
    for country, value in topk:
        if country not in impact or not close(value, impact[country]):
            problems.append(f"{tag}: top-k impact of {country} is {value!r}, "
                            f"reference {impact.get(country)!r}")
    listed = {c for c, _ in topk}
    if values and any(v > values[-1] * (1 + RTOL) for c, v in impact.items()
                      if c not in listed):
        problems.append(f"{tag}: a node outside the top-k outranks its last entry")
    return problems


def check_row(row, flow: Flow, product, year) -> list[str]:
    """A pipeline ProductResult against the reference flow of its network."""
    tag = f"{year}/{product}"
    problems = []
    if (row.product, row.year) != (product, year):
        problems.append(f"{tag}: row is labelled {row.product}/{row.year}")
    if row.n_countries != len(flow.names):
        problems.append(f"{tag}: n_countries {row.n_countries} != {len(flow.names)}")
    problems += check_fit(tag, row.eta, row.stderr, row.r2, row.classification, flow)
    problems += check_inequality(tag, row.gini, row.dominance, row.topk, flow)
    return problems


def check_flow(tag, flow: Flow) -> list[str]:
    residual = balance_residual(flow.thru, flow.source, flow.coeff)
    return [] if residual <= RTOL else [f"{tag}: flow balance residual {residual:.3e}"]


def check_extraction(tag, flow: Flow, impact, nodes) -> list[str]:
    """Brute-force extraction of ``nodes`` against the impacts given."""
    problems = []
    for i in nodes:
        brute = extraction_impact(flow, i)
        if not close(impact[i], brute):
            problems.append(f"{tag}: impact of {flow.names[i]} is {impact[i]!r}, "
                            f"extraction gives {brute!r}")
    return problems


# ---------------------------------------------------------------------------
# trade workloads
# ---------------------------------------------------------------------------

def aggregate(truth, year, digits) -> tuple[dict, set[str]]:
    """Cells ``{code: {(exporter, importer): total}}`` of one year, plus every
    code at ``digits`` (self-loop-only codes included).  ``ALL`` holds the
    integrated network, which also takes codes shorter than ``digits``."""
    sel = truth["year"] == year
    groups: dict[str, dict] = defaultdict(lambda: defaultdict(list))
    codes = set()
    for e, i, p, v in zip(truth["exporter"][sel].tolist(), truth["importer"][sel].tolist(),
                          truth["product"][sel].tolist(), truth["value"][sel].tolist()):
        if len(p) >= digits:
            codes.add(p[:digits])
        if e == i:
            continue
        groups[ALL][(e, i)].append(v)
        if len(p) >= digits:
            groups[p[:digits]][(e, i)].append(v)
    cells = {code: {pair: math.fsum(vs) for pair, vs in pairs.items()}
             for code, pairs in groups.items()}
    return cells, codes


def network_reference(cells, roster) -> Flow:
    """Reference flow of aggregated cells; roster order is lexicographic."""
    nodes = sorted({c for pair in cells for c in pair})
    index = {c: k for k, c in enumerate(nodes)}
    flux = np.zeros((len(nodes), len(nodes)))
    for (e, i), value in cells.items():
        flux[index[e], index[i]] = value
    return flow_reference([roster[c] for c in nodes], flux)


def _node_count(cells) -> int:
    return len({c for pair in cells for c in pair})


def check_batch(outcome, truth, year, digits, min_countries, rng,
                brute_networks=20) -> list[str]:
    """Every product once, each result and skip justified, impacts by extraction."""
    roster = truth["countries"].tolist()
    cells, codes = aggregate(truth, year, digits)
    problems = []
    seen = [r.product for r in outcome.results] + [s.product for s in outcome.skipped]
    if sorted(seen) != sorted(codes):
        missing = sorted(codes - set(seen))[:5]
        extra = sorted(set(seen) - codes)[:5]
        problems.append(f"{year}: products not covered exactly once "
                        f"(missing {missing}, extra {extra}, {len(seen)} vs {len(codes)})")
    for skip in outcome.skipped:
        kind = skip.reason.split(":", 1)[0]
        n = _node_count(cells.get(skip.product, {}))
        if kind not in SKIP_TYPES:
            problems.append(f"{year}/{skip.product}: unexpected skip {skip.reason!r}")
        elif (kind == "EmptySelection") != (n == 0) or n >= min_countries:
            problems.append(f"{year}/{skip.product}: skip {skip.reason!r} "
                            f"but the reference has {n} countries")
    if outcome.integrated is None:
        problems.append(f"{year}: integrated network missing")
    rows = [(r, r.product) for r in outcome.results]
    rows += [(outcome.integrated, ALL)] if outcome.integrated is not None else []
    flows = {}
    for row, code in rows:
        flow = flows[code] = network_reference(cells.get(code, {}), roster)
        if len(flow.names) < min_countries:
            problems.append(f"{year}/{code}: analysed with {len(flow.names)} countries")
        problems += check_flow(f"{year}/{code}", flow)
        problems += check_row(row, flow, code, year)
    sample = rng.choice(sorted(flows), size=min(brute_networks, len(flows)), replace=False)
    for code in sample.tolist():
        flow = flows[code]
        nodes = rng.choice(len(flow.names), size=min(2, len(flow.names)), replace=False)
        problems += check_extraction(f"{year}/{code}", flow, flow.impact, nodes.tolist())
    return problems


def export_reference(truth, year, digits):
    """Exporter x product totals by exactly-rounded summation."""
    sel = truth["year"] == year
    cells = defaultdict(list)
    for e, i, p, v in zip(truth["exporter"][sel].tolist(), truth["importer"][sel].tolist(),
                          truth["product"][sel].tolist(), truth["value"][sel].tolist()):
        if e != i and len(p) >= digits:
            cells[(e, p[:digits])].append(v)
    roster = truth["countries"].tolist()
    countries = sorted({c for c, _ in cells})
    products = sorted({p for _, p in cells})
    ci = {c: k for k, c in enumerate(countries)}
    pi = {p: k for k, p in enumerate(products)}
    exports = np.zeros((len(countries), len(products)))
    for (c, p), values in cells.items():
        exports[ci[c], pi[p]] = math.fsum(values)
    gdp = truth["gdp"][countries]
    return tuple(roster[c] for c in countries), tuple(products), exports, gdp


def check_complexity(table, prody, truth, year, digits) -> list[str]:
    countries, products, exports, gdp = export_reference(truth, year, digits)
    problems = []
    if table.countries != countries or table.products != products:
        return [f"{year}: complexity table rows or columns differ from the reference"]
    if not close(table.exports, exports, PRODY_RTOL):
        problems.append(f"{year}: complexity table exports differ from fsum totals")
    shares = exports / exports.sum(axis=1, keepdims=True)
    advantage = shares / shares.sum(axis=0)
    reference = gdp @ advantage
    if sorted(prody) != list(products):
        problems.append(f"{year}: PRODY covers {len(prody)} of {len(products)} products")
    for k, code in enumerate(products):
        if code not in prody:
            continue
        value = prody[code]
        exporters = gdp[exports[:, k] > 0]
        if not close(value, reference[k], PRODY_RTOL):
            problems.append(f"{year}/{code}: PRODY {value!r} != reference {reference[k]!r}")
        if not (exporters.min() * (1 - PRODY_RTOL) <= value <= exporters.max() * (1 + PRODY_RTOL)):
            problems.append(f"{year}/{code}: PRODY {value!r} outside exporters' GDP range")
    return problems


def check_correlation(r, pairs, results, prody) -> list[str]:
    joined = [(row.product, row.eta, prody[row.product])
              for row in sorted(results, key=lambda row: row.product)
              if row.product in prody]
    problems = []
    if [tuple(p) for p in pairs] != joined:
        problems.append("correlation pairs differ from the join of results and PRODY")
    reference = np.corrcoef([p[1] for p in joined], [p[2] for p in joined])[0, 1]
    if not close(r, reference, PRODY_RTOL):
        problems.append(f"Pearson r {r!r} != np.corrcoef {reference!r}")
    return problems


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def backbone_reference(names, flux, alpha) -> frozenset[tuple[str, str]]:
    """Edges kept by the documented rule: per node and direction, the
    smallest set of heaviest edges carrying at least an ``alpha`` share,
    ties kept.  An edge's tie group belongs to that set exactly when the
    strictly heavier edges carry less than ``alpha``."""
    kept = np.zeros(flux.shape, dtype=bool)
    for by_row, weights in ((True, flux), (False, flux.T)):
        for node in range(len(names)):
            nz = np.flatnonzero(weights[node])
            if not nz.size:
                continue
            share = weights[node, nz] / math.fsum(weights[node, nz])
            ascending = np.sort(share)
            above = np.append(np.cumsum(ascending[::-1])[::-1], 0.0)
            heavier = above[np.searchsorted(ascending, share, side="right")]
            chosen = nz[heavier < alpha]
            if by_row:
                kept[node, chosen] = True
            else:
                kept[chosen, node] = True
    return frozenset((names[i], names[j]) for i, j in zip(*np.nonzero(kept)))


def check_backbones(names, flux, backbones: dict[float, frozenset]) -> list[str]:
    """Kept sets against the reference, nested in alpha, strongest edges kept."""
    problems = []
    alphas = sorted(backbones)
    for alpha in alphas:
        kept = backbones[alpha]
        reference = backbone_reference(names, flux, alpha)
        if kept != reference:
            problems.append(f"alpha {alpha}: {len(kept - reference)} extra and "
                            f"{len(reference - kept)} missing edges")
        for by_row, weights in ((True, flux), (False, flux.T)):
            for node in range(len(names)):
                top = weights[node].max()
                for other in np.flatnonzero((weights[node] == top) & (top > 0)).tolist():
                    edge = ((names[node], names[other]) if by_row
                            else (names[other], names[node]))
                    if edge not in kept:
                        problems.append(f"alpha {alpha}: strongest edge {edge} dropped")
    for low, high in zip(alphas, alphas[1:]):
        if not backbones[low] <= backbones[high]:
            problems.append(f"kept set at alpha {low} not inside alpha {high}")
    return problems


def check_analysis(tag, names, flux, analysis, fit, report, rng, brute_nodes=3) -> list[str]:
    """One ensemble network: the program's flow calculus against the reference."""
    flow = flow_reference(names, flux)
    problems = []
    for field, ref in (("throughflow", flow.thru), ("source", flow.source),
                       ("coefficients", flow.coeff)):
        if not close(getattr(analysis, field), ref, 1e-12):
            problems.append(f"{tag}: {field} differs from the reference")
    if not close(analysis.fundamental, flow.fund, RTOL * 100):
        problems.append(f"{tag}: fundamental matrix differs from scipy's inverse")
    residual = balance_residual(analysis.throughflow, analysis.source, analysis.coefficients)
    if residual > RTOL:
        problems.append(f"{tag}: flow balance residual {residual:.3e}")
    if not close(analysis.impact, flow.impact):
        problems.append(f"{tag}: impacts differ from the reference closed form")
    nodes = rng.choice(len(names), size=min(brute_nodes, len(names)), replace=False)
    problems += check_extraction(tag, flow, analysis.impact, nodes.tolist())
    problems += check_fit(tag, fit.eta, fit.stderr, fit.r2, fit.classification, flow)
    problems += check_inequality(tag, report.gini, report.dominance, report.topk, flow)
    return problems
