"""Run the batch pipeline over a synthetic multi-product corpus.

Builds a trade table for a handful of product codes with different network
shapes, then produces the per-product exponent table (plus the integrated
all-products network), the exponent histogram, and a two-year time series.
"""

import numpy as np

import flowallometry as fa
from flowallometry.synth import to_table

rng = np.random.default_rng(7)
tables = []
for year in (1999, 2000):
    for code, density, n in (("05", 0.25, 25), ("11", 0.45, 22),
                             ("27", 0.35, 30), ("65", 0.55, 28),
                             ("71", 0.65, 26), ("84", 0.40, 24)):
        net = fa.random_flow(n, density=density, weight=(1.0, 5e4),
                             back_density=0.1, seed=int(rng.integers(0, 2**31)))
        tables.append(to_table(net, product=code, year=year))
# one deliberately tiny product to show the skip list
tables.append(to_table(fa.star(3, 10.0), product="99", year=2000))
# one table over the union of the parts' country and product rosters
trades = fa.TradeTable.concat(tables)
print(f"corpus: {len(trades)} rows, {len(trades.countries)} countries, "
      f"{len(fa.enumerate_products(trades, 2))} two-digit products")

outcome = fa.batch(trades, 2000, 2, min_countries=10)
print("\nper-product table (eta descending):")
print("  code   eta     stderr  R^2    GINI   dominance  n")
for row in sorted(outcome.results, key=lambda r: -r.eta):
    print(f"  {row.product:<5} {row.eta:6.3f}  {row.stderr:.3f}  "
          f"{row.r2:.3f}  {row.gini:.3f}  {row.dominance:.3f}      {row.n_countries}")
integrated = outcome.integrated
print(f"  ALL   {integrated.eta:6.3f}  {integrated.stderr:.3f}  "
      f"{integrated.r2:.3f}  {integrated.gini:.3f}  "
      f"{integrated.dominance:.3f}      {integrated.n_countries}")
for skip in outcome.skipped:
    print(f"  skipped {skip.product}: {skip.reason}")

# Exponent distribution on bins at multiples of 0.1, split into primary
# products (codes starting 0-4) and manufactured ones (5-9).
etas = np.array([row.eta for row in outcome.results])
primary = np.array([row.product[0] in "01234" for row in outcome.results])
edges = np.arange(np.floor(etas.min() * 10), np.floor(etas.max() * 10) + 2) / 10
prim, _ = np.histogram(etas[primary], edges)
manu, _ = np.histogram(etas[~primary], edges)
print("\nexponent distribution (bin width 0.1):")
for lo, hi, p, m in zip(edges, edges[1:], prim, manu):
    print(f"  [{lo:5.2f}, {hi:5.2f})  total={p + m}  "
          f"primary={p}  manufactured={m}")

# Exponents over time; a product missing in some year would show None.
series = fa.timeseries(trades, 2, min_countries=10)
print("\nexponent by year:")
for code, points in series.items():
    cells = "  ".join(f"{yr}: " + (f"{eta:.3f}" if eta is not None else "gap")
                      for yr, eta in points.items())
    print(f"  {code}: {cells}")
