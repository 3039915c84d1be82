"""Recipe for running the full study on a real bilateral trade dataset.

No dataset ships with this package.  Prepare two CSVs (see README for the
column mapping from common trade-data layouts):

    trades.csv:  year,exporter,importer,product,value
    gdp.csv:     country,value          (GDP per capita, US dollars)

then run this script:

    python demos/06_real_dataset_recipe.py trades.csv [gdp.csv]

It prints the 1-digit exponent/GINI table for the most recent year, checks
the flow balance on every product network, and, when GDP data is supplied,
correlates 2-digit exponents against sophistication.
"""

import sys
from pathlib import Path

import flowallometry as fa


def run(trades_path, gdp_path=None):
    # One table, columns of ids into sorted country and product rosters,
    # feeds every analysis below; each picks its year from it.
    trades = fa.parse_trades(Path(trades_path))
    year = int(trades.year.max())
    print(f"{len(trades)} rows over {len(trades.countries)} countries; "
          f"analyzing year {year}")

    outcome = fa.batch(trades, year, 1, min_countries=10)
    print("\ncode   eta      +-       R^2     GINI   dominance  n")
    for row in sorted(outcome.results, key=lambda r: -r.eta):
        print(f"{row.product:<5} {row.eta:.3f}  {row.stderr:.3f}  "
              f"{row.r2:.3f}  {row.gini:.3f}  {row.dominance:.3f}    "
              f"{row.n_countries}")
    if outcome.integrated:
        row = outcome.integrated
        print(f"ALL   {row.eta:.3f}  {row.stderr:.3f}  {row.r2:.3f}  "
              f"{row.gini:.3f}  {row.dominance:.3f}    {row.n_countries}")
    for skip in outcome.skipped:
        print(f"skipped {skip.product}: {skip.reason}")

    worst = 0.0
    for row in outcome.results:
        net = fa.build_network(trades, row.product, year, 1)
        worst = max(worst, fa.throughflow_residual(fa.analyze(net)))
    print(f"\nworst flow-balance residual across products: {worst:.2e}")

    if gdp_path:
        gdp = {a.country: a.value
               for a in fa.parse_attributes(Path(gdp_path), kind="gdp")}
        table = fa.complexity_table(trades, year, 2, gdp=gdp)
        column = fa.prody_all(table)
        two_digit = fa.batch(trades, year, 2, min_countries=10)
        r, pairs = fa.correlate_complexity(two_digit.results, column)
        print(f"2-digit exponent vs sophistication: r={r:.3f} "
              f"over {len(pairs)} products")
    else:
        print("no GDP file given; skipping the sophistication correlation")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(1)
    run(*sys.argv[1:3])
