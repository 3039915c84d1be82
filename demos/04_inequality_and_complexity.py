"""Inequality and complexity measures on worked vectors and a toy table.

The dominance examples use three impact vectors sharing the same trading
volumes (1..5) but different scaling exponents: the steeper the exponent,
the larger the share of total impact the top node commands.
"""

import numpy as np

import flowallometry as fa

volumes = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
for eta in (1.0, 0.5, 2.0):
    impact = volumes ** eta
    share = fa.dominance_share(impact)
    print(f"eta={eta:>3}: impacts={np.round(impact, 2).tolist()}  "
          f"largest node holds {share:.0%}")

print("\ngini of the same vectors:")
for eta in (1.0, 0.5, 2.0):
    print(f"  eta={eta:>3}: gini={fa.gini(volumes ** eta):.3f}")
print(f"  perfectly equal (4,4,4,4): gini={fa.gini([4, 4, 4, 4]):.3f}")
print(f"  single holder (0,0,0,0,10): gini={fa.gini([0, 0, 0, 0, 10]):.3f} "
      f"(the 1 - 1/n maximum)")

# Comparative advantage and sophistication on a two-country toy table.
# C1 splits its exports evenly over both products; C2 only sells P2.
table = fa.ComplexityTable(
    countries=("C1", "C2"),
    products=("P1", "P2"),
    exports=np.array([[5.0, 5.0], [0.0, 10.0]]),
    gdp_percap=np.array([9000.0, 36000.0]),
)
columns = {p: fa.rca_column(table, p) for p in table.products}
for i, c in enumerate(table.countries):
    for p, column in columns.items():
        print(f"rca({c}, {p}) = {column[i]:.4f}")
print("columns sum to one:",
      [round(float(column.sum()), 12) for column in columns.values()])

# Sophistication weights each exporter's GDP per capita by its advantage,
# so P2 lands between the two GDPs, two-thirds of the way toward C2's.
for p, value in fa.prody_all(table).items():
    print(f"prody({p}) = {value:,.0f}")

# Correlating exponents against a complexity column (here: fabricated).
etas = {"05": 1.01, "27": 1.03, "65": 1.09, "71": 1.12, "84": 1.08}
sophistication = {"05": 4000.0, "27": 9000.0, "65": 14000.0,
                  "71": 26000.0, "84": 18000.0}
rows = [fa.ProductResult(p, 2000, e, 0.02, 0.95, "hierarchical",
                         0.5, 0.3, 30, ()) for p, e in etas.items()]
r, pairs = fa.correlate_complexity(rows, sophistication)
print(f"\npearson r of eta vs sophistication: {r:.3f} over {len(pairs)} products")
r_excl, pairs_excl = fa.correlate_complexity(rows, sophistication,
                                             exclusions={"84"})
print(f"excluding product 84 (user-supplied list): r={r_excl:.3f} "
      f"over {len(pairs_excl)}")
