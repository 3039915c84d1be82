"""Extract the visual backbone of a dense network and export it.

The filter is local: each node keeps the smallest set of its heaviest edges
that carry at least an alpha share of its flow, separately for the outgoing
and incoming directions, and an edge survives if either endpoint keeps it.
Backbones are display-only; exponents, GINI, and impacts always use the
full network.
"""

import numpy as np

import flowallometry as fa

net = fa.random_flow(18, density=0.6, weight=(1.0, 1e3), back_density=0.2,
                     seed=12)
total_edges = int(np.count_nonzero(net.flux))
print(f"dense network: {net.n} nodes, {total_edges} edges")

for alpha in (0.01, 0.05, 0.2, 1.0):
    bone = fa.extract(net, alpha)
    print(f"  alpha={alpha:<5} kept {len(bone.kept):3d} edges "
          f"({len(bone.kept) / total_edges:.0%})")

# Kept sets are nested as alpha grows, and every node keeps its strongest
# edge, so no node ever disappears from the picture.
small = fa.extract(net, 0.02).kept
large = fa.extract(net, 0.3).kept
print("nested:", small <= large)
touched = {c for edge in fa.extract(net, 0.02).kept for c in edge}
print("every node retained:", touched == set(net.nodes))

# A backbone export colours and sizes its nodes from the network's totals,
# the same at every alpha: a node is an exporter when its exports exceed
# its imports, and its size is its trading volume, the larger of the two.
exporters = int(np.count_nonzero(net.outflow > net.inflow))
print(f"\nroles: {exporters} net exporters, "
      f"{net.n - exporters} net importers")
sizes = np.maximum(net.outflow, net.inflow).tolist()
top = sorted(zip(net.nodes, sizes), key=lambda kv: -kv[1])[:3]
print("largest trading volumes:", [(c, round(v)) for c, v in top])

print("\nDOT export (head):")
print("  flowallometry backbone --input trades.csv --year 2000 \\")
print("      --product 71 --digits 2 --alpha 0.05 --format dot")
print("edges render with width proportional to flow; node size is trading")
print("volume and color separates exporters from importers.")
