"""Walk through the flow calculus on a tiny three-country network.

The network is {1 -> 2: $2, 1 -> 3: $1, 2 -> 3: $1}: country 1 originates
all flow, country 2 passes half of what it receives along, country 3 only
absorbs.  Every quantity is small enough to check by hand.
"""

import flowallometry as fa

net = fa.FlowNetwork.from_edges(
    {("AAA", "BBB"): 2.0, ("AAA", "CCC"): 1.0, ("BBB", "CCC"): 1.0},
    product="71", year=2000)
print("network:", net)
print("flux matrix (rows export, columns import):")
print(net.flux)

# Throughflow is each country's trading volume: the larger of what it
# imports and what it exports.
result = fa.analyze(net)
print("\nthroughflow T:", result.throughflow)   # (3, 2, 2)
print("source S:     ", result.source)          # (3, 0, 0) - only AAA originates
print("coefficients M (share of T passed to each partner):")
print(result.coefficients)
print("fundamental U = (I - M)^-1 (direct plus indirect path weights):")
print(result.fundamental)

# Impact: total throughflow the system loses when a country is removed.
# The closed form reads it off U; the brute-force route actually deletes
# the node and sums the throughflow that stops.  They agree.
print("\nimpact C (closed form):", result.impact)
for i, code in enumerate(net.nodes):
    oracle = fa.impact_by_extraction(net, i)
    print(f"  extraction of {code}: total loss {oracle:g}")

# AAA's impact (7) is its own volume (3) plus everything downstream that
# its flow feeds: extraction of the sole source empties the network.

# The scaling exponent is the slope of log impact against log throughflow.
fit = fa.fit(result.throughflow, result.impact)
print(f"\nallometric fit: eta={fit.eta:.4f} +- {fit.stderr:.4f}, "
      f"R^2={fit.r2:.4f}, n={fit.n} -> {fit.classification}")

# Inequality of the impact distribution.
report = fa.inequality_report(net.nodes, result.impact)
print(f"gini of impacts: {report.gini:.4f}")
print(f"dominance share of the largest node: {report.dominance:.4f}")
print("ranking:", report.topk)

# The flow balance T = M^T T + S holds to machine precision.
residual = fa.throughflow_residual(result)
print(f"\nflow-balance residual: {residual:.2e}")
