#!/usr/bin/env python3
"""Order statistics of finite abelian p-groups and the inequalities that make
the density series converge.

N(G) sums N(d, G)/d over element orders d.  For a p-group of order p^n and
exponent p^lam, each ratio N(p^j, G)/p^j is at most p^(n-lam), which gives
N(G) <= tau(lambda(G)) #G / lambda(G); N is multiplicative over p-components.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pseudoprimes as pp

examples = [
    [pp.AbelianPGroup(2, (1, 2))],                          # C2 x C4
    [pp.AbelianPGroup(2, (1, 1, 1))],                       # elementary abelian
    [pp.AbelianPGroup(3, (2, 2))],                          # C9 x C9
    [pp.AbelianPGroup(2, (1, 2)), pp.AbelianPGroup(3, (1,))],  # order 24
    [pp.AbelianPGroup(5, (1, 1, 3))],
]

for comps in examples:
    label = " x ".join(
        " x ".join(f"C{g.p**l}" for l in g.lambdas) for g in comps
    )
    report = pp.check_group_bounds(comps)
    print(f"{label}:")
    for p, j, count, ratio, cap in report.rows:
        print(f"   order {p}^{j}: {count} elements, ratio {ratio} <= {cap}")
    print(f"   N = {report.n_value} <= bound {report.eq_bound} "
          f"(margin {report.margin}), ok={report.all_ok}\n")

# brute-force cross-check on one group: (x, y) in C3 x C9 has order
# lcm(ord x, ord y), with ord x = 3 / gcd(x, 3) and ord y = 9 / gcd(y, 9)
g = pp.AbelianPGroup(3, (1, 2))
orders = Counter(lcm(3 // gcd(x, 3), 9 // gcd(y, 9)) for x in range(3) for y in range(9))
census = dict(sorted(orders.items()))
print(f"C3 x C9 brute census: {census}")
print("formula:", {3**j: pp.group_order_count(j, g) for j in range(3)})
assert pp.group_N(g) == sum(Fraction(n, d) for d, n in census.items())
print("N matches the element-by-element sum:", pp.group_N(g))
