#!/usr/bin/env python3
"""The sets T_b = {ab : a >= 2, a^(ab) == a (mod ab)} and their exact densities.

Each T_b is a finite union of residue classes (one per unit mod b whose order
is coprime to b) minus the single point b.  The demo prints the class systems
for small b, exact densities, the union density by CRT inclusion-exclusion,
partial sums of the density series, and member counts below powers of ten.
"""

import pseudoprimes as pp

print("class systems:")
for b in range(2, 11):
    system = pp.sb_class_system(b)
    classes = ", ".join(f"{c.r} (mod {c.m})" for c in system.classes)
    print(f"  T_{b:<2} density {str(pp.sb_density(b)):>6}: {classes}")

print("\nunion density of T_2 .. T_k:")
for k in (2, 3, 5, 10):
    u = pp.union_density(k)
    print(f"  k={k:>2}: {u} = {pp.format_fraction(u.numerator, u.denominator)}")

print("\npartial sums of the density series:")
for b_max in (10, 100, 1000, 10**4):
    value = pp.c1_partial(b_max)
    print(f"  b <= {b_max:>5}: {pp.format_fraction(value.numerator, value.denominator)}")

print("\ntail of the series, bounded term by term (lower-bounded sum):")
bound = pp.tail_bound(10**4, 10**6)
print(f"  sum over 1e4 < b <= 1e6 of the bound: {float(bound):.8f}")

print("\nmembers (n with at least one divisor base) below powers of ten:")
for exp in range(1, 7):
    members, pairs = pp.count_S(10**exp)
    print(f"  10^{exp}: {members:>7} members, {pairs:>7} divisor-base pairs")

print("\nimprimitive b up to 30 (T_b contained in an earlier T_b0):")
rows = [(b, pp.is_imprimitive(b)) for b in range(2, 31)]
print(" ", {b: b0 for b, b0 in rows if b0 is not None})
