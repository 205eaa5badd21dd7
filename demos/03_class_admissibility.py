#!/usr/bin/env python3
"""Walk the three admissibility conditions on some showcase classes.

For base a and class r mod m, set g = gcd(r, m), g_a = the largest divisor of
g coprime to a, and h = gcd(ord(a mod g_a), m).  A class holding a base-a
pseudoprime must have h | r-1 and g/g_a | a, and for even g must contain a k
whose odd-ish part k_{2a} has Jacobi symbol (a/k_{2a}) = +1.
"""

import pseudoprimes as pp

CASES = [
    (2, 0, 2, "even pseudoprimes exist (161038 is the first)"),
    (2, 0, 4, "refuted: g/g_a = 4 does not divide 2"),
    (2, 15, 20, "refuted: h = 4 does not divide 14"),
    (2, 6, 16, "refuted by the Jacobi condition (odd parts pinned to 3 mod 8)"),
    (3, 10, 24, "refuted by the Jacobi condition (k_6 = 5 mod 12, so (3/k_6) = -1)"),
    (2, 2, 18, "admissible, yet its first pseudoprime lies beyond 10^8"),
    (3, 0, 9, "base 3: g/g_a = 9 does not divide 3"),
]

for a, r, m, story in CASES:
    rep = pp.class_conditions(a, r, m)
    print(f"base {a}, class {r} (mod {m}): {story}")
    print(
        f"   g={rep.g} g_a={rep.g_a} h={rep.h} "
        f"h|r-1: {rep.cond_h_divides}  g/g_a|a: {rep.cond_u_divides}  "
        f"jacobi: {rep.cond_jacobi.value}  -> admissible: {rep.admissible}\n"
    )

print("empty classes for moduli up to 12, scanning to 10^6:")
for e in pp.scan_empty_classes(2, 12, 10**6):
    tag = "refuted" if e.predicted_by_lemma else "admissible (not yet populated)"
    print(f"   class {e.residue:>2} (mod {e.modulus:>2}): {tag}")
