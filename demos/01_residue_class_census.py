#!/usr/bin/env python3
"""Count base-2 pseudoprimes below 10^6 in residue classes mod 8.

Classes 0 and 4 are refuted outright: a pseudoprime divisible by 4 would need
4 to divide the base 2.  The census confirms they stay empty while the odd
classes soak up nearly all pseudoprimes.
"""

import pseudoprimes as pp

LIMIT = 10**6

table = pp.count_psp_table(2, 8, [LIMIT])
print(f"base-2 pseudoprimes <= {LIMIT}: {table.total()} total\n")
print(f"{'class':>5} {'count':>6} {'fraction':>9}  admissible?")
for r in range(8):
    report = pp.class_conditions(2, r, 8)
    frac = pp.format_fraction(table.count(r), table.total())
    print(f"{r:>5} {table.count(r):>6} {frac:>9}  {report.admissible}")

print("\nSame table as CSV:\n")
print(pp.emit_table(table, "csv"))
