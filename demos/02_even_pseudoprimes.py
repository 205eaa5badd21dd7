#!/usr/bin/env python3
"""Enumerate the even base-2 pseudoprimes below 10^7.

Every even pseudoprime n is 2 mod 4, and the Jacobi condition kills the
classes 6 and 10 mod 16, so candidates are n = 2 or 14 (mod 16).  Each of
those classes is presieved: every odd prime p | n has ord_p(2) | n-1, so
n = p (mod p*ord_p(2)).  When ord_p(2) is even (p = 3, 5, 11, 13, ...) no
even n lies in that class, and every even multiple of p is dropped; the old
rule gcd(n, 2145) = 1 is the first four of these primes.  The demo runs the
enumerator once and compares it with a scan of every even n.
"""

import time

import pseudoprimes as pp

LIMIT = 10**7

results = []
for label, enumerate_ in (("presieved classes", pp.enumerate_even_psp),
                          ("every even n", pp.even_psp_brute)):
    start = time.perf_counter()
    results.append(enumerate_(LIMIT))
    elapsed = time.perf_counter() - start
    print(f"{label:>17}: {len(results[-1])} found in {elapsed:5.2f}s -> {results[-1]}")

values, brute = results
assert values == brute
print("\nclass shape of each (mod 16):", sorted({n % 16 for n in values}))
print("factorizations:")
for n in values:
    parts = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in pp.factor(n).factors)
    print(f"  {n} = {parts}")
