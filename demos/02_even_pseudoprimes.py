#!/usr/bin/env python3
"""Enumerate the even base-2 pseudoprimes below 10^7.

Every even pseudoprime is n = 2m with m odd and composite, and every prime
power q^e of m has odd ord_{q^e}(2), since it divides n-1.  The enumerator
builds such m from their factors: a pre-product k of prime powers of odd
order, prime to the lcm L_k of those orders, times a larger prime P with
P = (2k)^-1 (mod L_k) and 2^(2k-1) = 1 (mod P); or, when the largest
prime of m divides it twice, m itself with L_m | 2m-1.  Every n built so
is a pseudoprime, and no n is Fermat-tested.  The demo runs the enumerator
once and checks each value it finds by the definition.
"""

import time

import pseudoprimes as pp

LIMIT = 10**7

start = time.perf_counter()
values = pp.enumerate_even_psp(LIMIT)
elapsed = time.perf_counter() - start
print(f"even base-2 pseudoprimes <= {LIMIT}: {len(values)} found in {elapsed:.2f}s -> {values}")

assert all(pow(2, n, n) == 2 and not pp.is_prime(n) for n in values)
print("each is composite with 2^n = 2 (mod n)")
print("\nclass shape of each (mod 16):", sorted({n % 16 for n in values}))
print("factorizations:")
for n in values:
    parts = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in pp.factor(n).factors)
    print(f"  {n} = {parts}")
