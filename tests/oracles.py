"""Reference computations the library is checked against, each straight
from a definition.  They use only `pow`, numpy and scalar `arith`; nothing
here imports `bulk`, `sieve` or `density`, so a fault in a library kernel
cannot pass on both sides of a test.  Every numpy power keeps its operands
below 2**32, so no product wraps in uint64."""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from pseudoprimes import arith


def base_counts(n: int) -> tuple[int, int]:
    """(F(n), F*(n)) counted over every base: the a in [0, n) with
    a**(n-1) == 1 (mod n), and those with a**n == a (mod n).  One left-to-
    right square-and-multiply over all bases at once; the exponent n-1 is
    one int, so its bits are read in Python."""
    assert 1 <= n < 2**32
    a, m = np.arange(n, dtype=np.uint64), np.uint64(n)
    power = np.full(n, 1 % n, dtype=np.uint64)
    for bit in bin(n - 1)[2:]:
        power = power * power % m
        if bit == "1":
            power = power * a % m
    fermat = int(np.count_nonzero(power == 1 % n))
    return fermat, int(np.count_nonzero(power * a % m == a))


def even_psp(limit: int) -> list[int]:
    """The even base-2 pseudoprimes <= limit: every even n in [4, limit]
    with 2**n == 2 (mod n), none of which is prime.  Each window of n runs
    one left-to-right square-and-multiply over the bits of every n, doubling
    the power where n has the bit set."""
    assert limit < 2**32
    found = []
    for lo in range(4, limit + 1, 1 << 22):
        n = np.arange(lo, min(lo + (1 << 22), limit + 1), 2, dtype=np.uint64)
        power = np.ones_like(n)
        for i in reversed(range(limit.bit_length())):
            power = power * power % n
            power = (power << (n >> np.uint64(i) & np.uint64(1))) % n
        found += n[power == 2].tolist()
    return found


def group_order_census(g) -> dict:
    """{d: number of elements of order d} of the abelian p-group g, element
    by element: the order of a tuple is the lcm of its coordinates' orders."""
    orders = np.ones(1, dtype=np.int64)
    for l in g.lambdas:
        m = g.p**l
        comp = m // np.gcd(np.arange(m, dtype=np.int64), m)
        orders = np.lcm.outer(orders, comp).ravel()
    values, counts = np.unique(orders, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def unit_order_census(b: int) -> dict:
    """{d: number of units mod b of multiplicative order d}, ascending in d,
    from the order of every unit."""
    lam = arith.as_factorization(arith.carmichael_lambda(b))
    orders = Counter(arith.multiplicative_order(a, b, lam) for a in range(1, b) if gcd(a, b) == 1)
    return dict(sorted(orders.items()))


def union_density(k: int) -> Fraction:
    """Density of T_2 u ... u T_k, counted by the definition over one full
    period.

    n = a*b with a >= 2 lies in T_b iff a**n == a (mod n), that is iff
    gcd(a, b) = 1 and a**(n-1) == 1 (mod b), and then the exponent may be
    taken mod phi(b).  So membership depends only on a mod b and n mod
    phi(b), and for n > b only on n mod lcm(b**2, phi(b)); P, the lcm of
    those moduli over b <= k, is a period of the union.  Its members in
    (P, 2P] are marked b by b, reading a**e mod b from a table of pow over
    the residues of a and the exponents e < phi(b)."""
    phis = {b: sum(gcd(u, b) == 1 for u in range(b)) for b in range(2, k + 1)}
    period = lcm(*(lcm(b * b, phi) for b, phi in phis.items()))
    member = np.zeros(period, dtype=bool)
    for b, phi in phis.items():
        table = np.array([[pow(x, e, b) == 1 for e in range(phi)] for x in range(b)])
        a = np.arange(period // b + 1, 2 * period // b + 1, dtype=np.int64)
        n = a * b
        hit = (np.gcd(a, b) == 1) & table[a % b, (n - 1) % phi]
        member[n[hit] - period - 1] = True
    return Fraction(int(np.count_nonzero(member)), period)


def unit_orders(q: int) -> list[int]:
    """For a prime power q, the multiplicative order of every x mod q (0 for
    the non-units): the least d >= 1 with pow(x, d, q) == 1.  That d divides
    phi(q), so it is phi(q) with each prime r of phi(q) divided out while
    pow(x, d // r, q) == 1 still holds."""
    p = next(r for r in range(2, q + 1) if q % r == 0)
    phi = q // p * (p - 1)
    primes, m = [], phi
    for r in range(2, phi + 1):
        if m % r == 0:
            primes.append(r)
            while m % r == 0:
                m //= r
    orders = [0] * q
    for x in range(1, q):
        if x % p:
            d = phi
            for r in primes:
                while d % r == 0 and pow(x, d // r, q) == 1:
                    d //= r
            orders[x] = d
    return orders
