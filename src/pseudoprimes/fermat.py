"""Fermat pseudoprime predicates and the base-counting functions.

A pseudoprime to base a is a composite n with a**n == a (mod n); neither
gcd(a, n) = 1 nor odd n is assumed anywhere.  F(n) and F_star(n) count the
residues a mod n with a**(n-1) == 1 respectively a**n == a; D(n) counts the
proper divisors of n that work as bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import (
    Factorization,
    as_factorization,
    coprime_part,
    divisors,
    is_prime,
    multiplicative_order,
    powmod,
)


@dataclass(frozen=True)
class PspVerdict:
    """Outcome of one Fermat test: n is a pseudoprime iff the congruence
    holds and n is composite."""

    n: int
    base: int
    passes_congruence: bool
    is_composite: bool

    @property
    def is_pseudoprime(self) -> bool:
        return self.passes_congruence and self.is_composite


def is_fermat_psp(n: int, a: int) -> PspVerdict:
    """Test a**n == a (mod n) and compositeness of n (n >= 2, a >= 2)."""
    if n < 2 or a < 2:
        raise ValueError("need n >= 2 and a >= 2")
    passes = powmod(a, n, n) == a % n
    return PspVerdict(n, a, passes, not is_prime(n))


def psp_criterion(n: int, a: int) -> bool:
    """Structural form of the Fermat congruence: with n_a the largest divisor
    of n coprime to a, requires ord_a mod n_a to divide n-1 and n/n_a to
    divide a.  Equivalent to a**n == a (mod n)."""
    if n < 2 or a < 2:
        raise ValueError("need n >= 2 and a >= 2")
    n_a = coprime_part(n, a)
    if a % (n // n_a) != 0:
        return False
    return (n - 1) % multiplicative_order(a, n_a) == 0


def F(n: int | Factorization) -> int:
    """#{a mod n : a**(n-1) == 1 (mod n)} = prod over p | n of gcd(p-1, n-1)."""
    f = as_factorization(n)
    result = 1
    for p, _ in f.factors:
        result *= gcd(p - 1, f.value - 1)
    return result


def F_star(n: int | Factorization) -> int:
    """#{a mod n : a**n == a (mod n)} = prod over p | n of (1 + gcd(p-1, n-1))."""
    f = as_factorization(n)
    result = 1
    for p, _ in f.factors:
        result *= 1 + gcd(p - 1, f.value - 1)
    return result


def D(n: int | Factorization) -> int:
    """Number of divisors a of n with 1 < a < n and a**n == a (mod n).

    n belongs to the set of interest exactly when D(n) > 0.  Each divisor is
    tested by the congruence directly; divisor lists are short, and the direct
    test is the oracle the structural machinery is checked against.
    """
    f = as_factorization(n)
    value = f.value
    count = 0
    for a in divisors(f)[1:-1]:
        if pow(a, value, value) == a:
            count += 1
    return count


def is_carmichael(n: int | Factorization) -> bool:
    """Korselt test: composite, squarefree, and p-1 | n-1 for every p | n."""
    f = as_factorization(n)
    value = f.value
    if value < 2 or is_prime(value):
        return False
    for p, e in f.factors:
        if e > 1 or (value - 1) % (p - 1) != 0:
            return False
    return True
