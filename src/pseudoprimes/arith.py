"""Integer arithmetic kernel: primality, factorization and the multiplicative
functions (phi, lambda, tau, multiplicative order, coprime part, Jacobi symbol)
that the counting and density modules are built on.

Everything here is exact.  The supported integer domain is n < 2**63; Python
integers make all intermediate products exact, so no modular operation can
overflow.  All functions are pure and all returned objects immutable, so values
can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

INT_DOMAIN = 1 << 63

# Deterministic Miller-Rabin witness set, valid for every n < 3.3e24 and in
# particular for the full 63-bit domain.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251,
)


def powmod(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus with exact intermediates."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus >= INT_DOMAIN:
        raise ValueError("modulus out of the supported 63-bit domain")
    if base < 0 or exponent < 0:
        raise ValueError("base and exponent must be nonnegative")
    return pow(base, exponent, modulus)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**63."""
    if n < 0 or n >= INT_DOMAIN:
        raise ValueError("n out of the supported 63-bit domain")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 257 * 257:  # no prime factor below 257, the prime after 251
        return True
    # n is odd and has no factor <= 251; run the fixed witness set.
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition: value = prod(p**e for p, e in factors).

    factors is sorted by prime and every listed prime is certified prime on
    construction.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError("factors do not multiply back to value")

def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        q = 1
        count = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            q = q * abs(x - y) % n
            count += 1
            if q == 0:
                d = gcd(abs(x - y), n)
                break
            if count % 64 == 0:
                d = gcd(q, n)
        if 1 < d < n:
            return d
        c += 1  # rare cycle failure: restart with a new polynomial


def factor(n: int) -> Factorization:
    """Factor 2 <= n < 2**63 by trial division then Pollard rho."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n >= INT_DOMAIN:
        raise ValueError("n out of the supported 63-bit domain")
    value = n
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(value, tuple(sorted(found.items())))


def as_factorization(n: int | Factorization) -> Factorization:
    """Coerce an int to its Factorization (n = 1 gets the empty product)."""
    if isinstance(n, Factorization):
        return n
    if n == 1:
        return Factorization(1, ())
    return factor(n)


def divisors(f: int | Factorization) -> list[int]:
    """All divisors of f.value, sorted ascending."""
    f = as_factorization(f)
    out = [1]
    for p, e in f.factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(f: int | Factorization) -> int:
    f = as_factorization(f)
    result = 1
    for p, e in f.factors:
        result *= p ** (e - 1) * (p - 1)
    return result


def tau(f: int | Factorization) -> int:
    f = as_factorization(f)
    result = 1
    for _, e in f.factors:
        result *= e + 1
    return result


def _lambda_prime_power(p: int, e: int) -> int:
    if p == 2:
        if e == 1:
            return 1
        if e == 2:
            return 2
        return 1 << (e - 2)
    return p ** (e - 1) * (p - 1)


def carmichael_lambda(f: int | Factorization) -> int:
    """Universal exponent of the unit group mod f.value."""
    f = as_factorization(f)
    result = 1
    for p, e in f.factors:
        comp = _lambda_prime_power(p, e)
        result = result // gcd(result, comp) * comp
    return result


def multiplicative_order(
    a: int, n: int, lambda_factorization: Factorization | None = None
) -> int:
    """Least d >= 1 with a**d == 1 mod n; requires gcd(a, n) == 1.

    Starts from lambda(n) and strips prime factors.  Callers doing bulk work
    over one modulus can pass factor(carmichael_lambda(n)) to avoid
    refactoring it per call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if gcd(a, n) != 1:
        raise ValueError("a and n must be coprime")
    if n == 1:
        return 1
    a %= n
    if lambda_factorization is None:
        lambda_factorization = as_factorization(carmichael_lambda(factor(n)))
    d = lambda_factorization.value
    for p, e in lambda_factorization.factors:
        for _ in range(e):
            if pow(a, d // p, n) == 1:
                d //= p
            else:
                break
    return d


def coprime_part(n: int, a: int) -> int:
    """Largest divisor of n coprime to a (n >= 1, a >= 1)."""
    if n < 1 or a < 1:
        raise ValueError("n and a must be >= 1")
    while True:
        g = gcd(n, a)
        if g == 1:
            return n
        n //= g


def jacobi(a: int, k: int) -> int:
    """Jacobi symbol (a/k) for odd k >= 1; negative a is reduced mod k first."""
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be a positive odd integer")
    a %= k
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if k % 8 in (3, 5):
                result = -result
        a, k = k, a
        if a % 4 == 3 and k % 4 == 3:
            result = -result
        a %= k
    return result if k == 1 else 0

