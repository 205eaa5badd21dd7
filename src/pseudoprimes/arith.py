"""Integer arithmetic kernel: primality, factorization and the multiplicative
functions (phi, lambda, tau, multiplicative order, coprime part, Jacobi symbol)
that the counting and density modules are built on.

Everything here is exact.  The supported integer domain is n < 2**63; Python
integers make all intermediate products exact, so no modular operation can
overflow.  All functions are pure and all returned objects immutable, so values
can be shared freely across threads.
"""

from __future__ import annotations

import operator
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
    base, exponent = as_index(base, "base", 0), as_index(exponent, "exponent", 0)
    return pow(base, exponent, as_index(modulus, "modulus", 1, 63))


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**63."""
    n = as_index(n, "n", 0, 63)
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

    factors is sorted by prime and every listed prime is certified prime:
    on construction, or by factor, which proves each prime it finds.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            e = as_index(e, "exponents", 1)
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != as_index(self.value, "value"):
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


def as_index(n, name: str = "n", lo: int | None = None, bits: int | None = None) -> int:
    """n as a Python int through operator.index, so an int or a numpy
    integer passes and a float, Fraction or string is a ValueError, as are
    n < lo and n >= 2**bits.  Every size the public API takes is checked
    here."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if lo is not None and n < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if bits is not None and n >= 1 << bits:
        raise ValueError(f"{name} out of the supported {bits}-bit domain (< 2**{bits})")
    return n


def factor(n: int) -> Factorization:
    """Factor 2 <= n < 2**63 by trial division then Pollard rho.

    Every prime it lists is proved here, so the Factorization is built
    without re-proving them."""
    n = as_index(n, "n", 2, 63)
    value = n
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            # n has no prime factor below p and n < p**2: it is 1 or prime
            if n > 1:
                found[n] = 1
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    else:
        stack = [n] if n > 1 else []
        while stack:
            m = stack.pop()
            if is_prime(m):
                found[m] = found.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    f = object.__new__(Factorization)
    object.__setattr__(f, "value", value)
    object.__setattr__(f, "factors", tuple(sorted(found.items())))
    return f


def as_factorization(n: int | Factorization) -> Factorization:
    """Coerce an int to its Factorization (n = 1 gets the empty product)."""
    if isinstance(n, Factorization):
        return n
    n = as_index(n)
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

    Starts from lambda(n) and strips prime factors.  The factorization
    passed in may be of any multiple of the order, so callers doing bulk
    work over one modulus can factor one such multiple once; one pow checks
    that its value v has a**v == 1 mod n.
    """
    a, n = as_index(a, "a"), as_index(n, "n", 1)
    if gcd(a, n) != 1:
        raise ValueError("a and n must be coprime")
    if n == 1:
        return 1
    a %= n
    f = lambda_factorization
    if f is None:
        f = as_factorization(carmichael_lambda(factor(n)))
    elif not isinstance(f, Factorization) or pow(a, f.value, n) != 1:
        raise ValueError("lambda_factorization must factor a multiple of the order")
    d = f.value
    for p, e in f.factors:
        for _ in range(e):
            if pow(a, d // p, n) == 1:
                d //= p
            else:
                break
    return d


def coprime_part(n: int, a: int) -> int:
    """Largest divisor of n coprime to a (n >= 1, a >= 1)."""
    n, a = as_index(n, "n", 1), as_index(a, "a", 1)
    while True:
        g = gcd(n, a)
        if g == 1:
            return n
        n //= g


def jacobi(a: int, k: int) -> int:
    """Jacobi symbol (a/k) for odd k >= 1; negative a is reduced mod k first."""
    a, k = as_index(a, "a"), as_index(k, "k")
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

