"""Vectorized bulk arithmetic: one composite sieve (which also lists the
primes), a smallest-prime-factor array, elementwise modular exponentiation,
and multiplicative-function arrays.

These back the residue-class counting and density modules.  Moduli in the
vector exponentiation path must stay below 2**32 so products of two reduced
residues fit a uint64; callers fall back to scalar arithmetic above that.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import _lambda_prime_power

VECTOR_MOD_LIMIT = 1 << 32


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    comp = composite_flags(0, limit + 1, primes_upto(isqrt(limit)))
    comp[:2] = True
    return np.flatnonzero(~comp).astype(np.int64)


def spf_window(hi: int) -> np.ndarray:
    """Smallest prime factor of each n in [0, hi); 0 for n < 2.

    Composites are marked by ascending primes p <= sqrt(hi-1), so the first
    mark a position receives is its least prime; survivors are primes and map
    to themselves.
    """
    spf = np.zeros(hi, dtype=np.int64)
    for p in primes_upto(isqrt(hi - 1)).tolist():
        sl = spf[p * p :: p]
        sl[sl == 0] = p
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked
    spf[:2] = 0
    return spf


def powmod_vector(base, exponent: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """Elementwise base**exponent % modulus for modulus < 2**32.

    base may be a scalar or an array; exponents may differ per element.
    """
    mod = np.asarray(modulus, dtype=np.uint64)
    if mod.size and int(mod.max()) >= VECTOR_MOD_LIMIT:
        raise ValueError("vector path needs every modulus < 2**32")
    e = np.asarray(exponent, dtype=np.uint64).copy()
    b = (np.asarray(base, dtype=np.uint64) % mod if np.ndim(base) else
         np.full(mod.shape, base, dtype=np.uint64) % mod)
    result = np.ones(mod.shape, dtype=np.uint64)
    while True:
        result = np.where(e & 1, result * b % mod, result)
        e >>= 1
        if not e.any():
            return result
        b = b * b % mod


def composite_flags(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean array over [lo, hi): True exactly for composite n (n >= 2).

    base_primes must hold every prime p with p*p < hi, ascending."""
    comp = np.zeros(hi - lo, dtype=bool)
    for p in base_primes.tolist():
        if p * p >= hi:
            break
        start = max(p * p, (lo + p - 1) // p * p)
        comp[start - lo :: p] = True
    return comp


def phi_lambda_arrays(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi, lam) with phi[n] = Euler phi and lam[n] = universal exponent of
    the unit group mod n, for 0 <= n <= hi (index 0 is set to 0).

    Small primes are applied by strided slices; after dividing out every prime
    p <= sqrt(hi), the residual cofactor of n is 1 or a single large prime,
    which is applied in one vectorized pass.
    """
    phi = np.arange(hi + 1, dtype=np.int64)
    lam = np.ones(hi + 1, dtype=np.int64)
    red = phi.copy()  # residual after removing small-prime parts
    red[:2] = 1
    for p in primes_upto(isqrt(hi)).tolist():
        phi[p::p] = phi[p::p] // p * (p - 1)
        pe = p
        e = 1
        while pe <= hi:
            # ascending e makes the deepest power win the lcm
            comp = _lambda_prime_power(p, e)
            if comp > 1:
                sl = lam[pe::pe]
                g = np.gcd(sl, comp)
                sl //= g
                sl *= comp
            red[pe::pe] //= p
            pe *= p
            e += 1
    big = np.flatnonzero(red > 1)  # residual prime q > sqrt(hi), exponent 1
    q = red[big]
    phi[big] = phi[big] // q * (q - 1)
    g = np.gcd(lam[big], q - 1)
    lam[big] = lam[big] // g * (q - 1)
    phi[0] = lam[0] = 0
    return phi, lam


def coprime_part_array(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest divisor of each x coprime to the matching b (every x, b >= 1).

    Each pass divides out g = gcd(x, b) and works only on the entries whose
    g was above 1.  The next g is gcd(x / g, g), which equals gcd(x / g, b):
    a prime p of b left in x / g divides g, and if v_p(x / g) > v_p(g) then
    v_p(x) > v_p(g), so v_p(g) = v_p(b)."""
    if x.size and (x.min() < 1 or b.min() < 1):
        raise ValueError("coprime_part_array needs every x >= 1 and b >= 1")
    out = x.copy()
    act = np.arange(out.size)
    g = np.gcd(out, b)
    while True:
        moving = g > 1
        act, g = act[moving], g[moving]
        if not act.size:
            return out
        out[act] //= g
        g = np.gcd(out[act], g)


def tau_array(x: np.ndarray, spf: np.ndarray) -> np.ndarray:
    """Divisor count of each x >= 1; spf must cover values up to x.max().

    Each pass strips the smallest prime of the entries still above 1; the
    exponent count of that prime works only on the entries it still divides."""
    if x.size and x.min() < 1:
        raise ValueError("tau_array needs every x >= 1")
    tau = np.ones(x.shape, dtype=np.int64)
    act = np.flatnonzero(x > 1)
    cur = x[act].astype(np.int64)
    while act.size:
        p = spf[cur]
        cur //= p
        e = np.ones(act.size, dtype=np.int64)
        again = np.flatnonzero(cur % p == 0)
        while again.size:
            e[again] += 1
            cur[again] //= p[again]
            again = again[cur[again] % p[again] == 0]
        tau[act] *= e + 1
        left = cur > 1
        act, cur = act[left], cur[left]
    return tau
