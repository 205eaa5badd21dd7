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
_RUN = 1 << 20  # entries per _spf_runs chunk; bounds its temporaries


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    comp = composite_flags(limit + 1, primes_upto(isqrt(limit)))
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


def composite_flags(hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean array over [0, hi): True exactly for composite n (n >= 2).
    It is the sieve behind primes_upto.

    base_primes must hold every prime p with p*p < hi, ascending."""
    comp = np.zeros(hi, dtype=bool)
    for p in base_primes.tolist():
        if p * p >= hi:
            break
        comp[p * p :: p] = True
    return comp


def _spf_runs(spf: np.ndarray):
    """Walk n over [2, spf.size) in ascending chunks [s, e) with e <= 2s and
    at most _RUN entries; yield (slice(s, e), p, m, pe, rest) with p = spf[n],
    m = n // p, pe = p**v_p(n) and rest = n // pe.

    pe[n] is pe[m] * p when spf[m] == p and p otherwise.  m and rest are at
    most n/2 < s, and the primes of rest all exceed p >= 2, so pe <= n/3 < s
    unless n == pe: every value a chunk reads from an earlier index is final.
    """
    pe_all = np.zeros(spf.size, dtype=np.int64)
    s = 2
    while s < spf.size:
        e = min(2 * s, s + _RUN, spf.size)
        n = np.arange(s, e, dtype=np.int64)
        p = spf[s:e]
        m = n // p
        pe = np.where(spf[m] == p, pe_all[m] * p, p)
        pe_all[s:e] = pe
        yield slice(s, e), p, m, pe, n // pe
        s = e


def phi_lambda_arrays(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi, lam) with phi[n] = Euler phi and lam[n] = universal exponent of
    the unit group mod n, for 0 <= n <= hi (index 0 is set to 0).

    One pass of _spf_runs: phi(n) = phi(m) * p if p | m, else phi(m) * (p-1);
    lam(n) = lcm(lam(rest), lam(pe)), with lam(p) = p - 1 and lam(p**k) for
    k >= 2 from arith._lambda_prime_power."""
    phi = np.zeros(hi + 1, dtype=np.int64)
    lam = np.zeros(hi + 1, dtype=np.int64)
    phi[1:2] = lam[1:2] = 1
    for sl, p, m, pe, rest in _spf_runs(spf_window(hi + 1)):
        phi[sl] = phi[m] * np.where(pe > p, p, p - 1)
        lam[sl] = p - 1
        for i in np.flatnonzero((rest == 1) & (pe > p)).tolist():
            q, k, n = int(p[i]), 1, sl.start + i
            while q**k < n:
                k += 1
            lam[n] = _lambda_prime_power(q, k)
        lam[sl] = np.lcm(lam[rest], lam[pe])  # lam(n) itself when rest == 1
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

    One pass of _spf_runs over the range of spf: tau(n) = tau(m) + 1 when n
    is the prime power pe, else tau(rest) * tau(pe)."""
    if x.size and x.min() < 1:
        raise ValueError("tau_array needs every x >= 1")
    if x.size and x.max() >= spf.size:
        raise ValueError("spf must cover every x")
    tau = np.zeros(spf.size, dtype=np.int64)
    tau[1:2] = 1
    for sl, _, m, pe, rest in _spf_runs(spf):
        tau[sl] = tau[m] + 1
        tau[sl] = tau[rest] * tau[pe]  # tau(n) itself when rest == 1
    return tau[x]
