"""Vectorized bulk arithmetic: one composite sieve (which also lists the
primes), a smallest-prime-factor array, elementwise modular exponentiation,
a capped power table, tables of the multiplicative order of every unit mod
each small prime power, and arrays of multiplicative functions and of the
order and exponent of G_n (the units mod n of order coprime to n).

These back the residue-class counting and density modules.  The
exponentiation is vectorized while every modulus is below 2**32, so products
of two reduced residues fit a uint64, and runs scalar `pow` otherwise.  The
arrays indexed by n all come from one smallest-prime recurrence, _spf_runs,
over a spf_window array the caller builds once and hands to every kernel
that reads it (unit_order_tables, phi0_lambda0_arrays, tau_array), so one
job sieves its range once.  They are int32: their values are at most their
index, which spf_window keeps below 2**31.  phi_lambda_arrays (with a
sieve of its own) and coprime_part_array (gcd passes) are the tests' oracle
for phi0_lambda0_arrays; the library calls neither.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import as_index

VECTOR_MOD_LIMIT = 1 << 32
POWER_CAP = 1 << 63  # capped_power's ceiling
_RUN = 1 << 20  # entries per _spf_runs chunk; bounds its temporaries


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64."""
    limit = as_index(limit, "limit")
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    comp = composite_flags(limit + 1, primes_upto(isqrt(limit)))
    comp[:2] = True
    return np.flatnonzero(~comp).astype(np.int64)


def spf_window(hi: int) -> np.ndarray:
    """Smallest prime factor of each n in [0, hi), as int32; 0 for n < 2.
    hi >= 2**31 is a ValueError, so every value read off the array, and
    every index of the arrays built from it, fits an int32.

    Composites are marked by ascending primes p <= sqrt(hi), so the first
    mark a position receives is its least prime; survivors are primes and map
    to themselves.
    """
    hi = as_index(hi, "hi", 0, 31)
    spf = np.zeros(hi, dtype=np.int32)
    for p in primes_upto(isqrt(hi)).tolist():
        sl = spf[p * p :: p]
        sl[sl == 0] = p
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked
    spf[:2] = 0
    return spf


def powmod_vector(base, exponent, modulus: np.ndarray) -> np.ndarray:
    """Elementwise base**exponent % modulus (every modulus >= 1) as uint64.

    base and exponent may each be a scalar or an array; a scalar is
    broadcast to the modulus's shape, so an empty modulus makes no pass.
    Vectorized while every modulus is below VECTOR_MOD_LIMIT, else scalar.
    """
    mod = np.asarray(modulus, dtype=np.uint64)
    if mod.size and int(mod.max()) >= VECTOR_MOD_LIMIT:
        args = np.broadcast_arrays(base, exponent, mod)
        return np.fromiter(map(pow, *(x.tolist() for x in args)), np.uint64, mod.size)
    e = np.broadcast_to(np.asarray(exponent, dtype=np.uint64), mod.shape).copy()
    b = (np.asarray(base, dtype=np.uint64) % mod if np.ndim(base) else
         np.full(mod.shape, base, dtype=np.uint64) % mod)
    result = (mod != 1).astype(np.uint64)  # 1 % mod
    while True:
        result = np.where(e & 1, result * b % mod, result)
        e >>= 1
        if not e.any():
            return result
        b = b * b % mod


def capped_power(a: int, g):
    """Elementwise min(a**g, 2**63) as uint64, for an int a >= 2 and
    exponents g >= 0 (an array or a scalar).

    One table of a**e for e < 64, each capped at 2**63, answers every g, as
    a**63 >= 2**63.  So capped_power(a, g) >= x is exactly a**g >= x for
    every x <= 2**63.  The callers' bounds: the scan's cofactor lemma asks
    a**g >= q for a prime cofactor q < 2**32; count_S asks s**g > t for
    t <= 5 * 10**7, and reads s**g mod t off the value where it is below
    2**63."""
    if a < 2:
        raise ValueError("capped_power needs a >= 2")
    powers = np.full(64, POWER_CAP, dtype=np.uint64)
    p, e = 1, 0
    while p < POWER_CAP:
        powers[e] = p
        p, e = p * a, e + 1
    return powers[np.minimum(g, 63)]


def _powers(g: int, count: int, q: int) -> np.ndarray:
    """g**i % q for 0 <= i < count (count >= 1, 2 <= q < 2**32) as uint64,
    by doubling: the first k powers times g**k fill [k, 2k)."""
    pw = np.ones(count, dtype=np.uint64)
    k = 1
    while k < count:
        m = min(k, count - k)
        pw[k : k + m] = pw[:m] * np.uint64(pow(g, k, q)) % np.uint64(q)
        k += m
    return pw


def _primitive_root(p: int, spf: np.ndarray) -> int:
    """A generator of (Z/p**e)^* for every e >= 1, p an odd prime and spf a
    smallest-prime array past p - 1: the least primitive root g mod p, or
    g + p when g**(p-1) == 1 (mod p**2), as then g + p is a primitive root
    mod p**2 and so mod every p**e."""
    primes, m = [], p - 1  # the primes of p - 1
    while m > 1:
        primes.append(r := int(spf[m]))
        while m % r == 0:
            m //= r
    g = 2
    while any(pow(g, (p - 1) // r, p) == 1 for r in primes):
        g += 1
    return g + p if pow(g, p - 1, p * p) == 1 else g


def unit_order_tables(spf: np.ndarray) -> dict[int, np.ndarray]:
    """{q: orders} for every prime power q < spf.size, spf a spf_window
    array: orders[x] is the multiplicative order of x mod q for every unit x
    and 0 for the rest, as uint32 of length q.

    Every order comes from a discrete log.  For odd p, (Z/q)^* is cyclic of
    order phi = phi(q), generated by g = _primitive_root(p), and ord(g**i) =
    phi / gcd(i, phi).  For q = 2**e the units are +-5**i with i < h =
    max(q // 4, 1), ord(5**i) = h / gcd(i, h) and ord(-5**i) =
    max(ord(5**i), 2) for q >= 4; mod 2, -1 is 1, whose entry is written last.
    """
    hi = spf.size
    tables = {}
    for p in (np.flatnonzero(spf[2:] == np.arange(2, hi)) + 2).tolist():
        g = 5 if p == 2 else _primitive_root(p, spf)
        q = p
        while q < hi:
            orders = np.zeros(q, dtype=np.uint32)
            if p == 2:
                h = max(q // 4, 1)
                x = _powers(g, h, q)
                d = h // np.gcd(np.arange(h), h)
                orders[(q - x) % q] = np.maximum(d, 2)
                orders[x] = d
            else:
                phi = q // p * (p - 1)
                orders[_powers(g, phi, q)] = phi // np.gcd(np.arange(phi), phi)
            tables[q] = orders
            q *= p
    return tables


def composite_flags(hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean array over [0, hi): True exactly for composite n (n >= 2).
    It is the sieve behind primes_upto.

    base_primes must hold every prime p with p*p < hi, ascending."""
    comp = np.zeros(hi, dtype=bool)
    for p in base_primes.tolist():
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
    pe_all = np.zeros(spf.size, dtype=np.int32)
    s = 2
    while s < spf.size:
        e = min(2 * s, s + _RUN, spf.size)
        n = np.arange(s, e, dtype=np.int32)
        p = spf[s:e]
        m = n // p
        pe = np.where(spf[m] == p, pe_all[m] * p, p)
        pe_all[s:e] = pe
        yield slice(s, e), p, m, pe, n // pe
        s = e


def phi_lambda_arrays(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi, lam) as int32 arrays with phi[n] = Euler phi and lam[n] =
    universal exponent of the unit group mod n, for 0 <= n <= hi < 2**31 - 1
    (index 0 is set to 0).  The tests' oracle; no lambda rule is shared with arith.

    One pass of _spf_runs: phi(n) = phi(m) * p if p | m, else phi(m) * (p-1);
    lam(n) = lcm(lam(rest), lam(pe)) with lam(pe) = phi(pe), halved for pe =
    2**k >= 8; phi[pe] is final when read (pe = n, or an earlier chunk)."""
    hi = as_index(hi, "hi")
    spf = spf_window(hi + 1)
    phi = np.zeros(hi + 1, dtype=np.int32)
    lam = np.zeros(hi + 1, dtype=np.int32)
    phi[1:2] = lam[1:2] = 1
    for sl, p, m, pe, rest in _spf_runs(spf):
        phi[sl] = phi[m] * np.where(pe > p, p, p - 1)
        lam_pe = phi[pe]
        lam_pe[(p == 2) & (pe >= 8)] //= 2
        lam[sl] = np.lcm(lam[rest], lam_pe)
    return phi, lam


def _strip(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x with every factor of the matching prime p divided out (x >= 1):
    x // (x & -x) where p = 2, else `%` tests over a shrinking index set."""
    x = np.where(p == 2, x // (x & -x), x)
    act = np.flatnonzero(x % p == 0)  # x is odd where p = 2
    while act.size:
        x[act] //= p[act]
        act = act[x[act] % p[act] == 0]
    return x


def phi0_lambda0_arrays(spf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi0, lam0) as int32 arrays with phi0[n] and lam0[n] the order and
    the exponent of G_n, the subgroup of (Z/nZ)^* of the units whose order is
    coprime to n, for 0 <= n < spf.size, spf a spf_window array (index 0 is
    set to 0, and G_1 is trivial).

    One pass of _spf_runs.  Let p = spf(n) and rest = n // p**v_p(n).  Every
    prime of p - 1 is below p, so none divides n: G_n is C_(p-1) times G_rest
    without its p-component for odd p, and G_rest without its 2-component for
    p = 2.  So phi0(n) = (p-1) * strip_p(phi0(rest)) and lam0(n) =
    lcm(p-1, strip_p(lam0(rest))), with p - 1 read as 1 for p = 2.  Both
    are at most phi(n) < n, so int32 holds them."""
    phi0 = np.zeros(spf.size, dtype=np.int32)
    lam0 = np.zeros(spf.size, dtype=np.int32)
    phi0[1:2] = lam0[1:2] = 1
    for sl, p, _, _, rest in _spf_runs(spf):
        c = np.maximum(p - 1, 1)
        phi0[sl] = c * _strip(phi0[rest], p)
        lam0[sl] = np.lcm(c, _strip(lam0[rest], p))
    return phi0, lam0


def coprime_part_array(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest divisor of each x coprime to the matching b (every x, b >= 1).
    The tests' oracle: phi0_lambda0_arrays with gcd passes in place of the
    smallest-prime recurrence.

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


def tau_array(spf: np.ndarray) -> np.ndarray:
    """Divisor count tau[n] of each 0 <= n < spf.size, spf a spf_window
    array, as int32 (index 0 is set to 0).

    One pass of _spf_runs: tau(n) = tau(m) + 1 when n is the prime power pe,
    else tau(rest) * tau(pe)."""
    tau = np.zeros(spf.size, dtype=np.int32)
    tau[1:2] = 1
    for sl, _, m, pe, rest in _spf_runs(spf):
        tau[sl] = tau[m] + 1
        tau[sl] = tau[rest] * tau[pe]  # tau(n) itself when rest == 1
    return tau
