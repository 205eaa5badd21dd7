"""Pseudoprimes in residue classes: the admissibility test for a class to
contain base-a pseudoprimes, counting of pseudoprimes per class, the
even-pseudoprime enumerator, empty-class scanning, and ingestion of
externally computed pseudoprime lists.  Every listing of pseudoprimes but
the even one comes from one Fermat scan, `iter_psp_values`: over each
window, `_presieve` builds a cofactor array, `_undecided` refutes almost
every survivor from it, `bulk.powmod_vector` tests the rest, and `is_prime`
runs on the hits the cofactor lemma leaves open.  `enumerate_even_psp`
builds the even pseudoprimes from their factors instead, reading the orders
off the presieve's table.

The presieve is exact.  Let p be a prime with p not dividing a.  If p | n
and a^n = a (mod n), then a^(n-1) = 1 (mod p), so ord_p(a) | n-1; as
ord_p(a) | p-1, this is n = p (mod p*ord_p(a)).  So a pseudoprime divisible
by p lies in that one class, and every other multiple of p can be dropped
untested.  This is the per-prime form of the condition h | r-1 below.  Two
more rules bound the power of p.  If p**j | n, ord_{p^j}(a) divides n-1,
which is prime to p, so a^(p-1) = 1 (mod p**j): only a base-a Wieferich
prime (1093 and 3511 for a = 2, 3 for a = 10) can divide n twice.  If p | a
and p**(v+1) | n with v = v_p(a), then p**(v+1) divides a^n (n >= 2) but
not a.  So every table prime (those up to the bound b) is one row
(p, mod, w) of `_order_table`: a pseudoprime divisible by p is
n = p (mod mod), with mod = p*ord_p(a), or mod = p when p | a, and p**(w+1)
never divides it, with w = v_p(a) when p | a and otherwise the largest w
with a^(p-1) = 1 (mod p**w).  `_presieve` reads every row by one rule, and
its cofactor k is the whole part of n made of the primes up to b.

The cofactor lemma (the large-prime split of Pomerance, Selfridge and
Wagstaff) decides almost every survivor.  Let q = n/k; it has no prime
factor up to b, so it is 1 or a prime when q < (b+1)**2.  Let q be prime,
q not dividing a, and k > 1.  If n is a pseudoprime, ord_q(a) divides
n-1 = k-1 (mod q-1) and q-1, so q | a^g - 1 with g = gcd(k-1, q-1) >= 1,
and a^g > q.  So a^g < q refutes n.  The strict < needs no other guard:
if q | a then a^g >= a >= q; q = 1 gives a^g >= 1 = q; and k = 1 gives
g = q-1, so a^g >= 2^(q-1) >= q.

So a prime n survives only in two cases.  Either n is a table prime, so
k = n and q = 1, or n has no prime factor up to b, so k = 1 and q = n, and
then n >= (b+1)**2, as n < (b+1)**2 would refute it.  Every other
survivor is composite, and a Fermat hit there is a pseudoprime.  So the
scan runs `is_prime` on its hits n <= b and n >= (b+1)**2 only.

The admissibility test for a class r mod m and base a works with
g = gcd(r, m), g_a the largest divisor of g coprime to a, and
h = gcd(ord(a mod g_a), m).  A class containing a base-a pseudoprime must
satisfy h | r-1 and g/g_a | a, and when g is even the class must contain
some k whose coprime-to-2a part k' has Jacobi symbol (a/k') = +1.  All three
conditions are decided exactly: the third is a finite check, because on
numbers coprime to 2a the symbol (a/.) is periodic modulo 4a.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from itertools import islice
from math import gcd, isqrt, lcm, prod

import numpy as np

from . import bulk
from .arith import (
    INT_DOMAIN,
    as_index,
    coprime_part,
    factor,
    is_prime,
    jacobi,
    multiplicative_order,
)
from .errors import CapacityError, InputFormatError

_CHUNK = 1 << 20  # entries per presieve call (4 MB of uint32) and per chunk of the walk's P
_TABLE_BOUND = 1 << 16  # table primes stay below it; so (b+1)**2 <= 2**32
# _order_table's spf and arange arrays take 12 bytes per entry, about 200 MB
# at this cap; the even walk asks for b = isqrt(limit // 2), so limit < 2**49
_ORDER_TABLE_CAP = 1 << 24
_PLACES = 6  # decimals of format_fraction
_TABLE_MOD_CAP = 10**5  # a count table holds one entry per class
_SCAN_MOD_CAP = 10**3  # scan_empty_classes visits about max_mod**2 / 2 classes
_INGEST_CHUNK = 1 << 14  # lines per ingest_psp_list parse; about 2 MB at peak


# ---------------------------------------------------------------------------
# residue classes


@dataclass(frozen=True)
class ResidueClass:
    """Arithmetic progression r mod m with 0 <= r < m."""

    r: int
    m: int

    def __post_init__(self) -> None:
        as_index(self.r, "r")
        as_index(self.m, "m")
        if self.m < 1 or not 0 <= self.r < self.m:
            raise ValueError("need 0 <= r < m")

    def contains(self, n: int) -> bool:
        return n % self.m == self.r

    def intersect(self, other: "ResidueClass") -> "ResidueClass | None":
        """CRT: the intersection is empty or a single progression mod lcm."""
        g = gcd(self.m, other.m)
        if (other.r - self.r) % g != 0:
            return None
        lcm = self.m // g * other.m
        step = other.m // g
        t = (other.r - self.r) // g * pow(self.m // g, -1, step) % step
        return ResidueClass((self.r + self.m * t) % lcm, lcm)


# ---------------------------------------------------------------------------
# admissibility


class JacobiCondition(enum.Enum):
    """Verdict of the Jacobi condition.  UNKNOWN is never returned: the
    condition is decided exactly."""

    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ClassConditionReport:
    """Exact verdicts of the three necessity conditions for base-a
    pseudoprimes in r mod m.  `admissible` means no condition refutes the
    class."""

    a: int
    r: int
    m: int
    g: int
    g_a: int
    h: int
    cond_h_divides: bool
    cond_u_divides: bool
    cond_jacobi: JacobiCondition

    @property
    def admissible(self) -> bool:
        return (
            self.cond_h_divides
            and self.cond_u_divides
            and self.cond_jacobi in (JacobiCondition.HOLDS, JacobiCondition.NOT_APPLICABLE)
        )


def _jacobi_holds(a: int, r: int, m: int) -> bool:
    """Whether some k = r (mod m) has (a / k') = +1, k' the part of k coprime
    to 2a.

    Write k = Q k' with Q made of the primes q | 2a.  Where v_q(r) < v_q(m),
    every k in the class has v_q(k) = v_q(r); any other q is free, with
    v_q(k) >= v_q(m).  So g = gcd(Q, m) is the same for every k, and
    k' = (r/g) u^-1 (mod m/g) where u = Q/g runs over the products of the
    free primes; nothing else constrains k' but gcd(k', 2a) = 1.

    On such k', (a / k') = chi(k') for the primitive character chi of
    conductor f = |disc Q(sqrt(a0))|, a0 the squarefree part of a.  The class
    fixes k' only modulo t = gcd(m/g, 4a).  If f does not divide t, chi takes
    both signs there.  Otherwise chi(k') = chi(r/g) chi(u), which is +1 for
    some u unless chi(r/g) = -1 and chi(q) = +1 for every free q.
    """
    a_factors = factor(a).factors
    m_2a = m // coprime_part(m, 2 * a)  # the part of m made of primes of 2a
    g = gcd(r, m_2a)
    t = gcd(m_2a // g, 4 * a)
    a0 = prod(p for p, e in a_factors if e % 2)
    f = a0 if a0 % 4 == 1 else 4 * a0
    if t % f:
        return True

    def chi(x: int) -> int:  # x coprime to f; x + f is odd when x is even
        return jacobi(a0, x if x % 2 else x + f)

    free = [q for q in {2, *(p for p, _ in a_factors)} if (m_2a // g) % q]
    return chi(r // g % t) == 1 or any(chi(q) == -1 for q in free)


def class_conditions(a: int, r: int, m: int) -> ClassConditionReport:
    """Decide the three necessity conditions for the class r mod m, base a.

    The Jacobi condition applies when g = gcd(r, m) is even; it HOLDS when
    some k = r (mod m) has (a / k_{2a}) = +1 and FAILS otherwise.  A base
    outside [2, 2**63) is a ValueError, whatever the class.
    """
    a, m = _check_base_modulus(a, m)
    r = as_index(r, "r")
    if not 0 <= r < m:
        raise ValueError("need 0 <= r < m")
    g = gcd(r, m)  # r = 0 gives g = m
    g_a = coprime_part(g, a)
    h = gcd(multiplicative_order(a, g_a), m)
    cond_h = (r - 1) % h == 0
    cond_u = a % (g // g_a) == 0
    if g % 2 == 1:
        cj = JacobiCondition.NOT_APPLICABLE
    elif _jacobi_holds(a, r, m):
        cj = JacobiCondition.HOLDS
    else:
        cj = JacobiCondition.FAILS
    return ClassConditionReport(a, r, m, g, g_a, h, cond_h, cond_u, cj)


# ---------------------------------------------------------------------------
# pseudoprime value stream


def _check_base_modulus(a: int, m: int = 1) -> tuple[int, int]:
    """a and m as ints; reject a base outside [2, 2**63), the integer domain
    of arith, or a modulus < 1."""
    return as_index(a, "base", 2, 63), as_index(m, "modulus", 1)


def _check_table(a: int, m: int) -> tuple[int, int]:
    """_check_base_modulus, and a CapacityError for a count table modulus
    past _TABLE_MOD_CAP, before anything is allocated or scanned."""
    a, m = _check_base_modulus(a, m)
    if m > _TABLE_MOD_CAP:
        raise CapacityError(f"count tables are capped at modulus <= {_TABLE_MOD_CAP}")
    return a, m


def _check_capacity(hi: int) -> None:
    if hi > INT_DOMAIN:  # the domain of is_prime, which certifies hits
        raise CapacityError("scans are capped at n < 2**63")


def _order_table(a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The presieve's rows (p, mod, w) (see the module docstring) as three
    aligned uint64 arrays over the primes p <= b, ascending.  One
    smallest-prime-factor array lists the primes and factors each p-1; the
    order starts at p-1, or at 1 where p | a, and loses a prime q of it while
    a^(order/q) = 1 (mod p).  b >= _ORDER_TABLE_CAP raises CapacityError
    before anything is allocated."""
    if b >= _ORDER_TABLE_CAP:
        raise CapacityError("order tables are capped at primes < 2**24 (psp even: limit < 2**49)")
    spf = bulk.spf_window(b + 1)
    p = np.flatnonzero(spf == np.arange(b + 1))[1:]  # spf[p] = p, and spf[0] = 0
    divides = a % p.astype(np.uint64) == 0
    order = np.where(divides, 1, p - 1)
    rest = order.copy()  # the part of the order whose primes are still to strip
    while (live := np.flatnonzero(rest > 1)).size:
        q = spf[rest[live]]
        while (m := rest[live] % q == 0).any():
            rest[live[m]] //= q[m]
        while live.size:
            m = order[live] % q == 0
            live, q = live[m], q[m]
            m = bulk.powmod_vector(a, order[live] // q, p[live]) == 1
            live, q = live[m], q[m]
            order[live] //= q
    w = np.ones(p.size, dtype=np.uint64)
    for i in np.flatnonzero(divides | (bulk.powmod_vector(a, p - 1, p * p) == 1)).tolist():
        q, e = int(p[i]), 1
        while a % q ** (e + 1) == 0 or pow(a, q - 1, q ** (e + 1)) == 1:
            e += 1
        w[i] = e
    return p.astype(np.uint64), (p * order).astype(np.uint64), w


def _presieve(table, start: int, count: int) -> np.ndarray:
    """The cofactor array k of the n = start + j, 0 <= j < count, over the
    table's rows.  k[j] = 0 where the table refutes n, and otherwise k[j] is
    the part of n made of the table's primes.  Each row (p, mod, w) is read
    by one rule: the multiples of p in the class n = p (mod mod) gain p, the
    others go, and so do those of p**(w+1), after those of p**2 .. p**w gain
    p.  k is uint32 when every n is below 2**32.  The first j of every slice
    is found in one vector pass, then each slice is struck."""
    p, mod, w = table
    sq = p * p  # the moduli struck for w = 1
    k = np.ones(count, dtype=np.uint32 if start + count <= 1 << 32 else np.uint64)
    cls = (p + mod - start % mod) % mod
    first = (p - start % p) % p
    first2 = np.where(w == 1, (sq - start % sq) % sq, count)
    for q, j, c, stride, j2 in zip(*(x.tolist() for x in (p, first, cls, mod, first2))):
        kept = k[c::stride] * q  # the multiples of q in the class gain q, the others go
        k[j::q] = 0
        k[c::stride] = kept
        k[j2 :: q * q] = 0
    deep = w > 1  # these rows multiply by q on multiples of q**e, 2 <= e <= w; then by 0
    for q, w_q in zip(p[deep].tolist(), w[deep].tolist()):
        for e in range(2, w_q + 2):
            k[-start % q**e :: q**e] *= q if e <= w_q else 0
    return k


def _undecided(a: int, start: int, k: np.ndarray, b: int) -> np.ndarray:
    """The n = start + j, as uint64, that the cofactor array k of _presieve
    over the primes up to b leaves to the Fermat test.  q = n // k has no
    prime factor up to b, so it is 1 or a prime when q < (b+1)**2, as it
    always is below 2**32.  There k = 1 means n is prime, and k > 1 refutes
    n when a^g < q, g = gcd(k-1, q-1) (see the module docstring).  As
    g <= k-1, a^(k-1) < q refutes n before any gcd is taken."""
    j = np.flatnonzero(k > 0)
    n = j.astype(np.uint64) + np.uint64(start)
    k = k[j]
    q = n // k
    keep = q >= (b + 1) ** 2
    t = np.flatnonzero(~keep & (k > 1))
    t = t[bulk.capped_power(a, k[t] - 1) >= q[t]]
    keep[t] = bulk.capped_power(a, np.gcd(k[t] - 1, q[t] - 1)) >= q[t]
    return n[keep]


def iter_psp_values(a: int, lo: int, hi: int):
    """Yield uint64 arrays of the base-a pseudoprimes in [lo, hi), ascending,
    one presieved window of _CHUNK numbers at a time, with scalar (slow)
    Fermat tests from 2**32 on.  The table primes are those up to
    b = min(sqrt(hi), _TABLE_BOUND - 1), and `is_prime` runs on the hits
    n <= b and n >= (b+1)**2 (see the module docstring).  hi > 2**63 raises
    CapacityError; a base outside [2, 2**63), the integer domain of arith,
    is a ValueError.
    """
    a, _ = _check_base_modulus(a)
    lo, hi = as_index(lo, "lo"), as_index(hi, "hi")
    if not 2 <= lo <= hi:
        raise ValueError("need 2 <= lo <= hi")
    _check_capacity(hi)
    b = min(isqrt(hi - 1), _TABLE_BOUND - 1)
    table = _order_table(a, b)
    cap = (b + 1) ** 2
    for wlo in range(lo, hi, _CHUNK):
        ns = _undecided(a, wlo, _presieve(table, wlo, min(_CHUNK, hi - wlo)), b)
        hits = ns[bulk.powmod_vector(a, ns, ns) == np.uint64(a) % ns]
        doubt = np.flatnonzero((hits <= b) | (hits >= cap))
        hits = np.delete(hits, doubt[[is_prime(n) for n in hits[doubt].tolist()]])
        if hits.size:
            yield hits


def _psp_array(a: int, lo: int, hi: int) -> np.ndarray:
    """The whole stream of iter_psp_values(a, lo, hi) as one uint64 array."""
    return np.concatenate([np.zeros(0, dtype=np.uint64), *iter_psp_values(a, lo, hi)])


def psp_values(a: int, limit: int) -> np.ndarray:
    """All base-a pseudoprimes <= limit as one ascending uint64 array."""
    limit = as_index(limit, "limit", 0)
    return _psp_array(a, 2, max(2, limit + 1))


# ---------------------------------------------------------------------------
# count tables


def _limits(limits) -> tuple[int, ...]:
    """The distinct limits, ascending, each an int >= 0."""
    try:
        return tuple(sorted({as_index(x, "limit", 0) for x in limits}))
    except TypeError:  # limits is not iterable
        raise ValueError("limits must be an iterable of integers") from None


def _normalize_coverage(segments) -> tuple[tuple[int, int], ...]:
    segs = [(as_index(lo, "segment", 0), as_index(hi, "segment", 0)) for lo, hi in segments]
    if any(lo > hi for lo, hi in segs):
        raise ValueError("segment with lo > hi")
    merged: list[list[int]] = []
    for lo, hi in sorted(seg for seg in segs if seg[0] < seg[1]):
        if merged and lo < merged[-1][1]:
            raise ValueError("overlapping segments")
        if merged and lo == merged[-1][1]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True)
class CountTable:
    """Per-class pseudoprime counts at one or more inclusive limits.

    counts maps (class r, limit) to a count; coverage records the half-open
    segments of n that were scanned, so partial tables over disjoint segments
    merge by addition.
    """

    base: int
    modulus: int
    limits: tuple[int, ...]
    counts: dict
    coverage: tuple[tuple[int, int], ...]

    @classmethod
    def from_values(cls, base, modulus, limits, values, coverage) -> "CountTable":
        base, modulus = _check_table(base, modulus)
        limits = _limits(limits)
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
            values = np.asarray(values, object)  # not float64 for [-1, 2**63]
            if values.ndim == 1:
                values = np.array([as_index(v, "value") for v in values], object)
        if values.ndim != 1:
            raise ValueError("values must be a one-dimensional sequence of integers")
        if values.size and not 0 <= values.min() <= values.max() < 1 << 64:
            raise ValueError("values must lie in [0, 2**64)")
        values = values.astype(np.uint64)
        counts: dict = {}
        for lim in limits:
            kept = values[values <= np.uint64(lim)]
            tally = np.bincount((kept % np.uint64(modulus)).astype(np.int64), minlength=modulus)
            for r in range(modulus):
                counts[(r, lim)] = int(tally[r])
        return cls(base, modulus, limits, counts, _normalize_coverage(coverage))

    def _limit(self, limit: int | None) -> int:
        """The table limit a query asks for; None means the only one."""
        if limit is None:
            if len(self.limits) != 1:
                raise ValueError("limit is required for a multi-limit table")
            return self.limits[0]
        if limit not in self.limits:
            raise ValueError(f"limit {limit} is not in the table's limits {self.limits}")
        return limit

    def count(self, r: int, limit: int | None = None) -> int:
        limit = self._limit(limit)
        r = as_index(r, "class", 0)
        if r >= self.modulus:
            raise ValueError(f"class {r} is not an integer in [0, {self.modulus})")
        return self.counts.get((r, limit), 0)

    def total(self, limit: int | None = None) -> int:
        limit = self._limit(limit)
        return sum(self.counts.get((r, limit), 0) for r in range(self.modulus))

    def merge(self, other: "CountTable") -> "CountTable":
        if (self.base, self.modulus, self.limits) != (other.base, other.modulus, other.limits):
            raise ValueError("tables disagree on base, modulus, or limits")
        coverage = _normalize_coverage(self.coverage + other.coverage)
        counts = dict(self.counts)
        for key, v in other.counts.items():
            counts[key] = counts.get(key, 0) + v
        return CountTable(self.base, self.modulus, self.limits, counts, coverage)


def count_psp_in_classes(
    a: int, m: int, limit: int, segment: tuple[int, int] | None = None
) -> CountTable:
    """Count base-a pseudoprimes n <= limit per class n mod m over one
    half-open segment (default: all of [2, limit+1))."""
    a, m = _check_table(a, m)
    limit = as_index(limit, "limit", 0)
    top = max(2, limit + 1)
    lo, hi = (2, top) if segment is None else (as_index(x, "segment") for x in segment)
    if not 2 <= lo <= hi <= top:
        raise ValueError("segment must lie within [2, limit+1)")
    return CountTable.from_values(a, m, (limit,), _psp_array(a, lo, hi), ((lo, hi),))


def count_psp_table(a: int, m: int, limits) -> CountTable:
    """Full count table of base-a pseudoprimes per class mod m at several
    limits, from one scan up to the largest."""
    a, m = _check_table(a, m)
    limits = _limits(limits)
    if not limits:
        raise ValueError("need at least one limit")
    top = limits[-1]
    return CountTable.from_values(a, m, limits, psp_values(a, top), ((2, max(2, top + 1)),))


# ---------------------------------------------------------------------------
# even pseudoprimes


def enumerate_even_psp(limit: int) -> list[int]:
    """All even base-2 pseudoprimes <= limit, ascending, built from their
    factors rather than scanned.

    Call an odd k a pre-product when ord_{q^e}(2) is odd for every
    q^e || k and gcd(k, L_k) = 1, L_k the lcm of those orders.  The lemma:
    let n = 2m be an even pseudoprime.  m is odd, as 4 | n would give
    2^n = 0 (mod 4), and m is not a prime P, as then 2^(n-1) = 2, not 1,
    (mod P).  Each ord_{q^e}(2) with q^e || m divides n-1, so m is a
    pre-product.  Let P be the largest prime of m.  If P^2 | m, n is a
    pseudoprime exactly when L_m | 2m-1.  Otherwise m = kP with k > 1 a
    pre-product prime to P, L_k | n-1 gives P = (2k)^-1 (mod L_k), and as
    ord_P(2) divides P-1 and n-1 = 2k(P-1) + 2k-1, it divides 2k-1: so
    2^(2k-1) = 1 (mod P), and some prime p0 | 2k-1 divides ord_P(2) | P-1,
    so P = 1 = (2k)^-1 (mod p0).  Conversely, for any prime P above the
    primes of k with 2^(2k-1) = 1 (mod P) and P = (2k)^-1 (mod L_k),
    2^(n-1) = 1 (mod m), so n = 2kP is a pseudoprime with no further pow.

    The walk builds the pre-products k depth first from prime powers q^e in
    ascending q, while 2k*q^max(e, 2) <= limit.  It reads the orders off
    the rows of _order_table(2, sqrt(limit/2)) and keeps the odd ones:
    ord_{q^e}(2) = (mod/q) q^max(0, e-w), so e > w would put q into L_k,
    and only e <= w is taken.  At each k it tests 2k when its top exponent
    is 2 or more, and for each prime p0 | 2k-1 the odd
    P = (2k)^-1 (mod lcm(L_k, p0)) in (largest prime of k, limit/(2k)] by
    powmod_vector(2, 2k-1, P) == 1 and then is_prime(P).

    On a 2-core box it takes 0.08 s to 10**8, 1.5 s to 4*10**9 and 32 s to
    10**11 (79 values); the P tested grow as limit/490, so 10**12 takes
    minutes and the paper's 10**16 is out of reach.  limit >= 2**63 raises
    CapacityError, and so does limit >= 2**49, where the order table would
    outgrow memory.
    """
    limit = as_index(limit, "limit", 0)
    _check_capacity(limit + 1)
    table = (x.tolist() for x in _order_table(2, isqrt(limit // 2)))
    rows = [(q, mod // q, w) for q, mod, w in zip(*table) if q > 2 and mod // q % 2]
    found: list[int] = []

    def walk(k: int, lk: int, i: int) -> None:
        for j in range(i, len(rows)):
            q, order, w = rows[j]
            if 2 * k * q * q > limit:
                break
            lq = lcm(lk, order)
            if gcd(k * q, lq) > 1:
                continue
            for e in range(1, w + 1):
                kq = k * q**e
                if 2 * kq > limit:
                    break
                if e > 1 and (2 * kq - 1) % lq == 0:
                    found.append(2 * kq)
                found.extend(_even_psp_tops(kq, lq, q, limit))
                walk(kq, lq, j + 1)

    walk(1, 1, 0)
    return sorted(found)


def _even_psp_tops(k: int, lk: int, top: int, limit: int) -> list[int]:
    """The n = 2kP <= limit with P > top a prime, for a pre-product k with
    largest prime top and L_k = lk (see enumerate_even_psp)."""
    hi, passed = limit // (2 * k), set()
    for p0, _ in factor(2 * k - 1).factors:
        mod = lcm(lk, p0)
        c = pow(2 * k, -1, mod)
        step = 2 * mod  # P is odd, and mod is odd
        first = top + 1 + (c + mod * (1 - c % 2) - top - 1) % step
        for lo in range(first, hi + 1, step * _CHUNK):
            ps = np.arange(lo, min(lo + step * _CHUNK, hi + 1), step, dtype=np.uint64)
            passed.update(ps[bulk.powmod_vector(2, 2 * k - 1, ps) == 1].tolist())
    return [2 * k * p for p in passed if is_prime(p)]


# ---------------------------------------------------------------------------
# empty-class scan


@dataclass(frozen=True)
class EmptyClass:
    modulus: int
    residue: int
    predicted_by_lemma: bool


def scan_empty_classes(a: int, max_mod: int, limit: int) -> list[EmptyClass]:
    """Every class r mod m (2 <= m <= max_mod) with no base-a pseudoprime
    <= limit, annotated with whether the admissibility conditions refute it.
    max_mod > _SCAN_MOD_CAP raises CapacityError before the scan."""
    max_mod = as_index(max_mod, "max_mod", 2)
    if max_mod > _SCAN_MOD_CAP:
        raise CapacityError(f"empty-class scans are capped at max_mod <= {_SCAN_MOD_CAP}")
    values = psp_values(a, limit)
    out: list[EmptyClass] = []
    for m in range(2, max_mod + 1):
        tally = np.bincount((values % np.uint64(m)).astype(np.int64), minlength=m)
        for r in range(m):
            if tally[r] == 0:
                report = class_conditions(a, r, m)
                out.append(EmptyClass(m, r, not report.admissible))
    return out


# ---------------------------------------------------------------------------
# ingestion of external pseudoprime lists


def ingest_psp_list(lines, m: int, base: int = 2) -> CountTable:
    """Stream a sorted list of decimal pseudoprimes (one per line, ASCII
    digits only) into a per-class count table mod m.  Sortedness and the
    64-bit range are validated, pseudoprimality is not.

    The lines are read in chunks of _INGEST_CHUNK, so memory grows with m
    and that fixed chunk, not with the number of lines.  A chunk is checked
    as one text (ASCII, no sign or digit separator), parsed in one
    np.array call, which applies int() to every line and overflows at
    2**64, checked for order in one compare and tallied by np.bincount.  A
    chunk that fails any step is read again line by line, which names the
    first bad line, as does a stream that fails partway through a chunk."""
    base, m = _check_table(base, m)
    tally = np.zeros(m, dtype=np.int64)
    top = 0
    lines = iter(lines)
    start = 1
    while True:
        chunk = []
        try:
            chunk.extend(islice(lines, _INGEST_CHUNK))
        except Exception:  # a bad line read before the stream failed is named first
            _ingest_lines(chunk, start, m, tally, top)
            raise
        if not chunk:
            break
        try:
            text = "".join(chunk)
            if not text.isascii() or "+" in text or "-" in text or "_" in text:
                raise ValueError
            values = np.array(chunk, dtype=np.uint64)
            if int(values[0]) < top or np.any(values[1:] < values[:-1]):
                raise ValueError
        except (ValueError, OverflowError, TypeError):
            top = _ingest_lines(chunk, start, m, tally, top)
        else:
            tally += np.bincount((values % np.uint64(m)).astype(np.intp), minlength=m)
            top = int(values[-1])
        start += len(chunk)
    counts = {(r, top): n for r, n in enumerate(tally.tolist())}
    return CountTable(base, m, (top,), counts, ())


def _ingest_lines(chunk, start: int, m: int, tally: np.ndarray, top: int) -> int:
    """The per-line rule of ingest_psp_list over one chunk whose first line
    is line `start`: raise on the first bad line, else tally every line and
    return the new top value."""
    for lineno, raw in enumerate(chunk, start=start):
        if not isinstance(raw, str):
            raise InputFormatError(f"line {lineno}: not a text line: {raw!r}")
        try:
            value = int(raw)  # int() also takes a sign, 5_61 and non-ASCII digits
        except ValueError:
            value = -1
        if value < 0 or "+" in raw or "-" in raw or "_" in raw or not raw.isascii():
            raise InputFormatError(f"line {lineno}: not a decimal integer: {raw.strip()!r}")
        if value >= 1 << 64:
            raise InputFormatError(f"line {lineno}: value out of 64-bit range")
        if value < top:
            raise InputFormatError(f"line {lineno}: values must be sorted ascending")
        top = value
        tally[value % m] += 1
    return top


# ---------------------------------------------------------------------------
# rendering


def format_fraction(num: int, den: int) -> str:
    """Exact fixed-point rendering of num/den to _PLACES decimals,
    round-half-even; den = 0 renders as zero (an empty table) and den < 0 is
    a ValueError."""
    num, den = as_index(num, "num"), as_index(den, "den", 0)
    if den == 0:
        num, den = 0, 1
    scale = 10**_PLACES
    q, rem = divmod(num * scale, den)
    if 2 * rem > den or (2 * rem == den and q % 2 == 1):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // scale}.{q % scale:0{_PLACES}d}"


def render_rows(header: tuple[str, ...], rows, format: str = "csv") -> str:
    """Render rows (tuples in header order) as CSV with booleans written
    true/false, or as a JSON array of objects keyed by the header."""
    if format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row))
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    raise ValueError("format must be 'csv' or 'json'")


def emit_table(t: CountTable, format: str = "csv") -> str:
    """Render a CountTable as CSV (fixed header) or a JSON array of rows.

    With a single limit, a fraction column (class count / total, 6 decimal
    places) is appended.
    """
    header = ("base", "modulus", "class", "limit", "count", "empty_predicted")
    single = len(t.limits) == 1
    if single:
        header += ("fraction",)
    totals = {lim: t.total(lim) for lim in t.limits}
    rows = []
    for r in range(t.modulus):
        rejected = not class_conditions(t.base, r, t.modulus).admissible
        for lim in t.limits:
            count = t.count(r, lim)
            row = (t.base, t.modulus, r, lim, count, rejected)
            rows.append(row + (format_fraction(count, totals[lim]),) if single else row)
    return render_rows(header, rows, format)
