"""Pseudoprimes in residue classes: the admissibility test for a class to
contain base-a pseudoprimes, counting of pseudoprimes per class, the
even-pseudoprime enumerator, empty-class scanning, and ingestion of
externally computed pseudoprime lists.  Every listing of pseudoprimes comes
from one Fermat scan over progressions, `_scan`: over each window,
`_presieve` builds a cofactor array, `_undecided` refutes almost every
survivor from it, `bulk.powmod_vector` tests the rest, and `is_prime` runs
on the hits the cofactor lemma leaves open.

The presieve is exact.  Let p be a prime with p not dividing a.  If p | n
and a^n = a (mod n), then a^(n-1) = 1 (mod p), so ord_p(a) | n-1; as
ord_p(a) | p-1, this is n = p (mod p*ord_p(a)).  So a pseudoprime divisible
by p lies in that one class, and every other multiple of p can be dropped
untested.  This is the per-prime form of the condition h | r-1 below.  It
also gives the old candidate rule for even base-2 pseudoprimes,
gcd(n, 2145) = 1: for p = 3, 5, 11, 13 the order of 2 is even, so no even n
lies in the class and every even multiple of p is dropped.  Two more rules
bound the power of p.  If p**j | n, ord_{p^j}(a) divides n-1, which is
prime to p, so a^(p-1) = 1 (mod p**j): only a base-a Wieferich prime
(1093 and 3511 for a = 2, 3 for a = 10) can divide n twice.  If p | a and
p**(v+1) | n with v = v_p(a), then p**(v+1) divides a^n (n >= 2) but not a.
So every table prime (those up to the bound b prime to the progression's
step) is one row (p, mod, w) of `_order_table`: a pseudoprime divisible by
p is n = p (mod mod), with mod = p*ord_p(a), or mod = p when p | a, and
p**(w+1) never divides it, with w = v_p(a) when p | a and otherwise the
largest w with a^(p-1) = 1 (mod p**w).  `_presieve` reads every row by one
rule, and its cofactor k is the whole part of n made of the primes up to b.

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
from math import gcd, isqrt, prod

import numpy as np

from . import bulk
from .arith import INT_DOMAIN, coprime_part, factor, is_prime, jacobi, multiplicative_order
from .errors import CapacityError, InputFormatError

_CHUNK = 1 << 20  # entries per presieve call; its uint32 cofactor array is 4 MB
_TABLE_BOUND = 1 << 16  # table primes stay below it; so (b+1)**2 <= 2**32
_PLACES = 6  # decimals of format_fraction
_TABLE_MOD_CAP = 10**5  # a count table holds one entry per class
_SCAN_MOD_CAP = 10**3  # scan_empty_classes visits about max_mod**2 / 2 classes


# ---------------------------------------------------------------------------
# residue classes


@dataclass(frozen=True)
class ResidueClass:
    """Arithmetic progression r mod m with 0 <= r < m."""

    r: int
    m: int

    def __post_init__(self) -> None:
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
    _check_base_modulus(a, m)
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


def _check_base_modulus(a: int, m: int = 1) -> None:
    """Reject a base outside [2, 2**63), the integer domain of arith, or a modulus < 1."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if not 2 <= a < INT_DOMAIN:
        raise ValueError("base must lie in [2, 2**63)")


def _check_table(a: int, m: int) -> None:
    """_check_base_modulus, and a CapacityError for a count table modulus
    past _TABLE_MOD_CAP, before anything is allocated or scanned."""
    _check_base_modulus(a, m)
    if m > _TABLE_MOD_CAP:
        raise CapacityError(f"count tables are capped at modulus <= {_TABLE_MOD_CAP}")


def _check_limit(limit: int) -> None:
    if limit < 0:
        raise ValueError("limit must be >= 0")


def _check_capacity(hi: int) -> None:
    if hi > INT_DOMAIN:  # the domain of is_prime, which certifies hits
        raise CapacityError("scans are capped at n < 2**63")


def _order_table(a: int, b: int, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The presieve's rows (p, mod, w) (see the module docstring) as three
    aligned uint64 arrays over the primes p <= b prime to step, ascending
    (b < 2**16).  One smallest-prime-factor array lists the primes and
    factors each p-1; the order starts at p-1, or at 1 where p | a, and
    loses a prime q of it while a^(order/q) = 1 (mod p)."""
    spf = bulk.spf_window(b + 1)
    p = np.flatnonzero(spf == np.arange(b + 1))[1:]  # spf[p] = p, and spf[0] = 0
    p = p[np.gcd(p, step) == 1]
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


def _presieve(table, step: int):
    """The presieve of scans over n = start + step*j: a function
    (start, count) -> k, the cofactor array over 0 <= j < count.  k[j] = 0
    where the table refutes n, and otherwise k[j] is the part of n made of
    the primes of the table and of step.  Each row (p, mod, w) is read by
    one rule: the multiples of p in the class n = p (mod mod) gain p, the
    others go, and so do those of p**(w+1), after those of p**2 .. p**w
    gain p.  k starts at gcd(start, step): every p of the table must be
    prime to step, and every prime of step must divide start less often
    than step.  k is uint32 when every n is below 2**32.  The inverses of
    step are found once; each call finds the first j of every slice by CRT
    in one vector pass, then strikes each slice."""
    p, mod, w = table
    g = np.gcd(mod, np.uint64(step))
    s, sq = mod // g, p * p  # the class strides, and the moduli struck for w = 1
    inv_s = np.array([pow(step // d, -1, m) for d, m in zip(g.tolist(), s.tolist())], np.uint64)
    inv_sq = np.array([pow(step, -1, m) for m in sq.tolist()], dtype=np.uint64)
    deep = [(q, e) for q, e in zip(p.tolist(), w.tolist()) if e > 1]

    def presieve(start: int, count: int) -> np.ndarray:
        top = start + step * (count - 1)
        k = np.full(count, gcd(start, step), dtype=np.uint32 if top < 1 << 32 else np.uint64)
        d = (p + mod - start % mod) % mod  # the class is step*j = d (mod mod)
        cls = np.where(d % g == 0, d // g * inv_s % s, count)
        first = (p - start % p) % p * inv_sq % p  # inv_sq inverts step mod p too
        first2 = np.where(w == 1, (sq - start % sq) % sq * inv_sq % sq, count)
        for q, j, c, stride, j2 in zip(*(x.tolist() for x in (p, first, cls, s, first2))):
            if c >= count:  # the class is empty here
                k[j::q] = 0
            elif stride == q:  # the class holds every multiple of q
                k[j::q] *= q
            else:
                kept = k[c::stride] * q
                k[j::q] = 0
                k[c::stride] = kept
            k[j2 :: q * q] = 0
        for q, w_q in deep:  # multiply by q on multiples of q**e, 2 <= e <= w; then by 0
            for e in range(2, w_q + 2):
                k[-start * pow(step, -1, q**e) % q**e :: q**e] *= q if e <= w_q else 0
        return k

    return presieve


def _undecided(a: int, start: int, step: int, k: np.ndarray, b: int) -> np.ndarray:
    """The n = start + step*j, as uint64, that the cofactor array k of
    _presieve over the primes up to b leaves to the Fermat test.  q = n // k
    has no prime factor up to b, so it is 1 or a prime when q < (b+1)**2,
    as it always is below 2**32.  There k = 1 means n is prime, and k > 1
    refutes n when a^g < q, g = gcd(k-1, q-1) (see the module docstring).
    As g <= k-1, a^(k-1) < q refutes n before any gcd is taken."""
    j = np.flatnonzero(k > 0)
    n = j.astype(np.uint64) * np.uint64(step) + np.uint64(start)
    k = k[j]
    q = n // k
    keep = q >= (b + 1) ** 2
    t = np.flatnonzero(~keep & (k > 1))
    t = t[bulk.capped_power(a, k[t] - 1) >= q[t]]
    keep[t] = bulk.capped_power(a, np.gcd(k[t] - 1, q[t] - 1)) >= q[t]
    return n[keep]


def _scan(a: int, lo: int, hi: int, step: int, classes):
    """Yield uint64 arrays of the base-a pseudoprimes n in [lo, hi) with
    n % step in classes, ascending; hi <= 2**63, and lo > 1 exceeds every
    prime of step.  The table primes are those up to
    b = min(sqrt(hi), _TABLE_BOUND - 1) prime to step, and `is_prime` runs
    on the hits n <= b and n >= (b+1)**2 (see the module docstring)."""
    b = min(isqrt(hi - 1), _TABLE_BOUND - 1)
    presieve = _presieve(_order_table(a, b, step), step)
    cap = (b + 1) ** 2
    width = _CHUNK * (step // len(classes))  # a window holds _CHUNK numbers of the classes
    for wlo in range(lo, hi, width):
        whi = min(wlo + width, hi)
        firsts = [wlo + (r - wlo) % step for r in classes]
        parts = [_undecided(a, f, step, presieve(f, len(range(f, whi, step))), b) for f in firsts]
        ns = np.sort(np.concatenate(parts))
        hits = ns[bulk.powmod_vector(a, ns, ns) == np.uint64(a) % ns]
        doubt = np.flatnonzero((hits <= b) | (hits >= cap))
        hits = np.delete(hits, doubt[[is_prime(n) for n in hits[doubt].tolist()]])
        if hits.size:
            yield hits


def iter_psp_values(a: int, lo: int, hi: int):
    """Yield uint64 arrays of the base-a pseudoprimes in [lo, hi), ascending:
    one `_scan` of step 1, with scalar (slow) Fermat tests from 2**32 on.
    hi > 2**63 raises CapacityError; a base outside [2, 2**63), the integer
    domain of arith, is a ValueError.
    """
    _check_base_modulus(a)
    if not 2 <= lo <= hi:
        raise ValueError("need 2 <= lo <= hi")
    _check_capacity(hi)
    yield from _scan(a, lo, hi, 1, (0,))


def _psp_array(a: int, lo: int, hi: int) -> np.ndarray:
    """The whole stream of iter_psp_values(a, lo, hi) as one uint64 array."""
    return np.concatenate([np.zeros(0, dtype=np.uint64), *iter_psp_values(a, lo, hi)])


def psp_values(a: int, limit: int) -> np.ndarray:
    """All base-a pseudoprimes <= limit as one ascending uint64 array."""
    _check_limit(limit)
    return _psp_array(a, 2, max(2, limit + 1))


# ---------------------------------------------------------------------------
# count tables


def _normalize_coverage(segments) -> tuple[tuple[int, int], ...]:
    segs = sorted((int(lo), int(hi)) for lo, hi in segments if lo < hi)
    merged: list[list[int]] = []
    for lo, hi in segs:
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
        _check_table(base, modulus)
        limits = tuple(sorted({int(x) for x in limits}))
        counts: dict = {}
        values = np.asarray(values, dtype=np.uint64)
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
        if not 0 <= r < self.modulus:
            raise ValueError(f"class {r} is outside [0, {self.modulus})")
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
    _check_table(a, m)
    _check_limit(limit)
    top = max(2, limit + 1)
    lo, hi = (2, top) if segment is None else segment
    if not 2 <= lo <= hi <= top:
        raise ValueError("segment must lie within [2, limit+1)")
    return CountTable.from_values(a, m, (limit,), _psp_array(a, lo, hi), ((lo, hi),))


def count_psp_table(a: int, m: int, limits) -> CountTable:
    """Full count table of base-a pseudoprimes per class mod m at several
    limits, from one scan up to the largest."""
    _check_table(a, m)
    limits = sorted(int(x) for x in limits)
    if not limits:
        raise ValueError("need at least one limit")
    _check_limit(limits[0])
    top = limits[-1]
    return CountTable.from_values(a, m, limits, psp_values(a, top), ((2, top + 1),))


# ---------------------------------------------------------------------------
# even pseudoprimes


def enumerate_even_psp(limit: int) -> list[int]:
    """All even base-2 pseudoprimes <= limit, ascending.

    One `_scan` of step 16 over the classes 2 and 14: an even pseudoprime is
    2 mod 4, and the classes 6 and 10 mod 16 are refuted by the Jacobi
    condition.  Its table primes are the odd ones.  When ord_p(2) is even,
    the class n = p (mod p*ord_p(2)) holds only odd n, so every even
    multiple of p goes; 3, 5, 11 and 13 are such p, which is the old
    candidate rule gcd(n, 2145) = 1.  The cofactor of each n starts at 2, so
    n = 2q with q prime gives g = 1 and is refuted untested.  limit >= 2**63
    raises CapacityError.
    """
    _check_limit(limit)
    _check_capacity(limit + 1)
    return [n for part in _scan(2, 4, limit + 1, 16, (2, 14)) for n in part.tolist()]


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
    if max_mod < 2:
        raise ValueError("max_mod must be >= 2")
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
    digits only) into a per-class count table mod m.  Its memory grows with
    m, not with the number of lines; sortedness and the 64-bit range are
    validated, pseudoprimality is not."""
    _check_table(base, m)
    tally = [0] * m
    top = 0
    for lineno, raw in enumerate(lines, start=1):
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
    counts = {(r, top): tally[r] for r in range(m)}
    return CountTable(base, m, (top,), counts, ())


# ---------------------------------------------------------------------------
# rendering


def format_fraction(num: int, den: int) -> str:
    """Exact fixed-point rendering of num/den to _PLACES decimals,
    round-half-even; den = 0 renders as zero (an empty table) and den < 0 is
    a ValueError."""
    if den < 0:
        raise ValueError("den must be >= 0")
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
