"""Exact densities of the divisor-base pseudoprime sets.

For b >= 2 let T_b = {ab : a >= 2, a**(ab) == a (mod ab)}: the numbers that
are a Fermat pseudoprime to the base n/b.  Membership forces gcd(a, b) = 1 and
reduces to a**(ab-1) == 1 (mod b), so T_b (plus the single excluded point b)
is a finite union of residue classes: one class mod b**2*d for every unit
a0 mod b whose multiplicative order d is coprime to b.  Those units form the
subgroup G_b of (Z/bZ)^*, so with N(G) = sum over x in G of 1/ord(x)

    delta(T_b) = N(G_b) / b**2.

G_b is read off the odd primes of b.  For p**e || b with p odd, (Z/p**e)^*
is C_(p-1) x C_(p**(e-1)), and the second factor is a p-group with p | b, so
its part of order prime to b is cyclic of order c_p, the part of p - 1 prime
to b; all of (Z/2**e)^* is a 2-group and 2 | b.  So

    G_b = prod over odd p | b of C_(c_p),

and its q-component (q not dividing b) is the product over p of
C_(q**v_q(p-1)).  _gb_components lists those from one factor(b) and one
factor(p - 1) per odd p | b, with no lambda(p**e) and no filter over the
whole unit group.

The per-b tail term tau(lambda0) phi0 / (lambda0 b**2), where lambda0 and phi0
are the exponent and the order of G_b, is the group inequality
N(G) <= tau(lambda(G)) #G / lambda(G) on G_b, divided by b**2.  sb_density
multiplies one integer numerator and one power q**lambda per component into
one fraction; group_N reads N from the same integer (_n_numerator), and
tail_bound_term and check_group_bounds read the bound from one product over
the components (_order_bound).  On top of these sit exact union densities
and partial sums of the density series.

The tail sum over millions of b reads phi0 and lambda0 off one recurrence
in the smallest prime p of b (bulk.phi0_lambda0_arrays): every prime of
p - 1 is below p and so prime to b, which makes G_b the product of C_(p-1)
(trivial for p = 2) and G_rest without its p-component, rest = b // p**v_p(b).
Its numerators tau(lambda0) phi0 / lambda0 are at most phi0 < b, since
tau(m) <= m, so they fit int32 and their long division fits int64.

The whole Ordowski layer reads G_n, count_S too for the base s mod t
(through the exponent of G_t; see its docstring).  Only count_S's base t
mod s, read off the order of each unit mod s, and unit_order_counts, the
census that G_b's listing is checked against, read the full unit group.

The union density of T_2 .. T_k is a walk over CRT coordinates.  Every
class modulus is b**2*d with d | lambda0(b) < b, so its primes are at most
k and each of its prime powers is at most k**2.  Let P be the lcm of the
moduli.  By the CRT a uniform residue mod P is a tuple of independent
uniform coordinates x_p mod p**v_p(P), and a class r mod m holds it exactly
when x_p == r (mod p**v_p(m)) for every p | m.  Fix the coordinates one
prime at a time, ascending, and call a class live while every fixed
coordinate meets it.  Then the density of the union inside a cell depends
only on the live classes and the primes left: it is 0 when no class is
live, 1 when some live class has no coordinate left to fix, and otherwise
the mean, over x mod q with q the largest power of the next prime p that a
live class fixes, of the density for the live classes that x keeps, those
with x == r (mod p**v_p(m)).  union_density memoizes that recursion on
(live classes, next prime).  Its number of states is measured, not
bounded: 624 at k = 19 and 1808 at k = 30.

Everything is exact: densities are fractions end to end, and the one sum that
cannot be held as a reduced fraction (the tail bound over millions of b) is
returned as a certified scaled-integer lower bound with stated deficit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod

import numpy as np

from . import bulk
from .arith import (
    Factorization,
    _lambda_prime_power,
    as_factorization,
    as_index,
    carmichael_lambda,
    coprime_part,
    divisors,
    factor,
    is_prime,
    multiplicative_order,
)
from .errors import CapacityError
from .sieve import ResidueClass

TAIL_SCALE = 10**18
_TAIL_BLOCK = 1 << 16  # values of b per block of the floor sum

_CLASS_SYSTEM_CAP = 10**5
_UNION_CAP = 30  # kept on purpose: raising it changes what test_union_density_guard pins
_COUNT_CAP = 10**8
_T_CHUNK = 1 << 22  # t values per chunk of one count_S row
_C1_CAP = 10**5
_TAIL_CAP = 2 * 10**7


# ---------------------------------------------------------------------------
# the unit group mod b and its order census


def _sylow_components(b: int) -> tuple[AbelianPGroup, ...]:
    """The p-components of the whole unit group mod b, ascending in p; only
    unit_order_counts reads them (G_b has its own listing, _gb_components).

    Each p**e || b gives a cyclic factor of order lambda(p**e), plus a C_2
    when p = 2 and e >= 3; each cyclic factor splits over the primes of its
    order."""
    exponents: dict = {}
    for p, e in factor(b).factors:
        for c in (_lambda_prime_power(p, e), 2 if p == 2 and e >= 3 else 1):
            for q, k in factor(c).factors if c > 1 else ():
                exponents.setdefault(q, []).append(k)
    return tuple(AbelianPGroup(q, tuple(sorted(ks))) for q, ks in sorted(exponents.items()))


def _gb_components(f: Factorization) -> list[tuple[int, tuple[int, ...]]]:
    """The q-components of G_b for b = f.value, as (q, (l1 <= ... <= lk))
    ascending in q: C_(q**l1) x ... x C_(q**lk).

    G_b is the product over odd p | b of C_(c_p), c_p the part of p - 1
    prime to b, so each odd p | b adds C_(q**v_q(p-1)) to every q-component
    with q | p - 1 and q not dividing b.  factor proves every q prime."""
    b = f.value
    exponents: dict = {}
    for p, _ in f.factors:
        if p > 2:
            for q, k in factor(p - 1).factors:
                if b % q:
                    exponents.setdefault(q, []).append(k)
    return [(q, tuple(sorted(ks))) for q, ks in sorted(exponents.items())]


def unit_order_counts(b: int) -> dict:
    """{d: number of units mod b of multiplicative order exactly d}, ascending
    in d, from the group structure.

    The unit group is the product of its p-components G_p, so the number of
    units of order d is the product over p of group_order_count(v_p(d), G_p).
    No unit enumeration."""
    b = as_index(b, "b", 2)
    counts = {1: 1}
    for g in _sylow_components(b):
        counts = {
            d * g.p**j: n * group_order_count(j, g)
            for d, n in counts.items()
            for j in range(g.lambdas[-1] + 1)
        }
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# the sets T_b as class systems


@dataclass(frozen=True)
class ClassSystem:
    """A finite union of pairwise disjoint residue classes minus finitely
    many excluded points."""

    classes: tuple[ResidueClass, ...]
    excluded_points: tuple[int, ...]

    def contains(self, n: int) -> bool:
        if n in self.excluded_points:
            return False
        return any(c.contains(n) for c in self.classes)

    @property
    def density(self) -> Fraction:
        """Sum of 1/m over the classes, as one fraction over their lcm."""
        period = lcm(*(c.m for c in self.classes))
        return Fraction(sum(period // c.m for c in self.classes), period)


def sb_class_system(b: int) -> ClassSystem:
    """The residue classes making up T_b, one per a0 in G_b: a0**lambda0 == 1
    (mod b), lambda0 the part of lambda(b) prime to b, found apart from
    _gb_components so each checks the other.  The class is n == b*a0 (mod b**2)
    and n == 1 mod ord(a0), one CRT step.  The point n = b (a = 1) is excluded."""
    b = as_index(b, "b", 2)
    if b > _CLASS_SYSTEM_CAP:
        raise CapacityError(f"sb_class_system capped at b <= {_CLASS_SYSTEM_CAP}")
    lam0 = coprime_part(carmichael_lambda(factor(b)), b)
    lam0_f = as_factorization(lam0)
    classes = []
    for a0 in range(1, b):
        if pow(a0, lam0, b) == 1:
            d = multiplicative_order(a0, b, lam0_f)
            classes.append(ResidueClass(b * a0, b * b).intersect(ResidueClass(1 % d, d)))
    return ClassSystem(tuple(sorted(classes, key=lambda c: (c.m, c.r))), (b,))


def sb_membership(n: int, b: int) -> bool:
    """n in T_b: b | n, a = n/b >= 2 coprime to b, and a**(n-1) == 1 (mod b)."""
    n, b = as_index(n), as_index(b, "b", 2)
    if n % b != 0:
        return False
    a = n // b
    if a < 2 or gcd(a, b) != 1:
        return False
    return pow(a, n - 1, b) == 1 % b


def sb_density(b: int) -> Fraction:
    """Exact density N(G_b) / b**2 of T_b, as one fraction: N(G_b) is the
    product over the q-components of _n_numerator / q**lambda."""
    b = as_index(b, "b", 2)
    f = factor(b)
    num = den = 1
    for q, ls in _gb_components(f):
        num *= _n_numerator(q, ls)
        den *= q ** ls[-1]
    return Fraction(num, den * f.value**2)


# ---------------------------------------------------------------------------
# unions and partial sums


def union_density(k: int) -> Fraction:
    """Exact density of the union of T_b for 2 <= b <= k, by a memoized walk
    over the CRT coordinates of the classes, primes p <= k ascending (see
    the module docstring).  A state is the set of live classes and the
    index i of the next prime p; the residues x mod q, q the largest power
    of p that a live class fixes, are grouped by the live classes they
    keep, and each group adds count/q times the density of its state at
    i + 1.  A live class with no coordinate left fills the cell, and no
    live class leaves it empty.  Finitely many excluded points cannot move
    a density and are ignored."""
    k = as_index(k, "k", 2)
    if k > _UNION_CAP:
        raise CapacityError(f"union_density capped at k <= {_UNION_CAP}")
    classes = sorted({(c.m, c.r) for b in range(2, k + 1) for c in sb_class_system(b).classes})
    primes = [p for p in range(2, k + 1) if is_prime(p)]
    # powers[c][i]: the power of primes[i] in the modulus of class c, and
    # ends[c]: the index past the last coordinate that class c fixes
    powers = [[m // coprime_part(m, p) for p in primes] for m, _ in classes]
    ends = [max(i + 1 for i, q in enumerate(pw) if q > 1) for pw in powers]

    @cache
    def walk(live: frozenset, i: int) -> Fraction:
        # density of the union of the live classes inside one cell of the
        # coordinates primes[:i], a cell every live class meets
        if not live or any(ends[c] <= i for c in live):
            return Fraction(bool(live))  # no live class: 0; a class with no coordinate left: 1
        q = max(powers[c][i] for c in live)
        cells = Counter(
            frozenset(c for c in live if (x - classes[c][1]) % powers[c][i] == 0) for x in range(q)
        )
        return sum(n * walk(kept, i + 1) for kept, n in cells.items()) / q

    return walk(frozenset(range(len(classes))), 0)


def c1_partial(b_max: int) -> Fraction:
    """Exact partial sum of delta(T_b) for 2 <= b <= b_max.

    The terms are added in a balanced tree, pairs of neighbours at each
    level, so most sums are of fractions with small denominators."""
    b_max = as_index(b_max, "b_max", 2)
    if b_max > _C1_CAP:
        raise CapacityError(f"c1_partial capped at b_max <= {_C1_CAP}")
    terms = [sb_density(b) for b in range(2, b_max + 1)]
    while len(terms) > 1:
        terms = [x + y for x, y in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
    return terms[0]


# ---------------------------------------------------------------------------
# counting members below a bound


def _prime_to(s: int, units: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The t in [lo, hi) prime to s, ascending, as uint32 k*s + u over the
    units u mod s (ascending, as uint32)."""
    rows = np.arange(lo // s, (hi - 1) // s + 1, dtype=np.uint32)
    t = (rows[:, None] * np.uint32(s) + units).ravel()
    return t[np.searchsorted(t, lo) : np.searchsorted(t, hi)]


def count_S(limit: int) -> tuple[int, int]:
    """(#{n <= limit with some divisor base}, sum over n <= limit of the
    number of divisor bases of n).

    A base a works for n exactly when 1 < a < n, a | n and a**n == a (mod n).
    With n = a*b that forces gcd(a, b) = 1 (for a prime p dividing both,
    p**(v_p(a)+1) divides n and a**n but not a), and then reduces to
    a**(n-1) == 1 (mod b).
    The scan enumerates divisor pairs n = s*t with s < t grouped by the
    smaller side s, keeps the t prime to s (built from the units mod s), and
    tests the base s modulo t and the base t modulo s, each pair once (s = t
    is never coprime).  No factorization is needed, and one smallest-prime
    array to limit // 2 (bulk.spf_window) serves both bases.

    Base s mod t: no prime of s or t divides n - 1, so with
    g = gcd(lambda0(t), n-1) = gcd(lambda(t), n-1), lambda0(t) the exponent
    of G_t, s**(n-1) == 1 (mod t) exactly when s**g == 1 (mod t).  lambda0
    comes from one bulk.phi0_lambda0_arrays pass over that array, the pass
    tail_bound runs.  t divides s**g - 1 >= 1, so s**g >= t + 1: a pair
    with s**g <= t is refuted before any power is taken mod t.  For the
    rest, s**g mod t is read off s**g itself where it is below 2**63
    (bulk.capped_power), and is otherwise a power mod t with the exponent g.

    Base t mod s: t**(n-1) == 1 (mod s) exactly when ord_s(t mod s) divides
    n - 1.  Each row builds ord_s over the residues mod s once, as the lcm
    over q = p**e || s of the order mod q, read off one discrete-log table
    per prime power q <= sqrt(limit) (bulk.unit_order_tables), and each pair
    is one gather at t mod s and one remainder.  The table is 0 at the
    non-units, which are never read, and needs no G_s filter: an order
    sharing a prime with s cannot divide n - 1, as n - 1 is prime to s.
    The tables and the q of each s read the first sqrt(limit) + 1 entries
    of the smallest-prime array, copied once lambda0 is read so that the
    rest is freed.
    """
    limit = as_index(limit, "limit", 0)
    if limit > _COUNT_CAP:
        raise CapacityError(f"count_S capped at limit <= {_COUNT_CAP}")
    member = np.zeros(limit + 1, dtype=bool)
    total = 0
    spf = bulk.spf_window(limit // 2 + 1)
    lam0 = bulk.phi0_lambda0_arrays(spf)[1].view(np.uint32)
    root = isqrt(limit)
    spf = spf[: root + 1].copy()  # frees the rest of the sieve
    tables = bulk.unit_order_tables(spf)
    for s in range(2, root + 1):
        order = np.ones(s, dtype=np.uint32)  # ord(u mod s), 0 at the non-units
        rest = s
        while rest > 1:
            p = q = int(spf[rest])
            while rest % (q * p) == 0:
                q *= p
            order = np.lcm(order, np.tile(tables[q], s // q))
            rest //= q
        units = np.flatnonzero(order).astype(np.uint32)
        tmax = limit // s
        for t0 in range(s + 1, tmax + 1, _T_CHUNK):
            t = _prime_to(s, units, t0, min(t0 + _T_CHUNK, tmax + 1))
            n = t * np.uint32(s)
            g = np.gcd(lam0[t], n - np.uint32(1))
            power = bulk.capped_power(s, g)
            live = np.flatnonzero(power > t)  # s**g <= t refutes
            power, tl = power[live], t[live]
            big = np.flatnonzero(power == bulk.POWER_CAP)
            power[big] = bulk.powmod_vector(s, g[live[big]], tl[big])
            live = live[power % tl == 1]  # divisor a = s
            pass_t = (n - np.uint32(1)) % order[t % np.uint32(s)] == 0  # divisor a = t
            total += live.size + int(np.count_nonzero(pass_t))
            member[n[live]] = True
            member[n[pass_t]] = True
    return int(np.count_nonzero(member)), total


# ---------------------------------------------------------------------------
# tail bounds


def tail_bound_term(b: int) -> Fraction:
    """The per-b bound tau(lambda0(b)) * phi0(b) / (lambda0(b) * b**2),
    an upper bound for delta(T_b); lambda0 and phi0 are the exponent and the
    order of G_b."""
    b = as_index(b, "b", 2)
    return Fraction(_order_bound(_gb_components(factor(b))), b * b)


def tail_bound(b_lo: int, b_hi: int) -> Fraction:
    """Sum of tail_bound_term(b) over b_lo < b <= b_hi.

    Each term is accumulated as floor(term * 10**18), so the result is an
    exact rational lower bound of the true sum with deficit below
    (b_hi - b_lo) / 10**18.

    One smallest-prime array to b_hi (bulk.spf_window) feeds two passes:
    tau of every index (bulk.tau_array), read at lambda0, and lambda0 and
    phi0, the exponent and the order of G_b (bulk.phi0_lambda0_arrays).
    With p = spf(b) and rest = b // p**v_p(b), G_b is C_(p-1) times G_rest
    without its p-component (without its 2-component, and no C_(p-1), for
    p = 2), as no prime of p - 1 divides b.  Each term is num / b**2 with
    the integer num = tau(lambda0) * (phi0 / lambda0); as tau(m) <= m,
    num <= phi0 < b, so num is formed in int32 with no overflow.  Its floor at scale 10**18
    is two integer divisions by b: with num * 10**9 = q*b + r,
    floor(10**18 * num / b**2) = (q * 10**9 + r * 10**9 // b) // b, and no
    value there reaches 10**18 + 10**9 < 2**63.  A term is below 10**18 / b
    and b >= 3, so the terms of a block of _TAIL_BLOCK values of b sum below
    1.04 * 10**19 < 2**64 in uint64, and the blocks add in a Python int.
    """
    b_lo, b_hi = as_index(b_lo, "b_lo"), as_index(b_hi, "b_hi")
    if not 2 <= b_lo < b_hi:
        raise ValueError("need 2 <= b_lo < b_hi")
    if b_hi > _TAIL_CAP:
        raise CapacityError(f"tail_bound capped at b_hi <= {_TAIL_CAP}")
    spf = bulk.spf_window(b_hi + 1)
    phi0, lam0 = (x[b_lo + 1 :] for x in bulk.phi0_lambda0_arrays(spf))
    num = bulk.tau_array(spf)[lam0]
    del spf
    num *= phi0 // lam0  # num <= phi0 < b
    del phi0, lam0
    acc = 0
    e9 = np.uint64(10**9)
    for start in range(0, num.size, _TAIL_BLOCK):
        x = num[start : start + _TAIL_BLOCK].astype(np.uint64) * e9
        b = np.arange(b_lo + 1 + start, b_lo + 1 + start + x.size, dtype=np.uint64)
        q, r = np.divmod(x, b)
        acc += int(((q * e9 + r * e9 // b) // b).sum(dtype=np.uint64))
    return Fraction(acc, TAIL_SCALE)


# ---------------------------------------------------------------------------
# imprimitive b


def is_imprimitive(b: int) -> int | None:
    """Least b0 with b = a0*b0, a0, b0 >= 2 and a0 == 1 (mod b0), if any.

    The condition is sufficient for T_b to sit inside T_b0, not necessary."""
    b = as_index(b, "b", 2)
    for b0 in divisors(factor(b))[1:-1]:
        a0 = b // b0
        if a0 >= 2 and a0 % b0 == 1:
            return b0
    return None


# ---------------------------------------------------------------------------
# abelian p-groups: order statistics and the two inequalities


@dataclass(frozen=True)
class AbelianPGroup:
    """C_{p**l1} x ... x C_{p**lk} with 1 <= l1 <= ... <= lk."""

    p: int
    lambdas: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(as_index(self.p, "p")):
            raise ValueError("p must be prime")
        try:
            lambdas = [as_index(x, "lambda", 1) for x in self.lambdas]
        except TypeError:  # lambdas is not iterable
            raise ValueError("lambdas must be a nondecreasing list of positive integers") from None
        if not lambdas:
            raise ValueError("need at least one cyclic factor")
        if lambdas != sorted(lambdas):
            raise ValueError("lambdas must be a nondecreasing list of positive integers")


def _dividing(p: int, lambdas, j: int) -> int:
    """Elements of order dividing p**j in C_(p**l1) x ... x C_(p**lk):
    the product of min(p**j, p**li)."""
    return p ** sum(min(j, l) for l in lambdas)


def group_order_count(j: int, g: AbelianPGroup) -> int:
    """N(p**j, g): elements of order exactly p**j.

    For j >= 1 this is prod(min(p**j, p**li)) - prod(min(p**(j-1), p**li));
    j = 0 counts the identity and j beyond the exponent gives 0.
    """
    j = as_index(j, "j", 0)
    if not isinstance(g, AbelianPGroup):
        raise ValueError("g must be an AbelianPGroup")
    if j == 0:
        return 1
    return _dividing(g.p, g.lambdas, j) - _dividing(g.p, g.lambdas, j - 1)


def _n_numerator(p: int, lambdas) -> int:
    """p**lambda * N(G) for G = C_(p**l1) x ... x C_(p**lk), lambda = lk:
    the sum over j <= lambda of N(p**j, G) * p**(lambda - j), an integer."""
    lam = lambdas[-1]
    total = below = 0  # below: elements of order dividing p**(j-1)
    for j in range(lam + 1):
        upto = _dividing(p, lambdas, j)
        total += (upto - below) * p ** (lam - j)
        below = upto
    return total


def group_N(g: AbelianPGroup) -> Fraction:
    """N(g) = sum over j of N(p**j, g) / p**j, as one fraction over the
    common denominator p**lambda."""
    if not isinstance(g, AbelianPGroup):
        raise ValueError("g must be an AbelianPGroup")
    return Fraction(_n_numerator(g.p, g.lambdas), g.p ** g.lambdas[-1])


def _order_bound(components) -> int:
    """tau(lambda(G)) * #G / lambda(G) for G given by its p-components
    (p, (l1 <= ... <= lk)) with distinct primes: the product over them of
    (lk + 1) * p**(l1 + ... + lk - lk)."""
    return prod((ls[-1] + 1) * p ** (sum(ls) - ls[-1]) for p, ls in components)


@dataclass(frozen=True)
class GroupBoundReport:
    """Both inequalities checked on a group given by its p-components:
    per-component rows (p, j, count, count/p**j, p**(n-lambda)) for the
    ratio bound, and N(G) against tau(lambda(G)) * #G / lambda(G)."""

    n_value: Fraction
    eq_bound: Fraction
    rows: tuple[tuple[int, int, int, Fraction, int], ...]

    @property
    def all_ok(self) -> bool:
        return (all(ratio <= cap for _, _, _, ratio, cap in self.rows)
                and self.n_value <= self.eq_bound)

    @property
    def margin(self) -> Fraction:
        return self.eq_bound - self.n_value


def check_group_bounds(groups) -> GroupBoundReport:
    """Verify the order-count inequalities for an abelian group given as one
    AbelianPGroup or a sequence of p-components with distinct primes; N is
    multiplicative over components."""
    if isinstance(groups, AbelianPGroup):
        groups = (groups,)
    try:
        components = tuple(groups)
    except TypeError:  # groups is not iterable
        components = ()
    if not components or not all(isinstance(g, AbelianPGroup) for g in components):
        raise ValueError("need one or more AbelianPGroup components")
    primes = [g.p for g in components]
    if len(set(primes)) != len(primes):
        raise ValueError("components must have distinct primes")
    rows = []
    for g in components:
        lam = g.lambdas[-1]
        cap = g.p ** (sum(g.lambdas) - lam)
        for j in range(lam + 1):
            count = group_order_count(j, g)
            rows.append((g.p, j, count, Fraction(count, g.p**j), cap))
    n_value = prod((group_N(g) for g in components), start=Fraction(1))
    bound = _order_bound((g.p, g.lambdas) for g in components)
    return GroupBoundReport(n_value, Fraction(bound), tuple(rows))
