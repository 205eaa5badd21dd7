"""Exact densities of the divisor-base pseudoprime sets.

For b >= 2 let T_b = {ab : a >= 2, a**(ab) == a (mod ab)}: the numbers that
are a Fermat pseudoprime to the base n/b.  Membership forces gcd(a, b) = 1 and
reduces to a**(ab-1) == 1 (mod b), so T_b (plus the single excluded point b)
is a finite union of residue classes: one class mod b**2*d for every unit
a0 mod b whose multiplicative order d is coprime to b.  Those units form the
subgroup G_b of (Z/bZ)^*, the product of its p-components with p not dividing
b, so with N(G) = sum over x in G of 1/ord(x)

    delta(T_b) = N(G_b) / b**2.

The per-b tail term tau(lambda0) phi0 / (lambda0 b**2), where lambda0 and phi0
are the exponent and the order of G_b, is the group inequality
N(G) <= tau(lambda(G)) #G / lambda(G) on G_b, divided by b**2.  G_b is listed
once, as p-components (_gb_components); sb_density multiplies group_N over
them, and tail_bound_term and check_group_bounds read the bound from one
product over them (_order_bound).  On top of these sit exact union densities
by CRT inclusion-exclusion and partial sums of the density series.

Everything is exact: densities are fractions end to end, and the one sum that
cannot be held as a reduced fraction (the tail bound over millions of b) is
returned as a certified scaled-integer lower bound with stated deficit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

from . import bulk
from .arith import (
    _lambda_prime_power,
    as_factorization,
    carmichael_lambda,
    divisors,
    factor,
    is_prime,
    multiplicative_order,
)
from .errors import CapacityError
from .sieve import ResidueClass

TAIL_SCALE = 10**18
_TAIL_STEPS = (10**4,) * 4 + (10**2,)  # long-division steps; product TAIL_SCALE

_ORDER_CENSUS_CAP = 10**7
_CLASS_SYSTEM_CAP = 10**5
_UNION_CAP = 30
_COUNT_CAP = 10**8
_C1_CAP = 10**5
_TAIL_CAP = 2 * 10**7
_SCAN_PERIOD_CAP = 1 << 27
_GROUP_BRUTE_CAP = 10**7


# ---------------------------------------------------------------------------
# order censuses


def _unit_orders(b: int):
    """Yield (a0, ord(a0)) for every unit a0 mod b, ascending in a0."""
    lam_f = as_factorization(carmichael_lambda(factor(b)))
    for a0 in range(1, b):
        if gcd(a0, b) == 1:
            yield a0, multiplicative_order(a0, b, lam_f)


def order_census(b: int) -> dict:
    """{d: number of units mod b of multiplicative order exactly d}, ascending
    in d, by computing the order of every unit mod b; the counts partition
    the phi(b) units."""
    if b < 2:
        raise ValueError("b must be >= 2")
    if b > _ORDER_CENSUS_CAP:
        raise CapacityError(f"order_census capped at b <= {_ORDER_CENSUS_CAP}")
    return dict(sorted(Counter(d for _, d in _unit_orders(b)).items()))


def _sylow_components(b: int) -> tuple[AbelianPGroup, ...]:
    """The p-components of the unit group mod b, ascending in p.

    Each p**e || b gives a cyclic factor of order lambda(p**e), plus a C_2
    when p = 2 and e >= 3; each cyclic factor splits over the primes of its
    order."""
    exponents: dict = {}
    for p, e in factor(b).factors:
        for c in (_lambda_prime_power(p, e), 2 if p == 2 and e >= 3 else 1):
            for q, k in factor(c).factors if c > 1 else ():
                exponents.setdefault(q, []).append(k)
    return tuple(AbelianPGroup(q, tuple(sorted(ks))) for q, ks in sorted(exponents.items()))


def _gb_components(b: int) -> list[AbelianPGroup]:
    """The p-components of G_b, the units mod b whose order is prime to b:
    those of the unit group mod b with p not dividing b."""
    return [g for g in _sylow_components(b) if b % g.p]


def unit_order_counts(b: int) -> dict:
    """Same census as order_census(b), from the group structure.

    The unit group is the product of its p-components G_p, so the number of
    units of order d is the product over p of group_order_count(v_p(d), G_p).
    No unit enumeration."""
    if b < 2:
        raise ValueError("b must be >= 2")
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
        return sum((Fraction(1, c.m) for c in self.classes), Fraction(0))


def sb_class_system(b: int) -> ClassSystem:
    """The residue classes making up T_b, one of modulus b**2*d per unit
    a0 mod b with order d coprime to b; the point n = b (the a = 1 case)
    is excluded."""
    if b < 2:
        raise ValueError("b must be >= 2")
    if b > _CLASS_SYSTEM_CAP:
        raise CapacityError(f"sb_class_system capped at b <= {_CLASS_SYSTEM_CAP}")
    classes = []
    for a0, d in _unit_orders(b):
        if gcd(d, b) != 1:
            continue
        a_class = ResidueClass(a0 % b, b)
        if d > 1:
            a_class = a_class.intersect(ResidueClass(pow(b, -1, d), d))
        classes.append(ResidueClass(b * a_class.r % (b * a_class.m), b * a_class.m))
    return ClassSystem(tuple(sorted(classes, key=lambda c: (c.m, c.r))), (b,))


def sb_membership(n: int, b: int) -> bool:
    """n in T_b: b | n, a = n/b >= 2 coprime to b, and a**(n-1) == 1 (mod b)."""
    if b < 2:
        raise ValueError("b must be >= 2")
    if n % b != 0:
        return False
    a = n // b
    if a < 2 or gcd(a, b) != 1:
        return False
    return pow(a, n - 1, b) == 1 % b


def sb_density(b: int) -> Fraction:
    """Exact density N(G_b) / b**2 of T_b."""
    if b < 2:
        raise ValueError("b must be >= 2")
    return Fraction(prod(group_N(g) for g in _gb_components(b)), b * b)


# ---------------------------------------------------------------------------
# unions and partial sums


def union_density(k: int) -> Fraction:
    """Exact density of the union of T_b for 2 <= b <= k, by inclusion-
    exclusion over all classes of all systems; intersections are taken by
    CRT and empty ones prune the whole subset subtree.  Finitely many
    excluded points cannot move a density and are ignored."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > _UNION_CAP:
        raise CapacityError(f"union_density capped at k <= {_UNION_CAP}")
    classes = sorted(
        {c for b in range(2, k + 1) for c in sb_class_system(b).classes},
        key=lambda c: (c.m, c.r),
    )
    total = Fraction(0)

    def walk(start: int, current: ResidueClass, sign: int) -> None:
        nonlocal total
        for j in range(start, len(classes)):
            inter = current.intersect(classes[j])
            if inter is None:
                continue
            total += Fraction(sign, inter.m)
            walk(j + 1, inter, -sign)

    walk(0, ResidueClass(0, 1), 1)
    return total


def union_density_scan(k: int) -> Fraction:
    """Independent oracle for union_density: mark one full period of the
    union of class systems and count."""
    if k < 2:
        raise ValueError("k must be >= 2")
    systems = [sb_class_system(b) for b in range(2, k + 1)]
    period = 1
    for s in systems:
        for c in s.classes:
            period = period // gcd(period, c.m) * c.m
    if period > _SCAN_PERIOD_CAP:
        raise CapacityError(f"scan period {period} exceeds {_SCAN_PERIOD_CAP}")
    mark = np.zeros(period, dtype=bool)
    for s in systems:
        for c in s.classes:
            mark[c.r :: c.m] = True
    return Fraction(int(mark.sum()), period)


def c1_partial(b_max: int) -> Fraction:
    """Exact partial sum of delta(T_b) for 2 <= b <= b_max."""
    if b_max < 2:
        raise ValueError("b_max must be >= 2")
    if b_max > _C1_CAP:
        raise CapacityError(f"c1_partial capped at b_max <= {_C1_CAP}")
    return sum((sb_density(b) for b in range(2, b_max + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# counting members below a bound


def count_S(limit: int) -> tuple[int, int]:
    """(#{n <= limit with some divisor base}, sum over n <= limit of the
    number of divisor bases of n).

    A base a works for n exactly when 1 < a < n, a | n and a**n == a (mod n).
    With n = a*b that forces gcd(a, b) = 1 (for a prime p dividing both,
    p**(v_p(a)+1) divides n and a**n but not a), and then reduces to
    a**(n-1) == 1 (mod b).
    The scan enumerates divisor pairs n = s*t with s < t grouped by the
    smaller side s, keeps the t coprime to s, and tests the base s modulo t
    and the base t modulo s.  On the t side the exponent n-1 is taken mod
    lambda(s): t is a unit mod s, so t**lambda(s) == 1 (mod s).  Each (a, n)
    pair is tested exactly once (s = t is never coprime), and no
    factorizations are needed.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > _COUNT_CAP:
        raise CapacityError(f"count_S capped at limit <= {_COUNT_CAP}")
    member = np.zeros(limit + 1, dtype=bool)
    total = 0
    chunk = 1 << 22
    root = isqrt(limit)
    _, lam = bulk.phi_lambda_arrays(root)
    for s in range(2, root + 1):
        su = np.uint64(s)
        tmax = limit // s
        for t0 in range(s + 1, tmax + 1, chunk):
            t = np.arange(t0, min(t0 + chunk, tmax + 1), dtype=np.uint64)
            t = t[np.gcd(t, su) == 1]
            n = su * t
            e = n - np.uint64(1)
            pass_s = bulk.powmod_vector(s, e, t) == 1  # divisor a = s
            pass_t = bulk.powmod_vector(t, e % np.uint64(lam[s]), np.full(t.size, su)) == 1
            total += int(pass_s.sum()) + int(pass_t.sum())
            member[n[pass_s | pass_t]] = True
    return int(member.sum()), total


# ---------------------------------------------------------------------------
# tail bounds


def tail_bound_term(b: int) -> Fraction:
    """The per-b bound tau(lambda0(b)) * phi0(b) / (lambda0(b) * b**2),
    an upper bound for delta(T_b); lambda0 and phi0 are the exponent and the
    order of G_b."""
    if b < 2:
        raise ValueError("b must be >= 2")
    return Fraction(_order_bound(_gb_components(b)), b * b)


def tail_bound(b_lo: int, b_hi: int) -> Fraction:
    """Sum of tail_bound_term(b) over b_lo < b <= b_hi.

    phi and lambda come from sieves; each term is accumulated as
    floor(term * 10**18), so the result is an exact rational lower bound of
    the true sum with deficit below (b_hi - b_lo) / 10**18.

    lambda0 and phi0 are the exponent and the order of G_b: phi0 is the
    coprime-to-b part of phi(b), and lambda0 = gcd(lambda(b), phi0), since
    lambda(b) | phi(b) leaves v_q(phi0) >= v_q(lambda(b)) for each prime q
    not dividing b, and v_q(phi0) = 0 for each q dividing b.  So lambda0 |
    phi0, and one coprime-part pass gives both.  Each term is num / b**2
    with the integer num = tau(lambda0) * (phi0 / lambda0); as tau(m) <= m,
    num <= phi0 < b**2 and every term is below 1.  Its floor at scale 10**18 is found by long
    division in int64: the remainder stays below b**2 <= 4 * 10**14 and is
    multiplied by at most 10**4 per step, so no value reaches
    4 * 10**18 < 2**63.  The digits of one step are summed over all b
    (each column sum is below 10**4 * 2 * 10**7) before they are combined
    in a Python int, so the total cannot wrap.
    """
    if not 2 <= b_lo < b_hi:
        raise ValueError("need 2 <= b_lo < b_hi")
    if b_hi > _TAIL_CAP:
        raise CapacityError(f"tail_bound capped at b_hi <= {_TAIL_CAP}")
    phi, lam = bulk.phi_lambda_arrays(b_hi)
    b = np.arange(b_lo + 1, b_hi + 1, dtype=np.int64)
    ratio = bulk.coprime_part_array(phi[b_lo + 1 :], b)  # phi0
    lam0 = np.gcd(lam[b_lo + 1 :], ratio)
    del phi, lam
    ratio //= lam0  # phi0 / lambda0, in place
    spf = bulk.spf_window(int(lam0.max()) + 1)
    rem = bulk.tau_array(lam0, spf) * ratio  # num < b**2: the first remainder
    del spf, lam0, ratio
    den = b * b
    acc = 0
    for step in _TAIL_STEPS:
        digits, rem = np.divmod(rem * step, den)
        acc = acc * step + int(digits.sum())
    return Fraction(acc, TAIL_SCALE)


# ---------------------------------------------------------------------------
# imprimitive b


def is_imprimitive(b: int) -> int | None:
    """Least b0 with b = a0*b0, a0, b0 >= 2 and a0 == 1 (mod b0), if any.

    The condition is sufficient for T_b to sit inside T_b0, not necessary."""
    if b < 2:
        raise ValueError("b must be >= 2")
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
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if not self.lambdas:
            raise ValueError("need at least one cyclic factor")
        if any(l < 1 for l in self.lambdas) or list(self.lambdas) != sorted(self.lambdas):
            raise ValueError("lambdas must be a nondecreasing list of positive integers")

    @property
    def order(self) -> int:
        return self.p ** sum(self.lambdas)

    @property
    def exponent(self) -> int:
        return self.p ** self.lambdas[-1]


def group_order_count(j: int, g: AbelianPGroup) -> int:
    """N(p**j, g): elements of order exactly p**j.

    For j >= 1 this is prod(min(p**j, p**li)) - prod(min(p**(j-1), p**li));
    j = 0 counts the identity and j beyond the exponent gives 0.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return 1
    p = g.p
    hi = 1
    lo = 1
    for l in g.lambdas:
        hi *= min(p**j, p**l)
        lo *= min(p ** (j - 1), p**l)
    return hi - lo


def group_N(g: AbelianPGroup) -> Fraction:
    """N(g) = sum over j of N(p**j, g) / p**j, as one fraction over the
    common denominator p**lambda."""
    lam = g.lambdas[-1]
    return Fraction(
        sum(group_order_count(j, g) * g.p ** (lam - j) for j in range(lam + 1)), g.p**lam
    )


def group_order_census_brute(g: AbelianPGroup) -> dict:
    """Element-by-element order census (oracle for the formula)."""
    if g.order > _GROUP_BRUTE_CAP:
        raise CapacityError(f"brute census capped at order <= {_GROUP_BRUTE_CAP}")
    orders = np.ones(1, dtype=np.int64)
    for l in g.lambdas:
        m = g.p**l
        comp = m // np.gcd(np.arange(m, dtype=np.int64), m)
        orders = np.lcm.outer(orders, comp).ravel()
    values, counts = np.unique(orders, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _order_bound(components) -> int:
    """tau(lambda(G)) * #G / lambda(G) for G given by its p-components with
    distinct primes: the product over them of (lambda + 1) * #G_p / p**lambda."""
    return prod((g.lambdas[-1] + 1) * (g.order // g.exponent) for g in components)


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
    components = tuple(groups)
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
    return GroupBoundReport(n_value, Fraction(_order_bound(components)), tuple(rows))
