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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

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

_CLASS_SYSTEM_CAP = 10**5
_UNION_CAP = 30
_COUNT_CAP = 10**8
_T_CHUNK = 1 << 22  # t values per chunk of one count_S row
_C1_CAP = 10**5
_TAIL_CAP = 2 * 10**7


# ---------------------------------------------------------------------------
# the unit group mod b and its order census


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
    """{d: number of units mod b of multiplicative order exactly d}, ascending
    in d, from the group structure.

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
    lam_f = as_factorization(carmichael_lambda(factor(b)))
    classes = []
    for a0 in range(1, b):
        if gcd(a0, b) != 1:
            continue
        d = multiplicative_order(a0, b, lam_f)
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


def c1_partial(b_max: int) -> Fraction:
    """Exact partial sum of delta(T_b) for 2 <= b <= b_max.

    The terms are added in a balanced tree, pairs of neighbours at each
    level, so most sums are of fractions with small denominators."""
    if b_max < 2:
        raise ValueError("b_max must be >= 2")
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
    is never coprime).  No factorization is needed; lambda comes from one
    sieve to limit // 2.

    Base s mod t: ord_t(s) divides lambda(t) and n-1, so it divides
    g = gcd(lambda(t), n-1), and s**(n-1) == 1 (mod t) exactly when
    s**g == 1 (mod t).  Then t divides s**g - 1 >= 1, so s**g >= t + 1: a
    pair with s**g <= t is refuted before any power is taken mod t.  For the
    rest, s**g mod t is read off s**g itself where it is below 2**63
    (bulk.capped_power), and is otherwise a power mod t with the exponent g.

    Base t mod s: t is a unit mod s, so t**(n-1) mod s depends only on t mod
    s and on the exponent n-1 = s*t - 1 mod lambda(s), that is on t mod
    P = lcm(s, lambda(s)) (the class system of T_s).  The verdicts are taken
    once over s < t <= min(s + P, limit // s), and every t reads the one at
    (t - s - 1) mod P.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > _COUNT_CAP:
        raise CapacityError(f"count_S capped at limit <= {_COUNT_CAP}")
    member = np.zeros(limit + 1, dtype=bool)
    total = 0
    lam = bulk.phi_lambda_arrays(limit // 2)[1].view(np.uint32)
    for s in range(2, isqrt(limit) + 1):
        tmax = limit // s
        units = np.ones(s, dtype=bool)
        for p, _ in factor(s).factors:
            units[::p] = False
        units = np.flatnonzero(units).astype(np.uint32)
        period = lcm(s, int(lam[s]))
        t = _prime_to(s, units, s + 1, min(s + period, tmax) + 1)
        e = (t * np.uint32(s) - np.uint32(1)) % lam[s]
        verdict = np.zeros(min(period, tmax - s), dtype=bool)
        verdict[t - np.uint32(s + 1)] = bulk.powmod_vector(t, e, np.full(t.size, s)) == 1
        for t0 in range(s + 1, tmax + 1, _T_CHUNK):
            t = _prime_to(s, units, t0, min(t0 + _T_CHUNK, tmax + 1))
            n = t * np.uint32(s)
            g = np.gcd(lam[t], n - np.uint32(1))
            power = bulk.capped_power(s, g)
            live = np.flatnonzero(power > t)  # s**g <= t refutes
            power, tl = power[live], t[live]
            big = np.flatnonzero(power == bulk.POWER_CAP)
            power[big] = bulk.powmod_vector(s, g[live[big]], tl[big])
            live = live[power % tl == 1]  # divisor a = s
            pass_t = verdict[(t - np.uint32(s + 1)) % np.uint32(period)]  # divisor a = t
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
    num <= phi0 < b**2 and every term is below 1.  The phi, lambda and tau
    arrays are int32, so num is widened to int64 before any product.  Its
    floor at scale 10**18 is found by long division in int64: the remainder
    stays below b**2 <= 4 * 10**14 and is multiplied by at most 10**4 per
    step, so no value reaches 4 * 10**18 < 2**63.  The digits of one step
    are summed over all b (each column sum is below 10**4 * 2 * 10**7)
    before they are combined in a Python int, so the total cannot wrap.
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
    rem = bulk.tau_array(lam0).astype(np.int64) * ratio  # num < b**2: the first remainder
    del lam0, ratio
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
    if not components:
        raise ValueError("need at least one component")
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
