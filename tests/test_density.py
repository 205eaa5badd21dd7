"""Density machinery: order censuses, class systems, exact densities, union
densities, countings, tail bounds, and the abelian-group order inequalities."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import oracles
import pseudoprimes as pp
from pseudoprimes import bulk, density
from pseudoprimes.errors import CapacityError


# ---------------------------------------------------------------------------
# order censuses


def test_order_census_examples():
    assert oracles.unit_order_census(8) == {1: 1, 2: 3}
    assert oracles.unit_order_census(3) == {1: 1, 2: 1}
    assert oracles.unit_order_census(2) == {1: 1}


def test_order_census_cyclic_prime_case():
    # mod p the group is cyclic: N(d, p) = phi(d) for every d | p-1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        census = oracles.unit_order_census(p)
        assert set(census) == set(pp.divisors(p - 1))
        for d, n in census.items():
            assert n == pp.euler_phi(d)


def test_structural_counts_match_enumeration_to_2000():
    # the extra b bring multi-factor 2- and 3-components and large primes
    for b in [*range(2, 2001), 4096, 6561, 30030, 55440, 65536, 99991]:
        assert pp.unit_order_counts(b) == oracles.unit_order_census(b)


def test_census_partitions_phi_to_5000():
    for b in [*range(2, 5001), 2**40, 3**25, 10**12, 2**61 - 1]:
        counts = pp.unit_order_counts(b)
        assert sum(counts.values()) == pp.euler_phi(b)
        lam = pp.carmichael_lambda(b)
        assert all(lam % d == 0 for d in counts)
        assert counts.get(lam, 0) > 0  # the maximal order is attained


# ---------------------------------------------------------------------------
# class systems and membership


def test_class_system_examples():
    s2 = pp.sb_class_system(2)
    assert [(c.r, c.m) for c in s2.classes] == [(2, 4)]
    assert s2.excluded_points == (2,)

    s3 = pp.sb_class_system(3)
    assert [(c.r, c.m) for c in s3.classes] == [(3, 9), (15, 18)]

    s4 = pp.sb_class_system(4)
    assert [(c.r, c.m) for c in s4.classes] == [(4, 16)]


def test_class_system_density_equals_formula_to_2000():
    for b in [*range(2, 2001), 4096, 6561, 30030, 55440, 65536, 99991]:
        assert pp.sb_class_system(b).density == pp.sb_density(b)


def test_class_system_classes_are_disjoint():
    for b in (2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 35, 63, 100):
        classes = pp.sb_class_system(b).classes
        for i, c1 in enumerate(classes):
            for c2 in classes[i + 1 :]:
                assert c1.intersect(c2) is None


def test_membership_examples():
    assert pp.sb_membership(6, 2)
    assert not pp.sb_membership(2, 2)  # the a = 1 point
    assert pp.sb_membership(20, 4)  # 5**20 == 5 (mod 20)
    assert not pp.sb_membership(12, 4)


def test_membership_matches_congruence_definition():
    # direct definition: n = a*b, a >= 2, a**n == a (mod n)
    for b in range(2, 30):
        for a in range(1, 3000 // b + 1):
            n = a * b
            direct = a >= 2 and pow(a, n, n) == a % n
            assert pp.sb_membership(n, b) == direct, (n, b)


def test_membership_matches_class_system_to_1e5():
    for b in range(2, 101):
        system = pp.sb_class_system(b)
        for n in range(b, 10**5 + 1, b):
            assert system.contains(n) == pp.sb_membership(n, b), (n, b)


def test_class_system_b4_against_membership_scan():
    system = pp.sb_class_system(4)
    members = {n for n in range(1, 10**4) if pp.sb_membership(n, 4)}
    assert members == {n for n in range(1, 10**4) if system.contains(n)}
    assert members == set(range(20, 10**4, 16))


# ---------------------------------------------------------------------------
# densities


def test_sb_density_examples():
    assert pp.sb_density(2) == Fraction(1, 4)
    assert pp.sb_density(3) == Fraction(1, 6)
    assert pp.sb_density(8) == Fraction(1, 64)


def test_sb_density_counts_one_period():
    # exact density == member count over one full period of the class system
    for b in range(2, 40):
        system = pp.sb_class_system(b)
        period = 1
        for c in system.classes:
            period = period // gcd(period, c.m) * c.m
        members = sum(1 for n in range(period) if any(c.contains(n) for c in system.classes))
        assert Fraction(members, period) == pp.sb_density(b)


def test_sb_density_past_the_order_census_cap():
    # G_b holds the units whose order is coprime to b, so N(G_b) is the sum
    # of count/d over those orders d of the census
    for b in (10**7 + 1, 2**61 - 1):
        n_value = sum(
            (Fraction(c, d) for d, c in pp.unit_order_counts(b).items() if gcd(d, b) == 1),
            Fraction(0),
        )
        assert pp.sb_density(b) == n_value / (b * b), b


def test_union_density_examples():
    assert pp.union_density(2) == Fraction(1, 4)
    assert pp.union_density(3) == Fraction(7, 18)


def test_union_density_matches_periodic_scan():
    for k in range(2, 11):
        assert pp.union_density(k) == oracles.union_density(k)


def test_union_density_monotone_and_below_c1():
    prev = Fraction(0)
    for k in range(2, 13):
        u = pp.union_density(k)
        assert u >= prev
        assert u <= pp.c1_partial(k)
        prev = u


def test_union_density_guard():
    with pytest.raises(CapacityError):
        pp.union_density(31)


def test_c1_partial_examples():
    assert pp.c1_partial(2) == Fraction(1, 4)
    assert pp.c1_partial(3) == Fraction(5, 12)


# ---------------------------------------------------------------------------
# counting members


def test_count_S_against_per_divisor_oracle():
    # independent oracle: per-n divisor scan through the congruence
    limit = 30000
    members = 0
    dsum = 0
    for n in range(2, limit + 1):
        d = pp.D(pp.factor(n))
        members += d > 0
        dsum += d
    assert pp.count_S(limit) == (members, dsum)


def _divisor_base_counts(limit):
    """count_S(L) for every L <= limit, from the definition with scalar pow:
    a base a of n is a divisor 1 < a < n with a**n == a (mod n)."""
    bases = [0] * (limit + 1)
    for a in range(2, limit // 2 + 1):
        for n in range(2 * a, limit + 1, a):
            bases[n] += pow(a, n, n) == a
    counts, members, pairs = [], 0, 0
    for d in bases:
        members, pairs = members + (d > 0), pairs + d
        counts.append((members, pairs))
    return counts


def test_count_S_every_limit_to_400():
    expected = _divisor_base_counts(400)
    for limit in range(2, 401):
        assert pp.count_S(limit) == expected[limit], limit


def test_count_S_across_t_chunk_edges(monkeypatch):
    # small t-chunks split the s = 2 row (t up to 1500) many times, and the
    # t-side verdicts of most rows are read across chunk edges
    expected = _divisor_base_counts(3000)[3000]
    for chunk in (5, 64):
        monkeypatch.setattr(density, "_T_CHUNK", chunk)
        assert pp.count_S(3000) == expected, chunk


def test_count_S_small_table_rows():
    assert pp.count_S(10) == (2, 2)
    assert pp.count_S(10**2) == (52, 61)
    assert pp.count_S(10**3) == (591, 822)
    assert pp.count_S(10**5) == (62389, 92383)


def test_count_S_guard():
    with pytest.raises(CapacityError):
        pp.count_S(10**8 + 1)


# ---------------------------------------------------------------------------
# tail bounds


def test_tail_bound_term_dominates_density():
    # the exact term from arith alone: tau(lambda0) * (phi0 / lambda0) / b**2,
    # lambda0 and phi0 the coprime-to-b parts of lambda(b) and phi(b);
    # 2**61 - 1 and 2*3*...*23 lie far outside criterion 08's sympy window
    for b in list(range(2, 2001)) + [2310, 4620, 9240, 2**61 - 1, 223092870]:
        term = pp.tail_bound_term(b)
        l0 = pp.coprime_part(pp.carmichael_lambda(b), b)
        p0 = pp.coprime_part(pp.euler_phi(b), b)
        assert term == Fraction(pp.tau(l0) * (p0 // l0), b * b), b
        assert pp.sb_density(b) <= term, b


def test_lambda0_divides_phi0_to_1e5():
    # tail_bound sums tau(lambda0) * (phi0 / lambda0) / b**2 in integers
    for b in range(2, 10**5 + 1):
        f = pp.factor(b)
        lam0 = pp.coprime_part(pp.carmichael_lambda(f), b)
        assert pp.coprime_part(pp.euler_phi(f), b) % lam0 == 0, b


def test_lambda0_gcd_matches_two_coprime_passes_to_1e5():
    # tail_bound takes phi0 from one coprime-part pass and lambda0 as
    # gcd(lambda, phi0); the two-pass form strips b's primes from each
    phi, lam = bulk.phi_lambda_arrays(10**5)
    b = np.arange(2, 10**5 + 1, dtype=np.int64)
    phi0 = bulk.coprime_part_array(phi[2:], b)
    lam0 = np.gcd(lam[2:], phi0)
    assert np.array_equal(lam0, bulk.coprime_part_array(lam[2:], b))
    assert np.array_equal(phi0 // lam0, bulk.coprime_part_array(phi[2:] // lam[2:], b))


def test_tail_bound_matches_exact_sum_on_window():
    lo, hi = 10**4, 10**4 + 2000
    exact = sum((pp.tail_bound_term(b) for b in range(lo + 1, hi + 1)), Fraction(0))
    scaled = pp.tail_bound(lo, hi)
    assert scaled <= exact
    assert exact - scaled < Fraction(hi - lo, 10**18)


def test_tail_bound_guards():
    with pytest.raises(CapacityError):
        pp.tail_bound(10**4, 2 * 10**7 + 1)
    with pytest.raises(ValueError):
        pp.tail_bound(100, 100)


# ---------------------------------------------------------------------------
# imprimitive b


def test_is_imprimitive_examples():
    assert pp.is_imprimitive(6) == 2
    assert pp.is_imprimitive(21) == 3
    assert pp.is_imprimitive(4) is None


def test_imprimitive_families():
    for b in range(6, 200, 4):  # b = 2 (mod 4), b > 2
        assert pp.is_imprimitive(b) == 2
    for m in range(4, 60, 3):  # b = 3m, m = 1 (mod 3), m > 1
        assert pp.is_imprimitive(3 * m) is not None


def test_imprimitive_soundness_members_transfer():
    for b in range(2, 101):
        b0 = pp.is_imprimitive(b)
        if b0 is None:
            continue
        for n in range(b, 10**5 + 1, b):
            if pp.sb_membership(n, b):
                assert pp.sb_membership(n, b0), (b, b0, n)


# ---------------------------------------------------------------------------
# abelian p-groups


def _partitions_up_to(total: int):
    """Nondecreasing positive partitions with sum <= total."""
    out = []

    def extend(prefix, smallest, left):
        for part in range(smallest, left + 1):
            new = prefix + (part,)
            out.append(new)
            extend(new, part, left - part)

    extend((), 1, total)
    return out


def test_group_examples():
    g = pp.AbelianPGroup(2, (1, 2))  # C2 x C4
    assert [pp.group_order_count(j, g) for j in range(4)] == [1, 3, 4, 0]
    assert pp.group_N(g) == Fraction(7, 2)
    report = pp.check_group_bounds(g)
    assert report.eq_bound == 6 and report.all_ok

    c5 = pp.AbelianPGroup(5, (1,))
    assert pp.group_N(c5) == 1 + Fraction(4, 5)


def test_group_validation():
    with pytest.raises(ValueError):
        pp.AbelianPGroup(4, (1,))
    with pytest.raises(ValueError):
        pp.AbelianPGroup(2, (2, 1))
    with pytest.raises(ValueError):
        pp.AbelianPGroup(2, ())
    with pytest.raises(ValueError):
        pp.check_group_bounds([pp.AbelianPGroup(2, (1,)), pp.AbelianPGroup(2, (2,))])
    with pytest.raises(ValueError):
        pp.check_group_bounds([])  # no group: no silent all-ok report


def test_group_counts_match_enumeration_exhaustive():
    for p in (2, 3, 5):
        for lambdas in _partitions_up_to(8 if p == 2 else 6):
            g = pp.AbelianPGroup(p, lambdas)
            census = oracles.group_order_census(g)
            for j in range(lambdas[-1] + 2):
                assert pp.group_order_count(j, g) == census.get(p**j, 0), (p, lambdas, j)
            assert pp.group_N(g) == sum(
                (Fraction(n, d) for d, n in census.items()), Fraction(0)
            )


def test_group_inequalities_exhaustive():
    for p in (2, 3, 5):
        for lambdas in _partitions_up_to(8 if p == 2 else 6):
            assert pp.check_group_bounds(pp.AbelianPGroup(p, lambdas)).all_ok


def test_group_N_multiplicative_over_components():
    from math import lcm

    comps = [pp.AbelianPGroup(2, (1, 2)), pp.AbelianPGroup(3, (1,))]
    report = pp.check_group_bounds(comps)
    assert report.n_value == pp.group_N(comps[0]) * pp.group_N(comps[1])
    # brute check on the direct product C2 x C4 x C3 of order 24
    orders: dict[int, int] = {}
    for x in range(2):
        for y in range(4):
            for z in range(3):
                o = lcm(2 // gcd(x, 2), 4 // gcd(y, 4), 3 // gcd(z, 3))
                orders[o] = orders.get(o, 0) + 1
    brute_n = sum(Fraction(n, d) for d, n in orders.items())
    assert report.n_value == brute_n


def test_eq7_specialization_to_5000():
    # sum of N(d,b)/d is bounded by tau(lambda(b)) * phi(b) / lambda(b)
    for b in range(2, 5001):
        counts = pp.unit_order_counts(b)
        lhs = sum(Fraction(n, d) for d, n in counts.items())
        lam = pp.carmichael_lambda(b)
        assert lhs <= Fraction(pp.tau(lam) * pp.euler_phi(b), lam)
