"""Density machinery: order censuses, class systems, exact densities, union
densities, countings, tail bounds, and the abelian-group order inequalities."""

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest

import oracles
import pseudoprimes as pp
from pseudoprimes import arith, bulk, density
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


def _density_from_census(b: int) -> Fraction:
    """N(G_b) / b**2 from the order census of the whole unit group: G_b holds
    the units whose order is coprime to b, so N(G_b) is the sum of count/d
    over those orders d.  unit_order_counts lists the unit group on its own
    (_sylow_components), sharing no code with sb_density's G_b."""
    n_value = sum(
        (Fraction(c, d) for d, c in pp.unit_order_counts(b).items() if gcd(d, b) == 1),
        Fraction(0),
    )
    return n_value / (b * b)


# large, smooth and two-prime b: 2- and 3-power groups, the primorial to 23,
# 2 * 65537, primes and the Fermat number 2**32 + 1
_LARGE_B = (2**20, 3**12, 223092870, 131074, 10**7 + 1, 2**61 - 1, 641 * 6700417)


def test_sb_density_at_large_b_matches_unit_order_counts():
    for b in _LARGE_B:
        assert pp.sb_density(b) == _density_from_census(b), b


def test_sb_density_matches_unit_order_counts_to_2000():
    for b in range(2, 2001):
        assert pp.sb_density(b) == _density_from_census(b), b


def test_c1_partial_matches_census_sum():
    expected = sum((_density_from_census(b) for b in range(2, 601)), Fraction(0))
    assert pp.c1_partial(600) == expected


def test_density_functions_take_integers_only():
    assert pp.sb_density(np.int64(12)) == Fraction(1, 144)
    assert pp.tail_bound_term(np.int64(12)) == pp.tail_bound_term(12)
    assert pp.sb_density(np.int64(2**61 - 1)) == pp.sb_density(2**61 - 1)
    assert pp.is_imprimitive(np.int64(10)) == 2
    for call in (lambda: pp.sb_density(4.0), lambda: pp.tail_bound_term(7.0),
                 lambda: pp.is_imprimitive(10.0), lambda: pp.sb_density(Fraction(12))):
        with pytest.raises(ValueError):
            call()
    # b passes as_index before its range check, so a string or None is no TypeError
    for bad in ("7", None):
        for call in (pp.sb_density, pp.sb_class_system, pp.unit_order_counts,
                     pp.tail_bound_term, pp.is_imprimitive, lambda b: pp.sb_membership(14, b)):
            with pytest.raises(ValueError, match="b must be an integer"):
                call(bad)


@pytest.mark.parametrize("call", [
    lambda: pp.c1_partial(10.0),
    lambda: pp.union_density(5.0),
    lambda: pp.count_S(100.0),
    lambda: pp.tail_bound(10.0, 20),
    lambda: pp.tail_bound(10, Fraction(20)),
    lambda: bulk.phi_lambda_arrays(10.0),
    lambda: bulk.spf_window(10.0),
    lambda: bulk.primes_upto(10.0),
    lambda: pp.sb_membership(20.0, 4),
], ids=["c1_partial", "union_density", "count_S", "tail_bound_lo", "tail_bound_hi",
        "phi_lambda_arrays", "spf_window", "primes_upto", "sb_membership"])
def test_sizes_must_be_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_union_density_examples():
    assert pp.union_density(2) == Fraction(1, 4)
    assert pp.union_density(3) == Fraction(7, 18)


def test_union_density_matches_periodic_scan():
    for k in range(2, 11):
        assert pp.union_density(k) == oracles.union_density(k)


def _union_by_crt(k: int) -> Fraction:
    """The union density by inclusion-exclusion over explicit intersections:
    each subset's class is built by CRT on (r, m), and an empty one prunes
    its subtree."""
    classes = sorted({(c.m, c.r) for b in range(2, k + 1) for c in pp.sb_class_system(b).classes})
    period = lcm(*(m for m, _ in classes))

    def walk(start, r, m):
        total = 0
        for j in range(start, len(classes)):
            mj, rj = classes[j]
            g = gcd(m, mj)
            if (rj - r) % g:
                continue
            step = mj // g
            lm = m * step
            t = (rj - r) // g * pow(m // g, -1, step) % step
            total += period // lm - walk(j + 1, (r + m * t) % lm, lm)
        return total

    return Fraction(walk(0, 0, 1), period)


def test_union_density_matches_explicit_crt_walk():
    # past the periodic scan's reach: the coordinate walk against an
    # inclusion-exclusion that builds every intersection by CRT
    for k in range(11, 18):
        assert pp.union_density(k) == _union_by_crt(k)


def test_union_density_pinned_past_the_crt_walk():
    assert pp.union_density(25) == Fraction(3344238401713330879, 5599173222544151250)
    assert pp.union_density(30) == Fraction(62766972703950114368, 104384586506001676875)


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
    # small t-chunks split the s = 2 row (t up to 1500) many times, and most
    # rows read their unit orders mod s across chunk edges
    expected = _divisor_base_counts(3000)[3000]
    for chunk in (5, 64):
        monkeypatch.setattr(density, "_T_CHUNK", chunk)
        assert pp.count_S(3000) == expected, chunk


def test_count_S_makes_one_powmod_call_per_row(monkeypatch):
    # the base t mod s is read off unit-order tables, so the only powmods
    # left are the s-side ones, at most one call per row s of one t-chunk
    calls = []
    powmod = bulk.powmod_vector
    monkeypatch.setattr(bulk, "powmod_vector", lambda *args: calls.append(1) or powmod(*args))
    assert pp.count_S(10**5) == (62389, 92383)
    assert 0 < len(calls) <= isqrt(10**5) - 1


def _count_sieves(monkeypatch) -> list:
    calls = []
    spf_window = bulk.spf_window
    monkeypatch.setattr(bulk, "spf_window", lambda hi: calls.append(hi) or spf_window(hi))
    return calls


def test_count_S_sieves_once(monkeypatch):
    # lambda0, the unit-order tables and the primes of each row s all read
    # one smallest-prime array, to limit // 2
    calls = _count_sieves(monkeypatch)
    assert pp.count_S(10**5) == (62389, 92383)
    assert calls == [10**5 // 2 + 1]
    assert pp.count_S(10**6) == (625941, 932490)
    assert calls[1:] == [10**6 // 2 + 1]


def test_count_S_calls_no_factor(monkeypatch):
    def no_factor(*args):
        raise AssertionError("count_S factored a number")

    monkeypatch.setattr(density, "factor", no_factor)
    monkeypatch.setattr(arith, "factor", no_factor)
    assert pp.count_S(10**4) == (6169, 8962)


def test_count_S_small_table_rows():
    assert pp.count_S(10) == (2, 2)
    assert pp.count_S(10**2) == (52, 61)
    assert pp.count_S(10**3) == (591, 822)
    assert pp.count_S(10**5) == (62389, 92383)


def test_gcd_with_n_minus_1_reads_lambda0():
    # count_S's lemma: for coprime s, t and n = s*t, no prime of s or t
    # divides n - 1, so gcd(lambda(x), n - 1) = gcd(lambda0(x), n - 1)
    # for x in {s, t}
    hi = 2 * 10**4
    lam = bulk.phi_lambda_arrays(hi)[1].tolist()
    lam0 = bulk.phi0_lambda0_arrays(bulk.spf_window(hi + 1))[1].tolist()
    pairs = 0
    for s in range(2, isqrt(hi) + 1):
        for t in range(s + 1, hi // s + 1):
            if gcd(s, t) == 1:
                pairs += 1
                for x in (s, t):
                    assert gcd(lam[x], s * t - 1) == gcd(lam0[x], s * t - 1), (s, t, x)
    assert pairs > 10**4


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


def test_phi0_lambda0_arrays_match_two_coprime_passes_to_1e5():
    # tail_bound reads phi0 and lambda0 off one smallest-prime recurrence;
    # the two-pass form strips b's primes from phi(b) and lambda(b) by gcd
    phi, lam = bulk.phi_lambda_arrays(10**5)
    phi0, lam0 = bulk.phi0_lambda0_arrays(bulk.spf_window(10**5 + 1))
    b = np.arange(2, 10**5 + 1, dtype=np.int64)
    assert np.array_equal(phi0[2:], bulk.coprime_part_array(phi[2:], b))
    assert np.array_equal(lam0[2:], bulk.coprime_part_array(lam[2:], b))
    assert np.array_equal(phi0[2:] // lam0[2:], bulk.coprime_part_array(phi[2:] // lam[2:], b))


def test_tail_bound_term_is_the_group_bound_on_gb():
    # the same listing as p-groups, through check_group_bounds' own report
    for b in range(2, 501):
        groups = [pp.AbelianPGroup(q, ls) for q, ls in density._gb_components(pp.factor(b))]
        bound = pp.check_group_bounds(groups).eq_bound if groups else Fraction(1)  # G_b = 1
        assert pp.tail_bound_term(b) == bound / (b * b), b


def test_tail_bound_matches_exact_sum_on_window():
    lo, hi = 10**4, 10**4 + 2000
    exact = sum((pp.tail_bound_term(b) for b in range(lo + 1, hi + 1)), Fraction(0))
    scaled = pp.tail_bound(lo, hi)
    assert scaled <= exact
    assert exact - scaled < Fraction(hi - lo, 10**18)


def test_tail_bound_over_several_blocks_is_the_floored_term_sum():
    # three whole blocks of the long division and a partial last one, each
    # term floored at scale 10**18 exactly as tail_bound floors it
    lo = 10**5
    hi = lo + 3 * density._TAIL_BLOCK + 5
    scale = density.TAIL_SCALE
    floored = 0
    for b in range(lo + 1, hi + 1):
        term = pp.tail_bound_term(b)
        floored += term.numerator * scale // term.denominator
    assert pp.tail_bound(lo, hi) == Fraction(floored, scale)


def test_tail_bound_sieves_once(monkeypatch):
    # tau, phi0 and lambda0 all read one smallest-prime array, to b_hi
    calls = _count_sieves(monkeypatch)
    lo, hi = 10, 10**5
    scale = density.TAIL_SCALE
    floored = 0
    for b in range(lo + 1, hi + 1):
        term = pp.tail_bound_term(b)
        floored += term.numerator * scale // term.denominator
    assert pp.tail_bound(lo, hi) == Fraction(floored, scale)
    assert calls == [hi + 1]


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
    # non-integer exponents and non-group components
    for call in (lambda: pp.AbelianPGroup(2, (1.5,)),
                 lambda: pp.group_order_count(1.5, pp.AbelianPGroup(3, (1, 2))),
                 lambda: pp.check_group_bounds([1]),
                 lambda: pp.AbelianPGroup(2, 1),
                 lambda: pp.check_group_bounds(5),
                 lambda: pp.check_group_bounds(None)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("call", [
    lambda: pp.group_N("x"),
    lambda: pp.group_order_count(1, "x"),
], ids=["group_N", "group_order_count"])
def test_group_functions_take_groups_only(call):
    with pytest.raises(ValueError, match="g must be an AbelianPGroup"):
        call()


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
