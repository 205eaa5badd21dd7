"""Pseudoprime predicates and base-counting functions against direct counts."""

import random
from math import gcd

import pytest

import oracles
import pseudoprimes as pp

CARMICHAELS_BELOW_1E4 = [561, 1105, 1729, 2465, 2821, 6601, 8911]


def test_verdict_examples():
    v = pp.is_fermat_psp(161038, 2)
    assert v.passes_congruence and v.is_composite and v.is_pseudoprime
    for p in (2, 3, 101, 65537):
        assert not pp.is_fermat_psp(p, 2).is_pseudoprime
    for a in range(2, 561):
        assert pp.is_fermat_psp(561, a).is_pseudoprime


def test_criterion_examples():
    assert pp.psp_criterion(161038, 2)
    assert not pp.psp_criterion(4, 2)  # n/n_a = 4 does not divide 2
    # coprime base: reduces to ord | n-1
    assert pp.psp_criterion(341, 2)
    assert not pp.psp_criterion(341, 3)


def test_criterion_equals_congruence_to_1e4():
    for n in range(2, 10**4 + 1):
        composite = not pp.is_prime(n)
        for a in (2, 3, 5, 7):
            assert pp.is_fermat_psp(n, a).is_pseudoprime == (
                pp.psp_criterion(n, a) and composite
            )


def test_predicates_share_the_63_bit_domain():
    n = 2**63 - 1
    assert pp.psp_criterion(n, 2) == pp.is_fermat_psp(n, 2).passes_congruence
    for predicate in (pp.is_fermat_psp, pp.psp_criterion):
        for n, a in ((2**63, 2), (2**70, 2), (1, 2), (341, 1)):
            with pytest.raises(ValueError):
                predicate(n, a)


def test_predicates_name_n_past_the_63_bit_domain():
    for predicate in (pp.is_fermat_psp, pp.psp_criterion):
        with pytest.raises(ValueError, match="^n out of the supported 63-bit domain"):
            predicate(2**70, 2)


def test_F_and_F_star_examples():
    assert pp.F(561) == 320
    assert pp.F(15) == 4
    assert pp.F_star(15) == 9
    assert pp.F_star(561) == 561
    for p in (2, 3, 31, 1009):
        assert pp.F(p) == p - 1
        assert pp.F_star(p) == p
    assert pp.F(1) == 1 and pp.F_star(1) == 1


def test_F_brute_examples():
    assert oracles.base_counts(1) == (1, 1)
    # a**6 == a (mod 6) holds exactly for a in {0, 1, 3, 4}
    assert oracles.base_counts(6)[1] == 4
    assert [a for a in range(6) if pow(a, 6, 6) == a] == [0, 1, 3, 4]
    assert oracles.base_counts(561)[1] == 561


def test_F_formulas_match_brute_to_2000():
    for n in range(1, 2001):
        assert (pp.F(n), pp.F_star(n)) == oracles.base_counts(n)


def test_F_order_and_equality_cases_to_1e4():
    for n in range(1, 10**4 + 1):
        fn, fsn = pp.F(n), pp.F_star(n)
        assert fn <= fsn <= n
        if fsn == n:
            assert n == 1 or pp.is_prime(n) or pp.is_carmichael(n)


def test_F_star_minus_F_dominates_D_for_composites():
    # F*-F counts bases sharing a factor with n, which include a = n and the
    # D(n) proper divisor bases
    for n in range(4, 10**4 + 1):
        if not pp.is_prime(n):
            assert pp.F_star(n) - pp.F(n) >= pp.D(n) + 1


def test_D_examples():
    assert pp.D(6) == 1  # 3 works, 2 does not
    assert pp.D(4) == 0
    for p in (2, 17, 9973):
        assert pp.D(p) == 0


def test_D_matches_naive_divisor_scan():
    for n in range(2, 4000):
        naive = sum(1 for a in range(2, n) if n % a == 0 and pow(a, n, n) == a)
        assert pp.D(n) == naive


def test_every_2_mod_4_above_2_has_a_divisor_base():
    # n = 2m with m odd > 1: the base m always works
    for n in range(6, 10**5 + 1, 4):
        assert pp.D(pp.factor(n)) >= 1


def test_D_at_least_k_for_crt_witnesses():
    # n = p (mod p^2) for the first k primes forces each p to be a base
    from pseudoprimes.sieve import ResidueClass

    cls = ResidueClass(2, 4)
    for k, p in ((2, 3), (3, 5)):
        cls = cls.intersect(ResidueClass(p, p * p))
        n = cls.r if cls.r > 1 else cls.r + cls.m
        assert pp.D(n) >= k, (k, n)


def test_is_carmichael_examples():
    assert pp.is_carmichael(561)
    assert pp.is_carmichael(1729)
    assert not pp.is_carmichael(1683)  # 3 * 561, not squarefree
    assert not pp.is_carmichael(2)
    assert not pp.is_carmichael(341)


def test_carmichaels_below_1e4_via_korselt():
    found = [n for n in range(2, 10**4) if pp.is_carmichael(n)]
    assert found == CARMICHAELS_BELOW_1E4


def test_carmichael_iff_F_star_equals_n_for_composites():
    for n in range(4, 10**4):
        if not pp.is_prime(n):
            assert pp.is_carmichael(n) == (pp.F_star(n) == n)


def test_carmichaels_are_pseudoprime_to_random_bases():
    random.seed(5)
    for n in CARMICHAELS_BELOW_1E4:
        for _ in range(20):
            a = random.randrange(2, n)
            v = pp.is_fermat_psp(n, a)
            assert v.is_pseudoprime, (n, a)
            if gcd(a, n) == 1:
                assert pow(a, n - 1, n) == 1
