"""Arithmetic kernel checked against trial division and exhaustive counts."""

import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

import oracles
import pseudoprimes as pp
from pseudoprimes import bulk


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# powmod


def test_powmod_known_values():
    assert pp.powmod(2, 560, 561) == 1
    assert pp.powmod(2, 161038, 161038) == 2
    assert pp.powmod(7, 0, 100) == 1
    assert pp.powmod(0, 0, 7) == 1


def test_powmod_domain_errors():
    with pytest.raises(ValueError):
        pp.powmod(2, 3, 0)
    with pytest.raises(ValueError):
        pp.powmod(2, -1, 5)
    with pytest.raises(ValueError):
        pp.powmod(2, 3, 1 << 63)


def test_powmod_matches_direct_for_small_inputs():
    for m in range(1, 40):
        for a in range(0, 3 * m, 7):
            for e in (0, 1, 2, 3, 17):
                assert pp.powmod(a, e, m) == (a**e) % m


def test_powmod_vector_matches_pow():
    rng = random.Random(11)
    exponents = [0, 1, 2, 2**64 - 1] + [rng.randrange(2**64) for _ in range(4)]
    # each modulus alone, then one array with moduli on both sides of 2**32
    moduli = [1, 2, 2**32 - 1, 2**32, 2**63 - 25]
    for ms in [[m] for m in moduli] + [moduli]:
        mod = np.array([m for m in ms for _ in exponents], dtype=np.uint64)
        exp = np.array(exponents * len(ms), dtype=np.uint64)
        bases = [rng.randrange(2**64) for _ in exp]
        got = bulk.powmod_vector(np.array(bases, dtype=np.uint64), exp, mod)
        assert got.dtype == np.uint64
        assert got.tolist() == [pow(*t) for t in zip(bases, exp.tolist(), mod.tolist())]
        for base in (0, 1, 7, 2**63 - 1):
            got = bulk.powmod_vector(base, exp, mod).tolist()
            assert got == [pow(base, e, m) for e, m in zip(exp.tolist(), mod.tolist())]
            for e in (0, 2**64 - 1):
                assert bulk.powmod_vector(base, e, mod).tolist() == [
                    pow(base, e, m) for m in mod.tolist()]
    empty = np.zeros(0, dtype=np.uint64)
    assert bulk.powmod_vector(3, empty, empty).tolist() == []
    assert bulk.powmod_vector(empty, empty, empty).tolist() == []


@pytest.mark.parametrize("moduli", [[], [1], [7, 2**32 - 1], [5, 2**32, 2**63 - 25]],
                         ids=["empty", "one", "vector", "scalar-pow"])
def test_powmod_vector_scalar_exponent_broadcasts(moduli):
    # a scalar exponent gives what the same exponent per element gives
    mod = np.array(moduli, dtype=np.uint64)
    for base in (2, np.arange(3, 3 + mod.size, dtype=np.uint64)):
        for e in (0, 1, 2**13 - 1, 2**64 - 1):
            scalar = bulk.powmod_vector(base, e, mod)
            each = bulk.powmod_vector(base, np.full(mod.size, e, dtype=np.uint64), mod)
            assert scalar.dtype == each.dtype == np.uint64
            assert scalar.shape == each.shape == mod.shape
            assert scalar.tolist() == each.tolist()


# ---------------------------------------------------------------------------
# primality


def test_is_prime_examples():
    assert not pp.is_prime(561)
    assert pp.is_prime(2)
    assert pp.is_prime(10**9 + 7)  # trial-division verified
    assert trial_is_prime(10**9 + 7)


def test_is_prime_agrees_with_sieve_to_1e6():
    primes = set(bulk.primes_upto(10**6).tolist())
    assert all(pp.is_prime(n) == (n in primes) for n in range(10**6 + 1))


def test_is_prime_against_trial_division_random_band():
    random.seed(7)
    for _ in range(300):
        n = random.randrange(2, 10**7)
        assert pp.is_prime(n) == trial_is_prime(n)


def test_is_prime_rejects_out_of_domain():
    with pytest.raises(ValueError):
        pp.is_prime(1 << 63)


# ---------------------------------------------------------------------------
# factor


def test_factor_examples():
    assert pp.factor(561).factors == ((3, 1), (11, 1), (17, 1))
    assert pp.factor(8).factors == ((2, 3),)
    assert pp.factor(161038).factors == ((2, 1), (73, 1), (1103, 1))


def test_factor_matches_trial_division():
    for n in range(2, 3000):
        assert list(pp.factor(n).factors) == trial_factor(n)


def test_factor_recombines_random_50_bit():
    random.seed(1)
    for _ in range(10**4):
        n = random.randrange(2, 1 << 50)
        f = pp.factor(n)
        prod = 1
        for p, e in f.factors:
            assert pp.is_prime(p)
            prod *= p**e
        assert prod == n


def test_factor_domain_errors():
    with pytest.raises(ValueError):
        pp.factor(1)
    with pytest.raises(ValueError):
        pp.factor(1 << 63)


def test_factor_takes_integers_only():
    # numpy integers are integers; floats, fractions and strings are not
    f = pp.factor(np.int64(12))
    assert f.factors == ((2, 2), (3, 1)) and type(f.value) is int
    assert pp.factor(np.uint32(561)).factors == ((3, 1), (11, 1), (17, 1))
    for bad in (12.0, 12.5, Fraction(12), "12", None):
        with pytest.raises(ValueError):
            pp.factor(bad)


def test_factor_output_passes_the_factorization_checks():
    # factor builds its result without the constructor's checks, so every
    # result must pass them: across the trial-division bound (251**2, 257**2),
    # prime squares, powers and random 60-bit numbers
    random.seed(3)
    ns = [*range(2, 2000), 251**2, 251 * 257, 257**2, 65521**2, 2**62, 3**39,
          2**61 - 1, 9223372036854775783, *(random.randrange(2, 1 << 60) for _ in range(300))]
    for n in ns:
        f = pp.factor(n)
        assert pp.Factorization(f.value, f.factors) == f, n


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        pp.Factorization(12, ((3, 1), (2, 2)))  # wrong order
    with pytest.raises(ValueError):
        pp.Factorization(12, ((2, 2), (3, 1), (5, 0)))
    with pytest.raises(ValueError):
        pp.Factorization(8, ((2, 2),))  # wrong product
    with pytest.raises(ValueError):
        pp.Factorization(4, ((4, 1),))  # 4 is not prime
    with pytest.raises(ValueError):
        pp.Factorization(6, ((2, 1), (3, 1.0)))  # exponents are integers
    with pytest.raises(ValueError):
        pp.Factorization(6.0, ((2, 1), (3, 1)))  # and so is the value


# ---------------------------------------------------------------------------
# smallest-prime-factor array


def test_spf_window_small_values():
    assert bulk.spf_window(10).tolist() == [0, 0, 2, 3, 2, 5, 2, 7, 2, 3]


def test_spf_window_561():
    assert bulk.spf_window(1000)[561] == 3


def test_spf_window_primes_map_to_themselves():
    spf = bulk.spf_window(5000)
    for p in bulk.primes_upto(4999).tolist():
        assert spf[p] == p


def test_spf_window_agrees_with_factor_past_1e6():
    lo, hi = 10**6, 10**6 + 2000
    spf = bulk.spf_window(hi)
    for n in range(lo, hi):
        assert spf[n] == pp.factor(n).factors[0][0]


# ---------------------------------------------------------------------------
# divisors, phi, tau, lambda


def test_divisors_examples():
    assert pp.divisors(pp.factor(12)) == [1, 2, 3, 4, 6, 12]
    assert pp.divisors(pp.factor(561)) == [1, 3, 11, 17, 33, 51, 187, 561]
    assert pp.divisors(pp.factor(97)) == [1, 97]


def test_divisors_brute_agreement():
    for n in range(2, 500):
        assert pp.divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_phi_tau_examples():
    assert pp.euler_phi(pp.factor(561)) == 320
    assert pp.euler_phi(1) == 1
    assert pp.tau(1) == 1
    assert pp.tau(pp.factor(12)) == 6


def test_phi_brute_agreement():
    for n in range(1, 800):
        assert pp.euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def test_carmichael_lambda_examples():
    assert pp.carmichael_lambda(pp.factor(8)) == 2
    assert pp.carmichael_lambda(pp.factor(561)) == 80
    for p in (3, 5, 7, 11, 101):
        assert pp.carmichael_lambda(pp.factor(p)) == p - 1


def test_carmichael_lambda_is_maximal_order():
    # brute maximal order over the units, n up to 600
    for n in range(3, 600):
        lam = pp.carmichael_lambda(n)
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        orders = []
        for a in units:
            d = 1
            x = a % n
            while x != 1 % n:
                x = x * a % n
                d += 1
            orders.append(d)
        assert max(orders) == lam
        assert all(lam % d == 0 for d in orders)


# ---------------------------------------------------------------------------
# multiplicative-function arrays against the scalar functions


def test_phi_lambda_arrays_match_scalar_to_1e4():
    hi = 10**4
    phi, lam = bulk.phi_lambda_arrays(hi)
    assert (phi[0], lam[0], phi[1], lam[1]) == (0, 0, 1, 1)
    for n in range(2, hi + 1):
        f = pp.factor(n)
        assert (phi[n], lam[n]) == (pp.euler_phi(f), pp.carmichael_lambda(f)), n


def _group_order_and_exponent(b: int) -> tuple[int, int]:
    # phi0 and lambda0 of G_b from scalar arith: the parts of phi(b) and
    # lambda(b) prime to b
    f = pp.factor(b)
    return pp.coprime_part(pp.euler_phi(f), b), pp.coprime_part(pp.carmichael_lambda(f), b)


def test_phi0_lambda0_arrays_match_scalar_to_2e4():
    hi = 2 * 10**4
    phi0, lam0 = bulk.phi0_lambda0_arrays(bulk.spf_window(hi + 1))
    assert (phi0[0], lam0[0], phi0[1], lam0[1]) == (0, 0, 1, 1)
    for b in range(2, hi + 1):
        assert (phi0[b], lam0[b]) == _group_order_and_exponent(b), b
    # G_(2**k) is trivial, G_p is all of C_(p-1), G_21 = C_2 x C_2
    assert all((phi0[2**k], lam0[2**k]) == (1, 1) for k in range(1, 15))
    assert all((phi0[p], lam0[p]) == (p - 1, p - 1) for p in (3, 5, 7, 9973, 19997))
    assert (phi0[21], lam0[21]) == (4, 2)


def test_coprime_part_array_matches_scalar():
    rng = random.Random(8)
    pairs = [(1, 1), (1, 30), (30, 1), (2**40, 2), (2**40, 6), (3**25, 12), (7**9, 49)]
    pairs += [(rng.randrange(1, 10**12), rng.randrange(1, 10**6)) for _ in range(3000)]
    pairs += [(rng.choice((2, 3, 5, 7)) ** rng.randrange(1, 15) * rng.randrange(1, 1000),
               rng.choice((2, 3, 5, 6, 10, 30, 210))) for _ in range(1000)]
    x = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    got = bulk.coprime_part_array(x, b).tolist()
    assert got == [pp.coprime_part(xi, bi) for xi, bi in pairs]


def test_tau_array_matches_scalar():
    rng = random.Random(9)
    hi = 10**6
    xs = [1, 2, 4, 2**19, 3**12, 720720, hi] + [rng.randrange(1, hi + 1) for _ in range(5000)]
    tau = bulk.tau_array(bulk.spf_window(hi + 1))
    assert tau[:2].tolist() == [0, 1]
    assert tau[xs].tolist() == [pp.tau(x) for x in xs]


def test_arrays_past_the_first_short_chunk():
    # chunks of 2**20 entries stop doubling at 2**21, so the range to 2**22
    # holds chunks that read values from two and three chunks back
    hi = 2**22 + 1000
    phi, lam = bulk.phi_lambda_arrays(hi)
    spf = bulk.spf_window(hi + 1)
    phi0, lam0 = bulk.phi0_lambda0_arrays(spf)
    tau = bulk.tau_array(spf)
    rng = random.Random(10)
    ns = [n for c in (2**21, 3 * 2**20, 2**22) for n in range(c - 300, c + 301)]
    ns += [3**13, 1021**2] + [rng.randrange(2, hi + 1) for _ in range(2000)]
    for n in ns:
        f = pp.factor(n)
        assert (phi[n], lam[n], tau[n]) == (
            pp.euler_phi(f), pp.carmichael_lambda(f), pp.tau(f)), n
        assert (phi0[n], lam0[n]) == _group_order_and_exponent(n), n
    for hi, expected in ((0, [0]), (1, [0, 1]), (2, [0, 1, 1])):
        assert [a.tolist() for a in bulk.phi_lambda_arrays(hi)] == [expected, expected]
        spf = bulk.spf_window(hi + 1)
        assert [a.tolist() for a in bulk.phi0_lambda0_arrays(spf)] == [expected, expected]
        assert bulk.tau_array(spf).tolist() == [0, 1, 2][: hi + 1]


def test_bulk_arrays_are_int32_and_reject_indices_from_2_pow_31():
    phi, lam = bulk.phi_lambda_arrays(100)
    spf = bulk.spf_window(101)
    phi0, lam0 = bulk.phi0_lambda0_arrays(spf)
    arrays = (spf, phi, lam, phi0, lam0, bulk.tau_array(spf))
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}
    # each raises before it allocates an array of 2**31 entries; the
    # kernels that take a spf_window array inherit its bound
    with pytest.raises(ValueError, match=r"^hi out of the supported 31-bit domain \(< 2\*\*31\)$"):
        bulk.spf_window(2**31)
    with pytest.raises(ValueError):
        bulk.phi_lambda_arrays(2**31 - 1)


def test_spf_window_takes_every_size_from_0():
    # numpy's own "negative dimensions" error no longer surfaces
    assert bulk.spf_window(0).size == 0 and bulk.spf_window(1).tolist() == [0]
    with pytest.raises(ValueError, match="^hi must be >= 0$"):
        bulk.spf_window(-5)


def test_bulk_arrays_reject_entries_below_1():
    for bad in (0, -6):
        with pytest.raises(ValueError):
            bulk.coprime_part_array(np.array([4, bad]), np.array([6, 6]))
        with pytest.raises(ValueError):
            bulk.coprime_part_array(np.array([4, 6]), np.array([6, bad]))


def test_capped_power_against_python_ints():
    cap = 2**63
    for a in (2, 3, 10, 9973):
        edge = next(e for e in range(64) if a**e >= cap)  # the first capped exponent
        for g in (0, 1, edge - 1, edge, edge + 1, 63, 64, 2**32 - 1, 2**63):
            exact = a**g if g <= 64 else None  # a**g >= a**64 > cap past 64
            got = bulk.capped_power(a, np.array([g], dtype=np.uint64))[0]
            assert int(got) == (cap if exact is None else min(exact, cap)), (a, g)
            near = [] if exact is None else [exact - 1, exact, exact + 1]
            for x in [x for x in near + [1, cap - 1, cap] if 1 <= x <= cap]:
                assert bool(got >= np.uint64(x)) == (exact is None or exact >= x), (a, g, x)
    assert bulk.capped_power(3, np.array([2, 39, 40], dtype=np.uint32)).tolist() == [
        9, 3**39, cap]
    with pytest.raises(ValueError):
        bulk.capped_power(1, 5)


# ---------------------------------------------------------------------------
# multiplicative order


def test_order_examples():
    assert pp.multiplicative_order(2, 5) == 4
    assert pp.multiplicative_order(2, 7) == 3
    assert pp.multiplicative_order(9, 1) == 1


def test_order_requires_coprimality():
    with pytest.raises(ValueError):
        pp.multiplicative_order(6, 9)


def test_order_checks_its_lambda_factorization():
    # any multiple of the order serves; 5 is none for 2 mod 7, whose order is 3
    assert pp.multiplicative_order(2, 7, pp.factor(6)) == 3
    for bad in (5, pp.factor(5)):
        with pytest.raises(ValueError):
            pp.multiplicative_order(2, 7, bad)


def test_order_divides_lambda_and_attains_it():
    random.seed(3)
    ns = list(range(2, 2001)) + [random.randrange(2001, 10**4) for _ in range(300)]
    for n in ns:
        lam = pp.carmichael_lambda(pp.factor(n))
        lam_f = pp.factor(lam) if lam > 1 else pp.Factorization(1, ())
        attained = 1
        for a in range(1, n):
            if gcd(a, n) == 1:
                d = pp.multiplicative_order(a, n, lam_f)
                assert lam % d == 0
                attained = max(attained, d)
        assert attained == lam


def test_unit_order_tables_against_pow():
    # every prime power q <= 2**12, among them 2 .. 4096, 9 .. 2187 and 25 .. 3125
    tables = bulk.unit_order_tables(bulk.spf_window(2**12 + 1))
    assert set(tables) == {q for q in range(2, 2**12 + 1) if len(trial_factor(q)) == 1}
    assert {2**e for e in range(1, 13)} | {3**e for e in range(2, 8)} <= set(tables)
    assert {5**e for e in range(2, 6)} <= set(tables)
    for q, orders in tables.items():
        assert orders.dtype == np.uint32
        assert orders.tolist() == oracles.unit_orders(q), q


def test_primitive_root_lifts_past_a_wieferich_root():
    # 5 is the least primitive root mod p = 40487 and 5**(p-1) == 1 (mod p**2),
    # so 5 has order p - 1 mod p**2 and the generator is its lift 5 + p
    p = 40487
    primes = [r for r, _ in trial_factor(p - 1)]
    assert [x for x in range(2, 6) if all(pow(x, (p - 1) // r, p) != 1 for r in primes)] == [5]
    assert pow(5, p - 1, p * p) == 1
    g = bulk._primitive_root(p, bulk.spf_window(p))
    assert g == 5 + p
    assert all(pow(g, p * (p - 1) // r, p * p) != 1 for r in primes + [p])
    assert bulk._primitive_root(7, bulk.spf_window(7)) == 3  # 3**6 != 1 (mod 49): no lift


def test_order_partition_sums_to_phi_exhaustive_2000():
    for n in range(2, 2001):
        lam_f = pp.factor(pp.carmichael_lambda(pp.factor(n))) if n > 2 else None
        counts: dict[int, int] = {}
        for a in range(1, n):
            if gcd(a, n) == 1:
                d = pp.multiplicative_order(a, n, lam_f)
                counts[d] = counts.get(d, 0) + 1
        assert sum(counts.values()) == pp.euler_phi(n)
        lam = pp.carmichael_lambda(n)
        assert all(lam % d == 0 for d in counts)


# ---------------------------------------------------------------------------
# coprime part and jacobi


def test_coprime_part_examples():
    assert pp.coprime_part(12, 2) == 3
    assert pp.coprime_part(17, 1) == 17
    assert pp.coprime_part(161038, 2) == 80519
    assert pp.coprime_part(1, 6) == 1


def test_coprime_part_properties():
    for n in range(1, 400):
        for a in (1, 2, 6, 15, 30):
            c = pp.coprime_part(n, a)
            assert n % c == 0
            assert gcd(c, a) == 1
            for d in range(c + 1, n + 1):
                if n % d == 0 and gcd(d, a) == 1:
                    pytest.fail(f"{d} > {c} divides {n} and is coprime to {a}")


def test_jacobi_examples():
    assert pp.jacobi(2, 3) == -1
    assert pp.jacobi(7, 1) == 1
    assert pp.jacobi(2, 7) == 1


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        pp.jacobi(3, 10)


def test_jacobi_matches_square_table_for_odd_primes():
    for p in bulk.primes_upto(200).tolist():
        if p == 2:
            continue
        squares = {a * a % p for a in range(1, p)}
        for a in range(2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert pp.jacobi(a, p) == expected


def test_jacobi_negative_argument_reduces_mod_k():
    for k in (3, 5, 9, 15, 21):
        for a in range(-30, 0):
            assert pp.jacobi(a, k) == pp.jacobi(a % k, k)


def test_jacobi_multiplicative_in_numerator():
    for k in (3, 7, 9, 15, 35):
        for a in range(1, 20):
            for b in range(1, 20):
                assert pp.jacobi(a * b, k) == pp.jacobi(a, k) * pp.jacobi(b, k)


def test_kernel_matches_sympy_on_random_63_bit():
    sympy = pytest.importorskip("sympy")
    nt = sympy.ntheory

    rng = random.Random(63)
    for _ in range(100):
        n = rng.randrange(1 << 62, 1 << 63)
        p = nt.nextprime(n - (1 << 20))  # prime gaps near 2**63 are far below 2**20
        assert pp.is_prime(n) == nt.isprime(n), n
        assert pp.is_prime(p), p
        assert dict(pp.factor(n).factors) == nt.factorint(n), n
        assert pp.carmichael_lambda(n) == sympy.reduced_totient(n), n
        a = rng.randrange(2, n)
        while gcd(a, n) != 1:
            a += 1
        assert pp.multiplicative_order(a, n) == nt.n_order(a, n), (a, n)
        k = n | 1
        assert pp.jacobi(a - n, k) == sympy.jacobi_symbol(a - n, k), (a, k)
        counts = pp.unit_order_counts(n)
        assert sum(counts.values()) == sympy.totient(n), n
        assert max(counts) == sympy.reduced_totient(n), n
