"""Property tests of the presieved pseudoprime scan against plain-Python
oracles: random windows (some straddling 2**32) for bases 2..64, the
presieve's cofactor array against trial division and against the per-prime
rule, and random limits for the even enumerator.  Derandomized, so every run
draws the same examples."""

from math import isqrt

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
import pseudoprimes as pp
from pseudoprimes import sieve
from pseudoprimes.arith import multiplicative_order

# No shrink phase: a failing example is reported as drawn, since shrinking
# one through these scans can take minutes.
SCAN = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                phases=[p for p in Phase if p is not Phase.shrink])


@st.composite
def windows(draw):
    width = draw(st.integers(2, 2**11))
    lo = draw(
        st.integers(4, 2**20)  # dense in pseudoprimes
        | st.integers(2**32 - width + 1, 2**32 - 1)  # straddles 2**32
        | st.integers(4, 2**40)
    )
    return lo, lo + width


@SCAN
@given(a=st.integers(2, 64), window=windows())
def test_scan_matches_fermat_oracle(a, window):
    lo, hi = window
    found = [int(n) for part in pp.iter_psp_values(a, lo, hi) for n in part]
    assert found == [n for n in range(lo, hi) if pow(a, n, n) == a % n and not pp.is_prime(n)]


@settings(SCAN, max_examples=12)
@given(limit=st.integers(0, 2 * 10**6))
def test_even_enumerator_matches_brute(limit):
    assert pp.enumerate_even_psp(limit) == oracles.even_psp(limit)


def _primes_upto(b):
    flags = bytearray([1]) * (b + 1)
    for p in range(2, isqrt(b) + 1):
        flags[p * p :: p] = bytes(len(range(p * p, b + 1, p)))
    return [p for p in range(2, b + 1) if flags[p]]


def _smooth_part(n, primes):
    """The part of n made of the given primes, by trial division."""
    k = 1
    for p in primes:
        while n % p == 0:
            n, k = n // p, k * p
    return k


def _refuted(a, ns, primes, step):
    """The n in the progression ns that some prime p of primes rules out:
    p | n with n != p (mod p*ord_p(a)), or p**(w+1) | n, where w = v_p(a)
    for p | a and otherwise the largest w with a^(p-1) = 1 (mod p**w)."""
    out = set()
    for p in primes:
        order = multiplicative_order(a, p) if a % p else 1
        w = 1
        while a % p ** (w + 1) == 0 or pow(a, p - 1, p ** (w + 1)) == 1:
            w += 1
        for n in ns[-ns.start * pow(step, -1, p) % p :: p]:  # the multiples of p
            if (n - p) % (p * order) or n % p ** (w + 1) == 0:
                out.add(n)
    return out


@settings(SCAN, max_examples=100)
@given(a=st.integers(2, 64), window=windows(), even=st.sampled_from([0, 2, 14]))
def test_cofactor_array_matches_trial_division(a, window, even):
    # even = r > 0 runs the even enumerator's presieve: base 2 over n = r (mod 16)
    # with the odd primes only, its cofactor starting at 2
    lo, hi = window
    hi = min(hi, lo + 2**10)
    b = isqrt(min(hi, 2**32) - 1)
    primes = _primes_upto(b)
    step, table_primes = 1, primes
    if even:
        a, step, lo, table_primes = 2, 16, lo + (even - lo) % 16, primes[1:]
    ns = range(lo, hi, step)
    k = sieve._presieve(sieve._order_table(a, b, step), step)(lo, len(ns))
    undecided = set(sieve._undecided(a, lo, step, k, b).tolist())
    refuted = _refuted(a, ns, table_primes, step)
    for n, kn in zip(ns, k.tolist()):
        # strength: k = 0 exactly where a table prime refutes n
        assert (kn == 0) == (n in refuted), (n, kn)
        if kn:
            assert kn == _smooth_part(n, primes), (n, kn)
        if pow(a, n, n) == a % n and not pp.is_prime(n):
            assert kn and n in undecided, n
