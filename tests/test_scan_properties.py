"""Property tests of the presieved pseudoprime scan against plain-Python
oracles: random windows (some straddling 2**32) for bases 2..64, and random
limits for the even enumerator.  Derandomized, so every run draws the same
examples."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pseudoprimes as pp

SCAN = settings(derandomize=True, database=None, deadline=None, max_examples=150)


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
    assert pp.enumerate_even_psp(limit) == pp.even_psp_brute(limit)
