"""Residue-class machinery: admissibility, the windowed pseudoprime scan,
counting, even pseudoprimes, empty-class scanning, ingestion, and table
rendering."""

import io
import json
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

import oracles
import pseudoprimes as pp
from pseudoprimes import JacobiCondition, arith, bulk, sieve
from pseudoprimes.cli import run
from pseudoprimes.errors import CapacityError, InputFormatError

LIMIT_1E6 = 10**6
LIMIT_1E7 = 10**7


@pytest.fixture(scope="module")
def psp2_1e7():
    """Base-2 pseudoprimes up to 1e7, computed once for this module."""
    return pp.psp_values(2, LIMIT_1E7)


# ---------------------------------------------------------------------------
# residue classes


def test_residue_class_validation():
    with pytest.raises(ValueError):
        pp.ResidueClass(5, 5)
    with pytest.raises(ValueError):
        pp.ResidueClass(-1, 5)
    with pytest.raises(ValueError):
        pp.ResidueClass(0, 0)


def test_residue_class_intersection_matches_set_intersection():
    random.seed(11)
    for _ in range(300):
        m1, m2 = random.randrange(1, 40), random.randrange(1, 40)
        c1 = pp.ResidueClass(random.randrange(m1), m1)
        c2 = pp.ResidueClass(random.randrange(m2), m2)
        expected = {n for n in range(2000) if c1.contains(n) and c2.contains(n)}
        inter = c1.intersect(c2)
        got = set() if inter is None else {n for n in range(2000) if inter.contains(n)}
        assert got == expected


# ---------------------------------------------------------------------------
# admissibility conditions


def test_class_conditions_showcase_values():
    r = pp.class_conditions(2, 15, 20)
    assert (r.g, r.g_a, r.h) == (5, 5, 4)
    assert not r.cond_h_divides and not r.admissible

    r = pp.class_conditions(2, 0, 4)
    assert r.g == 4 and r.g_a == 1 and not r.cond_u_divides and not r.admissible

    r = pp.class_conditions(2, 6, 16)
    assert r.cond_h_divides and r.cond_u_divides
    assert r.cond_jacobi == JacobiCondition.FAILS and not r.admissible

    r = pp.class_conditions(2, 0, 2)
    assert r.admissible and r.cond_jacobi == JacobiCondition.HOLDS


def test_class_conditions_jacobi_not_applicable_iff_g_odd():
    for m in range(1, 30):
        for r in range(m):
            rep = pp.class_conditions(2, r, m)
            assert (rep.cond_jacobi == JacobiCondition.NOT_APPLICABLE) == (rep.g % 2 == 1)


def test_class_conditions_coprime_classes_admissible():
    # gcd(r, m) = 1 leaves nothing to check for any base
    for a in (2, 3, 5, 10):
        for m in range(1, 40):
            for r in range(m):
                if gcd(r, m) == 1:
                    assert pp.class_conditions(a, r, m).admissible


def test_class_conditions_pinned_family_mod_16():
    assert pp.class_conditions(2, 6, 16).cond_jacobi == JacobiCondition.FAILS
    assert pp.class_conditions(2, 10, 16).cond_jacobi == JacobiCondition.FAILS
    assert pp.class_conditions(2, 2, 16).cond_jacobi == JacobiCondition.HOLDS
    assert pp.class_conditions(2, 14, 16).cond_jacobi == JacobiCondition.HOLDS


def _jacobi_search(a, r, m, bound=1 << 10):
    """Reference: scan k = r, r+m, ... over at most `bound` candidates whose
    part k' coprime to 2a exceeds 1; True on the first (a/k') = +1."""
    k, seen = r, 0
    for _ in range(64 * bound):
        if k > 0:
            k2a = pp.coprime_part(k, 2 * a)
            if k2a > 1:
                seen += 1
                if pp.jacobi(a, k2a) == 1:
                    return True
                if seen >= bound:
                    return False
        k += m
    return False


def test_jacobi_decision_matches_bounded_search():
    # the search can only confirm HOLDS; the exact decision never says UNKNOWN
    for a in range(2, 11):
        for m in range(1, 65):
            for r in range(m):
                verdict = pp.class_conditions(a, r, m).cond_jacobi
                if gcd(r, m) % 2:
                    assert verdict == JacobiCondition.NOT_APPLICABLE
                    continue
                assert verdict in (JacobiCondition.HOLDS, JacobiCondition.FAILS), (a, r, m)
                assert (verdict == JacobiCondition.HOLDS) == _jacobi_search(a, r, m), (a, r, m)


def test_refuted_classes_hold_no_pseudoprime_to_1e6():
    # necessity, contrapositive, for every base 2..10 and modulus <= 64
    for a in range(2, 11):
        values = pp.psp_values(a, LIMIT_1E6)
        for m in range(1, 65):
            tally = np.bincount((values % np.uint64(m)).astype(np.int64), minlength=m)
            for r in range(m):
                if not pp.class_conditions(a, r, m).admissible:
                    assert tally[r] == 0, (a, r, m)


# small bases, square-free or not, and the large 2**61 - 1 (a prime) and 3 * 2**40
COLUMN_BASES = (2, 3, 5, 6, 7, 10, 12, 15, 18, 20, 45, 2**61 - 1, 3 * 2**40)


def test_admissible_column_matches_class_conditions():
    # the column decides each divisor g of m once, class_conditions one class
    for a in COLUMN_BASES:
        for m in range(1, 151):
            expected = [pp.class_conditions(a, r, m).admissible for r in range(m)]
            assert sieve._admissible_column(a, m).tolist() == expected, (a, m)


@pytest.mark.parametrize("a", [2, 3])
def test_admissible_column_matches_class_conditions_at_mod_1e5(a):
    m = 10**5
    expected = [pp.class_conditions(a, r, m).admissible for r in range(m)]
    assert sieve._admissible_column(a, m).tolist() == expected


@pytest.mark.parametrize("a, r, m", [(3, 10, 24), (3, 14, 24), (5, 6, 20), (5, 14, 20)])
def test_jacobi_fails_where_the_search_ran_out(a, r, m):
    # the bounded search ran out on each of these and left it UNKNOWN
    report = pp.class_conditions(a, r, m)
    assert report.cond_h_divides and report.cond_u_divides
    assert report.cond_jacobi == JacobiCondition.FAILS


def test_class_check_cli_prints_exact_verdict(capsys):
    assert run(["psp", "class-check", "--base", "3", "--mod", "24", "--class", "10"]) == 0
    assert "jacobi=fails" in capsys.readouterr().out.split()


def test_class_conditions_domain_errors():
    with pytest.raises(ValueError):
        pp.class_conditions(2, 0, 0)
    with pytest.raises(ValueError):
        pp.class_conditions(2, 7, 4)
    with pytest.raises(ValueError):
        pp.class_conditions(1, 0, 4)
    # the base is checked whatever the parity of gcd(r, m)
    for r in (0, 1):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            pp.class_conditions(2**70, r, 4)


# ---------------------------------------------------------------------------
# the windowed scan


def test_scan_across_2_pow_32_matches_scalar_oracle():
    # powmod_vector runs scalar pow on the window that reaches 2**32, and
    # is_prime checks the hits past (b+1)**2 = 2**32; 2**32 + 1 = 641 * 6700417
    lo, hi = 2**32 - 2**12, 2**32 + 2**12
    found = np.concatenate(list(pp.iter_psp_values(2, lo, hi))).tolist()
    expected = [n for n in range(lo, hi) if pp.is_fermat_psp(n, 2).is_pseudoprime]
    assert found == expected == [4294967297]


@pytest.mark.parametrize("a", [2, 3, 5, 6, 10])
def test_order_table_matches_scalar_order(a):
    table = list(zip(*(x.tolist() for x in sieve._order_table(a, 2**16))))
    assert [p for p, _, _ in table] == bulk.primes_upto(2**16).tolist()
    coprime = [(p, mod, w) for p, mod, w in table if a % p]
    assert [mod // p for p, mod, _ in coprime] == [
        arith.multiplicative_order(a, p) for p, _, _ in coprime
    ]
    # w is the largest exponent with a^(p-1) = 1 (mod p**w), or v_p(a) for p | a
    for p, mod, w in table:
        if a % p:
            assert pow(a, p - 1, p**w) == 1 != pow(a, p - 1, p ** (w + 1)), (p, w)
        else:
            assert mod == p and a % p**w == 0 != a % p ** (w + 1), (p, w)
    wieferich = {2: [1093, 3511], 3: [11], 5: [2, 20771, 40487], 6: [], 10: [3, 487]}
    assert [p for p, mod, w in coprime if w > 1] == wieferich[a]


def _psp_oracle(a, lo, hi):
    return [n for n in range(lo, hi) if pow(a, n, n) == a % n and not pp.is_prime(n)]


@pytest.mark.parametrize(
    "a, lo, hi, pinned",
    [
        (31, 4, 900, [62]),  # 62 = 2 * 31: the cofactor q is the base itself
        (2, 4, 400, [341]),  # 341 = 11 * 31, g = gcd(10, 30) = 10 and 2**10 > 31
        (2, 1093**2 - 2**12, 1093**2 + 2**12, [1093**2]),  # Wieferich squares
        (2, 3511**2 - 2**12, 3511**2 + 2**12, [3511**2]),
        (10, 4, 10**5, [9, 18, 45]),  # 3 is a base-10 Wieferich prime
        (6, 4, 10**5, [10, 15, 21]),  # 2 and 3 divide the base
        (4, 4, 10**5, [4, 12, 15]),  # v_2(4) = 2: the multiples of 8 go
        (7, 4, 10**5, [6, 21, 25]),  # ord_2(7) = ord_3(7) = 1
        (2**62, 4, 10**5, [8, 16, 24]),  # v_2 = 62: the strike's slice step is 2**63
        (6**24, 4, 10**5, [8, 9, 12]),  # v_2 = v_3 = 24
    ],
    ids=["q-is-the-base", "341", "1093-squared", "3511-squared", "base-10", "base-6",
         "base-4", "base-7", "base-2**62", "base-6**24"],
)
def test_scan_edge_cases_match_fermat_oracle(a, lo, hi, pinned):
    found = [int(n) for part in pp.iter_psp_values(a, lo, hi) for n in part]
    assert found == _psp_oracle(a, lo, hi)
    assert set(pinned) <= set(found)


def test_scans_past_2_pow_63_raise_capacity_error():
    # 2**63 bounds the integers is_prime certifies; past 2**64 uint64 would wrap
    for lo, hi in ((2**63 - 10, 2**63 + 10), (2**64 - 10, 2**64 + 10), (2**64 + 1, 2**64 + 10)):
        with pytest.raises(CapacityError):
            list(pp.iter_psp_values(2, lo, hi))
    for call in (lambda: pp.psp_values(2, 2**63), lambda: pp.enumerate_even_psp(2**63),
                 lambda: pp.count_psp_in_classes(2, 8, 2**64),
                 lambda: pp.count_psp_table(2, 8, [10, 2**64])):
        with pytest.raises(CapacityError):
            call()
    # the last window below the cap still runs, scalar and presieved
    lo, hi = 2**63 - 2**10, 2**63
    found = [int(n) for part in pp.iter_psp_values(3, lo, hi) for n in part]
    assert found == [n for n in range(lo, hi) if pow(3, n, n) == 3 and not pp.is_prime(n)]


# ---------------------------------------------------------------------------
# counting


def test_count_limit_3_is_all_zero():
    for a, m in ((2, 4), (3, 5)):
        t = pp.count_psp_in_classes(a, m, 3)
        assert t.total() == 0
    assert pp.count_psp_in_classes(2, 4, 0).total() == 0
    assert pp.psp_values(2, 0).size == 0
    assert pp.enumerate_even_psp(0) == []
    assert pp.count_psp_table(2, 4, [0]).total() == 0


def test_count_psp_small_table_known_values(psp2_1e7):
    # cross-check the table builder against the raw value stream at 1e6
    t = pp.count_psp_in_classes(2, 8, LIMIT_1E6)
    values = psp2_1e7[psp2_1e7 <= LIMIT_1E6]
    for r in range(8):
        assert t.count(r) == int((values % 8 == r).sum())
    assert t.total() == values.size == 247


def test_merge_equals_any_partition_at_1e6():
    random.seed(23)
    reference = pp.count_psp_in_classes(2, 12, LIMIT_1E6)
    for _ in range(3):
        cuts = sorted(random.sample(range(3, LIMIT_1E6), 3))
        bounds = [2] + cuts + [LIMIT_1E6 + 1]
        parts = [
            pp.count_psp_in_classes(2, 12, LIMIT_1E6, segment=(bounds[i], bounds[i + 1]))
            for i in range(len(bounds) - 1)
        ]
        random.shuffle(parts)  # merge order must not matter
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert merged == reference


def test_merge_rejects_overlap():
    a = pp.count_psp_in_classes(2, 4, 10**4, segment=(2, 6000))
    b = pp.count_psp_in_classes(2, 4, 10**4, segment=(5000, 10**4 + 1))
    with pytest.raises(ValueError):
        a.merge(b)


def test_merge_rejects_mismatched_tables():
    a = pp.count_psp_in_classes(2, 4, 10**4, segment=(2, 5000))
    b = pp.count_psp_in_classes(2, 8, 10**4, segment=(5000, 10**4 + 1))
    with pytest.raises(ValueError):
        a.merge(b)


def test_consistency_across_moduli_at_1e7(psp2_1e7):
    # counts mod m must equal the folded counts mod 2m
    for m in range(2, 11):
        fine = pp.CountTable.from_values(2, 2 * m, [LIMIT_1E7], psp2_1e7, [(2, LIMIT_1E7 + 1)])
        coarse = pp.CountTable.from_values(2, m, [LIMIT_1E7], psp2_1e7, [(2, LIMIT_1E7 + 1)])
        for s in range(m):
            assert coarse.count(s) == fine.count(s) + fine.count(s + m)


def test_lemma_rejected_classes_are_empty_at_1e7(psp2_1e7):
    # necessity, contrapositive: a rejected class must show a zero count
    for m in range(2, 31):
        tally = np.bincount((psp2_1e7 % np.uint64(m)).astype(np.int64), minlength=m)
        for r in range(m):
            if not pp.class_conditions(2, r, m).admissible:
                assert tally[r] == 0, (m, r)


def test_multi_limit_table(psp2_1e7):
    t = pp.CountTable.from_values(
        2, 2, [10**4, 10**5, LIMIT_1E6], psp2_1e7, [(2, LIMIT_1E7 + 1)]
    )
    assert t.count(1, 10**4) == 22
    assert t.count(1, 10**5) == 78
    assert t.count(1, LIMIT_1E6) == 245
    assert t.count(0, LIMIT_1E6) == 2


# ---------------------------------------------------------------------------
# even pseudoprimes


def test_even_psp_first_values():
    assert pp.enumerate_even_psp(10**5) == []
    assert pp.enumerate_even_psp(2 * 10**5) == [161038]


def test_even_psp_matches_unshortcut_scan_at_1e7():
    fast = pp.enumerate_even_psp(LIMIT_1E7)
    assert fast == oracles.even_psp(LIMIT_1E7)
    assert fast == [161038, 215326, 2568226, 3020626, 7866046, 9115426]


def test_even_psp_scalar_congruence_spot_check():
    for n in pp.enumerate_even_psp(LIMIT_1E7):
        assert pow(2, n, n) == 2 and n % 2 == 0 and not pp.is_prime(n)


def test_even_psp_class_shape():
    for n in pp.enumerate_even_psp(LIMIT_1E7):
        assert n % 4 == 2
        assert n % 16 != 6 and n % 16 != 10


def test_even_psp_agree_with_full_stream(psp2_1e7):
    evens = psp2_1e7[psp2_1e7 % 2 == 0]
    assert evens.tolist() == pp.enumerate_even_psp(LIMIT_1E7)


# The even base-2 pseudoprimes below 4e9, as the step-16 presieved scan over
# the classes 2 and 14 mod 16 listed them before the walk replaced it.
EVEN_PSP_TO_4E9 = [
    161038, 215326, 2568226, 3020626, 7866046, 9115426, 49699666, 143742226, 161292286,
    196116194, 209665666, 213388066, 293974066, 336408382, 377994926, 410857426, 665387746,
    667363522, 672655726, 760569694, 1066079026, 1105826338, 1423998226, 1451887438,
    1610063326, 2001038066, 2138882626, 2952654706, 3220041826, 3434672242,
]


def test_even_psp_to_4e9_match_the_scan():
    assert pp.enumerate_even_psp(4 * 10**9) == EVEN_PSP_TO_4E9
    assert pp.enumerate_even_psp(3434672242) == EVEN_PSP_TO_4E9
    assert pp.enumerate_even_psp(3434672241) == EVEN_PSP_TO_4E9[:-1]


def _walk_shape(n, limit):
    """Whether the even n <= limit meets the conditions the even walk builds
    from, checked with pow and scalar arith only: n = 2m with m odd and
    composite, every q^e || m of odd order, P the largest prime of m; if
    P^2 | m, L_m | 2m - 1 with gcd(m, L_m) = 1; otherwise m = kP with every
    q of k at most sqrt(limit/2), gcd(k, L_k) = 1, 2kP = 1 (mod L_k),
    2^(2k-1) = 1 (mod P) and P = 1 (mod p0) for a prime p0 | 2k - 1."""
    m = n // 2
    if n % 4 != 2 or arith.is_prime(m):
        return False
    factors = arith.factor(m).factors
    orders = [arith.multiplicative_order(2, q**e) for q, e in factors]
    if any(o % 2 == 0 for o in orders):
        return False
    big_p, e = factors[-1]
    if e > 1:
        lm = lcm(*orders)
        return (2 * m - 1) % lm == 0 and gcd(m, lm) == 1
    k, lk = m // big_p, lcm(*orders[:-1])
    return (
        all(q * q <= limit // 2 for q, _ in arith.factor(k).factors)
        and gcd(k, lk) == 1
        and (2 * k * big_p) % lk == 1 % lk
        and pow(2, 2 * k - 1, big_p) == 1
        and any(big_p % p0 == 1 for p0, _ in arith.factor(2 * k - 1).factors)
    )


def test_even_psp_meet_the_walk_lemma(psp2_1e7):
    evens = psp2_1e7[psp2_1e7 % 2 == 0].tolist()
    assert evens and all(_walk_shape(n, LIMIT_1E7) for n in evens)
    assert all(_walk_shape(n, 4 * 10**9) for n in EVEN_PSP_TO_4E9)
    # m prime; ord_3(2) even; 2kP != 1 (mod L_k); 2^(2k-1) != 1 (mod P), k = 7
    assert not any(_walk_shape(n, LIMIT_1E7) for n in (14, 42, 2 * 7 * 79, 2 * 7 * 53))


def test_even_walk_caps_its_order_table_before_allocating(monkeypatch):
    # the table's primes must stay below 2**24, so limit < 2**49; the cap is
    # checked before the spf array is allocated
    def no_alloc(hi):
        raise AssertionError(f"allocated spf_window({hi})")

    monkeypatch.setattr(bulk, "spf_window", no_alloc)
    for call in (lambda: pp.enumerate_even_psp(2**49), lambda: pp.enumerate_even_psp(10**17),
                 lambda: sieve._order_table(2, sieve._ORDER_TABLE_CAP)):
        with pytest.raises(CapacityError):
            call()
    with pytest.raises(AssertionError, match="allocated"):  # just below the cap it runs
        pp.enumerate_even_psp(2**49 - 1)


# ---------------------------------------------------------------------------
# empty-class scan


def test_scan_empty_classes_examples():
    found = pp.scan_empty_classes(2, 12, LIMIT_1E6)
    as_set = {(e.modulus, e.residue) for e in found}
    for r in (0, 4, 6, 8):
        assert (12, r) in as_set
    assert (9, 0) in as_set
    predicted = {(e.modulus, e.residue) for e in found if e.predicted_by_lemma}
    assert {(12, 0), (12, 4), (12, 6), (12, 8), (9, 0)} <= predicted


def test_scan_empty_classes_mod_20(psp2_1e7):
    found = pp.scan_empty_classes(2, 20, LIMIT_1E7)
    per_20 = {e.residue for e in found if e.modulus == 20}
    assert {0, 4, 8, 10, 12, 15, 16} <= per_20
    predicted = {e.residue for e in found if e.modulus == 20 and e.predicted_by_lemma}
    assert predicted == {0, 4, 8, 10, 12, 15, 16}


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_small_list():
    t = pp.ingest_psp_list(io.StringIO("561\n645\n1105\n"), 4)
    assert t.count(1, 1105) == 3
    assert t.total(1105) == 3


def test_ingest_crlf_and_trailing_newline():
    t = pp.ingest_psp_list(io.StringIO("341\r\n561\r\n"), 2)
    assert t.count(1, 561) == 2


def test_ingest_empty_stream():
    t = pp.ingest_psp_list(io.StringIO(""), 8)
    assert all(t.count(r, 0) == 0 for r in range(8))


def test_ingest_rejects_garbage_with_line_number():
    # a line is ASCII digits only: no sign, digit separator or other script
    for text in ("x41", "5_61", "+341", "-341", "\u0665\u0666\u0661", "3 41", ""):
        with pytest.raises(InputFormatError, match="line 2"):
            pp.ingest_psp_list(io.StringIO(f"341\n{text}\n"), 2)
    # a byte stream's lines are not text, though int() would read them
    with pytest.raises(InputFormatError, match="line 1"):
        pp.ingest_psp_list(io.BytesIO(b"341\n"), 4)


def test_ingest_rejects_descending():
    with pytest.raises(InputFormatError, match="line 3"):
        pp.ingest_psp_list(io.StringIO("341\n561\n341\n"), 2)


def test_ingest_rejects_out_of_range():
    with pytest.raises(InputFormatError, match="64-bit"):
        pp.ingest_psp_list(io.StringIO(f"{1 << 64}\n"), 2)


def test_ingest_chunks_tally_like_plain_python():
    rng = random.Random(20)
    # 12-bit draws repeat, so equal neighbours occur
    draws = (rng.getrandbits(rng.choice((12, 64))) for _ in range(sieve._INGEST_CHUNK + 3))
    values = sorted(draws)
    values[-1] = (1 << 64) - 1
    t = pp.ingest_psp_list(io.StringIO("".join(f"{v}\n" for v in values)), 30)
    tally = [0] * 30
    for v in values:
        tally[v % 30] += 1
    assert t.limits == ((1 << 64) - 1,)
    assert [t.count(r) for r in range(30)] == tally


@pytest.mark.parametrize("bad", ["x41", "5_61", "+341", "", str(1 << 64), "7"])
@pytest.mark.parametrize("offset", [0, 1])
def test_ingest_names_bad_line_at_chunk_edge(bad, offset):
    lineno = sieve._INGEST_CHUNK + offset
    lines = [f"{100 + i}\n" for i in range(1, sieve._INGEST_CHUNK + 3)]
    lines[lineno - 1] = bad + "\n"
    with pytest.raises(InputFormatError, match=f"^line {lineno}: "):
        pp.ingest_psp_list(iter(lines), 2)


def test_ingest_keeps_int_whitespace_and_leading_zeros():
    t = pp.ingest_psp_list(io.StringIO(" 341 \n0341\n\t561\r\n"), 4)
    assert t.limits == (561,) and t.count(1) == 3


def test_ingest_names_bad_line_before_a_read_error():
    def stream(second):
        yield "341\n"
        yield second
        raise OSError("read failed")

    with pytest.raises(InputFormatError, match="line 2"):
        pp.ingest_psp_list(stream("x41\n"), 2)
    with pytest.raises(OSError, match="read failed"):
        pp.ingest_psp_list(stream("561\n"), 2)


def _unread():
    raise AssertionError("input read before its base and modulus were checked")
    yield


def test_tables_reject_bad_base_and_modulus_up_front():
    for base, m in ((2, 0), (2, -1), (1, 4), (2**63, 4)):
        with pytest.raises(ValueError, match="modulus|base"):
            pp.CountTable.from_values(base, m, [10], np.array([341], dtype=np.uint64), [(2, 11)])
        with pytest.raises(ValueError, match="modulus|base"):
            pp.ingest_psp_list(_unread(), m, base)


@pytest.mark.parametrize("call", [
    lambda: pp.CountTable.from_values(2, 4, [-10], [341], [(2, 11)]),
    lambda: pp.CountTable.from_values(2, 4, [10], [-1], [(2, 11)]),
    lambda: pp.CountTable.from_values(2, 4, [10], np.array([-1]), [(2, 11)]),
    lambda: pp.CountTable.from_values(2, 4, [10], [-1, 2**63], [(2, 11)]),
    lambda: pp.CountTable.from_values(2, 4, [10], [2**64], [(2, 11)]),
    lambda: pp.count_psp_table(2, 4, 5),
    lambda: pp.CountTable.from_values(2, 4, [10], 5, [(2, 11)]),
], ids=["limit", "value", "int64_value", "mixed_values", "value_past_64_bits", "limits",
        "scalar_values"])
def test_tables_reject_bad_limits_and_values(call):
    # a negative value, one past 64 bits, or values that are not one list,
    # is refused before any tally
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: pp.psp_values(2, 1e3),
    lambda: pp.enumerate_even_psp(1e3),
    lambda: list(pp.iter_psp_values(2, 2.0, 100)),
    lambda: pp.count_psp_table(2, 4.0, [100]),
    lambda: pp.count_psp_table(2, 4, [100.5]),
    lambda: pp.count_psp_in_classes(2, 4, 100.0),
    lambda: pp.count_psp_in_classes(2, 4, 100, segment=(2.0, 50)),
    lambda: pp.scan_empty_classes(2, 4.0, 100),
    lambda: pp.class_conditions(2.0, 1, 4),
    lambda: pp.ingest_psp_list(["341\n"], 4.0),
    lambda: pp.CountTable.from_values(2, 4, [10], [3.5], [(2, 11)]),
    lambda: pp.CountTable.from_values(2, 4, [10], [341], [(2.5, 3)]),
    lambda: pp.count_psp_table(2, 4, [100]).count(1.5),
    lambda: pp.ResidueClass(1.5, 4),
    lambda: pp.ResidueClass(2, 4).contains(6.0),
    lambda: pp.ResidueClass(2, 4).contains("6"),
    lambda: pp.is_fermat_psp(341.0, 2),
    lambda: pp.psp_criterion(341.0, 2),
    lambda: arith.powmod(2, 3, 5.0),
    lambda: arith.coprime_part(12.0, 2),
    lambda: arith.multiplicative_order(2, 7.0),
    lambda: arith.is_prime(7.5),
    lambda: arith.jacobi(2.5, 7),
    lambda: arith.euler_phi(1.0),
    lambda: arith.tau(1.0),
    lambda: arith.carmichael_lambda(Fraction(1)),
    lambda: pp.F(1.0),
    lambda: pp.D(1.0),
    lambda: pp.is_carmichael(1.0),
], ids=["psp_values", "enumerate_even_psp", "iter_psp_values", "count_psp_table_m",
        "count_psp_table_limit", "count_psp_in_classes", "count_psp_in_classes_segment",
        "scan_empty_classes", "class_conditions", "ingest_psp_list", "from_values_value",
        "from_values_coverage", "CountTable.count", "ResidueClass",
        "ResidueClass.contains_float", "ResidueClass.contains_str",
        "is_fermat_psp", "psp_criterion", "powmod", "coprime_part", "multiplicative_order",
        "is_prime", "jacobi", "euler_phi", "tau", "carmichael_lambda", "F", "D",
        "is_carmichael"])
def test_sizes_must_be_integers(call):
    # the scan, Fermat and arith twin of test_density's check
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_table_moduli_past_the_cap_raise_before_any_work(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned before the modulus was checked")

    monkeypatch.setattr(sieve, "iter_psp_values", no_scan)
    m = sieve._TABLE_MOD_CAP + 1
    for call in (lambda: pp.ingest_psp_list(_unread(), m),
                 lambda: pp.CountTable.from_values(2, m, [10], _unread(), [(2, 11)]),
                 lambda: pp.count_psp_in_classes(2, m, 10**3),
                 lambda: pp.count_psp_table(2, m, [10**3]),
                 lambda: pp.scan_empty_classes(2, sieve._SCAN_MOD_CAP + 1, 10**3)):
        with pytest.raises(CapacityError):
            call()
    assert pp.ingest_psp_list(io.StringIO("341\n"), m - 1).count(341, 341) == 1  # the cap runs


# ---------------------------------------------------------------------------
# rendering


def test_emit_csv_header_and_shape():
    t = pp.count_psp_in_classes(2, 4, 10**4)
    text = pp.emit_table(t, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "base,modulus,class,limit,count,empty_predicted,fraction"
    assert len(lines) == 5
    assert lines[1].startswith("2,4,0,10000,0,true,")


def test_emit_multi_limit_has_no_fraction_column():
    t = pp.CountTable.from_values(2, 2, [10**3, 10**4], pp.psp_values(2, 10**4), [(2, 10**4 + 1)])
    lines = pp.emit_table(t, "csv").strip().split("\n")
    assert lines[0] == "base,modulus,class,limit,count,empty_predicted"
    assert len(lines) == 5


def test_repeated_limits_count_once():
    def emitted(m, limits):
        return pp.emit_table(pp.count_psp_table(2, m, limits))

    assert emitted(2, [400, 400, 341]) == emitted(2, [341, 400])
    assert emitted(4, [10, 10]) == emitted(4, [10])
    assert "fraction" in emitted(4, [10, 10])


def test_limits_below_two_scan_an_empty_segment():
    # [2, limit + 1) is empty for limits 0 and 1: no coverage and no error
    for limits in ([0], [1], [0, 1]):
        t = pp.count_psp_table(2, 4, limits)
        assert t.coverage == () and t.total(limits[-1]) == 0


def test_emit_empty_table_is_header_only():
    t = pp.CountTable(2, 4, (), {}, ())
    assert pp.emit_table(t, "csv") == "base,modulus,class,limit,count,empty_predicted\n"


def test_emit_json_mirrors_csv_counts():
    t = pp.count_psp_in_classes(2, 6, 10**5)
    rows = json.loads(pp.emit_table(t, "json"))
    csv_lines = pp.emit_table(t, "csv").strip().split("\n")[1:]
    assert len(rows) == len(csv_lines)
    for row, line in zip(rows, csv_lines):
        cells = line.split(",")
        assert row["class"] == int(cells[2])
        assert row["count"] == int(cells[4])
        assert row["empty_predicted"] == (cells[5] == "true")


@pytest.mark.parametrize("num", ["1", 1.5], ids=["str", "float"])
def test_format_fraction_takes_integers_only(num):
    with pytest.raises(ValueError, match="num must be an integer"):
        pp.format_fraction(num, 2)


def test_format_fraction_round_half_even():
    # 4744920 of 4746965 pseudoprimes below 1e16 sit in class 1 mod 2
    assert pp.format_fraction(4744920, 4744920 + 2045) == "0.999569"
    assert pp.format_fraction(1, 2) == "0.500000"
    assert pp.format_fraction(1, 3) == "0.333333"
    assert pp.format_fraction(2057, 2064) == "0.996609"
    assert pp.format_fraction(1, 1600000) == "0.000001"  # 0.000000625 rounds up
    assert pp.format_fraction(1, 2000000) == "0.000000"  # exact half, even side
    assert pp.format_fraction(3, 2000000) == "0.000002"  # exact half, odd side
    assert pp.format_fraction(0, 0) == "0.000000"
    with pytest.raises(ValueError):
        pp.format_fraction(1, -2)
