"""The benchmark's workloads: fixed lists of CLI jobs, their seeded inputs,
and the expected output of every job.

Deterministic jobs are checked byte for byte against golden files recorded
with `record_golden.py`.  Seeded jobs are checked against oracles: the ingest
tally is recomputed in plain Python, and every window hit is confirmed by
the scalar Fermat test.

Job sizes are smaller than the ROADMAP's acceptance scale so that one pass
over a job list takes about 7-8 s and a run repeats it about four times;
the reasons for each size are in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

# OEIS A006935: the even base-2 pseudoprimes below 1e8.
EVEN_PSP_TO_1E8 = (161038, 215326, 2568226, 3020626, 7866046, 9115426, 49699666)
# README: count_S(1e6) and union_density(10).
COUNT_S_1E6 = (625941, 932490)
UNION_DENSITY_10 = Fraction(220163, 396900)

WINDOW = 1 << 20
WINDOW_LO, WINDOW_HI = 1 << 31, (1 << 32) - WINDOW
INGEST_LINES = 10**6
INGEST_MOD = 30


@dataclass(frozen=True)
class Job:
    """One CLI invocation (argv) or, when argv is None, the library window
    job.  `metric` names the end-to-end per-job time this job adds to;
    `golden` names the file holding its expected stdout (None when the
    expected output comes from a seeded oracle)."""

    metric: str
    argv: tuple[str, ...] | None
    golden: str | None


def _cli(metric: str, command: str, golden: str | None) -> Job:
    return Job(metric, tuple(command.split()), golden)


INGEST_ARGV = f"psp ingest --mod {INGEST_MOD} --input"

WORKLOADS = {
    # Residue-class scans: bulk.powmod_vector over large windows dominates.
    "psp-scan": (
        _cli("psp_count_s", "psp count --base 2 --mod 8 --limit 2e6", "psp_count_b2_m8_2e6"),
        _cli("psp_count_s", "psp count --base 3 --mod 12 --limit 2e6", "psp_count_b3_m12_2e6"),
        _cli("psp_even_s", "psp even --limit 1e8", "psp_even_1e8"),
        _cli(
            "psp_empty_classes_s",
            "psp empty-classes --base 2 --mod 26 --limit 1e6",
            "psp_empty_b2_m26_1e6",
        ),
        Job("psp_window_s", None, None),
    ),
    # Density array pipelines: many small powmod_vector calls, full-range arrays.
    "divisor-sieve": (
        _cli("ordowski_count_s", "ordowski count --limit 1e6", "ordowski_count_1e6"),
        _cli(
            "ordowski_tail_bound_s",
            "ordowski tail-bound --lo 1e4 --hi 1e6",
            "ordowski_tail_bound_1e4_1e6",
        ),
    ),
    # Scalar Python and Fraction work; bulk is a small share of the time.
    "exact-scalar": (
        _cli(
            "psp_empty_classes_s",
            "psp empty-classes --base 3 --mod 26 --limit 1e5",
            "psp_empty_b3_m26_1e5",
        ),
        _cli(
            "psp_empty_classes_s",
            "psp empty-classes --base 5 --mod 26 --limit 1e5",
            "psp_empty_b5_m26_1e5",
        ),
        _cli("ordowski_c1_s", "ordowski c1 --b-max 1e4", "ordowski_c1_1e4"),
        _cli("ordowski_union_density_s", "ordowski union-density --k 17", "ordowski_union_17"),
        _cli("psp_ingest_s", INGEST_ARGV, None),
    ),
}

WARMUP = (
    ("psp", "count", "--base", "2", "--mod", "8", "--limit", "1e5"),
    ("ordowski", "count", "--limit", "1e4"),
)


def read_golden(name: str) -> str:
    return (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def published_golden_checks() -> dict:
    """Whether the golden files carry the published values."""
    even = tuple(int(x) for x in read_golden("psp_even_1e8").split())
    row = read_golden("ordowski_count_1e6").splitlines()[1]
    return {
        "A006935_even_psp_to_1e8": even == EVEN_PSP_TO_1E8,
        "count_S_1e6": row == f"1000000,{COUNT_S_1E6[0]},{COUNT_S_1E6[1]}",
    }


# ---------------------------------------------------------------------------
# seeded inputs


def window_offset(seed: int) -> int:
    """The window's lower end N, drawn from the seed in [2**31, 2**32 - WINDOW)."""
    return random.Random(f"psp-scan/{seed}").randrange(WINDOW_LO, WINDOW_HI)


def ingest_values(seed: int) -> list[int]:
    """A sorted list of INGEST_LINES random 64-bit values drawn from the seed."""
    rng = random.Random(f"exact-scalar/{seed}")
    return sorted(rng.getrandbits(64) for _ in range(INGEST_LINES))


def write_ingest_file(path: Path, values: list[int]) -> None:
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")


# ---------------------------------------------------------------------------
# oracles


def _fraction6(num: int, den: int) -> str:
    q = round(Fraction(num * 10**6, den))  # round-half-even
    return f"{q // 10**6}.{q % 10**6:06d}"


def ingest_expected(values: list[int], base: int = 2) -> str:
    """The CSV `psp ingest` must print, recomputed in plain Python; only the
    empty_predicted column (a property of base and modulus, not of the
    input) comes from a golden file."""
    tally = [0] * INGEST_MOD
    for v in values:
        tally[v % INGEST_MOD] += 1
    top = values[-1]
    predicted = {int(x) for x in read_golden("ingest_m30_empty_predicted").split()}
    lines = ["base,modulus,class,limit,count,empty_predicted,fraction"]
    for r, count in enumerate(tally):
        flag = "true" if r in predicted else "false"
        lines.append(
            f"{base},{INGEST_MOD},{r},{top},{count},{flag},{_fraction6(count, len(values))}"
        )
    return "\n".join(lines) + "\n"


def window_expected(n_lo: int) -> str:
    """Expected rendering of the window job: the kernel's hits in
    [n_lo, n_lo + WINDOW) that the scalar is_fermat_psp confirms, tallied per
    class mod 8.  A hit it refutes is left out, so the job then fails."""
    from pseudoprimes import fermat, sieve

    hits = [
        n
        for part in sieve.iter_psp_values(2, n_lo, n_lo + WINDOW)
        for n in map(int, part)
        if fermat.is_fermat_psp(n, 2).is_pseudoprime
    ]
    tally = [0] * 8
    for n in hits:
        tally[n % 8] += 1
    return render_window(tally)


def render_window(counts) -> str:
    return "".join(f"{r},{c}\n" for r, c in enumerate(counts))


def decimal(n: int) -> str:
    """Decimal digits of n >= 0, built from pieces shorter than the
    interpreter's int-to-str digit limit (the limit itself is left alone)."""
    if n < 10**1000:
        return str(n)
    high, low = divmod(n, 10**1000)
    return decimal(high) + str(low).zfill(1000)
