"""Record the golden stdout of every deterministic benchmark job.

    python3 perfbench/record_golden.py

Run once at the commit whose outputs define correct behaviour; every later
benchmark run must reproduce these files byte for byte.  A job that does not
exit 0 here (`ordowski c1 --b-max 1e4`, whose numerator is longer than the
interpreter's int-to-str limit) gets the output the CLI's format defines,
rendered from the library's exact value without touching that limit, so
the job keeps failing until the CLI can print it.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pseudoprimes import cli, density, sieve  # noqa: E402

import workloads  # noqa: E402


def expected_c1(b_max: int) -> str:
    value = density.c1_partial(b_max)
    num, den = value.numerator, value.denominator
    rendered = f"{workloads.decimal(num)}/{workloads.decimal(den)}"
    return f"{rendered} {sieve.format_fraction(num, den)}\n"


def main() -> int:
    workloads.GOLDEN.mkdir(exist_ok=True)
    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            if job.golden is None:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.run(job.argv)
            text = out.getvalue()
            if rc != 0:
                if job.argv[:2] != ("ordowski", "c1"):
                    raise SystemExit(f"{' '.join(job.argv)} exited {rc}")
                text = expected_c1(int(float(job.argv[-1])))
            (workloads.GOLDEN / f"{job.golden}.out").write_text(text, encoding="utf-8")
            print(f"{job.golden}: exit {rc}, {len(text)} bytes")
    predicted = [
        r
        for r in range(workloads.INGEST_MOD)
        if not sieve.class_conditions(2, r, workloads.INGEST_MOD).admissible
    ]
    (workloads.GOLDEN / "ingest_m30_empty_predicted.out").write_text(
        " ".join(map(str, predicted)) + "\n", encoding="utf-8"
    )
    checks = workloads.published_golden_checks()
    print(checks)
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
