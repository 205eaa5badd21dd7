"""Benchmark worker: one fresh process per run.

It imports the package from the checkout's src/, makes the warm-up calls,
then (unless --probe) runs its workload's job list in passes, closed loop
with one client, until --seconds have gone by.  Each job runs in process
through `pseudoprimes.cli.run(argv)` with stdout and stderr captured, and
fails on a nonzero exit or on stdout that differs from its expected output.
With --trace 1 every untraced pass is followed by a traced one.  The last
line of stdout is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from pseudoprimes import cli, density, sieve  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def warm_up() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workloads.WARMUP:
            if cli.run(argv) != 0:
                raise RuntimeError(f"warm-up job failed: {' '.join(argv)}")


def run_job(argv, n_lo: int) -> tuple[float, int, str, str]:
    """Time one job; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            if argv is None:
                table = sieve.count_psp_in_classes(
                    2, 8, 2**32 - 1, segment=(n_lo, n_lo + workloads.WINDOW)
                )
                rc = 0
            else:
                rc = cli.run(argv)
        except Exception:  # a crash fails this job; the run goes on
            rc = 1
            traceback.print_exc(file=err)
        seconds = perf_counter() - start
    text = out.getvalue()
    if argv is None and rc == 0:
        text = workloads.render_window(table.count(r) for r in range(8))
    return seconds, rc, text, err.getvalue()


def run_pass(argvs, expected, n_lo, failures) -> dict:
    times = []
    for index, argv in enumerate(argvs):
        seconds, rc, text, err = run_job(argv, n_lo)
        times.append(seconds)
        if rc != 0:
            failures.append({"job": index, "exit": rc, "stderr": err.strip().splitlines()[-1:]})
        elif text != expected[index]:
            failures.append({"job": index, "exit": 0, "wrong_output": True})
    return {"wall": sum(times), "jobs": times}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--window-lo", type=int, default=0)
    parser.add_argument("--ingest", help="generated ingest input file")
    parser.add_argument("--ingest-expected", help="oracle output for the ingest job")
    parser.add_argument("--spans", help="file to write the traced spans to")
    parser.add_argument("--probe", action="store_true", help="set up, then exit")
    args = parser.parse_args()

    warm_up()
    if args.probe:
        return 0

    jobs = workloads.WORKLOADS[args.workload]
    checks = workloads.published_golden_checks()
    argvs, expected = [], []
    for job in jobs:
        if job.argv is None:
            argvs.append(None)
            expected.append(workloads.window_expected(args.window_lo))
        elif job.golden is None:
            argvs.append(job.argv + (args.ingest,))
            expected.append(Path(args.ingest_expected).read_text(encoding="utf-8"))
        else:
            argvs.append(job.argv)
            expected.append(workloads.read_golden(job.golden))
    if args.workload == "exact-scalar":
        checks["union_density_10"] = density.union_density(10) == workloads.UNION_DENSITY_10

    failures: list[dict] = []
    passes: list[dict] = []
    tracers = []
    begin = perf_counter()
    rounds = 0
    while True:
        passes.append(run_pass(argvs, expected, args.window_lo, failures) | {"traced": 0})
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                traced = run_pass(argvs, expected, args.window_lo, failures)
            traced["layers"] = spans.layer_metrics(tracer, traced["wall"])
            passes.append(traced | {"traced": 1})
            tracers.append(tracer)
        rounds += 1
        elapsed = perf_counter() - begin
        # Stop at the round boundary nearest to --seconds.
        if elapsed + elapsed / rounds / 2 >= args.seconds:
            break

    if args.spans and tracers:
        with open(args.spans, "w", encoding="utf-8") as out:
            for index, tracer in enumerate(tracers):
                tracer.write(out, index)

    result = {
        "passes": passes,
        "jobs": [{"metric": j.metric, "argv": list(a) if a else None} for j, a in zip(jobs, argvs)],
        "attempted": len(passes) * len(jobs),
        "failures": failures,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
