"""Benchmark for the pseudoprimes CLI jobs.

    python3 perfbench/run.py --workload psp-scan --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  One run generates the workload's seeded
inputs, times set-up in fresh interpreters that import the package and make
the warm-up calls, and has one more fresh worker process run the workload's
job list in passes for about --seconds, checking every output.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, with --trace 1 the per-layer metrics of the traced passes.
Everything measured, including the per-job times and the layer metrics the
JSON line leaves out, is printed above that line and written to
perfbench/out/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 6
# A run must end within 180 s; a hung child is killed before that.
RUN_TIMEOUT_S = 165

# The metrics of the JSON line, with their units.  Every workload produces
# all of them: each time is measured on every workload, and a count is 0 on a
# workload that never reaches its layer.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.overhead_s": "s",
    "bulk.powmod_vector.s": "s",
    "bulk.powmod_vector.calls": "count",
    "bulk.powmod_vector.elems": "count",
    "bulk.powmod_vector.elems_per_s": "1/s",
    "bulk.powmod_vector.elems_per_call": "count",
    "sieve.iter_psp_values.hits": "count",
    "sieve.scan.hit_ratio": "ratio",
    "sieve.class_conditions.calls": "count",
    "sieve.class_conditions.unknown": "count",
    "sieve.ResidueClass.intersect.calls": "count",
    "density.unit_order_counts.calls": "count",
    "arith.jacobi.calls": "count",
    "arith.factor.calls": "count",
    "trace.overhead_frac": "ratio",
    "trace.residual_s": "s",
}


def machine() -> dict:
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **caches,
    }


def worker(*args: str, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )


def setup_times(samples: int, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import the package, make the
    warm-up calls and exit."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        done = worker("--probe", deadline=deadline)
        times.append(perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return times


def prepare_inputs(name: str, seed: int) -> list[str]:
    """Generate the workload's seeded inputs; returns the worker arguments
    that hand them over.  divisor-sieve has no random part."""
    if name == "psp-scan":
        return ["--window-lo", str(workloads.window_offset(seed))]
    if name == "exact-scalar":
        values = workloads.ingest_values(seed)
        data = OUT / "ingest.txt"  # 20 MB: one file, rewritten by each run
        expected = OUT / "ingest.expected"
        workloads.write_ingest_file(data, values)
        expected.write_text(workloads.ingest_expected(values), encoding="utf-8")
        return ["--ingest", str(data), "--ingest-expected", str(expected)]
    return []


def summarize(raw: dict, setup: list[float]) -> dict:
    """Every metric of one run, from the worker's raw measurements."""
    plain = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    wall = median(p["wall"] for p in plain)
    metrics = {"wall_s": wall, "setup_s": median(setup), "peak_rss_mb": raw["peak_rss_mb"]}
    metrics["jobs_failed_frac"] = len(raw["failures"]) / raw["attempted"]
    for metric in dict.fromkeys(job["metric"] for job in raw["jobs"]):
        columns = [i for i, job in enumerate(raw["jobs"]) if job["metric"] == metric]
        metrics[metric] = median(sum(p["jobs"][i] for i in columns) for p in plain)
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = median(p["layers"][key] for p in traced)
        layers["trace.overhead_frac"] = median(p["wall"] for p in traced) / wall - 1
    counts = [
        {k: v for k, v in p["layers"].items() if isinstance(v, int)} for p in traced
    ]
    return {
        "metrics": metrics,
        "layers": layers,
        "counts_repeat": all(c == counts[0] for c in counts),
        "outliers": [
            {"pass": i, "wall_s": p["wall"]}
            for i, p in enumerate(plain)
            if p["wall"] > 1.25 * wall or p["wall"] < 0.8 * wall
        ],
    }


def report(name: str, seed: int, trace: int, raw: dict, summary: dict, info: dict) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}  passes {len(raw['passes'])}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    units = {**END_TO_END, "jobs_failed_frac": "ratio"}
    for key, value in summary["metrics"].items():
        print(f"  {key:<28} {value:>14.6g} {units.get(key, 's')}")
    for key, value in summary["layers"].items():
        print(f"  {key:<44} {value:>14.6g}")
    walls = " ".join(f"{p['wall']:.3f}" for p in raw["passes"] if not p["traced"])
    print(f"  untraced pass walls (s): {walls}")
    print(f"  outliers: {summary['outliers'] or 'none'}")
    if summary["layers"]:
        print(f"  counts repeat across traced passes: {summary['counts_repeat']}")
    failed = Counter(json.dumps(f, sort_keys=True) for f in raw["failures"])
    for text, times in failed.items():
        failure = json.loads(text)
        argv = raw["jobs"][failure["job"]]["argv"] or ["window"]
        print(f"  failed {times}x: {' '.join(argv)}: {failure}")
    print(f"  checks: {raw['checks']}")


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    inputs = prepare_inputs(name, seed)
    spans_file = OUT / f"{name}.spans.jsonl"
    # Half the set-up samples before the worker and half after, so that a
    # slow spell of a shared machine does not skew all of them.
    setup = setup_times(SETUP_SAMPLES // 2, deadline)
    done = worker(
        "--workload", name, "--seconds", str(seconds), "--trace", str(trace),
        "--spans", str(spans_file), *inputs, deadline=deadline,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker failed:\n{done.stderr}")
    setup += setup_times(SETUP_SAMPLES - SETUP_SAMPLES // 2, deadline)
    raw = json.loads(done.stdout.splitlines()[-1])
    summary = summarize(raw, setup)
    info = machine() | {"numpy": raw["numpy"]}
    report(name, seed, trace, raw, summary, info)
    wrong = any(f.get("wrong_output") for f in raw["failures"])
    result = {
        "correct": not wrong and all(raw["checks"].values()),
        "attempted": raw["attempted"],
        "failed": len(raw["failures"]),
    }
    chosen = PER_LAYER if trace else END_TO_END
    values = summary["layers"] if trace else summary["metrics"]
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in chosen.items()}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": info, "setup_samples_s": setup, "summary": summary, "raw": raw,
        "result": result,
    }
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="pseudoprimes CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pseudoprimes" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            print(json.dumps(run_workload(name, args.seed, args.seconds, args.trace)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
