"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They take under a minute; the slowest run the benchmark and the 1e7 count.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pseudoprimes import cli, density, sieve  # noqa: E402

SMALL = ("psp", "count", "--base", "2", "--mod", "8", "--limit", "1e4")


def _stdout(argv) -> str:
    return worker.run_job(argv, 0)[2]


def test_corrupted_output_is_a_failed_job():
    good = _stdout(SMALL)
    corrupted = good.replace("true", "false", 1)
    failures: list = []
    worker.run_pass([SMALL, SMALL], [good, corrupted], 0, failures)
    assert failures == [{"job": 1, "exit": 0, "wrong_output": True}]


def test_nonzero_exit_is_a_failed_job():
    failures: list = []
    worker.run_pass([("ordowski", "c1", "--b-max", "1")], [""], 0, failures)
    assert [f["exit"] for f in failures] == [2]


def test_wrappers_leave_package_unpatched():
    before = [vars(owner)[attr] for owner, attr, *_ in spans.LAYERS]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert [vars(o)[a] for o, a, *_ in spans.LAYERS] != before
            assert _stdout(SMALL) == _stdout(SMALL)
            raise RuntimeError("leave the block by an exception")
    assert [vars(owner)[attr] for owner, attr, *_ in spans.LAYERS] == before
    assert cli.run.__module__ == "pseudoprimes.cli"
    assert sieve.jacobi.__module__ == "pseudoprimes.arith"
    layers = spans.layer_metrics(tracer, 1.0)
    assert layers["cli.run.calls"] == 2 and layers["bulk.powmod_vector.calls"] > 0


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.installed():
        density.c1_partial(30)
    layers = spans.layer_metrics(tracer, 1.0)
    assert layers["density.sb_density.calls"] == 29
    assert layers["density.c1_partial.self_s"] < layers["density.c1_partial.s"]
    covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert covered == pytest.approx(layers["density.c1_partial.s"])


def test_ingest_oracle_matches_program(tmp_path):
    values = sorted(workloads.ingest_values(7)[:: 10**4])
    data = tmp_path / "values.txt"
    workloads.write_ingest_file(data, values)
    argv = (*workloads.INGEST_ARGV.split(), str(data))
    assert _stdout(argv) == workloads.ingest_expected(values)


def test_window_oracle_confirms_a_known_hit():
    # 3401753545 is a base-2 pseudoprime (confirmed by the scalar test).
    text = workloads.window_expected(3_401_000_000)
    counts = [int(line.split(",")[1]) for line in text.splitlines()]
    assert counts[3401753545 % 8] >= 1
    assert text == worker.run_job(None, 3_401_000_000)[2]


def test_decimal_matches_str_below_the_limit():
    for digits in (1, 999, 1000, 1001, 2500, 4299):
        n = 7 * 10 ** (digits - 1) + 12345
        assert workloads.decimal(n) == str(n)


def test_published_values():
    assert all(workloads.published_golden_checks().values())
    assert density.union_density(10) == workloads.UNION_DENSITY_10
    table = sieve.count_psp_table(2, 8, [10**7])
    odd = sum(table.count(r) for r in range(1, 8, 2))
    even = sum(table.count(r) for r in range(0, 8, 2))
    assert (odd, even) == (750, 6)  # OEIS A055550 and A006935


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "divisor-sieve",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}
    assert printed == (run.PER_LAYER if trace else run.END_TO_END)
