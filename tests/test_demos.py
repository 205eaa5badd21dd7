"""The fast demos run end to end, so the library attributes they read cannot
go stale.  Demo 04 takes seconds and is left to manual runs."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(capsys, name: str) -> str:
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_demo_01_residue_class_census(capsys):
    out = _run_demo(capsys, "01_residue_class_census.py")
    assert out.startswith("base-2 pseudoprimes <= 1000000: 247 total\n")


def test_demo_02_even_pseudoprimes(capsys):
    out = _run_demo(capsys, "02_even_pseudoprimes.py")
    assert out.startswith("even base-2 pseudoprimes <= 10000000: 6 found in ")
    assert "  161038 = 2 * 73 * 1103\n" in out
    assert out.endswith("  9115426 = 2 * 31 * 233 * 631\n")


def test_demo_03_class_admissibility(capsys):
    out = _run_demo(capsys, "03_class_admissibility.py")
    assert "class  2 (mod 12): admissible (not yet populated)\n" in out


def test_demo_05_group_order_bounds(capsys):
    out = _run_demo(capsys, "05_group_order_bounds.py")
    summaries = [line for line in out.splitlines() if line.startswith("   N = ")]
    assert summaries == [
        "   N = 7/2 <= bound 6 (margin 5/2), ok=True",
        "   N = 9/2 <= bound 8 (margin 7/2), ok=True",
        "   N = 35/3 <= bound 27 (margin 46/3), ok=True",
        "   N = 35/6 <= bound 12 (margin 37/6), ok=True",
        "   N = 329/5 <= bound 100 (margin 171/5), ok=True",
    ]
    assert "   order 5^1: 124 elements, ratio 124/5 <= 25\n" in out
    assert out.endswith("N matches the element-by-element sum: 17/3\n")

