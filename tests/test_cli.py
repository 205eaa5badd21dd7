"""Command-line behavior: outputs, determinism, and exit codes."""

import json
import re
from fractions import Fraction

import pytest

from pseudoprimes import density, sieve
from pseudoprimes.cli import _integer, run


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_union_density_output(capsys):
    code, out, _ = _capture(capsys, ["ordowski", "union-density", "--k", "10"])
    assert code == 0
    assert out == "220163/396900 0.554706\n"


def test_sb_density_output(capsys):
    code, out, _ = _capture(capsys, ["ordowski", "sb-density", "--b", "2"])
    assert code == 0 and out == "1/4 0.250000\n"
    code, out, _ = _capture(capsys, ["ordowski", "sb-density", "--b", "2e7"])
    assert code == 0 and out == "1/400000000000000 0.000000\n"  # G_b is trivial


def test_scientific_shorthand_flags(capsys):
    code, out, _ = _capture(capsys, ["ordowski", "count", "--limit", "1e4"])
    assert code == 0
    assert out.splitlines()[1] == "10000,6169,8962"


def test_count_csv_and_json_agree(capsys):
    _, csv_out, _ = _capture(capsys, ["psp", "count", "--mod", "4", "--limit", "1e5"])
    _, json_out, _ = _capture(
        capsys, ["psp", "count", "--mod", "4", "--limit", "1e5", "--format", "json"]
    )
    csv_counts = [int(line.split(",")[4]) for line in csv_out.strip().split("\n")[1:]]
    json_counts = [row["count"] for row in json.loads(json_out)]
    assert csv_counts == json_counts == [0, 68, 0, 10]


def test_class_check_inadmissible(capsys):
    code, out, _ = _capture(
        capsys, ["psp", "class-check", "--base", "2", "--mod", "20", "--class", "15"]
    )
    assert code == 0
    assert "h=4" in out and "h_divides=false" in out and "admissible=false" in out


def test_class_check_json(capsys):
    code, out, _ = _capture(
        capsys,
        ["psp", "class-check", "--base", "2", "--mod", "16", "--class", "6",
         "--format", "json"],
    )
    payload = json.loads(out)
    assert payload["jacobi"] == "fails" and payload["admissible"] is False


def test_even_listing(capsys):
    code, out, _ = _capture(capsys, ["psp", "even", "--limit", "2e5"])
    assert code == 0 and out == "161038\n"


def test_empty_classes_csv(capsys):
    code, out, _ = _capture(
        capsys, ["psp", "empty-classes", "--base", "2", "--mod", "9", "--limit", "1e5"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "modulus,class,predicted_by_lemma"
    assert "9,0,true" in lines
    assert "4,0,true" in lines
    code, out, _ = _capture(
        capsys,
        ["psp", "empty-classes", "--base", "2", "--mod", "9", "--limit", "1e5",
         "--format", "json"],
    )
    assert code == 0
    as_csv = [
        f"{row['modulus']},{row['class']},{str(row['predicted_by_lemma']).lower()}"
        for row in json.loads(out)
    ]
    assert as_csv == lines[1:]


def test_ingest_round_trip(tmp_path, capsys):
    path = tmp_path / "list.txt"
    path.write_text("561\n645\n1105\n1387\n")
    code, out, _ = _capture(
        capsys, ["psp", "ingest", "--input", str(path), "--mod", "4"]
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert rows[1].startswith("2,4,1,1387,3,")
    assert rows[3].startswith("2,4,3,1387,1,")


def test_ingest_bad_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("5\n3\n")
    code, _, err = _capture(capsys, ["psp", "ingest", "--input", str(path), "--mod", "2"])
    assert code == 2 and "sorted" in err


def test_group_check_output(capsys):
    code, out, _ = _capture(capsys, ["ordowski", "group-check", "--group", "2:1,2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p=2 j=0 count=1 ratio=1/1 cap=2"
    assert lines[-1] == "N=7/2 3.500000 bound=6/1 6.000000 ok=true"


def test_group_check_composite_order(capsys):
    code, out, _ = _capture(
        capsys, ["ordowski", "group-check", "--group", "2:1,2", "--group", "3:1"]
    )
    assert code == 0 and out == (
        "p=2 j=0 count=1 ratio=1/1 cap=2\n"
        "p=2 j=1 count=3 ratio=3/2 cap=2\n"
        "p=2 j=2 count=4 ratio=1/1 cap=2\n"
        "p=3 j=0 count=1 ratio=1/1 cap=1\n"
        "p=3 j=1 count=2 ratio=2/3 cap=1\n"
        "N=35/6 5.833333 bound=12/1 12.000000 ok=true\n"
    )


def _parse_digits(text: str) -> int:
    # int(text) refuses more than 4300 digits; build the value in pieces
    value = 0
    for i in range(0, len(text), 1000):
        piece = text[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_c1_prints_numbers_past_the_digit_limit(capsys):
    code, out, _ = _capture(capsys, ["ordowski", "c1", "--b-max", "5000"])
    assert code == 0
    ratio, rendered = out.split()
    num, den = ratio.split("/")
    assert len(num) > 4300
    value = density.c1_partial(5000)
    assert Fraction(_parse_digits(num), _parse_digits(den)) == value
    assert rendered == sieve.format_fraction(value.numerator, value.denominator)


@pytest.mark.parametrize(
    "call, argv",
    [
        (lambda: sieve.count_psp_table(2, 0, [100]), "psp count --mod 0 --limit 100"),
        (lambda: sieve.count_psp_table(2, 8, []), None),
        (lambda: sieve.scan_empty_classes(2, 1, 100), "psp empty-classes --mod 0 --limit 100"),
        (lambda: sieve.count_psp_table(2, 4, [100, -5]), "psp count --mod 4 --limit -5"),
        (lambda: sieve.count_psp_in_classes(2, 4, -5), None),
        (lambda: sieve.psp_values(2, -5), None),
        (lambda: sieve.enumerate_even_psp(-5), "psp even --limit -5"),
        (lambda: sieve.scan_empty_classes(2, 5, -5), "psp empty-classes --mod 5 --limit -5"),
        (lambda: sieve.count_psp_in_classes(2, 4, 1000).count(1, 10**4), None),
        (lambda: sieve.count_psp_in_classes(2, 4, 1000).total(10**4), None),
        (lambda: sieve.count_psp_in_classes(2, 4, 1000).count(7), None),
        (lambda: sieve.count_psp_in_classes(2, 4, 1000).count(-1), None),
        (lambda: sieve.psp_values(2**64 + 3, 100), None),
        (lambda: sieve.count_psp_table(2**70, 4, [100]), None),
        (lambda: sieve.scan_empty_classes(2**64 + 1, 4, 100), None),
        (lambda: sieve.count_psp_in_classes(2**64, 8, 100), None),
    ],
    ids=[
        "mod-0",
        "no-limits",
        "max-mod-below-2",
        "count-table-negative-limit",
        "count-classes-negative-limit",
        "values-negative-limit",
        "even-negative-limit",
        "empty-classes-negative-limit",
        "count-unscanned-limit",
        "total-unscanned-limit",
        "count-class-above-modulus",
        "count-negative-class",
        "values-base-past-2-pow-64",
        "count-table-base-2-pow-70",
        "empty-classes-base-past-2-pow-64",
        "count-classes-base-2-pow-64",
    ],
)
def test_bad_sizes_are_value_errors(capsys, call, argv):
    with pytest.raises(ValueError):
        call()
    if argv is not None:
        code, out, err = _capture(capsys, argv.split())
        assert code == 2 and out == "" and err.startswith("error:")


def test_capacity_exit_code(capsys, tmp_path):
    code, _, err = _capture(capsys, ["ordowski", "c1", "--b-max", "1e9"])
    assert code == 3 and "capacity" in err
    path = tmp_path / "list.txt"
    path.write_text("341\n", encoding="utf-8")
    for argv in (f"psp count --mod {sieve._TABLE_MOD_CAP + 1} --limit 1e3",
                 f"psp ingest --mod {sieve._TABLE_MOD_CAP + 1} --input {path}",
                 f"psp empty-classes --mod {sieve._SCAN_MOD_CAP + 1} --limit 1e3"):
        code, out, err = _capture(capsys, argv.split())
        assert code == 3 and out == "" and "capacity" in err, argv


def test_usage_exit_codes(capsys):
    assert _capture(capsys, ["psp", "count", "--mod", "4"])[0] == 2  # missing --limit
    assert _capture(capsys, ["psp", "count", "--badflag", "1"])[0] == 2
    assert _capture(capsys, ["nonsense"])[0] == 2
    assert _capture(capsys, ["psp", "count", "--mod", "4", "--limit", "1.5"])[0] == 2
    assert _capture(capsys, ["psp", "count", "--mod", "4", "--limit", "100",
                             "--segments", "4"])[0] == 2
    code, _, err = _capture(
        capsys, ["psp", "class-check", "--mod", "4", "--class", "9"]
    )
    assert code == 2 and "class" in err


def test_integer_flags_parse_exactly(capsys):
    assert _integer("9.007199254740993e15") == 9007199254740993  # float gives ...992
    assert _integer("9.223372036854775807e18") == 2**63 - 1
    for text, value in [("1e8", 10**8), ("2e7", 2 * 10**7), (" 12 ", 12), ("-5", -5),
                        ("1.0e1", 10)]:
        assert _integer(text) == value
    # ASCII only, and no Python digit separators
    for text in ["9.223372036854775808e18", "1e400", "1e999999999", "1.5", "1e-3", "nan",
                 "inf", "0x10", "", "1_000", "2_000_00_0", "1e1_0", "\u0663", "\uff11\uff12"]:
        code, out, err = _capture(capsys, ["ordowski", "sb-density", "--b", text])
        assert code == 2 and out == "" and "usage:" in err and "Traceback" not in err, text
    code, out, err = _capture(capsys, ["psp", "even", "--limit", "2_000_00_0"])
    assert code == 2 and out == "" and "usage:" in err
    exact = _capture(capsys, ["ordowski", "sb-density", "--b", "9007199254740993"])
    assert exact[0] == 0
    assert _capture(capsys, ["ordowski", "sb-density", "--b", "9.007199254740993e15"]) == exact


HELP_FLAGS = {
    "psp count": "--base --mod --limit --format",
    "psp even": "--limit --format",
    "psp class-check": "--base --mod --class --format",
    "psp empty-classes": "--base --mod --limit --format",
    "psp ingest": "--input --mod --base --format",
    "ordowski count": "--limit --format",
    "ordowski sb-density": "--b",
    "ordowski union-density": "--k",
    "ordowski c1": "--b-max",
    "ordowski tail-bound": "--lo --hi",
    "ordowski group-check": "--group",
}


def test_help_exits_zero(capsys):
    assert _capture(capsys, ["--help"])[0] == 0
    assert _capture(capsys, ["psp", "--help"])[0] == 0
    for command, flags in HELP_FLAGS.items():
        code, out, _ = _capture(capsys, command.split() + ["--help"])
        listed = dict.fromkeys(re.findall(r"--[a-z][a-z-]*", out))
        assert code == 0 and list(listed) == flags.split() + ["--help"], command


def test_tail_bound_cli(capsys):
    code, out, _ = _capture(capsys, ["ordowski", "tail-bound", "--lo", "1e4", "--hi", "2e4"])
    assert code == 0
    num, _dec = out.split()
    assert "/" in num
