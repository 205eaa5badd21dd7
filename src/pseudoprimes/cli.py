"""Command-line front end.

Two command groups: `psp` for residue-class pseudoprime statistics and
`ordowski` for the divisor-base density machinery.  Numeric flags are parsed
exactly, in plain decimal or scientific form (1e8, 9.007199254740993e15),
from ASCII text without digit separators.
Each subcommand's handler returns its stdout text, which is deterministic for
a given invocation; tables print as CSV or as a JSON array of the same rows,
and exact rationals print as num/den followed by a 6-decimal rendering
(round-half-even).

Exit codes: 0 success, 2 usage error, 3 capacity-guard violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import density, sieve
from .arith import INT_DOMAIN
from .errors import CapacityError


def _integer(text: str) -> int:
    """Integer flag value, parsed exactly in plain decimal or scientific form."""
    if not text.isascii() or "_" in text:  # Decimal alone takes 1_000 and non-ASCII digits
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    # The range goes first and is compared without a decimal context:
    # abs() and to_integral_value() raise decimal.Overflow on 1e999999999.
    if not value.is_finite() or value.copy_abs() >= INT_DOMAIN:
        raise argparse.ArgumentTypeError(f"out of 63-bit range: {text!r}")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an exact integer: {text!r}")
    return int(value)


def _group(text: str) -> density.AbelianPGroup:
    """Parse 'p:l1,l2,...' into an abelian p-group; p and each exponent
    are parsed as _integer parses a numeric flag."""
    try:
        p_text, lam_text = text.split(":", 1)
        lambdas = tuple(_integer(x) for x in lam_text.split(","))
        return density.AbelianPGroup(_integer(p_text), lambdas)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad group spec {text!r}: {exc}") from None


def _digits(n: int) -> str:
    # Decimal renders integers of any length; str() stops at the
    # interpreter's int-to-str digit limit (4300 digits by default).
    return str(Decimal(n))


def _rational(value: Fraction) -> str:
    num, den = value.numerator, value.denominator
    return f"{_digits(num)}/{_digits(den)} {sieve.format_fraction(num, den)}"


def _psp_count(args: argparse.Namespace) -> str:
    table = sieve.count_psp_table(args.base, args.mod, [args.limit])
    return sieve.emit_table(table, args.format)


def _psp_even(args: argparse.Namespace) -> str:
    values = sieve.enumerate_even_psp(args.limit)
    if args.format == "json":
        return json.dumps(values) + "\n"
    return "".join(f"{v}\n" for v in values)


def _psp_class_check(args: argparse.Namespace) -> str:
    if not 0 <= args.residue < args.mod:
        raise ValueError("--class must lie in [0, --mod)")
    report = sieve.class_conditions(args.base, args.residue, args.mod)
    fields = {
        "a": report.a,
        "r": report.r,
        "m": report.m,
        "g": report.g,
        "g_a": report.g_a,
        "h": report.h,
        "h_divides": report.cond_h_divides,
        "u_divides": report.cond_u_divides,
        "jacobi": report.cond_jacobi.value,
        "admissible": report.admissible,
    }
    if args.format == "json":
        return json.dumps(fields, indent=2) + "\n"
    pairs = (f"{k}={str(v).lower() if isinstance(v, bool) else v}" for k, v in fields.items())
    return " ".join(pairs) + "\n"


def _psp_empty_classes(args: argparse.Namespace) -> str:
    rows = sieve.scan_empty_classes(args.base, args.mod, args.limit)
    return sieve.render_rows(("modulus", "class", "predicted_by_lemma"), rows, args.format)


def _psp_ingest(args: argparse.Namespace) -> str:
    with open(args.input, "r", encoding="utf-8") as stream:
        table = sieve.ingest_psp_list(stream, args.mod, args.base)
    return sieve.emit_table(table, args.format)


def _ordowski_count(args: argparse.Namespace) -> str:
    members, pairs = density.count_S(args.limit)
    if args.format == "json":
        payload = {"limit": args.limit, "members": members, "divisor_base_pairs": pairs}
        return json.dumps(payload, indent=2) + "\n"
    return f"limit,members,divisor_base_pairs\n{args.limit},{members},{pairs}\n"


def _sb_density(args: argparse.Namespace) -> str:
    return _rational(density.sb_density(args.b)) + "\n"


def _union_density(args: argparse.Namespace) -> str:
    return _rational(density.union_density(args.k)) + "\n"


def _c1(args: argparse.Namespace) -> str:
    return _rational(density.c1_partial(args.b_max)) + "\n"


def _tail_bound(args: argparse.Namespace) -> str:
    return _rational(density.tail_bound(args.lo, args.hi)) + "\n"


def _group_check(args: argparse.Namespace) -> str:
    report = density.check_group_bounds(args.group)
    lines = [
        f"p={p} j={j} count={_digits(count)} "
        f"ratio={_digits(ratio.numerator)}/{_digits(ratio.denominator)} cap={_digits(cap)}\n"
        for p, j, count, ratio, cap in report.rows
    ]
    ok = "true" if report.all_ok else "false"
    lines.append(f"N={_rational(report.n_value)} bound={_rational(report.eq_bound)} ok={ok}\n")
    return "".join(lines)


_REQUIRED_INTEGERS = ("--mod", "--limit", "--b", "--k", "--b-max", "--lo", "--hi")

# Every flag's argparse spec, by its name on the command line.
_FLAGS = {
    **dict.fromkeys(_REQUIRED_INTEGERS, {"type": _integer, "required": True}),
    "--base": {"type": _integer, "default": 2},
    "--class": {"dest": "residue", "type": _integer, "required": True},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--input": {"required": True},
    "--group": {
        "type": _group,
        "action": "append",
        "required": True,
        "metavar": "P:L1,L2,...",
        "help": "p-component as prime:exponent list, repeatable (e.g. 2:1,2)",
    },
}

# Each subcommand: (group and name, the flags it takes, help line, handler).
_COMMANDS = (
    ("psp count", "--base --mod --limit --format",
     "count base-a pseudoprimes per class mod m", _psp_count),
    ("psp even", "--limit --format",
     "list the even base-2 pseudoprimes up to a limit", _psp_even),
    ("psp class-check", "--base --mod --class --format",
     "admissibility conditions for one class", _psp_class_check),
    ("psp empty-classes", "--base --mod --limit --format",
     "scan all moduli up to --mod for empty classes", _psp_empty_classes),
    ("psp ingest", "--input --mod --base --format",
     "classify an external sorted pseudoprime list", _psp_ingest),
    ("ordowski count", "--limit --format",
     "members and divisor-base pairs up to a limit", _ordowski_count),
    ("ordowski sb-density", "--b", "exact density of T_b", _sb_density),
    ("ordowski union-density", "--k",
     "exact density of the union of T_b, b <= k", _union_density),
    ("ordowski c1", "--b-max", "partial sum of the T_b densities", _c1),
    ("ordowski tail-bound", "--lo --hi",
     "sum the per-b density bound over lo < b <= hi", _tail_bound),
    ("ordowski group-check", "--group",
     "order-count inequalities for an abelian group", _group_check),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoprimes",
        description="Pseudoprime counts in residue classes and exact divisor-base densities",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        name: top.add_parser(name, help=text).add_subparsers(dest="command", required=True)
        for name, text in (
            ("psp", "pseudoprimes in residue classes"),
            ("ordowski", "divisor-base pseudoprime densities"),
        )
    }
    for path, flags, text, handler in _COMMANDS:
        group, name = path.split()
        command = groups[group].add_parser(name, help=text)
        for flag in flags.split():
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(handler=handler)
    return parser


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse handles usage and --help itself
        return int(exc.code or 0)
    try:
        text = args.handler(args)
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
