"""Command-line front end.

Two command groups: `psp` for residue-class pseudoprime statistics and
`ordowski` for the divisor-base density machinery.  All numeric flags accept
scientific shorthand (1e8).  Output on stdout is deterministic for a given
invocation; tables print as CSV or as a JSON array of the same rows, and
exact rationals print as num/den followed by a 6-decimal rendering
(round-half-even).

Exit codes: 0 success, 2 usage error, 3 capacity-guard violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import density, sieve
from .errors import CapacityError

_INT_CAP = 1 << 63


def _integer(text: str) -> int:
    """Integer flag value; accepts plain decimal or exact scientific form."""
    try:
        value = int(text, 10)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not as_float.is_integer() or abs(as_float) >= _INT_CAP:
            raise argparse.ArgumentTypeError(f"not an exact integer: {text!r}") from None
        value = int(as_float)
    if abs(value) >= _INT_CAP:
        raise argparse.ArgumentTypeError(f"out of 63-bit range: {text!r}")
    return value


def _group(text: str) -> density.AbelianPGroup:
    """Parse 'p:l1,l2,...' into an abelian p-group."""
    try:
        p_text, lam_text = text.split(":", 1)
        lambdas = tuple(int(x) for x in lam_text.split(","))
        return density.AbelianPGroup(int(p_text), lambdas)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad group spec {text!r}: {exc}") from None


def _rational(value: Fraction) -> str:
    # Decimal renders integers of any length; str() stops at the
    # interpreter's int-to-str digit limit (4300 digits by default).
    num, den = value.numerator, value.denominator
    return f"{Decimal(num)}/{Decimal(den)} {sieve.format_fraction(num, den)}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoprimes",
        description="Pseudoprime counts in residue classes and exact divisor-base densities",
    )
    top = parser.add_subparsers(dest="group", required=True)

    psp = top.add_parser("psp", help="pseudoprimes in residue classes")
    psub = psp.add_subparsers(dest="command", required=True)

    p_count = psub.add_parser("count", help="count base-a pseudoprimes per class mod m")
    p_count.add_argument("--base", type=_integer, default=2)
    p_count.add_argument("--mod", type=_integer, required=True)
    p_count.add_argument("--limit", type=_integer, required=True)
    p_count.add_argument("--format", choices=("csv", "json"), default="csv")

    p_even = psub.add_parser("even", help="list the even base-2 pseudoprimes up to a limit")
    p_even.add_argument("--limit", type=_integer, required=True)
    p_even.add_argument("--format", choices=("csv", "json"), default="csv")

    p_check = psub.add_parser("class-check", help="admissibility conditions for one class")
    p_check.add_argument("--base", type=_integer, default=2)
    p_check.add_argument("--mod", type=_integer, required=True)
    p_check.add_argument("--class", dest="residue", type=_integer, required=True)
    p_check.add_argument("--format", choices=("csv", "json"), default="csv")

    p_empty = psub.add_parser("empty-classes", help="scan all moduli up to --mod for empty classes")
    p_empty.add_argument("--base", type=_integer, default=2)
    p_empty.add_argument("--mod", type=_integer, required=True)
    p_empty.add_argument("--limit", type=_integer, required=True)
    p_empty.add_argument("--format", choices=("csv", "json"), default="csv")

    p_ingest = psub.add_parser("ingest", help="classify an external sorted pseudoprime list")
    p_ingest.add_argument("--input", required=True)
    p_ingest.add_argument("--mod", type=_integer, required=True)
    p_ingest.add_argument("--base", type=_integer, default=2)
    p_ingest.add_argument("--format", choices=("csv", "json"), default="csv")

    ord_ = top.add_parser("ordowski", help="divisor-base pseudoprime densities")
    osub = ord_.add_subparsers(dest="command", required=True)

    o_count = osub.add_parser("count", help="members and divisor-base pairs up to a limit")
    o_count.add_argument("--limit", type=_integer, required=True)
    o_count.add_argument("--format", choices=("csv", "json"), default="csv")

    o_sb = osub.add_parser("sb-density", help="exact density of T_b")
    o_sb.add_argument("--b", type=_integer, required=True)

    o_union = osub.add_parser("union-density", help="exact density of the union of T_b, b <= k")
    o_union.add_argument("--k", type=_integer, required=True)

    o_c1 = osub.add_parser("c1", help="partial sum of the T_b densities")
    o_c1.add_argument("--b-max", type=_integer, required=True)

    o_tail = osub.add_parser("tail-bound", help="sum the per-b density bound over lo < b <= hi")
    o_tail.add_argument("--lo", type=_integer, required=True)
    o_tail.add_argument("--hi", type=_integer, required=True)

    o_group = osub.add_parser("group-check", help="order-count inequalities for an abelian group")
    o_group.add_argument(
        "--group",
        type=_group,
        action="append",
        required=True,
        metavar="P:L1,L2,...",
        help="p-component as prime:exponent list, repeatable (e.g. 2:1,2)",
    )

    return parser


def _run_psp(args: argparse.Namespace) -> int:
    if args.command == "count":
        table = sieve.count_psp_table(args.base, args.mod, [args.limit])
        sys.stdout.write(sieve.emit_table(table, args.format))
    elif args.command == "even":
        values = sieve.enumerate_even_psp(args.limit)
        if args.format == "json":
            sys.stdout.write(json.dumps(values) + "\n")
        else:
            sys.stdout.writelines(f"{v}\n" for v in values)
    elif args.command == "class-check":
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
            sys.stdout.write(json.dumps(fields, indent=2) + "\n")
        else:
            text = " ".join(
                f"{k}={str(v).lower() if isinstance(v, bool) else v}" for k, v in fields.items()
            )
            sys.stdout.write(text + "\n")
    elif args.command == "empty-classes":
        found = sieve.scan_empty_classes(args.base, args.mod, args.limit)
        rows = [(e.modulus, e.residue, e.predicted_by_lemma) for e in found]
        header = ("modulus", "class", "predicted_by_lemma")
        sys.stdout.write(sieve.render_rows(header, rows, args.format))
    elif args.command == "ingest":
        with open(args.input, "r", encoding="utf-8") as stream:
            table = sieve.ingest_psp_list(stream, args.mod, args.base)
        sys.stdout.write(sieve.emit_table(table, args.format))
    return 0


def _run_ordowski(args: argparse.Namespace) -> int:
    if args.command == "count":
        members, pairs = density.count_S(args.limit)
        if args.format == "json":
            payload = {"limit": args.limit, "members": members, "divisor_base_pairs": pairs}
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        else:
            sys.stdout.write("limit,members,divisor_base_pairs\n")
            sys.stdout.write(f"{args.limit},{members},{pairs}\n")
    elif args.command == "sb-density":
        sys.stdout.write(_rational(density.sb_density(args.b)) + "\n")
    elif args.command == "union-density":
        sys.stdout.write(_rational(density.union_density(args.k)) + "\n")
    elif args.command == "c1":
        sys.stdout.write(_rational(density.c1_partial(args.b_max)) + "\n")
    elif args.command == "tail-bound":
        sys.stdout.write(_rational(density.tail_bound(args.lo, args.hi)) + "\n")
    elif args.command == "group-check":
        report = density.check_group_bounds(args.group)
        for p, j, count, ratio, cap in report.rows:
            sys.stdout.write(
                f"p={p} j={j} count={count} "
                f"ratio={ratio.numerator}/{ratio.denominator} cap={cap}\n"
            )
        sys.stdout.write(
            f"N={_rational(report.n_value)} bound={_rational(report.eq_bound)} "
            f"ok={'true' if report.all_ok else 'false'}\n"
        )
    return 0


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles usage and --help itself
        return int(exc.code or 0)
    try:
        if args.group == "psp":
            return _run_psp(args)
        return _run_ordowski(args)
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
