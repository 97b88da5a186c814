"""Command-line front end.

Subcommands: ``count`` (class cardinalities by any of four methods), ``list``
(stream class members one per line), ``dist`` (exhaustive occurrence
distributions), ``series`` (closed-form series expansion), and ``verify``
(the cross-check battery).  ``--format json`` switches every subcommand to a
stable machine-readable schema; JSON output is byte-identical across runs and
worker counts for identical inputs.

Exit codes: 0 on success (and on all checks passing), 1 when a verification
check fails, 2 on usage errors including malformed pattern text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .kings import COUNT_METHODS, KingClass, count_class, count_kings, enumerate_kings
from .mesh import PatternSyntaxError, catalog, parse_pattern, render_pattern
from .oracle import DistributionTable, distribution_tables
from .gfs import BASE_NAMES, series_by_name
from .verify import (
    DEFAULT_N_MAX,
    DEFAULT_ORDER,
    EQUATIONS,
    FAIL,
    report_to_dict,
    verify_all,
    verify_equation,
    verify_theorem,
)

def _jobs(args) -> int:
    """Worker count from ``--jobs``, else ``KINGMESH_JOBS``, else 1."""
    if args.jobs is not None:
        source, text = "--jobs", str(args.jobs)
    else:
        source, text = "KINGMESH_JOBS", os.environ.get("KINGMESH_JOBS", "1")
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kingmesh",
        description="Exact mesh-pattern statistics on king permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output mode (default: table)",
        )

    p_count = sub.add_parser("count", help="count class members of one length")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--class", dest="king_class", choices=[c.value for c in KingClass], default="all")
    p_count.add_argument("--method", choices=tuple(COUNT_METHODS), default=None)
    add_format(p_count)

    p_list = sub.add_parser("list", help="stream class members, one per line")
    p_list.add_argument("--n", type=int, required=True)
    p_list.add_argument("--class", dest="king_class", choices=[c.value for c in KingClass], default="all")
    add_format(p_list)

    p_dist = sub.add_parser("dist", help="exhaustive occurrence distribution table")
    group = p_dist.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="pattern text, e.g. 'mesh(2;12;{(0,0)})' or 'nr:16'")
    group.add_argument("--all", action="store_true", help="sweep every catalog pattern")
    p_dist.add_argument("--n-max", type=int, required=True)
    p_dist.add_argument("--class", dest="king_class", choices=[c.value for c in KingClass], default="all")
    p_dist.add_argument("--jobs", type=int, default=None)
    p_dist.add_argument(
        "--allow-large",
        action="store_true",
        help="permit --n-max above 10 (enumeration grows factorially)",
    )
    add_format(p_dist)

    p_series = sub.add_parser("series", help="closed-form series expansion")
    p_series.add_argument(
        "--name",
        required=True,
        help=f"one of {'|'.join(BASE_NAMES)}, P:<id> or E:<id>",
    )
    p_series.add_argument("--order", type=int, required=True)
    add_format(p_series)

    p_verify = sub.add_parser("verify", help="run cross-checks")
    vgroup = p_verify.add_mutually_exclusive_group()
    vgroup.add_argument("--theorem", help="check one solved catalog pattern")
    vgroup.add_argument("--equation", help="check one registered identity")
    vgroup.add_argument("--all", action="store_true", help="full battery (default)")
    p_verify.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_verify.add_argument("--jobs", type=int, default=None)
    add_format(p_verify)

    return parser


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _perm_text(p) -> str:
    if p and max(p) > 9:
        return " ".join(str(v) for v in p)
    return "".join(str(v) for v in p) if p else "()"


def _cmd_count(args) -> int:
    kc = KingClass(args.king_class)
    token = args.method or ("rec" if kc is KingClass.ALL else "enum")
    method = COUNT_METHODS[token]
    if kc is not KingClass.ALL and method in ("recurrence", "explicit"):
        print(
            f"error: method {token!r} only counts the unrestricted class; "
            "use gf or enum with --class",
            file=sys.stderr,
        )
        return 2
    value = count_kings(args.n, method) if kc is KingClass.ALL else count_class(args.n, kc, method)
    if args.format == "json":
        _emit_json({"n": args.n, "class": kc.value, "method": method, "count": value})
    else:
        print(value)
    return 0


def _cmd_list(args) -> int:
    kc = KingClass(args.king_class)
    for p in enumerate_kings(args.n, kc):
        if args.format == "json":
            print(json.dumps(list(p)))
        else:
            print(_perm_text(p))
    return 0


def _table_lines(table: DistributionTable) -> list[str]:
    lines = [
        f"pattern {render_pattern(table.pattern)} over class {table.king_class.value}",
        " n  distribution",
    ]
    for n, row in enumerate(table.rows):
        lines.append(f"{n:>2}  {row}")
    return lines


def _cmd_dist(args) -> int:
    if args.n_max > 10 and not args.allow_large:
        print(
            "error: --n-max above 10 enumerates millions of permutations; "
            "pass --allow-large to confirm",
            file=sys.stderr,
        )
        return 2
    kc = KingClass(args.king_class)
    jobs = _jobs(args)
    if args.all:
        patterns = [e.pattern for e in catalog()]
        tables = distribution_tables(patterns, args.n_max, kc, jobs)
        if args.format == "json":
            _emit_json([t.to_json_dict() for t in tables])
        else:
            for t in tables:
                print("\n".join(_table_lines(t)))
                print()
        return 0
    pattern = parse_pattern(args.pattern)
    table = distribution_tables([pattern], args.n_max, kc, jobs)[0]
    if args.format == "json":
        _emit_json(table.to_json_dict())
    else:
        print("\n".join(_table_lines(table)))
    return 0


def _cmd_series(args) -> int:
    series = series_by_name(args.name, args.order)
    if args.format == "json":
        _emit_json(
            {
                "name": args.name,
                "order": args.order,
                "rows": [{"n": n, "coeff": str(c)} for n, c in enumerate(series.coeffs)],
            }
        )
    else:
        print(f"{args.name} through order {args.order}")
        print(" n  coefficient")
        for n, c in enumerate(series.coeffs):
            print(f"{n:>2}  {c}")
    return 0


def _cmd_verify(args) -> int:
    jobs = _jobs(args)
    if args.theorem:
        reports = [verify_theorem(args.theorem, args.order, args.n_max, jobs)]
    elif args.equation:
        reports = [verify_equation(args.equation, args.order)]
    else:
        reports = verify_all(args.order, args.n_max, jobs)
    if args.format == "json":
        _emit_json([report_to_dict(r) for r in reports])
    else:
        width = max(len(r.check_id) for r in reports)
        for r in reports:
            line = f"{r.status:<19} {r.check_id:<{width}}  {r.subject}"
            if r.witness is not None:
                line += (
                    f"  [n={r.witness.n} expected {r.witness.expected},"
                    f" got {r.witness.actual}]"
                )
            print(line)
        fails = sum(1 for r in reports if r.status == FAIL)
        print(f"{len(reports)} checks, {fails} failures")
    return 1 if any(r.status == FAIL for r in reports) else 0


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # counts past n = 1558 have over 4,300 digits
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "dist":
            return _cmd_dist(args)
        if args.command == "series":
            return _cmd_series(args)
        return _cmd_verify(args)
    except PatternSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
