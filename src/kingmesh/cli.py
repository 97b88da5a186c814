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

from .kings import COUNT_METHODS, KingClass, count_class, enumerate_kings, perm_text
from .mesh import catalog, parse_pattern, render_pattern
from .oracle import distribution_tables
from .gfs import BASE_NAMES, series_by_name
from .verify import CHECK_IDS, DEFAULT_N_MAX, DEFAULT_ORDER, report_to_dict, run_checks

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


# The longest lengths run without --allow-large: counting patterns costs
# several times more per host than walking or listing the members.
PATTERN_N_LIMIT, WALK_N_LIMIT = 10, 11


def _check_size(args, option: str, n: int, limit: int) -> None:
    """The one factorial guard: a longer run needs --allow-large."""
    if n > limit and not args.allow_large:
        raise ValueError(f"{option} above {limit} enumerates millions of permutations; "
                         "pass --allow-large to confirm")


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_count(args) -> int:
    # count_class rejects the methods that cannot count a restricted class
    kc = KingClass(args.king_class)
    method = COUNT_METHODS[args.method or ("rec" if kc is KingClass.ALL else "enum")]
    if method == "enumerate":
        _check_size(args, "--n", args.n, WALK_N_LIMIT)
    value = count_class(args.n, kc, method)
    if args.format == "json":
        _emit_json({"n": args.n, "class": kc.value, "method": method, "count": value})
    else:
        print(value)
    return 0


def _cmd_list(args) -> int:
    _check_size(args, "--n", args.n, WALK_N_LIMIT)
    for p in enumerate_kings(args.n, KingClass(args.king_class)):
        print(json.dumps(list(p)) if args.format == "json" else perm_text(p, " ") or "()")
    return 0


def _cmd_dist(args) -> int:
    # faults are reported in this order: the size opt-in, the worker count,
    # then the pattern text
    _check_size(args, "--n-max", args.n_max, PATTERN_N_LIMIT)
    kc = KingClass(args.king_class)
    jobs = _jobs(args)
    patterns = [e.pattern for e in catalog()] if args.all else [parse_pattern(args.pattern)]
    tables = distribution_tables(patterns, args.n_max, kc, jobs)
    if args.format == "json":
        payload = [t.to_json_dict() for t in tables]
        _emit_json(payload if args.all else payload[0])
        return 0
    for t in tables:
        print(f"pattern {render_pattern(t.pattern)} over class {t.king_class.value}")
        print(" n  distribution")
        for n, row in enumerate(t.rows):
            print(f"{n:>2}  {row}")
        if args.all:
            print()
    return 0


def _cmd_series(args) -> int:
    series = series_by_name(args.name, args.order)
    if args.format == "json":
        rows = [{"n": n, "coeff": str(c)} for n, c in enumerate(series.coeffs)]
        _emit_json({"name": args.name, "order": args.order, "rows": rows})
    else:
        print(f"{args.name} through order {args.order}")
        print(" n  coefficient")
        for n, c in enumerate(series.coeffs):
            print(f"{n:>2}  {c}")
    return 0


def _cmd_verify(args) -> int:
    if not args.equation:  # an equation check enumerates nothing
        _check_size(args, "--n-max", args.n_max, PATTERN_N_LIMIT)
    jobs = _jobs(args)
    if args.theorem:
        check_ids = [f"theorem:{args.theorem}"]
    elif args.equation:
        check_ids = [f"equation:{args.equation}"]
    else:
        check_ids = CHECK_IDS
    reports = run_checks(check_ids, args.order, args.n_max, jobs)
    fails = sum(not r.ok for r in reports)
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
        print(f"{len(reports)} checks, {fails} failures")
    return 1 if fails else 0


def _parent(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser, holding the one option given, if any."""
    parent = argparse.ArgumentParser(add_help=False)
    if flags:
        parent.add_argument(*flags, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    # Every option reaches its subcommands through a parent parser, so that an
    # option shared by several is declared once and each subcommand's parents
    # list its options in usage-line order.
    n = _parent("--n", type=int, required=True)
    king_class = _parent(
        "--class", dest="king_class", choices=[c.value for c in KingClass], default="all"
    )
    method = _parent("--method", choices=tuple(COUNT_METHODS), default=None)
    jobs = _parent("--jobs", type=int, default=None)
    allow_large = _parent(
        "--allow-large",
        action="store_true",
        help=f"permit lengths above {PATTERN_N_LIMIT} ({WALK_N_LIMIT} for count and list; "
        "enumeration grows factorially)",
    )
    fmt = _parent(
        "--format", choices=("table", "json"), default="table", help="output mode (default: table)"
    )

    dist = _parent()
    group = dist.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="pattern text, e.g. 'mesh(2;12;{(0,0)})' or 'nr:16'")
    group.add_argument("--all", action="store_true", help="sweep every catalog pattern")
    dist.add_argument("--n-max", type=int, required=True)

    series = _parent()
    series.add_argument(
        "--name",
        required=True,
        help=f"one of {'|'.join(BASE_NAMES)}, P:<id> or E:<id>",
    )
    series.add_argument("--order", type=int, required=True)

    verify = _parent()
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--theorem", help="check one solved catalog pattern")
    group.add_argument("--equation", help="check one registered identity")
    group.add_argument("--all", action="store_true", help="full battery (default)")
    verify.add_argument("--order", type=int, default=DEFAULT_ORDER)
    verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)

    parser = argparse.ArgumentParser(
        prog="kingmesh",
        description="Exact mesh-pattern statistics on king permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, parents in (
        ("count", "count class members of one length", _cmd_count,
         [n, king_class, method, allow_large, fmt]),
        ("list", "stream class members, one per line", _cmd_list,
         [n, king_class, allow_large, fmt]),
        ("dist", "exhaustive occurrence distribution table", _cmd_dist,
         [dist, king_class, jobs, allow_large, fmt]),
        ("series", "closed-form series expansion", _cmd_series, [series, fmt]),
        ("verify", "run cross-checks", _cmd_verify, [verify, jobs, allow_large, fmt]),
    ):
        sub.add_parser(name, help=summary, parents=parents).set_defaults(run=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # counts past n = 1558 have over 4,300 digits
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (KeyError, ValueError) as exc:  # PatternSyntaxError is a ValueError
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError:  # an --allow-large length whose tables outgrow the memory
        print("error: out of memory; a smaller n needs less", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
