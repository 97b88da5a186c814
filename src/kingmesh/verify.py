"""Mechanical cross-checks between the closed forms, the exhaustive oracle,
and pinned reference expansions.

Four kinds of evidence are compared:

* the closed-form series built by :mod:`kingmesh.gfs`;
* the brute-force census of :mod:`kingmesh.oracle`, taken once per run for
  n = 0..n_max and read by every check of a pattern: the catalog's rows over
  each class;
* the class sizes of :mod:`kingmesh.transfer`, counted by state once per run
  for n = 0..11 and read by the two counts checks;
* reference expansions pinned below as literal data, so that a regression in
  either computation path is caught even if both drift together.

When the two computed routes agree with each other but not with the pinned
text, the report says ``REFERENCE_MISMATCH`` instead of ``FAIL``: the pinned
row is the suspect.  Functional-equation checks require the residual of a
stated identity, built from the closed forms, to be identically zero.

The battery is one table, `_CHECKS`, from each check id to the call that runs
it; `run_checks` looks ids up there and `verify_all` runs them all.  Every
check goes through `_run` with its legs (a label, the expected rows, the actual
rows, the status a mismatch earns): the first row that differs, in the first
leg that differs, is the witness, and the subject names that leg.  In a leg
``X vs Y``, X is the actual side.  `_run` is the only guard: an exact division
that leaves a remainder, or a series division by a constant term other than
+1 or -1, fails the check with the coefficient as witness, and the run goes
on.  Any other exception propagates.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import permutations, zip_longest
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .kings import KingClass, check_order, count_kings, is_king, perm_text
from .mesh import (
    KING_CROSS_DOWN, KING_CROSS_UP, CompiledPatterns, MeshPattern, catalog, catalog_pattern
)
from .oracle import Census, census
from .gfs import (
    A_ROW, SOLVED, Residual, Terms, avoidance_series, class_series, distribution_series,
    king_series, series_by_name, strong_point_avoiders, strong_point_series, terms,
)
from .series import NonUnitConstantTermError, NotDivisibleError, Series, UPoly, parse_upoly

PASS = "PASS"
FAIL = "FAIL"
REFERENCE_MISMATCH = "REFERENCE_MISMATCH"

DEFAULT_ORDER = 30
DEFAULT_N_MAX = 9

# lengths covered whatever n_max is
COUNTS_N_MAX = 11
CLASSES_N_MAX = 10
KINGCHAR_N_MAX = 8


class Witness(NamedTuple):
    n: int
    expected: str
    actual: str


class CheckReport(NamedTuple):
    check_id: str
    subject: str
    status: str
    witness: Witness | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL


# A leg: its label, expected rows, actual rows (row n at length n), status of a mismatch.
Leg = tuple[str, Sequence, Sequence, str]


def _run(check_id: str, subject: str, check: Callable[[], list[Leg] | Witness]) -> CheckReport:
    """Run one check behind the guard.  ``check`` returns its legs, each
    compared on the rows both sides have, or a witness it found itself.

    >>> _run("demo", "squares", lambda: [("table", (0, 1, 4), (0, 1, 4), FAIL)])
    CheckReport(check_id='demo', subject='squares', status='PASS', witness=None)
    >>> _run("demo", "squares", lambda: [("table", (0, 1, 4), (0, 1, 4), FAIL),
    ...                                  ("formula", (0, 1, 4, 9), (0, 1, 5), FAIL)])
    ... # doctest: +NORMALIZE_WHITESPACE
    CheckReport(check_id='demo', subject='squares (formula)', status='FAIL',
                witness=Witness(n=2, expected='4', actual='5'))
    >>> _run("demo", "t / t^2", lambda: Series.t(2).div_t(2))
    ... # doctest: +NORMALIZE_WHITESPACE
    CheckReport(check_id='demo', subject='t / t^2 (division by t^2)', status='FAIL',
                witness=Witness(n=1, expected='a multiple of t^2', actual='1'))
    """
    try:
        verdict = check()
    except NotDivisibleError as exc:
        witness = Witness(exc.power, f"a multiple of {exc.divisor}", str(exc.coefficient))
        return CheckReport(check_id, f"{subject} (division by {exc.divisor})", FAIL, witness)
    except NonUnitConstantTermError as exc:
        witness = Witness(0, "+1 or -1", str(exc.coefficient))
        return CheckReport(check_id, f"{subject} (series division)", FAIL, witness)
    if isinstance(verdict, Witness):
        return CheckReport(check_id, subject, FAIL, verdict)
    for label, expected, actual, status in verdict:
        for n, (e, a) in enumerate(zip(expected, actual)):
            if e != a:
                witness = Witness(n, str(e), str(a))
                return CheckReport(check_id, f"{subject} ({label})", status, witness)
    return CheckReport(check_id, subject, PASS)


# Pinned reference expansions (initial coefficients, ascending powers of t):
# the class rows, and the E: row of each solved pattern's record.

REFERENCE_EXPANSIONS: dict[str, tuple[str, ...]] = {
    "A": A_ROW + ("5296790", "63779034"),
    "B": ("1", "0", "0", "0", "2", "12", "78", "568", "4674", "42948", "436358"),
    "C": ("1", "0", "0", "0", "2", "10", "68", "500", "4174", "38774", "397584"),
    # the strong-point distribution over ALL is the distribution of pattern X
    "Atu": SOLVED["X"].expansion,
    "Btu": ("1", "0", "0", "0", "2", "10+2u", "68+10u", "500+68u", "4174+500u"),
    "Ctu": ("1", "0", "0", "0", "2", "10", "68", "500", "4174"),
    **{f"E:{ident}": record.expansion for ident, record in SOLVED.items()},
}

KING_COUNTS = tuple(int(v) for v in REFERENCE_EXPANSIONS["A"])


def reference_rows(key: str) -> tuple[UPoly, ...]:
    return tuple(parse_upoly(s) for s in REFERENCE_EXPANSIONS[key])


# Functional-equation registry.  Each residual (lhs - rhs) of one stated
# identity is built from the Terms of one order, purely from closed-form
# series; `margin` is how many truncation orders the construction consumes
# (division by t).  The class identities are written here, the per-pattern
# ones are read from the records of the solved patterns.
class EquationSpec(NamedTuple):
    subject: str
    residual: Callable[[Terms], Series]
    margin: int = 0


_IDENTITY_SUBJECTS = {
    "AV": "avoidance identity",
    "DIST": "distribution identity",
    "STAR": "auxiliary restricted-distribution identity",
}


def _pattern_residual(ident: str, residual: Residual, r: Terms) -> Series:
    return residual(r, avoidance_series(ident, r.order), distribution_series(ident, r.order))


EQUATIONS: dict[str, EquationSpec] = {
    "EQ_B": EquationSpec("class split: B + tB = A", lambda r: r.b + r.t * r.b - r.a),
    "EQ_C": EquationSpec(
        "class recursion: C = A - t - 2t(B-1) + t^2(C-1)",
        lambda r: r.c - (r.a - r.t - 2 * r.t * (r.b - r.one) + r.t * r.t * (r.c - r.one)),
    ),
    "EQ_PX": EquationSpec(
        "strong-point avoidance: P + tPB = A", lambda r: r.s + r.t * r.s * r.b - r.a
    ),
    "EQ_ATU": EquationSpec(
        "strong-point distribution: P + utP*Btu = Atu",
        lambda r: r.s + r.ut * r.s * r.btu - r.atu,
    ),
    "EQ_BTU": EquationSpec(
        "strong-point split: Btu + ut*Btu = Atu", lambda r: r.btu + r.ut * r.btu - r.atu
    ),
    "EQ_CTU": EquationSpec(
        "strong-point recursion for Ctu",
        lambda r: r.ctu
            - (r.atu - r.ut - 2 * r.ut * (r.btu - r.one) + r.ut * r.ut * (r.ctu - r.one)),
    ),
    **{
        f"EQ_P{ident}_{kind}": EquationSpec(
            f"pattern {ident}: {_IDENTITY_SUBJECTS[kind]}",
            partial(_pattern_residual, ident, residual),
            margin,
        )
        for ident, record in SOLVED.items()
        for kind, residual, margin in record.identities
    },
}


def _validate(check_ids: Iterable[str], order: int, n_max: int = 0) -> None:
    """Reject an unknown check id, a negative range or an order no series
    can hold before any check runs."""
    unknown = next((check_id for check_id in check_ids if check_id not in _CHECKS), None)
    if unknown is not None:
        family, _, key = unknown.partition(":")
        if family == "theorem":
            raise KeyError(f"pattern {key!r} has no distribution theorem")
        if family == "equation":
            raise KeyError(f"unknown equation {key!r}; registered: {', '.join(sorted(EQUATIONS))}")
        raise KeyError(f"unknown check {unknown!r}")
    check_order(order)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")


def verify_equation(eq_id: str, order: int = DEFAULT_ORDER) -> CheckReport:
    """Build both sides of a registered identity and require a zero residual
    through the given order."""
    _validate([f"equation:{eq_id}"], order)
    spec = EQUATIONS[eq_id]
    zeros = (UPoly(),) * (order + 1)
    return _run(f"equation:{eq_id}", spec.subject, lambda: [
        ("residual", zeros, spec.residual(terms(order + spec.margin)).coeffs, FAIL),
    ])


def verify_theorem(
    ident: str,
    order: int = DEFAULT_ORDER,
    n_max: int = DEFAULT_N_MAX,
    jobs: int = 1,
    oracle_rows: Sequence[UPoly] | None = None,
) -> CheckReport:
    """Four-leg check for one solved pattern: the exhaustive distribution must
    match the closed-form series row by row, the series at u=0 must reduce to
    the avoidance series and at u=1 to the class counts, and the pinned
    reference expansion must match on its printed range."""
    ident = str(ident)
    _validate([f"theorem:{ident}"], order, n_max)
    if oracle_rows is None:
        p = catalog_pattern(ident)  # from the census, as verify --all reads it, single or not
        oracle_rows = census([p], n_max, KingClass.ALL, jobs).table(p, KingClass.ALL).rows
    pinned = reference_rows(f"E:{ident}")

    def legs() -> list[Leg]:
        # every leg reads one series, taken to every oracle and pinned row whatever the order
        reach = max(order, len(oracle_rows) - 1, len(pinned) - 1)
        e = distribution_series(ident, reach)
        return [
            ("oracle vs series", e.coeffs, oracle_rows, FAIL),
            ("u=0 vs avoidance", avoidance_series(ident, reach).coeffs, e.eval_u(0).coeffs, FAIL),
            ("u=1 vs counts", king_series(reach).coeffs, e.eval_u(1).coeffs, FAIL),
            ("pinned expansion", pinned, e.coeffs, REFERENCE_MISMATCH),
        ]

    return _run(f"theorem:{ident}", f"pattern {ident}: distribution over king permutations", legs)


# Each class's sizes at n = 0, 1, ..., as transfer.class_sizes gives them; a
# leg compares only the rows both of its sides have.
Sizes = dict[KingClass, Sequence[int]]


def _check_counts_methods(sizes: Sizes) -> CheckReport:
    def legs() -> list[Leg]:
        ns = range(COUNTS_N_MAX + 1)
        expect = [KING_COUNTS[n] for n in ns]
        counted = {m: [count_kings(n, m) for n in ns] for m in ("recurrence", "explicit")}
        counted["gf"] = [c.evaluate(0) for c in king_series(COUNTS_N_MAX).coeffs]  # one Terms
        counted["transfer"] = sizes[KingClass.ALL]
        return [(method, expect, values, FAIL) for method, values in counted.items()]

    return _run("counts:methods", f"four counting methods agree for n <= {COUNTS_N_MAX}", legs)


def _check_class_counts(sizes: Sizes) -> CheckReport:
    def legs() -> list[Leg]:
        ns = range(CLASSES_N_MAX + 1)
        classes = (KingClass.S, KingClass.L, KingClass.SL, KingClass.LS)
        series = {kc: class_series(kc, CLASSES_N_MAX).coeffs for kc in classes}
        # the members of ALL that begin with 1 are 1 followed by a shifted S member
        s, a = sizes[KingClass.S], king_series(CLASSES_N_MAX).coeffs
        legs = [(kc.value.upper(), [r.evaluate(0) for r in series[kc]], sizes[kc], FAIL)
                for kc in classes]
        from_a = [a[n].evaluate(0) - (s[n - 1] if n else 0) for n in ns]
        return legs + [("S from A", from_a, s, FAIL)]

    subject = f"restricted-class counts match their series for n <= {CLASSES_N_MAX}"
    return _run("counts:classes", subject, legs)


def _check_king_characterization() -> CheckReport:
    crosses = CompiledPatterns((KING_CROSS_UP, KING_CROSS_DOWN), n=KINGCHAR_N_MAX)
    mismatches = (_first_king_mismatch(crosses, n) for n in range(KINGCHAR_N_MAX + 1))
    subject = f"kings = avoiders of the two adjacency patterns for n <= {KINGCHAR_N_MAX}"
    # the first witness, or no legs when every length agrees
    return _run("kingchar", subject, lambda: next(filter(None, mismatches), []))


def _first_king_mismatch(crosses: CompiledPatterns, n: int) -> Witness | None:
    """The first permutation of 1..n, in lexicographic order, on which
    ``is_king`` disagrees with "no hit of either cross", as a witness holding
    its ``is_king`` value; None when they agree on all n! of them.

    It merges two sorted streams, the kings and the avoiders: where they first
    differ, the smaller entry is in one stream only, and it is that permutation."""
    kings = (p for p in permutations(range(1, n + 1)) if is_king(p))
    for king, avoider in zip_longest(kings, _avoiders(crosses, n)):
        if king != avoider:
            if avoider is None or king is not None and king < avoider:
                return Witness(n, "True", perm_text(king, " "))
            return Witness(n, "False", perm_text(avoider, " "))
    return None


def _avoiders(crosses: CompiledPatterns, n: int) -> Iterator[tuple[int, ...]]:
    """The permutations of 1..n with no hit of either cross, in lexicographic
    order.  A prefix is extended only while it has no hit: a hit is known once
    its last entry is placed, and counts only grow."""
    seq = [0] * n
    pre = [0] * (n + 1)
    hits = crosses.pair_counter(pre)  # both crosses have length 2: no single hit

    def walk(d: int, rest: list[int]) -> Iterator[tuple[int, ...]]:
        if d == n:
            yield tuple(seq)
        for i, v in enumerate(rest):
            seq[d] = v
            pre[d + 1] = pre[d] | 1 << v
            if not hits(d, v):
                yield from walk(d + 1, rest[:i] + rest[i + 1 :])

    return walk(0, list(range(1, n + 1)))


def _check_pinned_series(
    check_id: str, subject: str, build: Callable[[int], Series], key: str, order: int
) -> CheckReport:
    # the series is taken far enough to meet every pinned row, whatever the order
    pinned = reference_rows(key)
    return _run(check_id, subject, lambda: [
        ("pinned expansion", pinned, build(max(order, len(pinned) - 1)).coeffs, FAIL),
    ])


# Each restricted class, the pattern its strong-point distribution is measured
# with and the pinned row that distribution follows.  The complement symmetry
# that maps SL onto LS maps pattern X onto X', so LS is measured with X'.
_STRONG_POINT_CLASSES = {
    KingClass.S: ("X", "Btu"),
    KingClass.L: ("X", "Btu"),
    KingClass.SL: ("X", "Ctu"),
    KingClass.LS: ("X'", "Ctu"),
}


def _check_strong_point_class(king_class: KingClass, kings: Census, order: int) -> CheckReport:
    pattern_id, pinned_key = _STRONG_POINT_CLASSES[king_class]
    rows = kings.table(catalog_pattern(pattern_id), king_class).rows
    pinned = reference_rows(pinned_key)

    def legs() -> list[Leg]:
        series = strong_point_series(king_class, max(order, len(rows) - 1, len(pinned) - 1))
        return [
            ("oracle vs series", series.coeffs, rows, FAIL),
            ("pinned expansion", pinned, series.coeffs, REFERENCE_MISMATCH),
        ]

    subject = f"strong-point distribution over class {king_class.name} (pattern {pattern_id})"
    return _run(f"strongpoint:{king_class.value}", subject, legs)


def _check_strong_point_sets(kings: Census, order: int) -> CheckReport:
    """Avoiding a strong point forces membership in every restricted class:
    the avoider sets of X in ALL/S/L/SL coincide, the X' avoiders in LS are
    their complement image, and all five cardinalities follow one series."""
    # The set equalities are count equalities.  Avoiding X does not depend on
    # the class a host is counted in, so the X-avoiders in a class K are the
    # X-avoiders in ALL that lie in K: equal to them exactly when the counts
    # agree.  Complement maps SL onto LS and occurrences of X onto those of X'
    # (box (i, j) of a length-1 pattern goes to (i, 1 - j)), so it maps the
    # X-avoiders in SL onto the X'-avoiders in LS; these are the complements
    # of all X-avoiders exactly when the counts agree.  A count of avoiders
    # is the u^0 term of a distribution row.
    def avoiders(pattern_id: str, kc: KingClass) -> list[int]:
        return [row.coeff(0) for row in kings.table(catalog_pattern(pattern_id), kc).rows]

    full = avoiders("X", KingClass.ALL)

    def legs() -> list[Leg]:
        series = strong_point_avoiders(max(order, len(full) - 1)).coeffs
        return [
            ("X avoiders vs series", [p.evaluate(0) for p in series], full, FAIL),
            *((f"{pattern_id} avoiders in {kc.value.upper()}", full, avoiders(pattern_id, kc), FAIL)
              for kc, (pattern_id, _) in _STRONG_POINT_CLASSES.items()),
        ]

    subject = f"strong-point avoider sets coincide across classes for n <= {len(full) - 1}"
    return _run("strongpoint:sets", subject, legs)


# The halving and mass checks build no closed form: their legs need no guard.
def _check_halving(n_max: int, oracle_rows: Sequence[UPoly]) -> CheckReport:
    subject = f"pattern 10: half avoid, half contain exactly once (2 <= n <= {n_max})"
    rows = oracle_rows[: n_max + 1]
    counts = [count_kings(n) for n in range(2, n_max + 1)]
    # the claim starts at n = 2 (A_0 = A_1 = 1): the rows below it are expected as they are
    halves = [*rows[:2], *(UPoly((an // 2, an // 2)) for an in counts)]
    odd = [0, 0, *(an % 2 for an in counts)]
    legs = [("half and half", halves, rows, FAIL), ("A_n even", [0] * len(odd), odd, FAIL)]
    return _run("halving:10", subject, lambda: legs)


# the catalog patterns without a closed form: the battery checks only their rows' mass
OPEN_IDS = tuple(e.ident for e in catalog() if e.ident not in SOLVED)


def _check_open_mass(ident: str, rows: Sequence[UPoly], n_max: int) -> CheckReport:
    subject = f"pattern {ident}: exhaustive rows are nonnegative with total mass A_n"
    rows = rows[: n_max + 1]
    negative = (Witness(n, "nonnegative coefficients", str(row))
                for n, row in enumerate(rows) if any(c < 0 for c in row.coeffs))
    counts = [count_kings(n) for n in range(n_max + 1)]
    legs = [("total mass", counts, [row.evaluate(1) for row in rows], FAIL)]
    return _run(f"mass:{ident}", subject, lambda: next(negative, legs))  # the first negative row


class _Inputs:
    """The arguments of one run, and the class sizes and the census its checks
    share, each taken on first use.  A theorem run alone (not ``shared``)
    counts its own pattern."""

    def __init__(self, order: int, n_max: int, jobs: int, shared: bool):
        self.order, self.n_max, self.jobs, self.shared = order, n_max, jobs, shared

    @cached_property
    def sizes(self) -> Sizes:
        from .transfer import class_sizes  # only the counts checks load the state counts

        return class_sizes(max(COUNTS_N_MAX, CLASSES_N_MAX))

    @cached_property
    def kings(self) -> Census:
        return census([e.pattern for e in catalog()], self.n_max, KingClass.ALL, self.jobs)

    @cached_property
    def rows_over_all(self) -> dict[MeshPattern, tuple[UPoly, ...]]:
        """The census's rows over all kings of every catalog pattern, decoded at once."""
        return {table.pattern: table.rows for table in self.kings.tables(KingClass.ALL)}

    def rows(self, ident: str) -> tuple[UPoly, ...]:
        return self.rows_over_all[catalog_pattern(ident)]


# The battery: each check id and the call that runs it.  The calls name the
# family functions when they run, not at import, so that a wrapper put on one
# (a tracer's span, a test's stub) sees every check of its family.
_CHECKS: dict[str, Callable[[_Inputs], CheckReport]] = {
    "counts:methods": lambda x: _check_counts_methods(x.sizes),
    "counts:classes": lambda x: _check_class_counts(x.sizes),
    "kingchar": lambda x: _check_king_characterization(),
    **{f"golden:{key}": lambda x, key=key, subject=subject: _check_pinned_series(
        f"golden:{key}", f"pinned expansion of the {subject}", partial(series_by_name, key), key,
        x.order) for key, subject in (("B", "S-class counts"), ("C", "SL-class counts"),
                                      ("Atu", "strong-point distribution"))},
    **{f"theorem:{i}": lambda x, i=i: verify_theorem(
        i, x.order, x.n_max, x.jobs, x.rows(i) if x.shared else None) for i in SOLVED},
    **{f"strongpoint:{kc.value}": lambda x, kc=kc: _check_strong_point_class(kc, x.kings, x.order)
       for kc in _STRONG_POINT_CLASSES},
    "strongpoint:sets": lambda x: _check_strong_point_sets(x.kings, x.order),
    "halving:10": lambda x: _check_halving(x.n_max, x.rows("10")),
    **{f"mass:{i}": lambda x, i=i: _check_open_mass(i, x.rows(i), x.n_max) for i in OPEN_IDS},
    **{f"equation:{e}": lambda x, e=e: verify_equation(e, x.order) for e in EQUATIONS},
}

CHECK_IDS = tuple(sorted(_CHECKS))


def run_checks(
    check_ids: Sequence[str], order: int = DEFAULT_ORDER, n_max: int = DEFAULT_N_MAX, jobs: int = 1
) -> list[CheckReport]:
    """Run the named checks, in the order given.  Several checks share one
    census; a check run alone takes only what it reads."""
    _validate(check_ids, order, n_max)
    inputs = _Inputs(order, n_max, jobs, shared=len(check_ids) > 1)
    return [_CHECKS[check_id](inputs) for check_id in check_ids]


def verify_all(
    order: int = DEFAULT_ORDER, n_max: int = DEFAULT_N_MAX, jobs: int = 1
) -> list[CheckReport]:
    """Run the whole battery and return the reports sorted by check id."""
    return run_checks(CHECK_IDS, order, n_max, jobs)


def report_to_dict(report: CheckReport) -> dict:
    data = {"id": report.check_id, "subject": report.subject, "status": report.status}
    if report.witness is not None:
        data["witness"] = report.witness._asdict()
    return data
