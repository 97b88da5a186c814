"""Mechanical cross-checks between the closed forms, the exhaustive oracle,
and pinned reference expansions.

Three kinds of evidence are compared:

* the closed-form series built by :mod:`kingmesh.gfs`;
* the brute-force census of :mod:`kingmesh.oracle`, which `verify_all` takes
  once for n = 0..max(11, n_max) and every check on kings reads: the class
  sizes, and the catalog's rows over each class through n_max;
* reference expansions pinned below as literal data, so that a regression in
  either computation path is caught even if both drift together.

A theorem check passes when all three agree.  When the two computed routes
agree with each other but not with the pinned text, the report says
``REFERENCE_MISMATCH`` instead of ``FAIL``: the computation is consistent and
the pinned row is the suspect.  Functional-equation checks build both sides of
a stated identity from the closed forms and require the residual series to be
identically zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations as _all_perms
from typing import Callable, Iterable, Sequence

from .kings import KingClass, count_kings, is_king
from .mesh import (
    KING_CROSS_DOWN,
    KING_CROSS_UP,
    OPEN_IDS,
    avoids,
    catalog,
    catalog_pattern,
)
from .oracle import Census, census, distribution_table
from .gfs import (
    A_ROW,
    SOLVED,
    Residual,
    Terms,
    avoidance_series,
    class_series,
    distribution_series,
    king_series,
    strong_point_avoiders,
    strong_point_series,
)
from .series import Series, UPoly, format_upoly, parse_upoly

PASS = "PASS"
FAIL = "FAIL"
REFERENCE_MISMATCH = "REFERENCE_MISMATCH"

DEFAULT_ORDER = 30
DEFAULT_N_MAX = 9

# lengths covered whatever n_max is
COUNTS_N_MAX = 11
CLASSES_N_MAX = 10
KINGCHAR_N_MAX = 8


@dataclass(frozen=True)
class Witness:
    n: int
    expected: str
    actual: str


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    subject: str
    status: str
    witness: Witness | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL


# ---------------------------------------------------------------------------
# Pinned reference expansions (initial coefficients, ascending powers of t):
# the class rows, and the E: row of each solved pattern's record.
# ---------------------------------------------------------------------------

REFERENCE_EXPANSIONS: dict[str, tuple[str, ...]] = {
    "A": A_ROW + ("5296790", "63779034"),
    "B": ("1", "0", "0", "0", "2", "12", "78", "568", "4674", "42948", "436358"),
    "C": ("1", "0", "0", "0", "2", "10", "68", "500", "4174", "38774", "397584"),
    "Atu": ("1", "u", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2"),
    "Btu": ("1", "0", "0", "0", "2", "10+2u", "68+10u", "500+68u", "4174+500u"),
    "Ctu": ("1", "0", "0", "0", "2", "10", "68", "500", "4174"),
    **{f"E:{ident}": record.expansion for ident, record in SOLVED.items()},
}

KING_COUNTS = tuple(int(v) for v in REFERENCE_EXPANSIONS["A"])


def reference_rows(key: str) -> tuple[UPoly, ...]:
    return tuple(parse_upoly(s) for s in REFERENCE_EXPANSIONS[key])


# ---------------------------------------------------------------------------
# Functional-equation registry.  Each builder returns the residual (lhs - rhs)
# of one stated identity, constructed purely from closed-form series; `margin`
# is how many truncation orders the construction consumes (division by t).
# The class identities are written here, the per-pattern ones are read from
# the records of the solved patterns.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationSpec:
    eq_id: str
    subject: str
    build: Callable[[int], Series]
    margin: int = 0


def _spec(
    eq_id: str, subject: str, residual: Callable[[Terms], Series], margin: int = 0
) -> EquationSpec:
    return EquationSpec(eq_id, subject, lambda w: residual(Terms(w)), margin)


_IDENTITY_SUBJECTS = {
    "AV": "avoidance identity",
    "DIST": "distribution identity",
    "STAR": "auxiliary restricted-distribution identity",
}


def _pattern_spec(ident: str, kind: str, residual: Residual, margin: int) -> EquationSpec:
    def of_terms(r: Terms) -> Series:
        return residual(r, avoidance_series(ident, r.order), distribution_series(ident, r.order))

    subject = f"pattern {ident}: {_IDENTITY_SUBJECTS[kind]}"
    return _spec(f"EQ_P{ident}_{kind}", subject, of_terms, margin)


def _equation_specs() -> tuple[EquationSpec, ...]:
    specs = [
        _spec("EQ_B", "class split: B + tB = A", lambda r: r.b + r.t * r.b - r.a),
        _spec(
            "EQ_C", "class recursion: C = A - t - 2t(B-1) + t^2(C-1)",
            lambda r: r.c - (r.a - r.t - 2 * r.t * (r.b - r.one) + r.t * r.t * (r.c - r.one)),
        ),
        _spec(
            "EQ_PX", "strong-point avoidance: P + tPB = A",
            lambda r: r.s + r.t * r.s * r.b - r.a,
        ),
        _spec(
            "EQ_ATU", "strong-point distribution: P + utP*Btu = Atu",
            lambda r: r.s + r.ut * r.s * r.btu - r.atu,
        ),
        _spec(
            "EQ_BTU", "strong-point split: Btu + ut*Btu = Atu",
            lambda r: r.btu + r.ut * r.btu - r.atu,
        ),
        _spec(
            "EQ_CTU", "strong-point recursion for Ctu",
            lambda r: r.ctu
                - (r.atu - r.ut - 2 * r.ut * (r.btu - r.one) + r.ut * r.ut * (r.ctu - r.one)),
        ),
    ]
    for ident, record in SOLVED.items():
        specs += [_pattern_spec(ident, *identity) for identity in record.identities]
    return tuple(specs)


EQUATIONS: dict[str, EquationSpec] = {s.eq_id: s for s in _equation_specs()}


def verify_equation(eq_id: str, order: int = DEFAULT_ORDER) -> CheckReport:
    """Build both sides of a registered identity and require a zero residual
    through the given order."""
    spec = EQUATIONS.get(eq_id)
    if spec is None:
        known = ", ".join(sorted(EQUATIONS))
        raise KeyError(f"unknown equation {eq_id!r}; registered: {known}")
    residual = spec.build(order + spec.margin)
    check_id = f"equation:{eq_id}"
    bad = residual.first_nonzero()
    if bad is None or bad > order:
        return CheckReport(check_id, spec.subject, PASS)
    return CheckReport(
        check_id,
        spec.subject,
        FAIL,
        Witness(bad, "0", format_upoly(residual.coeff(bad))),
    )


# ---------------------------------------------------------------------------
# Theorem checks: oracle rows vs closed form vs pinned expansion.
# ---------------------------------------------------------------------------


def _first_row_mismatch(
    expected: Sequence[UPoly], actual: Sequence[UPoly]
) -> Witness | None:
    for n, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            return Witness(n, format_upoly(e), format_upoly(a))
    return None


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
    if ident not in SOLVED:
        raise KeyError(f"pattern {ident!r} has no distribution theorem")
    if order < 0:
        raise ValueError("order must be nonnegative")
    check_id = f"theorem:{ident}"
    subject = f"pattern {ident}: distribution over king permutations"

    if oracle_rows is None:
        oracle_rows = distribution_table(catalog_pattern(ident), n_max, KingClass.ALL, jobs).rows
    pinned = reference_rows(f"E:{ident}")
    # every leg reads one series, taken to every oracle and pinned row whatever the order
    reach = max(order, len(oracle_rows) - 1, len(pinned) - 1)
    e = distribution_series(ident, reach)
    legs = (
        ("oracle vs series", oracle_rows, e.coeffs, FAIL),
        ("u=0 vs avoidance", avoidance_series(ident, reach).coeffs, e.eval_u(0).coeffs, FAIL),
        ("u=1 vs counts", king_series(reach).coeffs, e.eval_u(1).coeffs, FAIL),
        ("pinned expansion", pinned, e.coeffs, REFERENCE_MISMATCH),
    )
    for leg, expected, actual, status in legs:
        witness = _first_row_mismatch(expected, actual)
        if witness is not None:
            return CheckReport(check_id, f"{subject} ({leg})", status, witness)
    return CheckReport(check_id, subject, PASS)


# ---------------------------------------------------------------------------
# The remaining whole-suite checks.
# ---------------------------------------------------------------------------


def _check_counts_methods(kings: Census) -> CheckReport:
    subject = f"four counting methods agree for n <= {COUNTS_N_MAX}"
    for n in range(COUNTS_N_MAX + 1):
        values = {m: count_kings(n, m) for m in ("recurrence", "explicit", "gf")}
        values["enumerate"] = kings.size(n, KingClass.ALL)
        expect = KING_COUNTS[n] if n < len(KING_COUNTS) else values["recurrence"]
        for method, value in values.items():
            if value != expect:
                return CheckReport(
                    "counts:methods",
                    subject,
                    FAIL,
                    Witness(n, str(expect), f"{method}={value}"),
                )
    return CheckReport("counts:methods", subject, PASS)


def _check_class_counts(kings: Census) -> CheckReport:
    subject = f"restricted-class counts match their series for n <= {CLASSES_N_MAX}"
    a = king_series(CLASSES_N_MAX)
    b = class_series(KingClass.S, CLASSES_N_MAX)
    c = class_series(KingClass.SL, CLASSES_N_MAX)
    series = {KingClass.S: b, KingClass.L: b, KingClass.SL: c, KingClass.LS: c}
    for n in range(CLASSES_N_MAX + 1):
        for kc, counts in series.items():
            want, got = counts.coeff(n).evaluate(0), kings.size(n, kc)
            if got != want:
                label = kc.value.upper()
                return CheckReport(
                    "counts:classes", subject, FAIL,
                    Witness(n, f"{label}={want}", f"{label}={got}"),
                )
        # the members of ALL that begin with 1 are 1 followed by a shifted S member
        got = kings.size(n, KingClass.S)
        want = a.coeff(n).evaluate(0) - kings.size(n - 1, KingClass.S) if n else got
        if got != want:
            return CheckReport(
                "counts:classes", subject, FAIL, Witness(n, f"S={want}", f"S={got}")
            )
    return CheckReport("counts:classes", subject, PASS)


def _check_king_characterization() -> CheckReport:
    subject = f"kings = avoiders of the two adjacency patterns for n <= {KINGCHAR_N_MAX}"
    for n in range(KINGCHAR_N_MAX + 1):
        for p in _all_perms(range(1, n + 1)):
            expected = is_king(p)
            got = avoids(KING_CROSS_UP, p) and avoids(KING_CROSS_DOWN, p)
            if expected != got:
                return CheckReport(
                    "kingchar", subject, FAIL, Witness(n, str(expected), "".join(map(str, p)))
                )
    return CheckReport("kingchar", subject, PASS)


def _check_pinned_series(
    check_id: str, subject: str, build: Callable[[int], Series], key: str, order: int
) -> CheckReport:
    # the series is taken far enough to meet every pinned row, whatever the order
    pinned = reference_rows(key)
    witness = _first_row_mismatch(pinned, build(max(order, len(pinned) - 1)).coeffs)
    if witness is None:
        return CheckReport(check_id, subject, PASS)
    return CheckReport(check_id, subject, FAIL, witness)


def _check_strong_point_class(
    king_class: KingClass,
    kings: Census,
    order: int,
) -> CheckReport:
    # The complement symmetry that maps SL onto LS maps pattern X onto X', so
    # the LS distribution is measured with X'.
    pattern_id = "X'" if king_class is KingClass.LS else "X"
    kc_name = king_class.value.upper()
    check_id = f"strongpoint:{king_class.value}"
    subject = f"strong-point distribution over class {kc_name} (pattern {pattern_id})"
    rows = kings.table(catalog_pattern(pattern_id), king_class).rows
    pinned = reference_rows("Ctu" if king_class in (KingClass.SL, KingClass.LS) else "Btu")
    series = strong_point_series(king_class, max(order, len(rows) - 1, len(pinned) - 1))
    witness = _first_row_mismatch(rows, series.coeffs)
    if witness is not None:
        return CheckReport(check_id, subject + " (oracle vs series)", FAIL, witness)
    witness = _first_row_mismatch(pinned, series.coeffs)
    if witness is not None:
        return CheckReport(check_id, subject + " (pinned expansion)", REFERENCE_MISMATCH, witness)
    return CheckReport(check_id, subject, PASS)


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
    full = kings.table(catalog_pattern("X"), KingClass.ALL).rows
    claims = [
        (kings.table(catalog_pattern("X"), kc).rows,
         f"class {kc.value} avoider set equals the full set")
        for kc in (KingClass.S, KingClass.L, KingClass.SL)
    ] + [
        (kings.table(catalog_pattern("X'"), KingClass.LS).rows,
         "LS avoiders of X' = complements of the X avoiders")
    ]
    subject = f"strong-point avoider sets coincide across classes for n <= {len(full) - 1}"
    p_series = strong_point_avoiders(max(order, len(full) - 1))
    for n, row in enumerate(full):
        avoiders, expected = row.coeff(0), p_series.coeff(n).evaluate(0)
        if avoiders != expected:
            return CheckReport(
                "strongpoint:sets", subject, FAIL,
                Witness(n, f"|K({n})(X)|={expected}", str(avoiders)),
            )
        for rows, claim in claims:
            if rows[n].coeff(0) != avoiders:
                return CheckReport(
                    "strongpoint:sets", subject, FAIL,
                    Witness(n, claim, f"{rows[n].coeff(0)} avoiders, not {avoiders}"),
                )
    return CheckReport("strongpoint:sets", subject, PASS)


def _check_halving(n_max: int, oracle_rows: Sequence[UPoly]) -> CheckReport:
    subject = f"pattern 10: half avoid, half contain exactly once (2 <= n <= {n_max})"
    for n in range(2, n_max + 1):
        an = count_kings(n)
        row = oracle_rows[n]
        expected = UPoly((an // 2, an // 2))
        if an % 2 or row != expected:
            return CheckReport(
                "halving:10", subject, FAIL,
                Witness(n, format_upoly(expected), format_upoly(row)),
            )
    return CheckReport("halving:10", subject, PASS)


def _check_open_mass(ident: str, rows: Sequence[UPoly], n_max: int) -> CheckReport:
    subject = f"pattern {ident}: exhaustive rows are nonnegative with total mass A_n"
    for n in range(n_max + 1):
        row = rows[n]
        if any(c < 0 for c in row.coeffs):
            return CheckReport(
                f"mass:{ident}", subject, FAIL,
                Witness(n, "nonnegative coefficients", format_upoly(row)),
            )
        if row.evaluate(1) != count_kings(n):
            return CheckReport(
                f"mass:{ident}", subject, FAIL,
                Witness(n, str(count_kings(n)), str(row.evaluate(1))),
            )
    return CheckReport(f"mass:{ident}", subject, PASS)


def verify_all(
    order: int = DEFAULT_ORDER,
    n_max: int = DEFAULT_N_MAX,
    jobs: int = 1,
) -> list[CheckReport]:
    """Run the whole battery and return the reports sorted by check id."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    entries = catalog()
    top = max(COUNTS_N_MAX, CLASSES_N_MAX, n_max)
    kings = census([e.pattern for e in entries], top, KingClass.ALL, jobs, pattern_n_max=n_max)
    reports: list[CheckReport] = []
    reports.append(_check_counts_methods(kings))
    reports.append(_check_class_counts(kings))
    reports.append(_check_king_characterization())
    reports.append(
        _check_pinned_series("golden:B", "pinned expansion of the S-class counts",
                             lambda w: class_series(KingClass.S, w), "B", order)
    )
    reports.append(
        _check_pinned_series("golden:C", "pinned expansion of the SL-class counts",
                             lambda w: class_series(KingClass.SL, w), "C", order)
    )
    reports.append(
        _check_pinned_series("golden:Atu", "pinned expansion of the strong-point distribution",
                             lambda w: strong_point_series(KingClass.ALL, w), "Atu", order)
    )

    rows_by_ident = {e.ident: kings.table(e.pattern, KingClass.ALL).rows for e in entries}
    for ident in SOLVED:
        reports.append(
            verify_theorem(ident, order, n_max, jobs, oracle_rows=rows_by_ident[ident])
        )
    for kc in (KingClass.S, KingClass.L, KingClass.SL, KingClass.LS):
        reports.append(_check_strong_point_class(kc, kings, order))
    reports.append(_check_strong_point_sets(kings, order))
    reports.append(_check_halving(n_max, rows_by_ident["10"]))
    for ident in OPEN_IDS:
        reports.append(_check_open_mass(ident, rows_by_ident[ident], n_max))
    for eq_id in EQUATIONS:
        reports.append(verify_equation(eq_id, order))
    reports.sort(key=lambda r: r.check_id)
    return reports


# ---------------------------------------------------------------------------
# Report serialization.
# ---------------------------------------------------------------------------


def report_to_dict(report: CheckReport) -> dict:
    data: dict = {
        "id": report.check_id,
        "subject": report.subject,
        "status": report.status,
    }
    if report.witness is not None:
        data["witness"] = {
            "n": report.witness.n,
            "expected": report.witness.expected,
            "actual": report.witness.actual,
        }
    return data


def report_from_dict(data: dict) -> CheckReport:
    witness = None
    if "witness" in data and data["witness"] is not None:
        w = data["witness"]
        witness = Witness(w["n"], w["expected"], w["actual"])
    return CheckReport(data["id"], data["subject"], data["status"], witness)


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], sort_keys=True)


def reports_from_json(text: str) -> list[CheckReport]:
    return [report_from_dict(d) for d in json.loads(text)]
