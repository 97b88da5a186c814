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
    SOLVED_IDS,
    avoids,
    catalog,
    catalog_pattern,
)
from .oracle import Census, census, distribution_table
from .gfs import (
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
# Pinned reference expansions (initial coefficients, ascending powers of t).
# ---------------------------------------------------------------------------

_A_ROW = ("1", "1", "0", "0", "2", "14", "90", "646", "5242", "47622", "479306")

REFERENCE_EXPANSIONS: dict[str, tuple[str, ...]] = {
    "A": _A_ROW + ("5296790", "63779034"),
    "B": ("1", "0", "0", "0", "2", "12", "78", "568", "4674", "42948", "436358"),
    "C": ("1", "0", "0", "0", "2", "10", "68", "500", "4174", "38774", "397584"),
    "Atu": ("1", "u", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2"),
    "Btu": ("1", "0", "0", "0", "2", "10+2u", "68+10u", "500+68u", "4174+500u"),
    "Ctu": ("1", "0", "0", "0", "2", "10", "68", "500", "4174"),
    "E:10": ("1", "1", "0", "0", "1+u", "7+7u", "45+45u", "323+323u", "2621+2621u", "23811+23811u"),
    "E:11": _A_ROW,
    "E:14": _A_ROW,
    "E:30": _A_ROW,
    "E:34": _A_ROW,
    "E:36": _A_ROW,
    "E:45": _A_ROW,
    "E:12": ("1", "1", "0", "0", "2", "12+2u^4", "78+12u^5", "568+78u^6", "4674+568u^7"),
    "E:13": ("1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u"),
    "E:16": ("1", "1", "0", "0", "2", "12+2u^4", "78+12u^5", "568+78u^6", "4674+568u^7"),
    "E:17": ("1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u"),
    "E:19": ("1", "1", "0", "0", "2", "12+2u", "76+14u", "556+90u", "4596+646u"),
    "E:20": ("1", "1", "0", "0", "2", "14", "88+2u", "634+12u", "5164+78u"),
    "E:22": ("1", "1", "0", "0", "2", "14", "86+4u", "618+28u", "5062+180u"),
    "E:27": ("1", "1", "0", "0", "2", "14", "86+4u", "624+20u+2u^2", "5096+136u+10u^2"),
    "E:28": ("1", "1", "0", "0", "2", "14", "88+2u", "632+14u", "5152+90u"),
    "E:33": ("1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u"),
    "E:55": ("1", "1", "0", "0", "2", "14", "88+2u", "632+14u", "5152+88u+2u^2"),
    "E:63": ("1", "1", "0", "0", "2", "12+2u", "76+14u", "556+88u+2u^2", "4592+636u+14u^2"),
    "E:64": ("1", "1", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2", "4170+1004u+68u^2"),
    "E:X": ("1", "u", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2"),
    "E:X'": ("1", "u", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2"),
}

KING_COUNTS = tuple(int(v) for v in REFERENCE_EXPANSIONS["A"])


def reference_rows(key: str) -> tuple[UPoly, ...]:
    return tuple(parse_upoly(s) for s in REFERENCE_EXPANSIONS[key])


# ---------------------------------------------------------------------------
# Functional-equation registry.  Each builder returns the residual (lhs - rhs)
# of one stated identity, constructed purely from closed-form series; `margin`
# is how many truncation orders the construction consumes (division by t).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationSpec:
    eq_id: str
    subject: str
    build: Callable[[int], Series]
    margin: int = 0


def _prims(order: int):
    one = Series.one(order)
    t = Series.t(order)
    u = Series.term(order, upow=1)
    ut = Series.term(order, tpow=1, upow=1)
    return one, t, u, ut


def _base(order: int):
    a = king_series(order)
    b = class_series(KingClass.S, order)
    c = class_series(KingClass.SL, order)
    return a, b, c


def _eq_count_split(w: int) -> Series:
    a, b, _ = _base(w)
    one, t, _, _ = _prims(w)
    return b + t * b - a


def _eq_count_inclusion(w: int) -> Series:
    a, b, c = _base(w)
    one, t, _, _ = _prims(w)
    return c - (a - t - 2 * t * (b - one) + t * t * (c - one))


def _eq_strong_avoid(w: int) -> Series:
    a, b, _ = _base(w)
    _, t, _, _ = _prims(w)
    p = strong_point_avoiders(w)
    return p + t * p * b - a


def _eq_strong_all(w: int) -> Series:
    _, _, _, ut = _prims(w)
    p = strong_point_avoiders(w)
    atu = strong_point_series(KingClass.ALL, w)
    btu = strong_point_series(KingClass.S, w)
    return p + ut * p * btu - atu


def _eq_strong_split(w: int) -> Series:
    _, _, _, ut = _prims(w)
    atu = strong_point_series(KingClass.ALL, w)
    btu = strong_point_series(KingClass.S, w)
    return btu + ut * btu - atu


def _eq_strong_inclusion(w: int) -> Series:
    one, _, _, ut = _prims(w)
    atu = strong_point_series(KingClass.ALL, w)
    btu = strong_point_series(KingClass.S, w)
    ctu = strong_point_series(KingClass.SL, w)
    return ctu - (atu - ut - 2 * ut * (btu - one) + ut * ut * (ctu - one))


def _pattern_eq(ident: str, kind: str) -> Callable[[int], Series]:
    # Residual builders for the per-pattern proof identities.  "av" relates the
    # avoidance series to the class counts, "dist" the distribution series to
    # the avoidance series, "star" an auxiliary restricted distribution.  The
    # auxiliaries are eliminated from one identity and checked in the other,
    # so no check is satisfied by construction.
    def build(w: int) -> Series:
        one, t, u, ut = _prims(w)
        a, b, c = _base(w)
        p = avoidance_series(ident, w)
        e = distribution_series(ident, w)
        s = strong_point_avoiders(w)
        if ident == "12":
            if kind == "av":
                return p - (a - t * (b - one))
            return e - (p + (b.subst_ut(1) - one).mul_t(1))
        if ident == "13":
            if kind == "av":
                return p - (a - t * t * (c - one))
            return e - (p + u * t * t * (c - one))
        if ident == "16":
            if kind == "av":
                return p - (a - t * (b - one) * s)
            estar = ((one + t + t * a) / ((one + t) * a)) * e - one
            if kind == "dist":
                return e - (p + (estar - t) * s)
            return estar - (e.subst_ut(1) - estar.subst_ut(1)).mul_t(1)
        if ident == "17":
            btu = strong_point_series(KingClass.S, w)
            if kind == "av":
                return p - (b + t * s)
            return e - (b + btu.mul_t(1))
        if ident == "19":
            if kind == "av":
                return p - (a - t * (b - one) - t * (a - one) * (b - one))
            return e - (p + ut * (b - one) + ut * (a - one) * (b - one))
        if ident == "20":
            block = (a - b - t) * (a - b)
            if kind == "av":
                return p - (a - block)
            return e - (p + u * block)
        if ident == "22":
            blk = a - b - t
            if kind == "av":
                return p - (a - 2 * t * blk * a - blk * blk * a)
            return e - (p + 2 * ut * blk * a + u * blk * blk * a)
        if ident == "27":
            btu = strong_point_series(KingClass.S, w)
            if kind == "av":
                return p - (a - (t * t * b * b * s - t * t * b))
            contained = u * t * t * b * s * btu - u * t * t * b
            return e - (p + contained)
        if ident == "28":
            if kind == "av":
                return p - (a - t * t * p * a * (c - one))
            return e - (p + u * t * t * p * (c - one) * e)
        if ident == "33":
            btu = strong_point_series(KingClass.S, w)
            c0 = strong_point_series(KingClass.SL, w).eval_u(0)
            if kind == "av":
                return p - (a - t * t * s * b * (c0 - one))
            return e - (p + u * t * t * s * btu * (c0 - one))
        if ident == "55":
            if kind == "av":
                return p + (b - one) * (p - one) * (t + t * t) - a
            estar = e / (one + t)
            return e - (p + u * (estar - one) * (p - one) * (t + t * t))
        if ident == "63":
            if kind == "av":
                return p + (p - one) * (b - one) * (one + t) - a
            if kind == "dist":
                # main identity, cleared of its 1/t factor
                estar = (t + ut * (e - one)) / (one + ut)
                return (e - p).mul_t(1) - (estar - t) * (p - one) * (one + t)
            # star identity, with the auxiliary eliminated from the main one
            x = (e - p).div_t(1)
            y = (p - one).div_t(1)
            w1 = x.order
            onew = Series.one(w1)
            tw = Series.t(w1)
            utw = Series.term(w1, tpow=1, upow=1)
            estar = tw + (x / (y * (onew + tw))).mul_t(1)
            ew = e.truncated(w1)
            return estar - (tw + utw * (ew - onew - estar))
        if ident == "64":
            if kind == "av":
                return p - (a - ((p - one) * (a - one) - t * t * b))
            if kind == "dist":
                estar = (t + ut * (e - one)) / (one + ut)
                return e - (p + u * (p - one) * (e - one) - ut * estar)
            estar = (p + u * (p - one) * (e - one) - e).div_u().div_t(1)
            w1 = estar.order
            onew = Series.one(w1)
            tw = Series.t(w1)
            utw = Series.term(w1, tpow=1, upow=1)
            ew = e.truncated(w1)
            return estar - (tw + utw * (ew - onew - estar))
        raise AssertionError(f"no equations registered for pattern {ident}")

    return build


def _equation_specs() -> tuple[EquationSpec, ...]:
    specs = [
        EquationSpec("EQ_B", "class split: B + tB = A", _eq_count_split),
        EquationSpec("EQ_C", "class recursion: C = A - t - 2t(B-1) + t^2(C-1)", _eq_count_inclusion),
        EquationSpec("EQ_PX", "strong-point avoidance: P + tPB = A", _eq_strong_avoid),
        EquationSpec("EQ_ATU", "strong-point distribution: P + utP*Btu = Atu", _eq_strong_all),
        EquationSpec("EQ_BTU", "strong-point split: Btu + ut*Btu = Atu", _eq_strong_split),
        EquationSpec("EQ_CTU", "strong-point recursion for Ctu", _eq_strong_inclusion),
    ]
    # the 63/64 star checks eliminate their auxiliary from the main identity,
    # which costs one order of truncation (division by t); 16's does not
    star_margins = {"16": 0, "63": 1, "64": 1}
    for ident in ("12", "13", "16", "17", "19", "20", "22", "27", "28", "33", "55", "63", "64"):
        specs.append(
            EquationSpec(
                f"EQ_P{ident}_AV",
                f"pattern {ident}: avoidance identity",
                _pattern_eq(ident, "av"),
            )
        )
        specs.append(
            EquationSpec(
                f"EQ_P{ident}_DIST",
                f"pattern {ident}: distribution identity",
                _pattern_eq(ident, "dist"),
            )
        )
        if ident in star_margins:
            specs.append(
                EquationSpec(
                    f"EQ_P{ident}_STAR",
                    f"pattern {ident}: auxiliary restricted-distribution identity",
                    _pattern_eq(ident, "star"),
                    margin=star_margins[ident],
                )
            )
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
    """Three-way check for one solved pattern: the exhaustive distribution must
    match the closed-form series row by row, the series at u=0 must reduce to
    the avoidance series (and at u=1 to the class counts), and the pinned
    reference expansion must match on its printed range."""
    ident = str(ident)
    if ident not in SOLVED_IDS:
        raise KeyError(f"pattern {ident!r} has no distribution theorem")
    e = distribution_series(ident, order)
    p = avoidance_series(ident, order)
    check_id = f"theorem:{ident}"
    subject = f"pattern {ident}: distribution over king permutations"

    if oracle_rows is None:
        oracle_rows = distribution_table(catalog_pattern(ident), n_max, KingClass.ALL, jobs).rows
    rows = e.coeffs[: len(oracle_rows)]
    witness = _first_row_mismatch(oracle_rows, rows)
    if witness is not None:
        return CheckReport(check_id, subject + " (oracle vs series)", FAIL, witness)

    if e.eval_u(0) != p:
        w = _first_row_mismatch(p.coeffs, e.eval_u(0).coeffs)
        return CheckReport(check_id, subject + " (u=0 vs avoidance)", FAIL, w)
    if e.eval_u(1) != king_series(order):
        w = _first_row_mismatch(king_series(order).coeffs, e.eval_u(1).coeffs)
        return CheckReport(check_id, subject + " (u=1 vs counts)", FAIL, w)

    pinned = reference_rows(f"E:{ident}")
    witness = _first_row_mismatch(pinned, e.coeffs[: len(pinned)])
    if witness is not None:
        return CheckReport(check_id, subject + " (pinned expansion)", REFERENCE_MISMATCH, witness)
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


def _check_pinned_series(check_id: str, subject: str, series: Series, key: str) -> CheckReport:
    pinned = reference_rows(key)
    witness = _first_row_mismatch(pinned, series.coeffs[: len(pinned)])
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
    series = strong_point_series(king_class, order)
    rows = kings.table(catalog_pattern(pattern_id), king_class).rows
    witness = _first_row_mismatch(rows, series.coeffs[: len(rows)])
    if witness is not None:
        return CheckReport(check_id, subject + " (oracle vs series)", FAIL, witness)
    key = "Ctu" if king_class in (KingClass.SL, KingClass.LS) else "Btu"
    pinned = reference_rows(key)
    witness = _first_row_mismatch(pinned, series.coeffs[: len(pinned)])
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
    p_series = strong_point_avoiders(order)
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
    entries = catalog()
    top = max(COUNTS_N_MAX, CLASSES_N_MAX, n_max)
    kings = census([e.pattern for e in entries], top, KingClass.ALL, jobs, pattern_n_max=n_max)
    reports: list[CheckReport] = []
    reports.append(_check_counts_methods(kings))
    reports.append(_check_class_counts(kings))
    reports.append(_check_king_characterization())
    reports.append(
        _check_pinned_series("golden:B", "pinned expansion of the S-class counts",
                             class_series(KingClass.S, order), "B")
    )
    reports.append(
        _check_pinned_series("golden:C", "pinned expansion of the SL-class counts",
                             class_series(KingClass.SL, order), "C")
    )
    reports.append(
        _check_pinned_series("golden:Atu", "pinned expansion of the strong-point distribution",
                             strong_point_series(KingClass.ALL, order), "Atu")
    )

    rows_by_ident = {e.ident: kings.table(e.pattern, KingClass.ALL).rows for e in entries}
    for ident in SOLVED_IDS:
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
