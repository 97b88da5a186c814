"""Acceptance suite: one test per criterion, exact equality everywhere.

Every expected value below is pinned in this module on purpose, independently
of the data tables inside the package, so that a drift in either is caught.
Each test prints one ``ACCEPT nn PASS/FAIL`` line (run with ``pytest -s`` to
see them while passing).
"""

import json
import time
from contextlib import contextmanager

import pytest

from kingmesh.cli import main as cli_main
from kingmesh.kings import KingClass, count_kings, enumerate_kings
from kingmesh.mesh import (
    PatternSyntaxError,
    avoids,
    catalog,
    catalog_pattern,
    parse_pattern,
    render_pattern,
)
from kingmesh.oracle import distribution_tables
from kingmesh.gfs import (
    avoidance_series,
    class_series,
    distribution_series,
    king_series,
    strong_point_avoiders,
    strong_point_series,
)
from kingmesh.series import Series, UPoly, parse_upoly
from kingmesh.verify import EQUATIONS, PASS, verify_equation
from kingmesh.kings import complement

KING_COUNTS = [1, 1, 0, 0, 2, 14, 90, 646, 5242, 47622, 479306, 5296790]

# the catalog patterns with a closed distribution, and those without
SOLVED_IDS = ("X", "X'", "10", "11", "12", "13", "14", "16", "17", "19", "20", "22", "27", "28",
              "30", "33", "34", "36", "45", "55", "63", "64")
OPEN_IDS = ("3", "5", "8", "9", "15", "18", "21", "56", "65", "66")

# initial expansions as printed, ascending in t; omitted powers are zero
PINNED = {
    "B": ["1", "0", "0", "0", "2", "12", "78", "568", "4674", "42948", "436358"],
    "C": ["1", "0", "0", "0", "2", "10", "68", "500", "4174", "38774", "397584"],
    "Atu": ["1", "u", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2"],
    "Btu": ["1", "0", "0", "0", "2", "10+2u", "68+10u", "500+68u", "4174+500u"],
    "Ctu": ["1", "0", "0", "0", "2", "10", "68", "500", "4174"],
    "E:12": ["1", "1", "0", "0", "2", "12+2u^4", "78+12u^5", "568+78u^6", "4674+568u^7"],
    "E:13": ["1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u"],
    "E:16": ["1", "1", "0", "0", "2", "12+2u^4", "78+12u^5", "568+78u^6", "4674+568u^7"],
    "E:17": ["1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u"],
    "E:19": ["1", "1", "0", "0", "2", "12+2u", "76+14u", "556+90u", "4596+646u"],
    "E:20": ["1", "1", "0", "0", "2", "14", "88+2u", "634+12u", "5164+78u"],
    "E:22": ["1", "1", "0", "0", "2", "14", "86+4u", "618+28u", "5062+180u"],
    "E:27": ["1", "1", "0", "0", "2", "14", "86+4u", "624+20u+2u^2", "5096+136u+10u^2"],
    "E:28": ["1", "1", "0", "0", "2", "14", "88+2u", "632+14u", "5152+90u"],
    "E:33": ["1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u"],
    "E:55": ["1", "1", "0", "0", "2", "14", "88+2u", "632+14u", "5152+88u+2u^2"],
    "E:63": ["1", "1", "0", "0", "2", "12+2u", "76+14u", "556+88u+2u^2", "4592+636u+14u^2"],
    "E:64": ["1", "1", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2", "4170+1004u+68u^2"],
}

NEVER_OCCURRING = ("11", "14", "30", "34", "36", "45")
TRIVIAL_THREE_WAY = ("12", "13", "19", "20", "22")
MAIN_THREE_WAY = ("16", "17", "27", "28", "33", "55", "63", "64")


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPT {num:02d} FAIL: {label}")
        raise
    print(f"ACCEPT {num:02d} PASS: {label}")


def pinned_rows(key):
    return [parse_upoly(s) for s in PINNED[key]]


def assert_rows(series, key):
    expected = pinned_rows(key)
    assert list(series.coeffs[: len(expected)]) == expected, key


def test_criterion_01_counting_methods():
    with criterion(1, "A_0..A_11 agree across all four methods in < 60 s"):
        start = time.monotonic()
        for n in range(12):
            for method in ("recurrence", "explicit", "gf", "enumerate"):
                assert count_kings(n, method) == KING_COUNTS[n], (n, method)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"single-threaded counting took {elapsed:.1f}s"


def test_criterion_02_class_series():
    with criterion(2, "class counting series match pinned rows and identities"):
        b = class_series(KingClass.S, 30)
        c = class_series(KingClass.SL, 30)
        assert_rows(b, "B")
        assert_rows(c, "C")
        a = king_series(30)
        one = Series.one(30)
        t = Series.t(30)
        assert b + t * b == a
        assert c == a - t - 2 * t * (b - one) + t * t * (c - one)


def test_criterion_03_strong_points():
    with criterion(3, "strong-point distributions: series, oracle, class equalities"):
        atu = strong_point_series(KingClass.ALL, 30)
        btu = strong_point_series(KingClass.S, 30)
        ctu = strong_point_series(KingClass.SL, 30)
        assert_rows(atu, "Atu")
        assert_rows(btu, "Btu")
        assert_rows(ctu, "Ctu")

        x = catalog_pattern("X")
        xp = catalog_pattern("X'")
        for pat in (x, xp):
            rows = distribution_tables([pat], 9, KingClass.ALL)[0].rows
            assert rows == atu.coeffs[:10]
        for kc in (KingClass.S, KingClass.L):
            rows = distribution_tables([x], 9, kc)[0].rows
            assert rows == btu.coeffs[:10]
        assert distribution_tables([x], 9, KingClass.SL)[0].rows == ctu.coeffs[:10]
        assert distribution_tables([xp], 9, KingClass.LS)[0].rows == ctu.coeffs[:10]

        # avoidance sets coincide across the classes (LS via the complement
        # image, which swaps X and X')
        p_series = strong_point_avoiders(30)
        for n in range(10):
            base = {s for s in enumerate_kings(n) if avoids(x, s)}
            assert len(base) == p_series.coeff(n).evaluate(0)
            for kc in (KingClass.S, KingClass.L, KingClass.SL):
                assert {s for s in enumerate_kings(n, kc) if avoids(x, s)} == base
            ls = {s for s in enumerate_kings(n, KingClass.LS) if avoids(xp, s)}
            assert ls == {complement(s) for s in base}


def test_criterion_04_trivial_group(catalog_sweep_9):
    with criterion(4, "trivial-group patterns: constant rows, halving, three-way"):
        for ident in NEVER_OCCURRING:
            table = catalog_sweep_9[ident]
            for n in range(10):
                assert table.row(n) == UPoly((KING_COUNTS[n],)), (ident, n)
        for n in range(2, 10):
            half = KING_COUNTS[n] // 2
            assert KING_COUNTS[n] % 2 == 0
            assert catalog_sweep_9["10"].row(n) == UPoly((half, half)), n
        for ident in TRIVIAL_THREE_WAY:
            _three_way(ident, catalog_sweep_9)


def _three_way(ident, sweep):
    e = distribution_series(ident, 30)
    assert sweep[ident].rows == e.coeffs[:10], ident
    assert e.eval_u(0) == avoidance_series(ident, 30), ident
    assert_rows(e, f"E:{ident}")


def test_criterion_05_main_group(catalog_sweep_9):
    with criterion(5, "pattern 16/17/27/28/33/55/63/64 three-way checks"):
        for ident in MAIN_THREE_WAY:
            _three_way(ident, catalog_sweep_9)
        assert distribution_series("16", 7).coeff(7) == parse_upoly("568+78u^6")
        assert distribution_series("63", 8).coeff(8) == parse_upoly("4592+636u+14u^2")
        assert distribution_series("64", 8).coeff(8) == parse_upoly("4170+1004u+68u^2")


def test_criterion_06_equation_suite():
    with criterion(6, "all registered identities: zero residual at order 30, < 1 s each"):
        assert len(EQUATIONS) >= 20
        # shared closed forms are built once (they are cached); the timed part
        # is each equation's own residual assembly
        for ident in SOLVED_IDS:
            distribution_series(ident, 30)
            distribution_series(ident, 31)
            avoidance_series(ident, 30)
            avoidance_series(ident, 31)
        slow = {}
        for eq_id in EQUATIONS:
            start = time.monotonic()
            report = verify_equation(eq_id, order=30)
            elapsed = time.monotonic() - start
            assert report.status == PASS, report
            if elapsed >= 1.0:
                slow[eq_id] = elapsed
        assert not slow, f"equations over budget: {slow}"


def test_criterion_07_generic_identities(catalog_sweep_9):
    with criterion(7, "E(t,0) = P, E(t,1) = A at order 30; oracle rows are distributions"):
        a = king_series(30)
        for ident in SOLVED_IDS:
            e = distribution_series(ident, 30)
            assert e.eval_u(0) == avoidance_series(ident, 30), ident
            assert e.eval_u(1) == a, ident
        for ident, table in catalog_sweep_9.items():
            for n in range(10):
                row = table.row(n)
                assert all(c >= 0 for c in row.coeffs), (ident, n)
                assert row.evaluate(1) == KING_COUNTS[n], (ident, n)


def test_criterion_08_open_patterns(catalog_sweep_9):
    with criterion(8, "all ten open patterns: exhaustive tables with full mass"):
        assert len(OPEN_IDS) == 10
        for ident in OPEN_IDS:
            table = catalog_sweep_9[ident]
            assert table.n_max == 9
            for n in range(10):
                assert table.row(n).evaluate(1) == KING_COUNTS[n], (ident, n)


def test_criterion_09_parser():
    with criterion(9, "catalog round-trips through the text format; malformed rejected"):
        entries = catalog()
        assert len(entries) == 32
        for e in entries:
            assert parse_pattern(render_pattern(e.pattern)) == e.pattern
            assert parse_pattern(f"nr:{e.ident}") == e.pattern
        malformed = [
            "mesh(2;12;{(3,0)})",
            "mesh(2;13;{})",
            "mesh(2;12;{(0,0)",
            "mesh(x;12;{})",
            "nr:999",
            "mesh(2;12;{(0,0),})",
            "grid(2;12;{})",
            "mesh(2;112;{})",
            "mesh(2;12;{(0,-1)})",
            "mesh(2;12;(0,0))",
        ]
        assert len(malformed) == 10
        for bad in malformed:
            with pytest.raises(PatternSyntaxError) as err:
                parse_pattern(bad)
            assert "position" in str(err.value)


def test_criterion_10_parallel_determinism(capsys):
    with criterion(10, "catalog sweep at n = 9: byte-identical JSON for 1 and 4 workers"):
        outputs = []
        for jobs in ("1", "4"):
            code = cli_main(
                ["dist", "--all", "--n-max", "9", "--jobs", jobs, "--format", "json"]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        tables = json.loads(outputs[0])
        assert len(tables) == 32
        assert all(len(t["rows"]) == 10 for t in tables)
