"""Closed-form series builders against pinned expansions and identities."""

import hashlib
import math
from collections import Counter

import pytest

import kingmesh.gfs as gfs_mod
from kingmesh.cli import main
from kingmesh.kings import KingClass
from kingmesh.mesh import catalog
from kingmesh.gfs import (
    avoidance_series,
    class_series,
    distribution_series,
    king_series,
    series_by_name,
    strong_point_avoiders,
    strong_point_series,
)
from kingmesh.series import Series, UPoly, parse_upoly
from kingmesh.verify import EQUATIONS, verify_equation

KING_COUNTS = [1, 1, 0, 0, 2, 14, 90, 646, 5242, 47622, 479306, 5296790, 63779034]
SOLVED_IDS = tuple(gfs_mod.SOLVED)


def ints(series):
    return [c.evaluate(0) for c in series.coeffs]


def rows(series):
    return [str(c) for c in series.coeffs]


def test_king_series_matches_counts():
    assert ints(king_series(12)) == KING_COUNTS


@pytest.mark.parametrize("order", [0, 1, 2, 3, 30, 101])
def test_king_series_is_the_sum_that_defines_it(order):
    # sum of n! t^n (1-t)^n / (1+t)^n, every term built by the series ring
    one, t = Series.one(order), Series.t(order)
    step = t * (one - t) / (one + t)
    total = power = one
    for n in range(1, order + 1):
        power = power * step
        total = total + power * math.factorial(n)
    assert gfs_mod.Terms(order).a == total


def test_class_series():
    assert ints(class_series(KingClass.S, 10)) == [1, 0, 0, 0, 2, 12, 78, 568, 4674, 42948, 436358]
    assert ints(class_series(KingClass.SL, 10)) == [1, 0, 0, 0, 2, 10, 68, 500, 4174, 38774, 397584]
    assert class_series(KingClass.L, 10) == class_series(KingClass.S, 10)
    assert class_series(KingClass.LS, 10) == class_series(KingClass.SL, 10)


def test_class_series_identities_order_30():
    one = Series.one(30)
    t = Series.t(30)
    a = king_series(30)
    b = class_series(KingClass.S, 30)
    c = class_series(KingClass.SL, 30)
    assert b + t * b == a
    assert c == a - t - 2 * t * (b - one) + t * t * (c - one)
    # B is A/(1+t) recomputed through explicit division
    assert a / (one + t) == b


def test_strong_point_series_expansions():
    assert rows(strong_point_series(KingClass.ALL, 7)) == [
        "1", "u", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2",
    ]
    assert rows(strong_point_series(KingClass.S, 8)) == [
        "1", "0", "0", "0", "2", "10+2u", "68+10u", "500+68u", "4174+500u",
    ]
    assert rows(strong_point_series(KingClass.SL, 9)) == [
        "1", "0", "0", "0", "2", "10", "68", "500", "4174", "38770+4u",
    ]
    assert strong_point_series(KingClass.L, 8) == strong_point_series(KingClass.S, 8)
    assert strong_point_series(KingClass.LS, 9) == strong_point_series(KingClass.SL, 9)


def test_pattern_16_rows_at_order_60_are_pinned():
    # E:16, the strong-point sum, multiplies dense slots by the long one-term
    # slots of subst_ut, so a fault in the ring's product kernel shows here
    text = "\n".join(rows(distribution_series("16", 60)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f1d8c548381a0f86351581abc1d797d58b5b757043f1a0a6377dd7d8ad4de065"
    )


def test_strong_point_avoiders_expansion():
    assert ints(strong_point_avoiders(8)) == [1, 0, 0, 0, 2, 10, 68, 500, 4174]
    atu = strong_point_series(KingClass.ALL, 30)
    assert atu.eval_u(0) == strong_point_avoiders(30)
    assert atu.eval_u(1) == king_series(30)


@pytest.mark.parametrize(
    "ident,expected",
    [
        ("12", [1, 1, 0, 0, 2, 12, 78, 568]),
        ("13", [1, 1, 0, 0, 2, 14, 88, 636]),
        ("16", [1, 1, 0, 0, 2, 12, 78, 568]),
        ("17", [1, 1, 0, 0, 2, 14, 88, 636]),
        ("19", [1, 1, 0, 0, 2, 12, 76, 556]),
        ("20", [1, 1, 0, 0, 2, 14, 88, 634]),
        ("22", [1, 1, 0, 0, 2, 14, 86, 618]),
        ("27", [1, 1, 0, 0, 2, 14, 86, 624]),
        ("28", [1, 1, 0, 0, 2, 14, 88, 632]),
        ("33", [1, 1, 0, 0, 2, 14, 88, 636]),
        ("55", [1, 1, 0, 0, 2, 14, 88, 632]),
        ("63", [1, 1, 0, 0, 2, 12, 76, 556, 4592]),
        ("64", [1, 1, 0, 0, 2, 10, 68, 500, 4170]),
    ],
)
def test_avoidance_expansions(ident, expected):
    assert ints(avoidance_series(ident, len(expected) - 1)) == expected


def test_avoidance_special_cases():
    assert avoidance_series("11", 9) == king_series(9)
    assert avoidance_series("X", 9) == strong_point_avoiders(9)
    # half of each length avoids the outer-pair pattern
    assert ints(avoidance_series("10", 9)) == [1, 1, 0, 0, 1, 7, 45, 323, 2621, 23811]


@pytest.mark.parametrize(
    "ident,row_n,expected",
    [
        ("12", 5, "12+2u^4"),
        ("12", 8, "4674+568u^7"),
        ("13", 8, "5174+68u"),
        ("16", 7, "568+78u^6"),
        ("16", 8, "4674+568u^7"),
        ("17", 8, "5174+68u"),
        ("19", 8, "4596+646u"),
        ("20", 8, "5164+78u"),
        ("22", 6, "86+4u"),
        ("22", 8, "5062+180u"),
        ("27", 8, "5096+136u+10u^2"),
        ("28", 8, "5152+90u"),
        ("33", 7, "636+10u"),
        ("55", 8, "5152+88u+2u^2"),
        ("63", 8, "4592+636u+14u^2"),
        ("64", 8, "4170+1004u+68u^2"),
    ],
)
def test_distribution_rows(ident, row_n, expected):
    series = distribution_series(ident, row_n)
    assert series.coeff(row_n) == parse_upoly(expected)


def test_distribution_of_pattern_10():
    e = distribution_series("10", 6)
    assert e.coeff(4) == UPoly((1, 1))
    assert e.coeff(6) == UPoly((45, 45))


def test_eval_identities_all_solved_order_30():
    a = king_series(30)
    for ident in SOLVED_IDS:
        e = distribution_series(ident, 30)
        assert e.eval_u(0) == avoidance_series(ident, 30), ident
        assert e.eval_u(1) == a, ident


def test_rows_are_counting_distributions():
    # nonnegative coefficients summing to the class count, per row, n <= 12
    a = king_series(12)
    for ident in SOLVED_IDS:
        e = distribution_series(ident, 12)
        for n in range(13):
            row = e.coeff(n)
            assert all(c >= 0 for c in row.coeffs), (ident, n)
            assert row.evaluate(1) == a.coeff(n).evaluate(0), (ident, n)


def test_substituted_king_series_coefficient():
    # t^5 coefficient of the t -> u^2 t substitution picks up u^10
    a = king_series(5)
    assert a.subst_ut(2).coeff(5) == UPoly.monomial(10, 14)


def test_unknown_idents_rejected():
    with pytest.raises(ValueError):
        avoidance_series("3", 5)  # open pattern: no closed form
    with pytest.raises(ValueError):
        distribution_series("99", 5)


def test_one_cache_entry_per_solved_series():
    # an integer id and its text name the same series: one build, one object
    gfs_mod._solved_series.cache_clear()
    try:
        assert distribution_series(16, 20) is distribution_series("16", 20)
        assert avoidance_series(16, 20) is avoidance_series("16", 20)
        assert gfs_mod._solved_series.cache_info().misses == 2
    finally:
        gfs_mod._solved_series.cache_clear()


def test_series_by_name():
    assert series_by_name("A", 6) == king_series(6)
    assert series_by_name("B", 6) == class_series(KingClass.S, 6)
    assert series_by_name("C", 6) == class_series(KingClass.SL, 6)
    assert series_by_name("Atu", 6) == strong_point_series(KingClass.ALL, 6)
    assert series_by_name("Btu", 6) == strong_point_series(KingClass.S, 6)
    assert series_by_name("Ctu", 6) == strong_point_series(KingClass.SL, 6)
    assert series_by_name("P:16", 6) == avoidance_series("16", 6)
    assert series_by_name("E:X'", 6) == distribution_series("X'", 6)
    with pytest.raises(ValueError):
        series_by_name("Q:16", 6)


def test_registry_holds_the_solved_patterns_in_catalog_order():
    assert SOLVED_IDS == tuple(e.ident for e in catalog())[:22]
    for ident, record in gfs_mod.SOLVED.items():
        rows = [parse_upoly(text) for text in record.expansion]
        assert [str(row) for row in rows] == list(record.expansion), ident


@pytest.mark.parametrize("refused, built", [
    ("distribution", avoidance_series),
    ("avoidance", distribution_series),
])
def test_avoidance_and_distribution_routes_are_independent(monkeypatch, refused, built):
    # every series of one route builds while the other route refuses to run
    order = 14
    expected = {ident: built(ident, order) for ident in SOLVED_IDS}

    def refuse(terms):
        raise AssertionError(f"the {refused} route was called")

    for ident, record in gfs_mod.SOLVED.items():
        monkeypatch.setitem(gfs_mod.SOLVED, ident, record._replace(**{refused: refuse}))
    gfs_mod._solved_series.cache_clear()
    try:
        for ident in SOLVED_IDS:
            assert built(ident, order) == expected[ident], ident
    finally:
        gfs_mod._solved_series.cache_clear()


@pytest.fixture
def terms_built(monkeypatch):
    """How many Terms are built at each order, from cold caches."""
    built = Counter()
    init = gfs_mod.Terms.__init__

    def counting_init(self, order):
        built[order] += 1
        init(self, order)

    caches = (gfs_mod.terms, gfs_mod._solved_series)
    monkeypatch.setattr(gfs_mod.Terms, "__init__", counting_init)
    for cached in caches:
        cached.cache_clear()
    yield built
    for cached in caches:
        cached.cache_clear()


def test_one_terms_per_order(terms_built):
    # every series name and every equation at one order share the Terms of
    # each order they reach (the star identities reach one order further)
    names = [*gfs_mod.BASE_NAMES, *(f"{kind}:{i}" for i in SOLVED_IDS for kind in "PE")]
    assert len(names) == 50 and len(EQUATIONS) == 35
    for name in names:
        series_by_name(name, 17)
    for eq_id in EQUATIONS:
        assert verify_equation(eq_id, 17).status == "PASS", eq_id
    assert terms_built == {17: 1, 18: 1}


# every series and every equation at order 100, as in the closed-forms workload
_CLOSED_FORMS = [
    *(f"series --name {name} --order 100 --format json"
      for name in (*gfs_mod.BASE_NAMES, *(f"{kind}:{i}" for kind in "PE" for i in SOLVED_IDS))),
    *(f"verify --equation {eq_id} --order 100 --format json" for eq_id in EQUATIONS),
]


@pytest.mark.parametrize("commands, orders", [
    (["verify --all --order 30 --n-max 8 --format json"], {10: 1, 11: 1, 30: 1, 31: 1}),
    (_CLOSED_FORMS, {100: 1, 101: 1}),
], ids=["battery", "closed-forms"])
def test_the_bounded_caches_hold_what_one_command_reads(terms_built, capsys, commands, orders):
    # nothing is built twice: each Terms and each of the 48 series is one miss
    for command in commands:
        assert main(command.split()) == 0, command
    capsys.readouterr()
    assert terms_built == orders
    assert gfs_mod.terms.cache_info().misses == len(orders)
    assert gfs_mod._solved_series.cache_info().misses == 48


@pytest.mark.parametrize("eq_id", ["EQ_P16_STAR", "EQ_P63_STAR", "EQ_P64_STAR"])
@pytest.mark.parametrize("order", [12, 30, 100])
def test_star_identities_read_only_the_terms_they_are_given(terms_built, eq_id, order):
    # the restricted distribution E* is built one order lower than the
    # identity's Terms, from those Terms truncated, not from a second Terms
    assert verify_equation(eq_id, order).status == "PASS"
    assert terms_built == {order + EQUATIONS[eq_id].margin: 1}


def test_pattern_10_builders_read_only_the_terms_they_are_given():
    # P:10 and E:10 halve the king counts of the Terms they are handed, so a
    # Terms whose A is set before first use carries its own counts through
    r = gfs_mod.Terms(12)
    r.a = Series(12, [1, 1, 0, 0, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    halves = [2, 4, 8, 16, 32, 64, 128, 256, 512]
    avoidance = gfs_mod.SOLVED["10"].avoidance(r)
    distribution = gfs_mod.SOLVED["10"].distribution(r)
    assert [row.evaluate(0) for row in avoidance.coeffs] == [1, 1, 0, 0, *halves]
    assert distribution.coeffs == (
        UPoly.one(), UPoly.one(), UPoly(), UPoly(), *(UPoly((h, h)) for h in halves)
    )
