"""The cross-check battery: passing checks, fault isolation, report plumbing."""

import hashlib
from dataclasses import replace

import pytest

import kingmesh.kings as kings_mod
import kingmesh.oracle as oracle_mod
from kingmesh.gfs import class_series
from kingmesh.kings import KingClass
from kingmesh.mesh import SOLVED_IDS, catalog_pattern
from kingmesh.oracle import Census, census, distribution_table
from kingmesh.series import Series, UPoly, format_upoly, parse_upoly
from kingmesh.verify import (
    EQUATIONS,
    FAIL,
    PASS,
    REFERENCE_MISMATCH,
    KING_COUNTS,
    CheckReport,
    Witness,
    _check_pinned_series,
    _check_strong_point_class,
    _check_strong_point_sets,
    report_from_dict,
    report_to_dict,
    reports_from_json,
    reports_to_json,
    verify_all,
    verify_equation,
    verify_theorem,
)


def test_equation_registry_is_complete():
    ids = set(EQUATIONS)
    assert {"EQ_B", "EQ_C", "EQ_PX", "EQ_ATU", "EQ_BTU", "EQ_CTU"} <= ids
    for ident in ("12", "13", "16", "17", "19", "20", "22", "27", "28", "33", "55", "63", "64"):
        assert f"EQ_P{ident}_AV" in ids
        assert f"EQ_P{ident}_DIST" in ids
    for ident in ("16", "63", "64"):
        assert f"EQ_P{ident}_STAR" in ids
    assert len(ids) >= 20


@pytest.mark.parametrize("eq_id", sorted(EQUATIONS))
def test_equations_hold_at_order_20(eq_id):
    report = verify_equation(eq_id, order=20)
    assert report.status == PASS, report


def test_equation_detects_perturbation():
    # shifting one side by t must produce a nonzero residual
    spec = EQUATIONS["EQ_P16_STAR"]
    order = 12
    residual = spec.build(order + spec.margin)
    perturbed = residual + Series.t(residual.order)
    assert residual.is_zero(through=order)
    assert not perturbed.is_zero(through=order)


def test_unknown_equation_rejected():
    with pytest.raises(KeyError):
        verify_equation("EQ_NOPE")


@pytest.mark.parametrize("ident", ["10", "12", "33", "55", "64", "X"])
def test_theorems_pass(ident, catalog_sweep_9):
    report = verify_theorem(
        ident, order=12, n_max=9, oracle_rows=catalog_sweep_9[ident].rows
    )
    assert report.status == PASS, report
    assert report.check_id == f"theorem:{ident}"


def test_theorem_small_n_max_self_contained():
    report = verify_theorem("63", order=10, n_max=5)
    assert report.status == PASS


def test_theorem_unknown_pattern():
    with pytest.raises(KeyError):
        verify_theorem("3")  # open pattern, no theorem


def test_theorem_detects_corrupt_oracle(catalog_sweep_9):
    rows = list(catalog_sweep_9["16"].rows)
    rows[5] = rows[5] + UPoly((1,))
    report = verify_theorem("16", order=10, n_max=9, oracle_rows=tuple(rows))
    assert report.status == FAIL
    assert report.witness is not None
    assert report.witness.n == 5


def test_reference_mismatch_is_distinguished(monkeypatch, catalog_sweep_9):
    # poison one pinned row: computation still agrees with itself, so the
    # report should blame the reference, not fail outright
    import kingmesh.verify as verify_mod

    poisoned = dict(verify_mod.REFERENCE_EXPANSIONS)
    poisoned["E:16"] = ("1", "1", "0", "0", "2", "99")
    monkeypatch.setattr(verify_mod, "REFERENCE_EXPANSIONS", poisoned)
    report = verify_theorem(
        "16", order=10, n_max=6, oracle_rows=catalog_sweep_9["16"].rows[:7]
    )
    assert report.status == REFERENCE_MISMATCH
    assert report.witness.n == 5
    assert report.witness.expected == "99"
    assert report.witness.actual == "12+2u^4"


def test_report_dict_round_trip():
    reports = [
        CheckReport("theorem:16", "subject", PASS),
        CheckReport("equation:EQ_B", "subject", FAIL, Witness(3, "0", "1+u")),
    ]
    for r in reports:
        assert report_from_dict(report_to_dict(r)) == r
    assert reports_from_json(reports_to_json(reports)) == reports


def test_verify_all_small_run(monkeypatch):
    # a small full run passes, repeats byte-identically, and sorts by id
    a = verify_all(order=8, n_max=4)
    # the second run counts the king permutations it draws, streamed where
    # patterns are counted and walked past n_max: each length through the
    # counting range n = 11 exactly once, below each first value once
    hosts = 0
    tasks = []
    subtree, walk = kings_mod._subtree, oracle_mod.tally_subtree

    def counting_subtree(n, first, forbid_last):
        nonlocal hosts
        tasks.append((n, first))
        for perm in subtree(n, first, forbid_last):
            hosts += 1
            yield perm

    def counting_walk(n, first, forbid_last):
        nonlocal hosts
        tasks.append((n, first))
        tally = walk(n, first, forbid_last)
        hosts += sum(tally)
        return tally

    monkeypatch.setattr(kings_mod, "_subtree", counting_subtree)
    monkeypatch.setattr(oracle_mod, "tally_subtree", counting_walk)
    b = verify_all(order=8, n_max=4)
    assert hosts == sum(KING_COUNTS[2:12]) == 5_829_712
    assert sorted(tasks) == [(n, f) for n in range(2, 12) for f in range(1, n + 1)]
    assert reports_to_json(a) == reports_to_json(b)
    # the report as the code before the shared census produced it
    assert hashlib.sha256(reports_to_json(a).encode()).hexdigest() == (
        "20e36871a34c0226e27b8fbc23286b8971ecae6b19b53b9a5397bbda7273f13c"
    )
    ids = [r.check_id for r in a]
    assert ids == sorted(ids)
    assert all(r.status == PASS for r in a), [r for r in a if r.status != PASS]
    # every family of checks is represented
    families = {r.check_id.split(":")[0] for r in a}
    assert families == {
        "counts", "kingchar", "golden", "theorem", "strongpoint", "halving",
        "equation", "mass",
    }
    assert sum(1 for r in a if r.check_id.startswith("theorem:")) == len(SOLVED_IDS)


def test_halving_witness_at_small_n():
    # at n = 4 the halving check sees one avoider and one single container
    from kingmesh.verify import _check_halving

    rows = (UPoly((1,)), UPoly((1,)), UPoly(), UPoly(), UPoly((1, 1)))
    assert _check_halving(4, rows).status == PASS
    bad = (UPoly((1,)), UPoly((1,)), UPoly(), UPoly(), UPoly((2,)))
    report = _check_halving(4, bad)
    assert report.status == FAIL
    assert report.witness.n == 4
    assert report.witness.expected == format_upoly(UPoly((1, 1)))


def test_strong_point_checks_catch_an_off_by_one_avoider_count():
    # the set equalities are checked as counts; one SL avoider too many at
    # n = 6 must still fail both the set check and the SL distribution check
    x = catalog_pattern("X")

    class OffByOne(Census):
        def table(self, pattern, king_class):
            table = super().table(pattern, king_class)
            if pattern != x or king_class is not KingClass.SL:
                return table
            rows = list(table.rows)
            rows[6] = rows[6] + UPoly((1,))
            return replace(table, rows=tuple(rows))

    real = census([x, catalog_pattern("X'")], 7)
    faulty = OffByOne(real.patterns, real.pattern_n_max, real.tallies)
    assert _check_strong_point_sets(real, 8).status == PASS
    assert _check_strong_point_class(KingClass.SL, real, 8).status == PASS
    for report in (
        _check_strong_point_sets(faulty, 8),
        _check_strong_point_class(KingClass.SL, faulty, 8),
    ):
        assert report.status == FAIL, report
        assert report.witness.n == 6


def test_theorem_reaches_every_oracle_row_below_the_order():
    # with order < n_max the series is taken far enough to meet all the rows
    rows = list(distribution_table(catalog_pattern("16"), 7).rows)
    assert verify_theorem("16", order=3, n_max=7, oracle_rows=tuple(rows)).status == PASS
    rows[6] = rows[6] + UPoly((5,))
    report = verify_theorem("16", order=3, n_max=7, oracle_rows=tuple(rows))
    assert report.status == FAIL
    assert report.witness.n == 6


def test_strong_point_checks_reach_every_census_row_below_the_order():
    # order 3 is below the census range n <= 7: the set check must not index
    # past its series, and the SL check must still see row 6
    x = catalog_pattern("X")

    class OffByOne(Census):
        def table(self, pattern, king_class):
            table = super().table(pattern, king_class)
            if pattern != x or king_class is not KingClass.SL:
                return table
            rows = list(table.rows)
            rows[6] = rows[6] + UPoly((1,))
            return replace(table, rows=tuple(rows))

    real = census([x, catalog_pattern("X'")], 7)
    faulty = OffByOne(real.patterns, real.pattern_n_max, real.tallies)
    assert _check_strong_point_sets(real, 3).status == PASS
    assert _check_strong_point_class(KingClass.SL, real, 3).status == PASS
    for report in (
        _check_strong_point_sets(faulty, 3),
        _check_strong_point_class(KingClass.SL, faulty, 3),
    ):
        assert report.status == FAIL, report
        assert report.witness.n == 6


def _bump_last_pinned_row(monkeypatch, key):
    import kingmesh.verify as verify_mod

    poisoned = dict(verify_mod.REFERENCE_EXPANSIONS)
    rows = list(poisoned[key])
    rows[-1] = format_upoly(parse_upoly(rows[-1]) + UPoly((1,)))
    poisoned[key] = tuple(rows)
    monkeypatch.setattr(verify_mod, "REFERENCE_EXPANSIONS", poisoned)
    return len(rows) - 1, rows[-1]


def test_golden_check_compares_the_whole_pinned_expansion(monkeypatch):
    # order 3 stops short of the pinned rows, which run to n = 10
    n, bumped = _bump_last_pinned_row(monkeypatch, "B")
    report = _check_pinned_series(
        "golden:B", "pinned expansion of the S-class counts",
        lambda w: class_series(KingClass.S, w), "B", 3,
    )
    assert report.status == FAIL
    assert (report.witness.n, report.witness.expected, report.witness.actual) == (
        n, bumped, "436358"
    )


def test_theorem_compares_the_whole_pinned_expansion(monkeypatch, catalog_sweep_9):
    n, bumped = _bump_last_pinned_row(monkeypatch, "E:16")
    rows = catalog_sweep_9["16"].rows[:6]
    report = verify_theorem("16", order=3, n_max=5, oracle_rows=rows)
    assert report.status == REFERENCE_MISMATCH
    assert (report.witness.n, report.witness.expected) == (n, bumped) == (8, "4675+568u^7")


@pytest.mark.parametrize(
    "builder, leg", [("avoidance_series", "u=0 vs avoidance"), ("king_series", "u=1 vs counts")]
)
def test_theorem_u_legs_reach_past_the_order(monkeypatch, builder, leg):
    # a P or an A wrong at n = 6 must fail even when the order stops at 3
    import kingmesh.verify as verify_mod

    right = getattr(verify_mod, builder)

    def wrong_at_6(*args):
        series = right(*args)
        if series.order < 6:
            return series
        coeffs = list(series.coeffs)
        coeffs[6] = coeffs[6] + UPoly((1,))
        return Series(series.order, coeffs)

    monkeypatch.setattr(verify_mod, builder, wrong_at_6)
    report = verify_theorem("16", order=3, n_max=7)
    assert report.status == FAIL
    assert report.subject.endswith(f"({leg})")
    assert report.witness.n == 6


def test_strong_point_class_compares_the_whole_pinned_expansion(monkeypatch):
    n, bumped = _bump_last_pinned_row(monkeypatch, "Btu")
    kings = census([catalog_pattern("X"), catalog_pattern("X'")], 5)
    report = _check_strong_point_class(KingClass.S, kings, 3)
    assert report.status == REFERENCE_MISMATCH
    assert (report.witness.n, report.witness.expected) == (n, bumped)
