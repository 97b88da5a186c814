"""The cross-check battery: passing checks, fault isolation, report plumbing."""

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import combinations, permutations

import pytest

import kingmesh.gfs as gfs_mod
import kingmesh.kings as kings_mod
import kingmesh.oracle as oracle_mod
import kingmesh.series as series_mod
import kingmesh.verify as verify_mod
from kingmesh import cli
from kingmesh.gfs import class_series, distribution_series, terms
from kingmesh.kings import KingClass, perm_text
from kingmesh.mesh import (
    KING_CROSS_DOWN,
    KING_CROSS_UP,
    OPEN_IDS,
    SOLVED_IDS,
    CompiledPatterns,
    avoids,
    catalog,
    catalog_pattern,
    occurrence_counts,
)
from kingmesh.oracle import Census, census, distribution_table
from kingmesh.series import Series, UPoly, format_upoly, parse_upoly
from kingmesh.verify import (
    COUNTS_N_MAX,
    EQUATIONS,
    FAIL,
    PASS,
    REFERENCE_MISMATCH,
    KING_COUNTS,
    CheckReport,
    Witness,
    _avoiders,
    _check_class_counts,
    _check_counts_methods,
    _check_king_characterization,
    _check_open_mass,
    _check_pinned_series,
    _check_strong_point_class,
    _check_strong_point_sets,
    _first_king_mismatch,
    reference_rows,
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
    residual = spec.residual(terms(order + spec.margin))
    perturbed = residual + Series.t(residual.order)
    assert residual.truncated(order).is_zero()
    assert not perturbed.truncated(order).is_zero()


def test_undividable_residual_is_a_fail(monkeypatch):
    # a u-free fault in E:64 leaves the STAR construction a coefficient that
    # div_u cannot divide: the check fails with that coefficient as witness,
    # and the battery reports every check the fault reaches instead of aborting
    record = gfs_mod.SOLVED["64"]
    faulty = replace(record, distribution=lambda r: record.distribution(r) + Series.term(r.order, 5, tpow=6))
    monkeypatch.setitem(gfs_mod.SOLVED, "64", faulty)
    gfs_mod._solved_series.cache_clear()
    try:
        star = verify_equation("EQ_P64_STAR")
        assert star.status == FAIL
        assert star.witness == Witness(6, "a multiple of u", "-5+2u^2")
        assert verify_equation("EQ_P64_DIST").status == FAIL
        assert verify_equation("EQ_P64_AV").status == PASS
        assert verify_theorem("64", order=12, n_max=7).status == FAIL
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["verify", "--all", "--order", "12", "--n-max", "7"])
    finally:
        gfs_mod._solved_series.cache_clear()
    assert code == 1
    assert "error:" not in err.getvalue() + out.getvalue()
    failed = {line.split()[1] for line in out.getvalue().splitlines() if line.startswith(FAIL)}
    assert failed == {"equation:EQ_P64_STAR", "equation:EQ_P64_DIST", "theorem:64"}


@pytest.mark.parametrize("fault, actual", [
    (lambda order: Series.term(order, 5, tpow=6), "5"),
    (lambda order: Series.term(order, 5, tpow=6, upow=2), "5u^2"),
], ids=["u-free", "u-marked"])
def test_pattern_16_dist_reads_its_distribution(monkeypatch, fault, actual):
    # a wrong coefficient of E:16 must fail the DIST identity itself, not
    # only STAR and the theorem: E must not cancel from its residual
    record = gfs_mod.SOLVED["16"]
    faulty = replace(record, distribution=lambda r: record.distribution(r) + fault(r.order))
    monkeypatch.setitem(gfs_mod.SOLVED, "16", faulty)
    gfs_mod._solved_series.cache_clear()
    try:
        dist = verify_equation("EQ_P16_DIST", order=12)
        star = verify_equation("EQ_P16_STAR", order=12)
        av = verify_equation("EQ_P16_AV", order=12)
    finally:
        gfs_mod._solved_series.cache_clear()
    assert dist.status == FAIL
    assert dist.witness == Witness(6, "0", actual)
    assert star.status == FAIL
    assert av.status == PASS


def test_non_unit_division_is_a_fail(monkeypatch):
    # a denominator with constant term 2 cannot be divided by in Z[u][[t]]:
    # the check fails with that term as witness instead of ending in a traceback
    monkeypatch.setattr(gfs_mod.Terms, "q", property(lambda r: 2 * r.one + r.t + r.t * r.a))
    gfs_mod.terms.cache_clear()
    try:
        report = verify_equation("EQ_PX", order=8)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["verify", "--equation", "EQ_PX", "--order", "8"])
    finally:
        gfs_mod.terms.cache_clear()
    assert report.status == FAIL
    assert report.witness == Witness(0, "+1 or -1", "2")
    assert code == 1 and err.getvalue() == ""
    assert [line.split()[:2] for line in out.getvalue().splitlines() if line.startswith(FAIL)] == [
        [FAIL, "equation:EQ_PX"]
    ]


def test_odd_king_count_is_a_fail(monkeypatch):
    # pattern 10's closed forms halve the king counts of their Terms; an odd
    # count is not divisible by 2, which fails theorem:10 with that count as
    # witness
    right = gfs_mod.Terms.a.func

    def odd_at_9(r):
        a = right(r)
        if r.order < 9:
            return a
        coeffs = list(a.coeffs)
        coeffs[9] = coeffs[9] + UPoly((1,))
        return Series(r.order, coeffs)

    monkeypatch.setattr(gfs_mod.Terms, "a", property(odd_at_9))
    gfs_mod.terms.cache_clear()
    gfs_mod._solved_series.cache_clear()
    try:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["verify", "--theorem", "10", "--order", "12", "--n-max", "5"])
    finally:
        gfs_mod.terms.cache_clear()
        gfs_mod._solved_series.cache_clear()
    assert code == 1 and err.getvalue() == ""
    assert out.getvalue().splitlines() == [
        "FAIL                theorem:10  pattern 10: distribution over king permutations"
        " (division by 2)  [n=9 expected a multiple of 2, got 47623]",
        "1 checks, 1 failures",
    ]


@pytest.fixture
def plant_in_halving(monkeypatch):
    """Make the halving of the king counts in pattern 10's closed forms raise
    the given error, on cold series caches."""
    def plant(error):
        def raising(r):
            raise error

        monkeypatch.setattr(gfs_mod, "_halved_king_counts", raising)
        gfs_mod._solved_series.cache_clear()

    yield plant
    gfs_mod._solved_series.cache_clear()


def test_builder_fault_fails_one_check_and_the_battery_runs_on(plant_in_halving):
    # an inexact division in one builder is a FAIL of the check that reads it,
    # not an abort of the run: every other check still reports
    plant_in_halving(series_mod.NotDivisibleError(9, 47623, "2"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", "--all", "--order", "12", "--n-max", "6", "--format", "json"])
    assert code == 1 and err.getvalue() == ""
    reports = reports_from_json(out.getvalue())
    assert len(reports) == 79 and [r.check_id for r in reports] == list(verify_mod.CHECK_IDS)
    assert [r for r in reports if r.status != PASS] == [CheckReport(
        "theorem:10", "pattern 10: distribution over king permutations (division by 2)",
        FAIL, Witness(9, "a multiple of 2", "47623"),
    )]


@pytest.mark.parametrize("error", [RuntimeError("a bug"), ZeroDivisionError("a bug")])
def test_the_guard_lets_other_errors_through(plant_in_halving, error):
    # only the two errors of inexact arithmetic become a FAIL: a bug surfaces
    plant_in_halving(error)
    with pytest.raises(type(error), match="a bug"):
        verify_all(order=12, n_max=6)


def test_single_checks_take_only_what_they_read(monkeypatch):
    # an equation enumerates nothing; a theorem run alone counts its own pattern
    taken = []
    real = oracle_mod.census

    def counting_census(patterns, *args, **kwargs):
        taken.append(tuple(patterns))
        return real(patterns, *args, **kwargs)

    monkeypatch.setattr(oracle_mod, "census", counting_census)
    monkeypatch.setattr(verify_mod, "census", counting_census)
    assert verify_equation("EQ_B").status == PASS
    assert verify_mod.run_checks(["equation:EQ_B"]) == [verify_equation("EQ_B")]
    assert taken == []
    assert verify_theorem("16", n_max=6).status == PASS
    assert taken == [(catalog_pattern("16"),)]
    assert verify_mod.run_checks(["theorem:16"], n_max=6) == [verify_theorem("16", n_max=6)]
    assert taken == [(catalog_pattern("16"),)] * 3


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
    # the second run counts the king permutations it draws, walked with the
    # patterns counted through n_max and only tallied past it: each length
    # through the counting range n = 11 exactly once, below each first value
    # once, the empty host and the host (1,) included
    hosts = 0
    tasks = []
    tally = oracle_mod._tally

    def counting_tally(task):
        nonlocal hosts
        tasks.append(task[1:])
        part = tally(task)
        hosts += sum(part.values())
        return part

    monkeypatch.setattr(oracle_mod, "_tally", counting_tally)
    b = verify_all(order=8, n_max=4)
    assert hosts == sum(KING_COUNTS[:12]) == 5_829_714
    assert sorted(tasks) == [(n, f) for n in range(12) for f in range(1, max(n, 1) + 1)]
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
    assert (report.witness.n, report.witness.expected) == (n, bumped) == (
        10, "436315+20u^4+24u^5+42944u^9+4u^13"
    )


def test_pinned_rows_separate_the_closed_forms():
    # two solved patterns whose distributions differ must differ on a row both
    # of them pin, so that the pinned legs can tell a swap of the two apart
    pinned = {ident: reference_rows(f"E:{ident}") for ident in SOLVED_IDS}
    series = {ident: distribution_series(ident, 12) for ident in SOLVED_IDS}
    for i, j in combinations(SOLVED_IDS, 2):
        if series[i] == series[j]:
            continue
        shared = zip(pinned[i], pinned[j])
        assert any(a != b for a, b in shared), (i, j)


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


def test_verify_all_rejects_a_negative_order_before_the_census(monkeypatch):
    import kingmesh.verify as verify_mod

    def no_census(*args, **kwargs):
        raise AssertionError("the census ran before the order was checked")

    monkeypatch.setattr(verify_mod, "census", no_census)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        verify_all(order=-1)


@pytest.fixture(scope="module")
def sizes_census():
    """Class sizes through the counting range, no pattern counted."""
    return census((), COUNTS_N_MAX)


def test_counts_methods_names_the_method_that_is_off(monkeypatch, sizes_census):
    assert _check_counts_methods(sizes_census).status == PASS
    right = kings_mod._count_by_explicit
    monkeypatch.setattr(kings_mod, "_count_by_explicit", lambda n: right(n) + (n == 7))
    report = _check_counts_methods(sizes_census)
    assert report.status == FAIL
    assert report.subject.endswith("(explicit)")
    assert (report.witness.n, report.witness.expected, report.witness.actual) == (
        7, str(KING_COUNTS[7]), str(KING_COUNTS[7] + 1)
    )


def test_counts_methods_cache_one_order_of_terms(sizes_census):
    # the gf leg reads all twelve lengths from one series, not one order each
    terms.cache_clear()
    assert _check_counts_methods(sizes_census).status == PASS
    assert terms.cache_info().currsize == 1


def test_class_counts_name_the_class_that_is_off(sizes_census):
    class OffAtNine(Census):
        def size(self, n, king_class):
            return super().size(n, king_class) + (n == 9 and king_class is KingClass.LS)

    assert _check_class_counts(sizes_census).status == PASS
    faulty = OffAtNine(sizes_census.patterns, sizes_census.pattern_n_max, sizes_census.tallies)
    report = _check_class_counts(faulty)
    assert report.status == FAIL
    assert report.subject.endswith("(LS)")
    assert report.witness.n == 9
    assert int(report.witness.actual) == int(report.witness.expected) + 1


def test_open_mass_catches_a_row_whose_mass_is_off(catalog_sweep_9):
    ident = OPEN_IDS[0]
    rows = list(catalog_sweep_9[ident].rows)
    assert _check_open_mass(ident, rows, 9).status == PASS
    rows[6] = rows[6] + UPoly((0, 1))
    report = _check_open_mass(ident, tuple(rows), 9)
    assert report.status == FAIL
    assert report.subject.endswith("(total mass)")
    assert report.witness.n == 6
    assert int(report.witness.actual) == int(report.witness.expected) + 1


def test_theorem_oracle_leg_expects_the_closed_form(catalog_sweep_9):
    # in "oracle vs series" the census row is the actual side
    rows = list(catalog_sweep_9["16"].rows)
    rows[5] = rows[5] + UPoly((1,))
    report = verify_theorem("16", order=10, n_max=9, oracle_rows=tuple(rows))
    assert report.status == FAIL
    assert report.subject.endswith("(oracle vs series)")
    assert (report.witness.n, report.witness.expected, report.witness.actual) == (
        5, "12+2u^4", "13+2u^4"
    )


def test_strong_point_oracle_leg_expects_the_closed_form():
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
    report = _check_strong_point_class(KingClass.SL, faulty, 8)
    assert report.status == FAIL
    assert report.subject.endswith("(oracle vs series)")
    assert (report.witness.n, report.witness.expected, report.witness.actual) == (6, "68", "69")


def test_kingchar_compares_every_permutation(monkeypatch):
    # the king stream tests every permutation, pruned or not on the avoider side:
    # is_king sees each of the sum of n! for n <= 8
    calls = 0
    is_king = verify_mod.is_king

    def counting_is_king(p):
        nonlocal calls
        calls += 1
        return is_king(p)

    monkeypatch.setattr(verify_mod, "is_king", counting_is_king)
    assert _check_king_characterization().status == PASS
    assert calls == sum(math.factorial(n) for n in range(9)) == 46_234


def _first_mismatch_by_reference() -> Witness | None:
    # the claim written out: every permutation, one by one, through avoids
    for n in range(verify_mod.KINGCHAR_N_MAX + 1):
        for p in permutations(range(1, n + 1)):
            expected = verify_mod.is_king(p)
            if expected != (avoids(KING_CROSS_UP, p) and avoids(KING_CROSS_DOWN, p)):
                return Witness(n, str(expected), perm_text(p, " "))
    return None


def _too_strict_is_king(monkeypatch):
    # a king of five or more entries that begins with 2 is called no king;
    # the first two, 24135 and 24153, differ only in their last two entries
    is_king = verify_mod.is_king
    monkeypatch.setattr(
        verify_mod, "is_king", lambda p: is_king(p) and not (len(p) >= 5 and p[0] == 2)
    )


def _patch_pair_counter(monkeypatch, fault):
    # every pair counter reports fault(seq, d, found) for the entry it counts at
    # d, with seq[:d] rebuilt from pos and before, as the oracle node test does
    pair_counter = CompiledPatterns.pair_counter

    def faulty(self, pre, pos, full):
        hits = pair_counter(self, pre, pos, full)

        def counted(d, v, before):
            placed = (x for x in range(1, len(pre)) if before >> x & 1)
            return fault([*sorted(placed, key=pos.__getitem__), v], d, hits(d, v, before))

        return counted

    monkeypatch.setattr(CompiledPatterns, "pair_counter", faulty)


def _spurious_kernel_hit(monkeypatch):
    def fault(seq, d, found):
        # reads only the prefix through d, as the kernel does
        spurious = d == 6 and seq[0] == 2 and seq[d] - seq[d - 1] == 3
        return found + spurious

    _patch_pair_counter(monkeypatch, fault)


def _missed_kernel_hit(monkeypatch):
    def fault(seq, d, found):
        # hides hits from the pruning, so subtrees that hold no avoider are walked
        missed = d == 4 and seq[0] == 3 and seq[d] - seq[d - 1] == 1
        return 0 if missed else found

    _patch_pair_counter(monkeypatch, fault)


@pytest.mark.parametrize("plant", [_too_strict_is_king, _spurious_kernel_hit, _missed_kernel_hit])
def test_kingchar_witness_is_the_first_mismatch(monkeypatch, plant):
    plant(monkeypatch)
    report = _check_king_characterization()
    assert report.status == FAIL
    assert report.witness == _first_mismatch_by_reference()
    assert report.witness is not None


def test_kingchar_passes_on_the_empty_and_one_element_permutations(monkeypatch):
    # both are kings and hold no pair, so each is in both streams
    seen = []
    is_king = verify_mod.is_king
    monkeypatch.setattr(verify_mod, "is_king", lambda p: seen.append(p) or is_king(p))
    crosses = CompiledPatterns((KING_CROSS_UP, KING_CROSS_DOWN), n=1)
    assert _first_king_mismatch(crosses, 0) is None
    assert _first_king_mismatch(crosses, 1) is None
    assert seen == [(), (1,)]


def test_avoiders_are_the_avoiders_of_both_crosses_in_lexicographic_order():
    crosses = CompiledPatterns((KING_CROSS_UP, KING_CROSS_DOWN), n=7)
    for n in range(8):
        expected = [p for p in permutations(range(1, n + 1))
                    if avoids(KING_CROSS_UP, p) and avoids(KING_CROSS_DOWN, p)]
        # the list compares order and multiplicity too
        assert list(_avoiders(crosses, n)) == expected


def test_avoiders_extend_no_prefix_that_has_a_hit(monkeypatch):
    calls, hit = [], set()

    def recording(seq, d, found):
        prefix = tuple(seq[: d + 1])
        calls.append(prefix)
        if found:
            hit.add(prefix)
        return found

    _patch_pair_counter(monkeypatch, recording)
    crosses = CompiledPatterns((KING_CROSS_UP, KING_CROSS_DOWN), n=7)
    assert len(list(_avoiders(crosses, 7))) == verify_mod.count_kings(7)
    assert hit  # the pruning had something to cut
    assert not [p for p in calls if any(p[:k] in hit for k in range(1, len(p)))]


def test_a_host_and_an_avoider_walk_each_make_one_pair_counter(monkeypatch):
    # the counter reads the caller's own lists, so none is made per entry or per node
    made = []
    pair_counter = CompiledPatterns.pair_counter
    monkeypatch.setattr(CompiledPatterns, "pair_counter",
                        lambda self, pre, pos, full: made.append(len(pre) - 1)
                        or pair_counter(self, pre, pos, full))
    compiled = CompiledPatterns((KING_CROSS_UP, KING_CROSS_DOWN))
    hosts = list(permutations(range(1, 6)))
    for host in hosts:
        occurrence_counts(compiled, host)
    assert made == [5] * len(hosts)
    made.clear()
    crosses = CompiledPatterns((KING_CROSS_UP, KING_CROSS_DOWN), n=7)
    for n in range(8):
        assert len(list(_avoiders(crosses, n))) == verify_mod.count_kings(n)
    assert made == list(range(8))


# The planted-fault matrix: one fault in one input of the battery, and the
# exact set of checks that fail (mutation testing of the battery; DeMillo,
# Lipton and Sayward, "Hints on test data selection", 1978).  Every plant runs
# on one shared census, patched in as verify's census or a faulted subclass
# of it, at order 12 and n_max 7.
MATRIX_ORDER, MATRIX_N_MAX = 12, 7


@pytest.fixture(scope="module")
def matrix_census():
    """The census a run at n_max 7 takes."""
    top = max(COUNTS_N_MAX, verify_mod.CLASSES_N_MAX, MATRIX_N_MAX)
    patterns = [entry.pattern for entry in catalog()]
    return census(patterns, top, KingClass.ALL, pattern_n_max=MATRIX_N_MAX)


def _failed(monkeypatch, kings, prefixes):
    """The status of every check of the families named that does not pass,
    in a run that reads ``kings`` as its census."""
    monkeypatch.setattr(verify_mod, "census", lambda *args, **kwargs: kings)
    ids = [check_id for check_id in verify_mod.CHECK_IDS if check_id.startswith(prefixes)]
    reports = verify_mod.run_checks(ids, MATRIX_ORDER, MATRIX_N_MAX)
    return {r.check_id: r.status for r in reports if r.status != PASS}


# The identities that do not read a series, though their ids name its pattern.
IDENTITY_GAPS = {
    **{f"E:{ident}": {f"EQ_P{ident}_AV"} for ident in SOLVED_IDS},  # no AV identity reads E
    "P:16": {"EQ_P16_STAR"},  # E* comes from E:16 alone
    "P:17": {"EQ_P17_DIST"},
}


@pytest.mark.parametrize("series", [f"{kind}:{ident}" for kind in "PE" for ident in SOLVED_IDS])
def test_a_builder_fault_fails_exactly_the_checks_that_read_it(monkeypatch, matrix_census, series):
    # 5t^6 in P, or 5u^2t^6 in E, as verify reads them: the theorem and every
    # identity of the pattern that reads the series fail, nothing else does
    kind, ident = series.split(":")
    builder = {"P": "avoidance_series", "E": "distribution_series"}[kind]
    right = getattr(verify_mod, builder)

    def planted(i, order):
        fault = Series.term(order, 5, tpow=6, upow=0 if kind == "P" else 2)
        return right(i, order) + fault if str(i) == ident else right(i, order)

    monkeypatch.setattr(verify_mod, builder, planted)
    expected = {f"theorem:{ident}"} | {
        f"equation:{eq_id}" for eq_id in EQUATIONS
        if eq_id.startswith(f"EQ_P{ident}_") and eq_id not in IDENTITY_GAPS.get(series, ())
    }
    assert _failed(monkeypatch, matrix_census, ("theorem:", "equation:")) == dict.fromkeys(
        expected, FAIL
    )


def _planted_census(kings, plant):
    """``kings`` with one extra host: at n = 9 of a class size (``("size",
    class)``), or at u^0 in row 6 of a table (``(pattern id, class)``)."""
    where, kc = plant
    target = None if where == "size" else catalog_pattern(where)

    class Planted(Census):
        def size(self, n, king_class):
            return super().size(n, king_class) + (target is None and n == 9 and king_class == kc)

        def table(self, pattern, king_class):
            table = super().table(pattern, king_class)
            if (pattern, king_class) != (target, kc):
                return table
            rows = list(table.rows)
            rows[6] += UPoly.one()
            return replace(table, rows=tuple(rows))

    return Planted(kings.patterns, kings.pattern_n_max, kings.tallies, kings.king_class)


CENSUS_PLANTS = [
    (("size", KingClass.ALL), {"counts:methods"}),
    *((("size", kc), {"counts:classes"}) for kc in list(KingClass)[1:]),
    (("X", KingClass.ALL), {"theorem:X", "strongpoint:sets"}),
    (("X'", KingClass.ALL), {"theorem:X'"}),
    (("10", KingClass.ALL), {"theorem:10", "halving:10"}),
    *(((i, KingClass.ALL), {f"theorem:{i}"}) for i in SOLVED_IDS if i not in ("X", "X'", "10")),
    *(((i, KingClass.ALL), {f"mass:{i}"}) for i in OPEN_IDS),
    *(((pattern_id, KingClass(kc)), {f"strongpoint:{kc}", "strongpoint:sets"})
      for pattern_id, kc in (("X", "s"), ("X", "l"), ("X", "sl"), ("X'", "ls"))),
]


@pytest.mark.parametrize("plant, expected", CENSUS_PLANTS,
                         ids=[f"{where}-{kc.value}" for (where, kc), _ in CENSUS_PLANTS])
def test_a_census_fault_fails_exactly_the_checks_that_read_it(
    monkeypatch, matrix_census, plant, expected
):
    kings = _planted_census(matrix_census, plant)
    prefixes = ("counts:", "theorem:", "strongpoint:", "halving:", "mass:")
    assert _failed(monkeypatch, kings, prefixes) == dict.fromkeys(expected, FAIL)


def test_checks_that_read_no_census_pass_without_one(monkeypatch):
    class NoCensus:
        def __getattr__(self, name):
            raise AssertionError(f"a check read the census's {name}")

    assert _failed(monkeypatch, NoCensus(), ("kingchar", "golden:", "equation:")) == {}
