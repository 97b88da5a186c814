"""Exhaustive distributions against the closed forms and across worker counts."""

import re
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kingmesh.kings as kings_mod
import kingmesh.oracle as oracle_mod
from kingmesh.kings import (
    KingClass,
    class_total,
    count_class,
    count_kings,
    endpoint_type,
    in_class,
    is_king,
    tally_subtree,
)
from kingmesh.mesh import (
    CompiledPatterns,
    MeshPattern,
    catalog,
    catalog_pattern,
    count_field,
    count_occurrences,
)
from kingmesh.oracle import (
    DistributionTable,
    census,
    distribution_table,
    distribution_tables,
)
from kingmesh.gfs import distribution_series, strong_point_series
from kingmesh.series import UPoly, parse_upoly
from reference import occurrences_by_definition


def test_known_rows():
    assert distribution_table(catalog_pattern("16"), 5).row(5) == parse_upoly("12+2u^4")
    assert distribution_table(catalog_pattern("12"), 5).row(5) == parse_upoly("12+2u^4")
    assert distribution_table(catalog_pattern("X"), 4).row(4) == UPoly((2,))
    assert distribution_table(catalog_pattern("63"), 7).row(7) == parse_upoly("556+88u+2u^2")


def test_empty_length_row_is_one():
    for ident in ("X", "16", "3"):
        assert distribution_table(catalog_pattern(ident), 0).row(0) == UPoly((1,))


def test_open_pattern_mass():
    row = distribution_table(catalog_pattern("3"), 6).row(6)
    assert row.evaluate(1) == 90
    assert all(c >= 0 for c in row.coeffs)


def test_table_rows_match_series(catalog_sweep_9):
    for ident in ("12", "16", "28", "55", "63", "64"):
        series = distribution_series(ident, 9)
        assert catalog_sweep_9[ident].rows == series.coeffs[:10]


def test_strong_point_class_tables():
    # the X distribution over SL and the X' distribution over LS follow the
    # doubly-restricted series, where the first u-term only appears at n = 9
    ctu = strong_point_series(KingClass.SL, 7)
    sl = distribution_table(catalog_pattern("X"), 7, KingClass.SL)
    ls = distribution_table(catalog_pattern("X'"), 7, KingClass.LS)
    assert sl.rows == ctu.coeffs
    assert ls.rows == ctu.coeffs
    # the literal X distribution over LS is a different polynomial
    assert distribution_table(catalog_pattern("X"), 5, KingClass.LS).row(5) == parse_upoly("6+4u")


def test_table_type():
    t = distribution_table(catalog_pattern("10"), 5)
    assert isinstance(t, DistributionTable)
    assert t.n_max == 5
    assert t.row(5) == UPoly((7, 7))
    assert t.king_class is KingClass.ALL


def test_batched_equals_individual():
    pats = [catalog_pattern("16"), catalog_pattern("63"), catalog_pattern("3")]
    for kc in KingClass:
        batched = distribution_tables(pats, 6, kc)
        for p, table in zip(pats, batched):
            assert table.rows == distribution_table(p, 6, kc).rows


def test_worker_splits_agree():
    pats = [e.pattern for e in catalog()[:6]]
    serial = distribution_tables(pats, 7, jobs=1)
    parallel = distribution_tables(pats, 7, jobs=4)
    assert [t.rows for t in serial] == [t.rows for t in parallel]


def test_worker_splits_agree_on_restricted_class():
    # the census itself: distribution_table counts a single by state
    p = catalog_pattern("X")
    for kc in (KingClass.S, KingClass.L, KingClass.SL, KingClass.LS):
        serial = census([p], 7, kc, jobs=1).table(p, kc)
        parallel = census([p], 7, kc, jobs=3).table(p, kc)
        assert serial == parallel


@pytest.mark.parametrize("jobs", [1, 3])
def test_census_of_all_kings_answers_for_every_class(jobs):
    # one pass over ALL, summed by endpoint type, against a separate pass
    # over each class, from n = 0 on: at n = 0 there are no end entries and
    # at n = 1 the only entry is both the smallest and the largest.  Each
    # census's tables, decoded at once, against its tables read one by one
    pats = [e.pattern for e in catalog()] + _ASYMMETRIC_PAIRS
    kings = census(pats, 8, jobs=jobs)
    for kc in KingClass:
        sizes = [class_total(kings.tallies[n], kc) for n in range(9)]
        assert sizes == [count_class(n, kc, "enumerate") for n in range(9)], kc
        own = census(pats, 8, kc, jobs)
        one_pass = kings.tables(kc)
        assert one_pass == [kings.table(p, kc) for p in pats], kc
        assert own.tables(kc) == [own.table(p, kc) for p in pats] == one_pass, kc
        assert kings.tables(kc, pats[::-3]) == one_pass[::-3], kc


def test_restricted_census_walks_only_the_first_values_its_class_allows(monkeypatch):
    # no walk knows the class; an SL census leaves out first value 1, which
    # begins no endpoint type of SL, and so the whole length n = 1
    walked = []
    monkeypatch.setattr(oracle_mod, "_walk", lambda compiled, n, first: walked.append((n, first)) or {})
    census([catalog_pattern("X")], 10, KingClass.SL)
    assert sorted(walked) == [(n, first) for n in range(2, 11) for first in range(2, n + 1)]


def test_restricted_census_answers_for_its_own_class_alone():
    # an SL census never walked first value 1, so it cannot answer for ALL:
    # its ALL row at n = 6 would sum to 78 where A_6 = 90
    x = catalog_pattern("X")
    sl = census([x], 6, KingClass.SL)
    assert sl.king_class is KingClass.SL
    assert census([x], 6).king_class is KingClass.ALL
    with pytest.raises(ValueError, match="census of class sl answers for sl alone, not for all"):
        sl.table(x, "all")
    with pytest.raises(ValueError, match="not for all"):
        sl.table(x, KingClass.ALL)
    with pytest.raises(ValueError, match="not for ls"):
        sl.table(x, KingClass.LS)
    sizes = [class_total(tally, "sl") for tally in sl.tallies]
    assert sizes == [count_class(n, "sl", "gf") for n in range(7)]
    assert sl.table(x, KingClass.SL) == census([x], 6).table(x, KingClass.SL)


def test_census_table_names_a_pattern_it_did_not_count():
    kings = census([catalog_pattern("X")], 4)
    with pytest.raises(ValueError, match=re.escape(
        "the census did not count the pattern mesh(2;12;{(0,0),(0,1),(0,2),(2,0),(2,1),(2,2)})"
    )):
        kings.table(catalog_pattern("10"), KingClass.ALL)


@pytest.mark.parametrize("bad_n", [-1, 6])
def test_a_length_outside_the_range_is_an_index_error(bad_n):
    # -1 read the last length before, and n_max + 1 a bare tuple index error
    table = distribution_table(catalog_pattern("X"), 5)
    with pytest.raises(IndexError, match=re.escape(f"row n={bad_n} outside 0..5")):
        table.row(bad_n)
    assert table.row(5) == table.rows[5]


def test_repeated_runs_identical():
    p = catalog_pattern("21")
    a = distribution_table(p, 6)
    b = distribution_table(p, 6)
    assert a == b


def test_mass_equals_class_count(catalog_sweep_9):
    for ident, table in catalog_sweep_9.items():
        for n in range(10):
            assert table.row(n).evaluate(1) == count_kings(n), (ident, n)


def test_degree_bounded_by_subset_count(catalog_sweep_9):
    from math import comb

    for table in catalog_sweep_9.values():
        k = table.pattern.length
        for n in range(10):
            assert table.row(n).degree <= comb(n, k)


def test_rejects_negative_n_max():
    with pytest.raises(ValueError):
        distribution_tables([catalog_pattern("X")], -1)


def test_custom_pattern():
    # decreasing pair with the middle box shaded: by hand, 2413 has the
    # occurrences {21, 41, 43} and 3142 has {31, 32, 42}, three each
    p = MeshPattern((2, 1), frozenset({(1, 1)}))
    assert distribution_table(p, 4).row(4) == parse_upoly("2u^3")


def test_census_names_the_bad_pattern_range():
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        census([catalog_pattern("X")], -1)


_any_pattern = (
    st.integers(0, 3)
    .flatmap(lambda k: st.permutations(range(1, k + 1)))
    .map(tuple)
    .flatmap(
        lambda tau: st.sets(st.tuples(st.integers(0, len(tau)), st.integers(0, len(tau))))
        .map(lambda shaded: MeshPattern(tau, frozenset(shaded)))
    )
)


def _kings_by_definition(patterns, n_max):
    """Every king of length <= n_max, from all permutations filtered by class
    membership, with its counts of the patterns by the definition."""
    hosts = [p for n in range(n_max + 1) for p in permutations(range(1, n + 1))]
    return {host: [occurrences_by_definition(p, host) for p in patterns]
            for host in hosts if in_class(host)}


def _assert_census_matches(counts, patterns, n_max, jobs):
    """The census of ALL and that of each class, against the counts."""
    kings = census(patterns, n_max, KingClass.ALL, jobs)
    for kc in KingClass:
        members = [host for host in counts if in_class(host, kc)]
        own = census(patterns, n_max, kc, jobs)
        for idx, p in enumerate(patterns):
            expected = []
            for n in range(n_max + 1):
                hist = Counter(counts[host][idx] for host in members if len(host) == n)
                expected.append(UPoly(hist[c] for c in range(max(hist, default=0) + 1)))
            assert kings.table(p, kc).rows == tuple(expected), (kc, p)
            assert own.table(p, kc).rows == tuple(expected), (kc, p)


@pytest.mark.parametrize("jobs", [1, 2])
@given(st.lists(_any_pattern, min_size=1, max_size=4, unique=True))
@example(patterns=[MeshPattern((1, 3, 2), frozenset({(0, 2), (1, 1)})),
                   MeshPattern((2, 1), frozenset({(0, 1), (2, 2)}))])
@example(patterns=[MeshPattern((), frozenset()), MeshPattern((1, 2), frozenset({(1, 1), (2, 0)}))])
@example(patterns=[MeshPattern((1, 3, 2), frozenset({(0, 2), (1, 1)}))])
@example(patterns=[MeshPattern((), frozenset())])
@settings(max_examples=6, deadline=None)
def test_census_against_the_definition(jobs, patterns):
    # the walked census, of ALL and of each class, against every permutation
    # filtered by class membership and counted by the definition; the examples
    # put a length-3 pattern and the empty one, which the census counts on
    # the host it reads from the prefix bitsets at each leaf, next to a pair
    # and alone, where a leaf stores the last prefix for them only
    _assert_census_matches(_kings_by_definition(patterns, 7), patterns, 7, jobs)


# every shading of the single, and two pairs of each tau beside them
_SINGLES = [
    MeshPattern((1,), frozenset(shaded))
    for r in range(5)
    for shaded in combinations([(0, 0), (0, 1), (1, 0), (1, 1)], r)
]
_PAIRS = [
    MeshPattern((1, 2), frozenset()),
    MeshPattern((1, 2), frozenset({(0, 0), (1, 1), (2, 2)})),
    MeshPattern((2, 1), frozenset({(1, 1)})),
    MeshPattern((2, 1), frozenset({(0, 2), (1, 0), (2, 1)})),
]


@pytest.fixture(scope="module")
def singles_and_pairs_by_definition():
    return _kings_by_definition(_SINGLES + _PAIRS, 8)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("with_pairs", [False, True], ids=["singles", "singles_and_pairs"])
def test_single_table_against_the_definition(singles_and_pairs_by_definition, jobs, with_pairs):
    # the singles alone take their hits from the table only; with the pairs,
    # each node adds the table's hits and the pair loop's
    patterns = _SINGLES + _PAIRS if with_pairs else _SINGLES
    _assert_census_matches(singles_and_pairs_by_definition, patterns, 8, jobs)


# pairs of both taus whose shadings tell the value band below the pair from
# the one above it, or shade the band between: every length-2 catalog pattern
# has tau 12, so these are what read ``down`` at all
_ASYMMETRIC_PAIRS = [
    MeshPattern((2, 1), frozenset({(0, 0), (1, 2)})),
    MeshPattern((2, 1), frozenset({(1, 0), (2, 1)})),
    MeshPattern((2, 1), frozenset({(0, 1), (2, 2)})),
    MeshPattern((1, 2), frozenset({(0, 1), (1, 1)})),
    MeshPattern((1, 2), frozenset({(1, 1), (2, 0)})),
]


@pytest.fixture(scope="module")
def pair_rows_by_definition(singles_and_pairs_by_definition):
    """The rows n <= 8 over ALL of each pair above, by the definition; those
    of ``_PAIRS`` from the counts the singles' fixture already holds."""
    columns = [(_kings_by_definition(_ASYMMETRIC_PAIRS, 8), _ASYMMETRIC_PAIRS, 0),
               (singles_and_pairs_by_definition, _PAIRS, len(_SINGLES))]
    rows = {}
    for counts, pairs, offset in columns:
        for idx, p in enumerate(pairs, offset):
            hists = [Counter() for _ in range(9)]
            for host, found in counts.items():
                hists[len(host)][found[idx]] += 1
            rows[p] = tuple(UPoly(h[c] for c in range(max(h, default=0) + 1)) for h in hists)
    return rows


def test_census_of_increasing_and_decreasing_pairs_against_the_definition(pair_rows_by_definition):
    # in a group, each tau has a member that leaves box (0, 1) unshaded, so
    # the pair loop visits every earlier value on its side of v
    tables = distribution_tables(_ASYMMETRIC_PAIRS, 8)
    for p, table in zip(_ASYMMETRIC_PAIRS, tables):
        assert table.rows == pair_rows_by_definition[p], p


@pytest.mark.parametrize("p", _ASYMMETRIC_PAIRS + _PAIRS, ids=str)
def test_census_of_each_pair_alone_against_the_definition(pair_rows_by_definition, p):
    # alone, a pair that shades box (0, 1) narrows the loop of its tau to
    # the chain of earlier values that can begin a hit (one pair of each
    # tau here); the others still visit every earlier value
    assert distribution_table(p, 8).rows == pair_rows_by_definition[p]


def test_the_walk_counts_each_node_as_the_band_rule_does(monkeypatch):
    # the walk's counter reads the band tables of its length, and a counter
    # of the pattern compiled for no length reads the band rule; one pattern
    # per census, so that both pack its count alone
    nodes = []

    def compiled(patterns, n):
        walked, by_rule = CompiledPatterns(patterns, n=n), CompiledPatterns(patterns)

        def pair_counter(pre):
            hits = CompiledPatterns.pair_counter(walked, pre)
            rule = by_rule.pair_counter(pre)

            def checked(d, v):
                found = hits(d, v)
                # pre[0..d] must add one value per position, from the empty
                # set on, and v must not be among them
                steps = [pre[i + 1] ^ pre[i] for i in range(d)]
                nodes.append(pre[0] == 0 and all(s and not s & s - 1 and pre[i] & s == 0
                                                 for i, s in enumerate(steps))
                             and not pre[d] >> v & 1 and found == rule(d, v))
                return found

            return checked

        walked.pair_counter = pair_counter
        return walked

    monkeypatch.setattr(oracle_mod, "_compiled", compiled)
    for p in _ASYMMETRIC_PAIRS + _PAIRS:
        census([p], 8)
    assert len(nodes) > 10_000 and all(nodes)


@pytest.mark.parametrize("n", range(7))
def test_members_lists_each_subset_in_ascending_order(n):
    # the node's candidates: entry s >> 1 holds the values of the bitset s,
    # in which bit v stands for the value v, smallest first
    table = oracle_mod._members(n)
    assert len(table) == 2**n
    for half, values in enumerate(table):
        s = half << 1
        assert values == tuple(v for v in range(1, n + 1) if s >> v & 1), (n, s)


# a single, a pair of each tau and a pattern of length 3, read at the leaf
_SHORT_WALK_PATTERNS = [
    catalog_pattern("X"),
    catalog_pattern("16"),
    MeshPattern((2, 1), frozenset({(1, 1)})),
    MeshPattern((1, 3, 2), frozenset({(0, 2)})),
]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_the_walk_below_each_first_value_of_a_short_length(n):
    # n = 2 and 3 hold no king; n = 4 is the first length whose first call
    # places the last three entries inline after each of its own values, and
    # n = 5 the first whose first call recurses once first.  With the
    # patterns against the definition, without them against tally_subtree
    field, kings = count_field(_SHORT_WALK_PATTERNS, n), 0
    for first in range(1, n + 1):
        hosts = [host for host in permutations(range(1, n + 1)) if host[0] == first and is_king(host)]
        packed = [sum(occurrences_by_definition(p, host) << field * idx
                      for idx, p in enumerate(_SHORT_WALK_PATTERNS)) for host in hosts]
        expected = Counter(hits << 4 | endpoint_type(host) for host, hits in zip(hosts, packed))
        walked = oracle_mod._walk(CompiledPatterns(_SHORT_WALK_PATTERNS, n=n), n, first)
        assert walked == dict(expected), (n, first)
        assert oracle_mod._walk(CompiledPatterns((), n=n), n, first) == tally_subtree(n, first)
        kings += len(hosts)
    assert kings == [0, 0, 2, 14, 90, 646][n - 2]


def test_the_walk_reads_which_values_may_stand_side_by_side_from_far_rows(monkeypatch):
    # a plant in far_rows, as kings and oracle both bind it, lets 4 and 5
    # stand side by side at n = 7: the walk of no pattern follows it, in its
    # nodes, at w and in the list of the last two entries, as tally_subtree
    # does, and so tallies other hosts than without it
    real = kings_mod.far_rows

    def planted(n):
        far = real(n)
        if n == 7:
            far[4][5] = far[5][4] = True
        return far

    plain = [oracle_mod._walk(CompiledPatterns((), n=7), 7, first) for first in range(1, 8)]
    monkeypatch.setattr(kings_mod, "far_rows", planted)
    monkeypatch.setattr(oracle_mod, "far_rows", planted)
    for first in range(1, 8):
        walked = oracle_mod._walk(CompiledPatterns((), n=7), 7, first)
        assert walked == tally_subtree(7, first) != plain[first - 1], first


def test_positional_width_is_rejected():
    # the width is derived from the length: a second positional argument is
    # neither read as a width nor as a length
    with pytest.raises(TypeError):
        CompiledPatterns([catalog_pattern("X")], 5)


def test_width_derived_from_the_length_is_the_census_width():
    # the bits of one count at each census length n <= 11, as the census
    # passed them by hand: enough for C(n, k) with k the longest length
    catalog_patterns = [e.pattern for e in catalog()]
    singles = [catalog_pattern("X"), catalog_pattern("X'")]
    empty = [MeshPattern((), frozenset())]
    longer = [MeshPattern((2, 3, 1), frozenset()), catalog_pattern("16")]
    widths = {
        "catalog": (catalog_patterns, [0, 1, 2, 2, 3, 4, 4, 5, 5, 6, 6, 6]),
        "singles": (singles, [0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4]),
        "empty": (empty, [1] * 12),
        "none": ([], [0] * 12),
        "longer": (longer, [0, 0, 1, 2, 3, 4, 5, 6, 6, 7, 7, 8]),
    }
    for name, (patterns, expected) in widths.items():
        assert [CompiledPatterns(patterns, n=n).field for n in range(12)] == expected, name
    assert CompiledPatterns(singles).field == 64


def test_empty_host_builds_no_single_table(monkeypatch):
    built = []
    build = CompiledPatterns.single_table
    monkeypatch.setattr(CompiledPatterns, "single_table",
                        lambda self, n: built.append(n) or build(self, n))
    oracle_mod._compiled.cache_clear()
    assert class_total(census([e.pattern for e in catalog()], 0).tallies[0], KingClass.ALL) == 1
    assert built == []


def test_single_table_is_built_once_per_length(monkeypatch):
    built = []
    build = CompiledPatterns.single_table
    monkeypatch.setattr(CompiledPatterns, "single_table",
                        lambda self, n: built.append(n) or build(self, n))
    oracle_mod._compiled.cache_clear()
    census([e.pattern for e in catalog()], 8, jobs=1)
    # the empty host and the host (1,) are counted directly, without one
    assert sorted(built) == list(range(2, 9))


def test_band_tables_are_built_once_per_length(monkeypatch):
    built = []
    build = CompiledPatterns.pair_rows
    monkeypatch.setattr(CompiledPatterns, "pair_rows",
                        lambda self, n: built.append(n) or build(self, n))
    oracle_mod._compiled.cache_clear()
    census([e.pattern for e in catalog()], 8, jobs=1)
    assert sorted(built) == list(range(2, 9))


# The four kings of length 11 with three singleton components in their
# direct-sum decomposition: 1 + B1 + 1 + B2 + 1 with B1, B2 in {2413, 3142}.
_THREE_SINGLETONS_AT_11 = [
    (1, *(1 + v for v in b1), 6, *(6 + v for v in b2), 11)
    for b1 in ((2, 4, 1, 3), (3, 1, 4, 2))
    for b2 in ((2, 4, 1, 3), (3, 1, 4, 2))
]


def test_pattern_33_counts_each_pair_of_singleton_components():
    # an occurrence of 33 is two singleton components, so a king with f of
    # them holds C(f, 2): three here, by the definition and by the kernel
    p = catalog_pattern("33")
    for host in _THREE_SINGLETONS_AT_11:
        assert in_class(host)
        assert occurrences_by_definition(p, host) == count_occurrences(p, host) == 3


@pytest.mark.xfail(
    strict=True,
    reason="E:33 grows like f - 1 singleton components, not C(f, 2): see the FOUND "
           "line on E:33 in CHANGES.md",
)
def test_pattern_33_distribution_at_11():
    # the census row of n = 11; the closed form gives 4u^2 for the four kings above
    assert distribution_series("33", 11).coeff(11) == parse_upoly("5257936+38850u+4u^3")
