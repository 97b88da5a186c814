"""King permutations: predicates, symmetries, enumeration, counting."""

import sys
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kingmesh.kings as kings_mod
import kingmesh.oracle as oracle_mod
from kingmesh.kings import (
    CLASS_TYPES,
    KingClass,
    class_total,
    complement,
    count_class,
    count_kings,
    endpoint_type,
    enumerate_kings,
    first_values,
    in_class,
    is_king,
    reduced,
    reverse,
    tally_subtree,
)
from kingmesh.oracle import census
from kingmesh.transfer import type_counts

# the sequence 1, 1, 0, 0, 2, 14, ... of king-permutation counts
KING_COUNTS = [1, 1, 0, 0, 2, 14, 90, 646, 5242, 47622, 479306, 5296790]


def test_is_king():
    assert is_king((2, 4, 1, 3))
    assert not is_king((1, 2, 3, 4))
    assert is_king(())
    assert is_king((1,))
    assert not is_king((2, 1))


@given(st.lists(st.integers(min_value=-4, max_value=4), max_size=9), st.booleans())
@settings(max_examples=300, deadline=None)
def test_is_king_is_the_written_out_rule(entries, as_tuple):
    # a narrow range of values, so that repeats and neighbours are common
    p = tuple(entries) if as_tuple else entries
    assert is_king(p) == all(abs(a - b) > 1 for a, b in zip(p, p[1:]))


def test_reverse_complement_reduced():
    assert reverse((2, 4, 3, 1)) == (1, 3, 4, 2)
    assert complement((2, 4, 3, 1)) == (3, 1, 2, 4)
    assert reverse(complement((2, 4, 3, 1))) == (4, 2, 1, 3)
    assert reduced((2, 6, 4, 8)) == (1, 3, 2, 4)
    assert reduced(()) == ()
    with pytest.raises(ValueError):
        reduced((1, 1))


def test_in_class_conventions():
    # length 1 begins with its smallest and ends with its largest element
    assert in_class((2, 4, 1, 3), KingClass.S)
    assert not in_class((1,), KingClass.S)
    assert not in_class((1,), KingClass.L)
    assert not in_class((1,), KingClass.LS)
    assert in_class((), KingClass.SL)
    assert in_class((), KingClass.LS)
    assert not in_class((1, 2), KingClass.ALL)  # not king at all


def test_ls_is_complement_image_of_sl():
    for n in range(9):
        for p in enumerate_kings(n):
            assert in_class(p, KingClass.LS) == in_class(complement(p), KingClass.SL)


def test_enumerate_small():
    assert sorted(enumerate_kings(4)) == [(2, 4, 1, 3), (3, 1, 4, 2)]
    assert list(enumerate_kings(2)) == []
    assert list(enumerate_kings(3)) == []
    assert list(enumerate_kings(0)) == [()]
    assert list(enumerate_kings(1)) == [(1,)]
    assert list(enumerate_kings(1, KingClass.S)) == []


def test_enumerate_yields_distinct_class_members():
    for n in range(8):
        for kc in KingClass:
            members = list(enumerate_kings(n, kc))
            assert len(set(members)) == len(members)
            assert all(in_class(p, kc) for p in members)


def test_enumerate_matches_filtering():
    for n in range(8):
        everyone = set(enumerate_kings(n))
        for kc in KingClass:
            assert set(enumerate_kings(n, kc)) == {
                p for p in everyone if in_class(p, kc)
            }


# The end conditions of each class as the KingClass docstring states them.
LITERAL_ENDS = {
    KingClass.ALL: lambda p, n: True,
    KingClass.S: lambda p, n: p[0] != 1,
    KingClass.L: lambda p, n: p[-1] != n,
    KingClass.SL: lambda p, n: p[0] != 1 and p[-1] != n,
    KingClass.LS: lambda p, n: p[0] != n and p[-1] != 1,
}


@pytest.mark.parametrize("kc", list(KingClass))
def test_class_rule_matches_its_literal_definition(kc):
    # every route reads one endpoint-type table; here each is held against
    # the definition written out over all permutations, adjacency included
    members = census((), 7)
    for n in range(8):
        literal = [
            p for p in permutations(range(1, n + 1))
            if all(abs(a - b) > 1 for a, b in zip(p, p[1:])) and (not p or LITERAL_ENDS[kc](p, n))
        ]
        assert sorted(enumerate_kings(n, kc)) == literal, n
        assert [p for p in permutations(range(1, n + 1)) if in_class(p, kc)] == literal, n
        assert count_class(n, kc, "enumerate") == len(literal), n
        assert class_total(members.tallies[n], kc) == len(literal), n
        if n:  # every member's first value is walked, and from n = 5 on each begins one
            firsts = sorted({p[0] for p in literal})
            assert set(firsts) <= set(first_values(n, kc)), n
            assert n < 5 or first_values(n, kc) == firsts, n


def test_class_sizes_at_5():
    assert count_class(5, KingClass.S) == 12
    assert count_class(5, KingClass.SL) == 10
    assert count_class(5, KingClass.S) == count_class(5, KingClass.L)


def test_closure_under_symmetries():
    for n in range(9):
        kings = set(enumerate_kings(n))
        for p in kings:
            assert reverse(p) in kings
            assert complement(p) in kings
            assert reverse(complement(p)) in kings


def test_class_bijection_s_vs_l():
    for n in range(11):
        assert count_class(n, KingClass.S) == count_class(n, KingClass.L)


def test_class_count_identities():
    # S-class counts satisfy |S_n| = A_n - |S_{n-1}|; SL follows its own series
    from kingmesh.gfs import class_series

    c = class_series(KingClass.SL, 10)
    prev = count_class(0, KingClass.S)
    for n in range(1, 11):
        s_n = count_class(n, KingClass.S)
        assert s_n == count_kings(n) - prev
        prev = s_n
        assert count_class(n, KingClass.SL) == c.coeff(n).evaluate(0)


@pytest.mark.parametrize("method", ["recurrence", "explicit", "gf", "enumerate"])
def test_counts_against_known_values(method):
    for n in range(len(KING_COUNTS)):
        assert count_kings(n, method) == KING_COUNTS[n]


@pytest.mark.parametrize("method", ["recurrence", "explicit", "gf", "enumerate"])
def test_count_kings_is_the_count_of_the_unrestricted_class(method):
    for n in range(10):
        assert count_kings(n, method) == count_class(n, "all", method), n


@pytest.mark.parametrize("method", ["recurrence", "explicit", "gf", "enumerate"])
@pytest.mark.parametrize("king_class", ["all", "sl"])
def test_a_length_no_series_can_hold_is_refused_by_every_method(method, king_class):
    # the explicit sum raised OverflowError at such an n, and the recurrence
    # never ended; the bound is checked before the class and the method
    n = sys.maxsize
    with pytest.raises(ValueError, match=f"^order {n} is above the largest series order, {n - 1}$"):
        count_class(n, king_class, method)


def test_all_methods_agree_at_7():
    values = {m: count_kings(7, m) for m in ("recurrence", "explicit", "gf", "enumerate")}
    assert set(values.values()) == {646}


def test_recurrence_matches_explicit_to_40():
    for n in range(41):
        assert count_kings(n, "recurrence") == count_kings(n, "explicit")


def test_recurrence_needs_no_recursion_depth():
    # far past the interpreter's default recursion limit of 1000
    value = count_kings(3000)
    assert value > 0
    assert value % 2 == 0  # reverse pairs each member with a different one


def test_count_rejects_bad_input():
    with pytest.raises(ValueError):
        count_kings(-1)
    with pytest.raises(ValueError):
        count_kings(5, "magic")
    with pytest.raises(ValueError):
        count_class(5, KingClass.S, "recurrence")


# the enumerate cases keep the plain class ids
@pytest.mark.parametrize("kc, method", [
    *(pytest.param(kc, "enumerate", id=kc.value) for kc in KingClass),
    *(pytest.param(kc, "gf", id=f"{kc.value}-gf") for kc in KingClass),
])
def test_count_class_rejects_negative_length(kc, method):
    with pytest.raises(ValueError, match="n must be nonnegative"):
        count_class(-1, kc, method)


@pytest.mark.parametrize("method", ["recurrence", "explicit"])
def test_restricted_class_error_names_the_methods_that_count_it(method):
    with pytest.raises(ValueError) as info:
        count_class(5, KingClass.SL, method)
    assert str(info.value) == (
        f"method {method!r} counts only the unrestricted class; "
        "gf and enumerate count restricted classes"
    )


@given(st.integers(min_value=0, max_value=7))
@settings(deadline=None)
def test_enumeration_size_matches_recurrence(n):
    assert sum(1 for _ in enumerate_kings(n)) == count_kings(n)


def test_unknown_method_lists_the_four_methods():
    # a restricted class is told the method is unknown, not that it counts ALL only
    for kc in KingClass:
        with pytest.raises(ValueError) as info:
            count_class(5, kc, "magic")
        assert str(info.value) == (
            "unknown method 'magic'; expected one of ('recurrence', 'explicit', 'gf', 'enumerate')"
        ), kc
    with pytest.raises(ValueError, match=r"expected one of \('recurrence', 'explicit', 'gf', 'enumerate'\)"):
        count_kings(5, "bogus")


@pytest.mark.parametrize("kc", list(KingClass))
def test_tally_subtree_matches_the_stream(kc):
    # the counting walk against the streamed class members, grouped by first
    # value and endpoint type: n <= 4 takes the walk's plain path, n = 5
    # starts in its five-entry tail and n = 6, 7 just above it; the walk
    # counts every king, the class reads its types
    for n in range(1, 10):
        streamed = {first: Counter() for first in range(1, n + 1)}
        for p in enumerate_kings(n, kc):
            streamed[p[0]][endpoint_type(p)] += 1
        for first in range(1, n + 1):
            walked = {t: hosts for t, hosts in tally_subtree(n, first).items() if t in CLASS_TYPES[kc]}
            assert walked == streamed[first], (n, first)


def test_tally_subtree_holds_only_the_types_that_occur():
    # no type is listed with zero hosts, nor in the tallies of a census of
    # no pattern, which the census's walk takes
    for n in range(1, 10):
        for first in range(1, n + 1):
            assert 0 not in tally_subtree(n, first).values(), (n, first)
    kings = census((), 9)
    for n, tally in enumerate(kings.tallies):
        assert 0 not in tally.values(), n
        assert dict(tally) == dict(Counter(map(endpoint_type, enumerate_kings(n)))), n


@pytest.mark.parametrize("kc", list(KingClass))
def test_enumerate_kings_runs_in_lexicographic_order(kc):
    # the stream's order, not only its members: list and the tests read it
    for n in range(9):
        literal = [
            p for p in permutations(range(1, n + 1))
            if all(abs(a - b) > 1 for a, b in zip(p, p[1:])) and (not p or LITERAL_ENDS[kc](p, n))
        ]
        assert list(enumerate_kings(n, kc)) == literal, n


def test_census_without_patterns_counts_every_length():
    # every length of a pattern-free census is walked, not streamed, by the
    # census's own walk on two workers: its tallies are the state counts
    kings = census((), 11, jobs=2)
    assert [dict(tally) for tally in kings.tallies] == [type_counts(n) for n in range(12)]
    assert [class_total(kings.tallies[n], KingClass.ALL) for n in range(12)] == KING_COUNTS
    for kc in (KingClass.S, KingClass.L, KingClass.SL, KingClass.LS):
        assert [class_total(kings.tallies[n], kc) for n in range(12)] == [
            count_class(n, kc, "gf") for n in range(12)
        ], kc


def test_counting_by_enumeration_walks_below_the_first_values_of_its_class(monkeypatch):
    # one counting walk per first value the class allows at length 7, none
    # with first value 1, which begins no member of SL; n = 0 walks nothing,
    # and the oracle's tally, which compiles patterns, is never called
    walked = []
    tally = kings_mod.tally_subtree
    monkeypatch.setattr(kings_mod, "tally_subtree",
                        lambda n, first: walked.append((n, first)) or tally(n, first))
    monkeypatch.setattr(oracle_mod, "_tally", None)
    assert count_class(7, "sl", "enumerate") == 500
    assert walked == [(7, first) for first in first_values(7, "sl")]
    assert walked == [(7, first) for first in range(2, 8)]
    walked.clear()
    assert count_kings(7, "enumerate") == 646
    assert walked == [(7, first) for first in range(1, 8)]
    walked.clear()
    assert [count_class(0, kc, "enumerate") for kc in KingClass] == [1] * 5
    assert walked == []
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        count_class(-1, "sl", "enumerate")


@pytest.mark.parametrize("kc", [KingClass.S, KingClass.L, KingClass.SL, KingClass.LS])
def test_class_enumerate_matches_gf_to_10(kc):
    for n in range(11):
        assert count_class(n, kc, "enumerate") == count_class(n, kc, "gf"), n
