"""Mesh patterns: parsing, catalog, and occurrence semantics.

``reference.occurrences_by_definition`` is an independent literal
transcription of the shaded-region definition; the production counter must
agree with it everywhere it is feasible to compare.
"""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kingmesh.mesh as mesh_mod
from kingmesh.kings import complement, enumerate_kings, is_king, reverse
from kingmesh.mesh import (
    KING_CROSS_DOWN,
    KING_CROSS_UP,
    BandRule,
    CatalogEntry,
    CompiledPatterns,
    MeshPattern,
    PatternSyntaxError,
    avoids,
    band_table,
    catalog,
    catalog_pattern,
    count_occurrences,
    occurrence_counts,
    parse_pattern,
    render_pattern,
)
from reference import occurrences_by_definition


# every tau of length 0..3: (), (1), (1,2), (2,1) and the six of length 3
TAUS = [tau for k in range(4) for tau in permutations(range(1, k + 1))]


def _patterns(tau):
    k = len(tau)
    boxes = st.sets(st.tuples(st.integers(0, k), st.integers(0, k)))
    return boxes.map(lambda shaded: MeshPattern(tau, frozenset(shaded)))


_hosts = st.integers(0, 7).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)
# patterns of length 0..3, each length equally likely
_short_patterns = (
    st.integers(0, 3).flatmap(lambda k: st.permutations(range(1, k + 1))).map(tuple)
    .flatmap(_patterns)
)


def _reversed_pattern(p: MeshPattern) -> MeshPattern:
    k = p.length
    return MeshPattern(reverse(p.tau), frozenset((k - i, j) for i, j in p.shaded))


def _complemented_pattern(p: MeshPattern) -> MeshPattern:
    k = p.length
    return MeshPattern(complement(p.tau), frozenset((i, k - j) for i, j in p.shaded))


def _inverse(perm) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for pos, value in enumerate(perm, 1):
        inv[value - 1] = pos
    return tuple(inv)


def _inverted_pattern(p: MeshPattern) -> MeshPattern:
    # the diagonal reflection swaps positions with values, so box (i, j) goes to (j, i)
    return MeshPattern(_inverse(p.tau), frozenset((j, i) for i, j in p.shaded))


def _shading_lemma_boxes(p: MeshPattern):
    """The boxes (i, tau(i)) north-east of a point of p that the Shading Lemma
    lets one shade without changing the avoiders (Hilmarsson et al.,
    *Wilf-classification of mesh patterns of short length*, EJC 22(4), 2015,
    Lemma 11)."""
    k, shaded = p.length, p.shaded
    for i, j in enumerate(p.tau, 1):
        if (i, j) in shaded or (i - 1, j - 1) in shaded:
            continue
        if (i, j - 1) in shaded and (i - 1, j) in shaded:
            continue
        # a box beside the point's row or column shaded only if its
        # neighbour across the point's line is shaded too
        if any((m, j - 1) in shaded and (m, j) not in shaded
               for m in range(k + 1) if m not in (i - 1, i)):
            continue
        if any((i - 1, m) in shaded and (i, m) not in shaded
               for m in range(k + 1) if m not in (j - 1, j)):
            continue
        yield i, j


# patterns of length 1..3 with each box shaded about half the time, so that
# the lemma's conditions on neighbouring boxes are often in play
_half_shaded_patterns = st.integers(1, 3).flatmap(
    lambda k: st.builds(
        lambda tau, mask: MeshPattern(
            tau, frozenset(divmod(b, k + 1) for b in range((k + 1) ** 2) if mask >> b & 1)
        ),
        st.permutations(range(1, k + 1)),
        st.integers(0, (1 << (k + 1) ** 2) - 1),
    )
)

# the symmetries that carry the north-east box of a point to the other three
_CORNER_FLIPS = (
    lambda p: p,
    _reversed_pattern,
    _complemented_pattern,
    lambda p: _reversed_pattern(_complemented_pattern(p)),
)


class TestCatalog:
    def test_shape(self):
        entries = catalog()
        assert len(entries) == 32
        assert all(isinstance(e, CatalogEntry) for e in entries)
        assert len({e.ident for e in entries}) == 32

    def test_known_entries(self):
        assert catalog_pattern("10").shaded == frozenset(
            {(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)}
        )
        assert catalog_pattern("11").shaded == frozenset(
            (i, j) for i in range(3) for j in range(3)
        )
        assert catalog_pattern("16") == MeshPattern(
            (1, 2), frozenset({(0, 1), (0, 2), (1, 0), (2, 0)})
        )
        assert catalog_pattern("X'") == MeshPattern((1,), frozenset({(0, 0), (1, 1)}))

    def test_lookup_errors(self):
        with pytest.raises(KeyError, match="no catalog pattern '999'"):
            catalog_pattern("999")
        assert catalog_pattern(16) == catalog_pattern("16")


class TestPatternType:
    def test_validation(self):
        for tau, shaded, message in [
            ((1, 3), (), r"tau is not a permutation of 1\.\.2: \(1, 3\)"),
            ((1, 1), (), r"tau is not a permutation of 1\.\.2: \(1, 1\)"),
            ((0, 1), (), r"tau is not a permutation of 1\.\.2: \(0, 1\)"),
            ((1, 2), [(3, 0)], r"box \(3, 0\) outside \[0,2\]x\[0,2\]"),
            ((1, 2), [(0, 3)], r"box \(0, 3\) outside \[0,2\]x\[0,2\]"),
            ((1,), [(-1, 0)], r"box \(-1, 0\) outside \[0,1\]x\[0,1\]"),
        ]:
            with pytest.raises(ValueError, match=message):
                MeshPattern(tau, shaded)
            with pytest.raises(ValueError, match=message):
                MeshPattern(tau=list(tau), shaded=frozenset(shaded))
            with pytest.raises(ValueError, match=message):
                MeshPattern(range(1, len(tau) + 1), ())._replace(tau=tau, shaded=shaded)
        p = MeshPattern((1, 2), frozenset({(0, 0)}))
        assert p.length == 2
        # any iterables are normalised to a tuple and a frozenset of int pairs
        q = MeshPattern(tau=[1, 2], shaded=[[0, 0], (0, 0)])
        assert (q.tau, q.shaded, q) == ((1, 2), frozenset({(0, 0)}), p)

    def test_hashable(self):
        assert len({catalog_pattern("16"), parse_pattern("nr:16")}) == 1
        built = MeshPattern([1, 2], [[2, 0], (1, 0), (0, 2), (0, 1)])
        parsed = parse_pattern("mesh(2;12;{(2,0),(1,0),(0,2),(0,1)})")
        assert hash(built) == hash(parsed) == hash(catalog_pattern("16"))
        by_pattern = {catalog_pattern("16"): "16"}
        assert (by_pattern[built], by_pattern[parsed]) == ("16", "16")
        assert MeshPattern((2, 1), built.shaded) not in by_pattern


class TestParser:
    def test_round_trip_whole_catalog(self):
        for e in catalog():
            assert parse_pattern(render_pattern(e.pattern)) == e.pattern

    def test_nr_form(self):
        assert parse_pattern("nr:16") == catalog_pattern("16")
        assert parse_pattern("nr:X'") == catalog_pattern("X'")
        assert parse_pattern(" nr: 10 ") == catalog_pattern("10")

    def test_whitespace_insensitive(self):
        assert parse_pattern("mesh( 2 ; 12 ; { (0,1) , (1,0) } )") == MeshPattern(
            (1, 2), frozenset({(0, 1), (1, 0)})
        )

    def test_empty_pattern_round_trip(self):
        # the length-0 pattern renders with an empty tau, "mesh(0;;{...})"
        for shaded in (frozenset(), frozenset({(0, 0)})):
            p = MeshPattern((), shaded)
            assert parse_pattern(render_pattern(p)) == p

    def test_empty_box_set(self):
        assert parse_pattern("mesh(2;12;{})") == MeshPattern((1, 2), frozenset())

    def test_multidigit_tau(self):
        p = MeshPattern(tuple(range(10, 0, -1)), frozenset({(10, 10)}))
        text = render_pattern(p)
        assert ";10;9;" in text
        assert parse_pattern(text) == p

    @given(st.integers(0, 12).flatmap(lambda k: st.permutations(range(1, k + 1))).map(tuple)
           .flatmap(_patterns))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_up_to_length_12(self, p):
        # a digit-string tau through k = 9, a ";"-separated one past it
        assert parse_pattern(render_pattern(p)) == p

    def test_duplicate_boxes_collapse(self):
        assert parse_pattern("mesh(2;12;{(0,1),(0,1)})").shaded == frozenset({(0, 1)})

    @pytest.mark.parametrize(
        "bad, position, message",
        [
            pytest.param(bad, position, message, id=bad)
            for bad, position, message in [
                ("mesh(2;12;{(3,0)})", 12, "box (3,0) outside [0,2]x[0,2]"),
                ("mesh(2;12;{(0,1),( 3,0)})", 19, "box (3,0) outside [0,2]x[0,2]"),
                ("mesh(2;13;{})", 7, "tau (1, 3) is not a permutation of 1..2"),
                ("mesh(2;11;{})", 7, "tau (1, 1) is not a permutation of 1..2"),
                ("mesh(1;1;{(0,2)})", 11, "box (0,2) outside [0,1]x[0,1]"),
                ("mesh( 2 ; 13 ; {})", 10, "tau (1, 3) is not a permutation of 1..2"),
                ("mesh(2;12;{(0,0)", 16, "expected '}'"),  # unclosed braces
                ("mesh(x;12;{})", 5, "expected an integer"),
                ("nr:999", 3, "unknown catalog identifier '999'"),
                ("nr:  ", 5, "missing catalog identifier"),
                ("mesh(2;12;{(0,0),})", 17, "expected '('"),  # dangling comma
                ("grid(2;12;{})", 0, "expected 'mesh'"),
                ("mesh(2;112;{})", 7, "expected 2 pattern values, got 3"),
                ("mesh(2;012;{})", 7, "expected 2 pattern values, got 3"),
                ("mesh(2;1 2;{})", 7, "expected 2 pattern values, got 1"),
                ("mesh(2;12;{(0,-1)})", 14, "expected an integer"),
                ("mesh(2;12;(0,0))", 10, "expected '{'"),  # boxes must be braced
                ("mesh(2;12;{}) x", 14, "trailing input"),
                ("", 0, "expected 'mesh'"),
            ]
        ],
    )
    def test_malformed_inputs_rejected_with_position(self, bad, position, message):
        # the position is the offset of the offending token
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern(bad)
        assert (err.value.position, str(err.value)) == (
            position, f"{message} (at position {position})"
        )


class TestCounting:
    def test_strong_point_examples(self):
        x = catalog_pattern("X")
        assert count_occurrences(x, (1, 3, 5, 2, 4)) == 1
        assert count_occurrences(x, (1,)) == 1
        assert not avoids(x, (1,))
        assert count_occurrences(x, ()) == 0

    def test_outer_pair_pattern(self):
        ten = catalog_pattern("10")
        assert count_occurrences(ten, (2, 4, 1, 3)) == 1
        assert count_occurrences(ten, (3, 1, 4, 2)) == 0

    def test_pattern_12_needs_leading_smallest(self):
        twelve = catalog_pattern("12")
        assert avoids(twelve, (2, 4, 1, 3))
        assert count_occurrences(twelve, (1, 3, 5, 2, 4)) == 4

    def test_unavoidable_free_patterns_on_kings(self):
        for ident in ("11", "14"):
            p = catalog_pattern(ident)
            for n in range(7):
                assert all(avoids(p, s) for s in enumerate_kings(n))

    def test_unshaded_increasing_pair_counts_non_inversions(self):
        bare = MeshPattern((1, 2), frozenset())
        for n in range(7):
            for s in permutations(range(1, n + 1)):
                expected = sum(
                    1
                    for i in range(n)
                    for j in range(i + 1, n)
                    if s[i] < s[j]
                )
                assert count_occurrences(bare, s) == expected

    def test_against_reference_on_all_hosts_up_to_5(self):
        pats = [e.pattern for e in catalog()]
        for n in range(6):
            for s in permutations(range(1, n + 1)):
                got = occurrence_counts(pats, s)
                for p, g in zip(pats, got):
                    assert g == occurrences_by_definition(p, s), (p, s)

    @given(
        st.integers(min_value=0, max_value=6),
        st.sets(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=9
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_against_reference_on_random_patterns(self, n, boxes, rng):
        values = list(range(1, n + 1))
        rng.shuffle(values)
        host = tuple(values)
        p = MeshPattern((1, 2), frozenset(boxes))
        assert count_occurrences(p, host) == occurrences_by_definition(p, host)

    @pytest.mark.parametrize("tau", TAUS, ids=lambda tau: "".join(map(str, tau)) or "empty")
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_compiled_kernels_against_reference(self, tau, data):
        # one pattern with this tau, mixed with a few of any tau, compiled once
        # and reused across hosts
        pats = [data.draw(_patterns(tau))]
        pats += data.draw(st.lists(st.sampled_from(TAUS).flatmap(_patterns), max_size=4))
        compiled = CompiledPatterns(pats)
        for host in data.draw(st.lists(_hosts, min_size=1, max_size=4)):
            expected = [occurrences_by_definition(p, host) for p in pats]
            assert occurrence_counts(compiled, host) == expected, host
            assert [avoids(p, host) for p in pats] == [c == 0 for c in expected], host

    def test_a_host_longer_than_the_compiled_n_is_refused(self):
        # the counts of 1..9 would overflow the fields sized for n = 5
        pats = [MeshPattern((1, 2), frozenset()), catalog_pattern("X")]
        with pytest.raises(ValueError, match="a host of length 9 is longer than the n = 5"):
            occurrence_counts(CompiledPatterns(pats, n=5), tuple(range(1, 10)))
        assert occurrence_counts(CompiledPatterns(pats, n=9), tuple(range(1, 10))) == [36, 9]

    def test_band_tables_against_the_three_band_tests(self):
        # each code says which of the bands below a, between a and b and above
        # b hold a value of the set c, in the table as by the rule
        for n in range(9):
            for a, b in combinations(range(1, n + 1), 2):
                table, rule = band_table(a, b, n), BandRule(a, b)
                assert len(table) == 2 << n
                for c in range(0, 2 << n, 2):
                    values = [w for w in range(1, n + 1) if c >> w & 1]
                    expected = (any(w < a for w in values)
                                | any(a < w < b for w in values) << 1
                                | any(w > b for w in values) << 2)
                    assert table[c] == rule[c] == expected, (n, a, b, c)

    def test_a_long_host_is_counted_by_the_band_rule(self, monkeypatch):
        # patterns compiled for no length build no table that grows like 2^n
        def refused(a, b, n):
            raise AssertionError(f"band table of length {n}")

        monkeypatch.setattr(mesh_mod, "band_table", refused)
        mesh_mod._compiled.cache_clear()
        host = list(range(1, 41))
        random.Random(40).shuffle(host)
        pats = [
            catalog_pattern("3"),
            catalog_pattern("5"),
            MeshPattern((1, 2), frozenset()),
            MeshPattern((2, 1), frozenset({(1, 1)})),
            MeshPattern((2, 1), frozenset({(0, 0), (1, 2)})),
        ]
        counts = [count_occurrences(p, host) for p in pats]
        assert counts == [occurrences_by_definition(p, host) for p in pats]
        assert all(counts)

    def test_a_host_that_is_not_a_permutation_is_refused(self):
        with pytest.raises(ValueError, match=r"the host \(2, 3, 4\) is not a permutation of 1\.\.3"):
            count_occurrences(catalog_pattern("X"), (2, 3, 4))

    def test_batched_matches_single(self):
        pats = [e.pattern for e in catalog()]
        for s in enumerate_kings(6):
            batched = occurrence_counts(pats, s)
            assert batched == [count_occurrences(p, s) for p in pats]

    def test_generic_longer_pattern(self):
        # length-3 patterns exercise the generic path
        p = MeshPattern((1, 3, 2), frozenset({(1, 1)}))
        host = (2, 1, 4, 3)
        assert count_occurrences(p, host) == occurrences_by_definition(p, host)
        q = MeshPattern((1, 2, 3), frozenset())
        assert count_occurrences(q, (1, 2, 3, 4)) == 4

    @given(_short_patterns, _hosts)
    @settings(max_examples=300, deadline=None)
    def test_reverse_and_complement_symmetries(self, p, host):
        # each symmetry of the square maps the occurrences of p in the image
        # of a host one to one onto those of the image of p in the host
        assert count_occurrences(p, reverse(host)) == count_occurrences(
            _reversed_pattern(p), host
        )
        assert count_occurrences(p, complement(host)) == count_occurrences(
            _complemented_pattern(p), host
        )
        # the inverse exchanges the position bands with the value bands, which
        # the region masks of the counting kernels keep apart
        assert count_occurrences(p, _inverse(host)) == count_occurrences(
            _inverted_pattern(p), host
        )

    @given(_half_shaded_patterns, st.lists(_hosts, min_size=10, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_shading_lemma_coincidences(self, p, hosts):
        # each flip is an involution: it takes a box the lemma allows in the
        # flipped pattern back to the matching box beside a point of p
        for flip in _CORNER_FLIPS:
            q = flip(p)
            for box in _shading_lemma_boxes(q):
                bigger = flip(MeshPattern(q.tau, q.shaded | {box}))
                for host in hosts:
                    assert avoids(p, host) == avoids(bigger, host), (bigger, host)

    def test_each_pattern_compiled_once(self, monkeypatch):
        compiled = Counter()
        init = CompiledPatterns.__init__

        def counting_init(self, patterns):
            init(self, patterns)
            compiled.update(self.patterns)

        monkeypatch.setattr(CompiledPatterns, "__init__", counting_init)
        mesh_mod._compiled.cache_clear()
        pats = [e.pattern for e in catalog()] + [KING_CROSS_UP, KING_CROSS_DOWN]
        for n in range(8):
            for s in enumerate_kings(n):
                for p in pats:
                    count_occurrences(p, s)
                    avoids(p, s)
        assert set(compiled) == set(pats)
        assert max(compiled.values()) == 1

    def test_a_pattern_list_is_compiled_once_for_many_hosts(self, monkeypatch):
        built = []
        init = CompiledPatterns.__init__

        def counting_init(self, patterns):
            init(self, patterns)
            built.append(self.patterns)

        monkeypatch.setattr(CompiledPatterns, "__init__", counting_init)
        mesh_mod._compiled.cache_clear()
        pats = [e.pattern for e in catalog()]
        for s in enumerate_kings(7):
            occurrence_counts(pats, s)
        assert built == [tuple(pats)]

    def test_monotone_in_shading(self):
        # adding a shaded box never increases the count
        kings6 = list(enumerate_kings(6))
        for e in catalog():
            k = e.pattern.length
            missing = [
                b
                for b in ((i, j) for i in range(k + 1) for j in range(k + 1))
                if b not in e.pattern.shaded
            ]
            for box in missing:
                bigger = MeshPattern(e.pattern.tau, e.pattern.shaded | {box})
                for s in kings6:
                    assert count_occurrences(bigger, s) <= count_occurrences(
                        e.pattern, s
                    )


class TestKingCharacterization:
    def test_crosses_characterize_kings(self):
        for n in range(7):
            for s in permutations(range(1, n + 1)):
                expected = is_king(s)
                got = avoids(KING_CROSS_UP, s) and avoids(KING_CROSS_DOWN, s)
                assert expected == got, s
