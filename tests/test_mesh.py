"""Mesh patterns: parsing, catalog, and occurrence semantics.

``_reference_count`` below is an independent literal transcription of the
shaded-region definition (scan every element for every box); the production
counter must agree with it everywhere it is feasible to compare.
"""

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
    OPEN_IDS,
    SOLVED_IDS,
    CatalogEntry,
    CompiledPatterns,
    MeshPattern,
    PatternSyntaxError,
    avoids,
    catalog,
    catalog_entry,
    catalog_pattern,
    count_occurrences,
    occurrence_counts,
    parse_pattern,
    render_pattern,
)


def _reference_count(pattern: MeshPattern, perm) -> int:
    """Slow literal implementation of the occurrence definition."""
    n = len(perm)
    k = pattern.length
    total = 0
    for positions in combinations(range(1, n + 1), k):
        values = [perm[q - 1] for q in positions]
        rank = {v: i + 1 for i, v in enumerate(sorted(values))}
        if tuple(rank[v] for v in values) != pattern.tau:
            continue
        qs = (0,) + positions + (n + 1,)
        rs = (0,) + tuple(sorted(values)) + (n + 1,)
        ok = True
        for (i, j) in pattern.shaded:
            for pos in range(1, n + 1):
                if qs[i] < pos < qs[i + 1] and rs[j] < perm[pos - 1] < rs[j + 1]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


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


class TestCatalog:
    def test_shape(self):
        entries = catalog()
        assert len(entries) == 32
        assert [e.ident for e in entries if e.status == "solved"] == list(SOLVED_IDS)
        assert [e.ident for e in entries if e.status == "open"] == list(OPEN_IDS)
        assert len(SOLVED_IDS) == 22
        assert OPEN_IDS == ("3", "5", "8", "9", "15", "18", "21", "56", "65", "66")

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
        with pytest.raises(KeyError):
            catalog_pattern("999")
        assert isinstance(catalog_entry(16), CatalogEntry)


class TestPatternType:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeshPattern((1, 3), frozenset())
        with pytest.raises(ValueError):
            MeshPattern((1, 2), frozenset({(3, 0)}))
        p = MeshPattern((1, 2), frozenset({(0, 0)}))
        assert p.length == 2

    def test_hashable(self):
        assert len({catalog_pattern("16"), parse_pattern("nr:16")}) == 1


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

    def test_empty_box_set(self):
        assert parse_pattern("mesh(2;12;{})") == MeshPattern((1, 2), frozenset())

    def test_multidigit_tau(self):
        p = MeshPattern(tuple(range(10, 0, -1)), frozenset({(10, 10)}))
        text = render_pattern(p)
        assert ";10;9;" in text
        assert parse_pattern(text) == p

    def test_duplicate_boxes_collapse(self):
        assert parse_pattern("mesh(2;12;{(0,1),(0,1)})").shaded == frozenset({(0, 1)})

    @pytest.mark.parametrize(
        "bad",
        [
            "mesh(2;12;{(3,0)})",  # box out of range
            "mesh(2;13;{})",  # tau is not a permutation
            "mesh(2;12;{(0,0)",  # unclosed braces
            "mesh(x;12;{})",  # length is not an integer
            "nr:999",  # unknown catalog identifier
            "mesh(2;12;{(0,0),})",  # dangling comma
            "grid(2;12;{})",  # wrong keyword
            "mesh(2;112;{})",  # tau length mismatch
            "mesh(2;12;{(0,-1)})",  # negative box index
            "mesh(2;12;(0,0))",  # boxes must be braced
            "",  # empty input
        ],
    )
    def test_malformed_inputs_rejected_with_position(self, bad):
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern(bad)
        assert err.value.position >= 0
        assert "position" in str(err.value)


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
                    assert g == _reference_count(p, s), (p, s)

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
        assert count_occurrences(p, host) == _reference_count(p, host)

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
            expected = [_reference_count(p, host) for p in pats]
            assert occurrence_counts(compiled, host) == expected, host
            assert [avoids(p, host) for p in pats] == [c == 0 for c in expected], host

    def test_batched_matches_single(self):
        pats = [e.pattern for e in catalog()]
        for s in enumerate_kings(6):
            batched = occurrence_counts(pats, s)
            assert batched == [count_occurrences(p, s) for p in pats]

    def test_generic_longer_pattern(self):
        # length-3 patterns exercise the generic path
        p = MeshPattern((1, 3, 2), frozenset({(1, 1)}))
        host = (2, 1, 4, 3)
        assert count_occurrences(p, host) == _reference_count(p, host)
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
