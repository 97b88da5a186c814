"""Mesh patterns: a small permutation together with a set of shaded grid boxes.

A mesh pattern of length k is a pair (tau, R) where tau is a permutation of
1..k and R is a set of boxes (i, j) with 0 <= i, j <= k.  An *occurrence* of
the pattern in a host permutation s of length n is a choice of positions
q_1 < ... < q_k whose values are order-isomorphic to tau such that, writing
r_1 < ... < r_k for those values in increasing order and padding both lists
with the sentinels q_0 = r_0 = 0 and q_{k+1} = r_{k+1} = n+1, every shaded box
(i, j) corresponds to an empty region of the host's plot: no element of s sits
strictly between positions q_i and q_{i+1} with value strictly between r_j and
r_{j+1}.

The module also carries the catalog of short patterns this package knows
closed distribution results for ("solved") or only exhaustive data for
("open"), plus a compact text format with a parser and renderer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .kings import Perm, is_permutation, perm_text

Box = tuple[int, int]


class PatternSyntaxError(ValueError):
    """Pattern text rejected; ``position`` is the offset of the offending token."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True)
class MeshPattern:
    tau: Perm
    shaded: frozenset[Box]

    def __post_init__(self):
        tau = tuple(self.tau)
        boxes = frozenset((int(i), int(j)) for i, j in self.shaded)
        if not is_permutation(tau):
            raise ValueError(f"tau is not a permutation of 1..{len(tau)}: {tau}")
        k = len(tau)
        for i, j in boxes:
            if not (0 <= i <= k and 0 <= j <= k):
                raise ValueError(f"box {(i, j)} outside [0,{k}]x[0,{k}]")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "shaded", boxes)

    @property
    def length(self) -> int:
        return len(self.tau)

    @cached_property
    def box_mask(self) -> int:
        """The shaded boxes as a bitmask: bit i*(k+1)+j stands for box (i, j)."""
        k = self.length
        return sum(1 << (i * (k + 1) + j) for i, j in self.shaded)

    def __str__(self) -> str:
        return render_pattern(self)


@dataclass(frozen=True)
class CatalogEntry:
    ident: str
    pattern: MeshPattern
    status: str  # "solved" or "open"


# Catalog of length-1 and length-2 patterns.  Identifiers follow the numbering
# used across the mesh-pattern literature; X and X' are the two length-1
# patterns whose occurrences are the "strong" points of a permutation.
_SOLVED_SPECS: tuple[tuple[str, tuple[int, ...], tuple[Box, ...]], ...] = (
    ("X", (1,), ((0, 1), (1, 0))),
    ("X'", (1,), ((0, 0), (1, 1))),
    ("10", (1, 2), ((0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2))),
    ("11", (1, 2), tuple((i, j) for i in range(3) for j in range(3))),
    ("12", (1, 2), ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))),
    ("13", (1, 2), ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2))),
    ("14", (1, 2), ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))),
    ("16", (1, 2), ((0, 1), (0, 2), (1, 0), (2, 0))),
    ("17", (1, 2), ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))),
    ("19", (1, 2), ((0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 2))),
    ("20", (1, 2), ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1))),
    ("22", (1, 2), ((0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2))),
    ("27", (1, 2), ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2))),
    ("28", (1, 2), ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2))),
    ("30", (1, 2), ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1))),
    ("33", (1, 2), ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))),
    ("34", (1, 2), ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2))),
    ("36", (1, 2), ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1))),
    ("45", (1, 2), ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1))),
    ("55", (1, 2), ((0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 1))),
    ("63", (1, 2), ((0, 0), (0, 1), (1, 2), (2, 0), (2, 1))),
    ("64", (1, 2), ((0, 1), (0, 2), (1, 1), (1, 2), (2, 0))),
)

_OPEN_SPECS: tuple[tuple[str, tuple[int, ...], tuple[Box, ...]], ...] = (
    ("3", (1, 2), ((0, 0), (0, 1), (1, 2))),
    ("5", (1, 2), ((0, 0), (0, 1), (0, 2))),
    ("8", (1, 2), ((0, 0), (0, 1), (1, 0), (1, 1))),
    ("9", (1, 2), ((0, 1), (1, 1), (1, 2), (2, 1))),
    ("15", (1, 2), ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2))),
    ("18", (1, 2), ((0, 0), (0, 1), (0, 2), (1, 2), (2, 0), (2, 2))),
    ("21", (1, 2), ((0, 0), (0, 1), (1, 2), (2, 0), (2, 2))),
    ("56", (1, 2), ((0, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2))),
    ("65", (1, 2), ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))),
    ("66", (1, 2), ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))),
)

_CATALOG: tuple[CatalogEntry, ...] = tuple(
    CatalogEntry(ident, MeshPattern(tau, frozenset(boxes)), status)
    for specs, status in ((_SOLVED_SPECS, "solved"), (_OPEN_SPECS, "open"))
    for ident, tau, boxes in specs
)
_BY_IDENT = {e.ident: e for e in _CATALOG}

SOLVED_IDS: tuple[str, ...] = tuple(e.ident for e in _CATALOG if e.status == "solved")
OPEN_IDS: tuple[str, ...] = tuple(e.ident for e in _CATALOG if e.status == "open")

# A permutation is a king permutation exactly when it avoids both of these:
# an adjacent pair of consecutive increasing values, and the decreasing twin.
_CROSS = frozenset({(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)})
KING_CROSS_UP = MeshPattern((1, 2), _CROSS)
KING_CROSS_DOWN = MeshPattern((2, 1), _CROSS)


def catalog() -> tuple[CatalogEntry, ...]:
    return _CATALOG


def catalog_entry(ident: str | int) -> CatalogEntry:
    entry = _BY_IDENT.get(str(ident))
    if entry is None:
        raise KeyError(f"no catalog pattern {ident!r}")
    return entry


def catalog_pattern(ident: str | int) -> MeshPattern:
    return catalog_entry(ident).pattern


# ---------------------------------------------------------------------------
# Text format:  pattern := "mesh(" k ";" tau ";" boxes ")" | "nr:" ident
#               tau     := digit+ | int (";" int)*, or nothing when k = 0
#               boxes   := "{" [box ("," box)*] "}" ;  box := "(" int "," int ")"
# The text is read as tokens: an integer, a word or any one other character,
# each at its offset, and whitespace may stand between any two of them.  A
# tau of one integer is a digit string, read digit by digit; the ident is the
# rest of the text.  An error's position is the offset of the offending token.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<int>\d+)|[A-Za-z]+|\S")


def render_pattern(p: MeshPattern) -> str:
    k = p.length
    tau = perm_text(p.tau, ";")
    boxes = ",".join(f"({i},{j})" for i, j in sorted(p.shaded))
    return f"mesh({k};{tau};{{{boxes}}})"


def parse_pattern(text: str) -> MeshPattern:
    """Parse the text format; ``nr:<ident>`` pulls the pattern from the catalog.

    >>> parse_pattern("mesh(1;1;{(0,1),(1,0)})") == catalog_pattern("X")
    True
    """
    tokens = [(m[0], m.start(), m.lastgroup) for m in _TOKEN.finditer(text)]
    tokens.append(("", len(text), None))  # the end of the text
    at = 0

    def take(literal: str | None = None) -> tuple[str, int]:
        """The next token and its offset: the literal, or else an integer."""
        nonlocal at
        token, offset, kind = tokens[at]
        if literal is None and kind != "int":
            raise PatternSyntaxError("expected an integer", offset)
        if literal is not None and token != literal:
            raise PatternSyntaxError(f"expected {literal!r}", offset)
        at += 1
        return token, offset

    if tokens[0][0] == "nr":
        take("nr")
        take(":")
        where = tokens[at][1]
        ident = text[where:].rstrip()
        if not ident:
            raise PatternSyntaxError("missing catalog identifier", where)
        entry = _BY_IDENT.get(ident) or _BY_IDENT.get(ident.upper())
        if entry is None:
            raise PatternSyntaxError(f"unknown catalog identifier {ident!r}", where)
        return entry.pattern
    take("mesh")
    take("(")
    k = int(take()[0])
    take(";")
    # the values run to the ";" that precedes the boxes
    where, values = tokens[at][1], []
    while tokens[at][2] == "int":
        values.append(take()[0])
        if tokens[at][0] != ";" or tokens[at + 1][2] != "int":
            break
        take(";")
    tau = tuple(map(int, values[0] if len(values) == 1 else values))  # a lone integer: digits
    if len(tau) != k:
        raise PatternSyntaxError(f"expected {k} pattern values, got {len(tau)}", where)
    if not is_permutation(tau):
        raise PatternSyntaxError(f"tau {tau} is not a permutation of 1..{k}", where)
    take(";")
    take("{")
    boxes: list[Box] = []
    more = tokens[at][0] != "}"
    while more:
        take("(")
        i, where = take()
        take(",")
        box = (int(i), int(take()[0]))
        take(")")
        if max(box) > k:
            raise PatternSyntaxError(f"box ({box[0]},{box[1]}) outside [0,{k}]x[0,{k}]", where)
        boxes.append(box)
        more = tokens[at][0] == ","
        if more:
            take(",")
    take("}")
    take(")")
    if at < len(tokens) - 1:
        raise PatternSyntaxError("trailing input", tokens[at][1])
    return MeshPattern(tau, frozenset(boxes))


# ---------------------------------------------------------------------------
# Occurrence counting.
#
# A host of length n is read left to right with prefix bitsets: pre[p] has bit
# v set for each value v at one of the first p positions (both count from 1).
# The region strictly between positions lo < hi and strictly between values
# a < b is nonempty exactly when its column band pre[hi-1] ^ pre[lo] meets its
# value band, the bits a+1 .. b-1, which is (1 << b) - (2 << a).  A
# candidate's region mask has bit i*(k+1)+j set when the region of box (i, j)
# is nonempty, and a pattern is satisfied when that mask misses its shaded
# mask.
#
# Every region of a candidate of length 1 or 2 is known once its last entry v
# is placed at position d: the values still to come are full ^ pre[d] ^ 1 << v,
# in whatever order.  So a host's counts are the sum of the hits of the
# candidates ending at each position: those of a single, which depend only on v
# and the set pre[d] (`single_hits`), and those of the pairs, from their loop
# over the earlier entries (`pair_counter`, one per host or walk); `host_hits`
# adds them along one host.  The census adds each node's hits once for all
# the hosts below it, the singles' from a table built once per length
# (`single_table`).  Other candidates are scanned on the whole host (`whole`).
#
# A pair of entries with the values a < b, in either order, has three value
# bands: below a, between a and b, and above b.  Each of its three column sets
# (the values before the first entry, between the two, after the last) meets
# some of them, which its `BandRule` writes as 3 bits, and the three codes side
# by side are the pair's region mask.  A code depends only on (a, b) and the
# set, so on hosts of a known length each pair of values reads its codes from a
# `band_table`, built once per length; on others, from the rule itself.
#
# A pair of tau 12 whose first entry x has an earlier value between x and v
# leaves box (0, 1) nonempty.  So when every pattern of tau 12 shades that box,
# the pair loop visits only a chain of earlier values below v: the largest one,
# then from each link x the largest below x among the values before x (pre[i]
# for x at position i), and so on.  Each link has no earlier value between it
# and v.  A value y it skips lies below a link x and above the next link, if
# any, which is the largest below x before x; so y comes after x, x is an
# earlier value between y and v, and y's entry in the hit table is 0.  Tau 21
# mirrors this above v: the smallest value, then the smallest above x before
# x.  Any other group visits every earlier value on its side of v.
#
# The counts of all the patterns travel as one integer, pattern idx's in the
# `field` bits from bit field * idx: the `count_field` of the hosts' length when
# it is known, else 64 bits, which hold any count of candidates tested one by one.
# ---------------------------------------------------------------------------


def count_field(patterns: Sequence[MeshPattern], n: int) -> int:
    """The bits of one packed count on hosts of length n: enough for C(n, k)."""
    return max([math.comb(n, p.length) for p in patterns], default=0).bit_length()


def packed_count(packed: int, idx: int, field: int) -> int:
    """The count of pattern idx in packed counts."""
    return packed >> field * idx & (1 << field) - 1


def _hit_table(members: Sequence[tuple[int, int]], k: int) -> list[int]:
    """table[mask] sums the units of the (unit, shaded mask) members mask satisfies."""
    top = (1 << (k + 1) ** 2) - 1
    table = [0] * (top + 1)
    for unit, shaded in members:
        free = top ^ shaded
        sub = free
        while True:  # every submask of the unshaded boxes
            table[sub] += unit
            if not sub:
                break
            sub = (sub - 1) & free
    return table


class BandRule:
    """The value bands of a < b: the values below a, those strictly between
    a and b, and those above b.  ``rule[c]`` is the 3-bit code of the bands
    the set c meets, bit 0, 1 and 2 in that order."""

    __slots__ = ("lo", "mid", "hi")

    def __init__(self, a: int, b: int):
        self.lo, self.mid, self.hi = (1 << a) - 1, (1 << b) - (2 << a), -(2 << b)

    def __getitem__(self, c: int) -> int:
        return (1 if c & self.lo else 0) | (2 if c & self.mid else 0) | (4 if c & self.hi else 0)


def band_table(a: int, b: int, n: int) -> bytes:
    """``BandRule(a, b)[c]`` as table[c] for every set c of values 0..n.  A
    set meets a band when one of its values does, so each value w doubles
    the table: the new half is the old with w's own code ORed in."""
    rule, table = BandRule(a, b), b"\0"
    for w in range(n + 1):
        code = rule[1 << w]
        table += table.translate(bytes([t | code for t in range(8)]).ljust(256, b"\0"))
    return table


class CompiledPatterns:
    """Patterns prepared once for any number of hosts.

    The patterns are grouped by ``tau``, each member as its (unit, shaded
    mask) pair, where the unit adds one to its count.  A group of length
    k <= 2 becomes a hit table from each of the 2^((k+1)^2) region masks to
    the packed hits of the patterns it satisfies (``single``, and the pairs'
    in ``pair_sides``); the others stay in ``generic``.  ``pair_sides``
    holds, for tau 12 and then 21 where some pattern has it, the hit table,
    whether every member shades box (0, 1), so that the pair loop may skip
    the earlier values no hit can begin at, and whether tau is 12, where
    the earlier entry is the smaller.  ``len()`` is the number of patterns.
    Compiled for hosts of length ``n``, the counts take its ``count_field``,
    and ``singles``, built on first read, is its ``single_table``.
    """

    def __init__(self, patterns: Iterable[MeshPattern], *, n: int | None = None):
        self.patterns, self.n = tuple(patterns), n
        self.field = field = 64 if n is None else count_field(self.patterns, n)
        groups: dict[Perm, list[tuple[int, int]]] = {}
        for idx, p in enumerate(self.patterns):
            groups.setdefault(p.tau, []).append((1 << field * idx, p.box_mask))
        tables = {tau: _hit_table(members, len(tau))
                  for tau, members in groups.items() if len(tau) in (1, 2)}
        self.single = tables.get((1,))
        # bit 1 of a pair's shaded mask is box (0, 1): see "Occurrence counting"
        self.pair_sides = [
            (tables[tau], all(shaded & 2 for _, shaded in groups[tau]), tau == (1, 2))
            for tau in [(1, 2), (2, 1)] if tau in tables
        ]
        self.generic = [(tau, members) for tau, members in groups.items() if tau not in tables]
        self._rows: list[list] = []  # pair_counter's pair_rows, grown on demand

    singles = cached_property(lambda self: self.single_table(self.n))

    def __len__(self) -> int:
        return len(self.patterns)

    def single_hits(self, v: int, before: int, full: int) -> int:
        """The packed hits of the candidate of length 1 at value v, given the
        set ``before`` of the values placed before it and ``full``."""
        if not self.single:
            return 0
        bit = 1 << v
        after = full ^ before ^ bit
        below, above = bit - 1, -(bit << 1)
        return self.single[
            (1 if before & below else 0) | (2 if before & above else 0)
            | (4 if after & below else 0) | (8 if after & above else 0)
        ]

    def single_table(self, n: int) -> list[list[int]]:
        """``single_hits`` at length n as table[v][before], for every value v
        of 1..n and every set ``before`` of values; row 0 and the odd indices,
        which would hold the value 0, stay 0."""
        full, size = (2 << n) - 2, 2 << n
        table = [[0] * size for _ in range(n + 1)]
        for v in range(1, n + 1):
            table[v][::2] = [self.single_hits(v, before, full) for before in range(0, size, 2)]
        return table

    def pair_rows(self, n: int) -> list[list]:
        """The band codes of the pairs on hosts of length n as rows[v][x]:
        those of min(x, v) < max(x, v) for two values x != v of 1..n, else
        None.  Compiled for a length, they are one ``band_table`` per pair
        of values, shared by both orders; else the band rule itself, which
        allocates nothing that grows like 2^n."""
        rows: list[list] = [[None] * (n + 1) for _ in range(n + 1)]
        if self.pair_sides:
            for a, b in combinations(range(1, n + 1), 2):
                rows[a][b] = rows[b][a] = BandRule(a, b) if self.n is None else band_table(a, b, n)
        return rows

    def pair_counter(
        self, pre: Sequence[int], pos: Sequence[int], full: int
    ) -> Callable[[int, int, int], int]:
        """``hits(d, v, before)``: the packed hits of every candidate of
        length 2 whose last entry v is at position d, given before = pre[d]
        and ``full``, read from ``pre`` and ``pos`` as they stand at the call,
        so that one counter serves a whole walk or host; pos[x] is the
        position of each value x in ``before``.  The pair with an earlier
        entry x at i = pos[x] reads the hit table of its tau in
        ``pair_sides`` at the band codes of pre[i], of the values between the
        two entries and of the values after v.  For each side of v, the loop
        visits the values of ``before`` there, nearest to v first; with every
        member of the tau shading box (0, 1), it keeps after each x only
        those before x.  The rows are ``pair_rows``, kept for the next
        counter: those of the compiled length, built once, or else those of
        the longest host so far, which serve every shorter one."""
        if len(self._rows) < len(pre):
            self._rows = self.pair_rows(len(pre) - 1 if self.n is None else self.n)
        rows, sides = self._rows, self.pair_sides

        def hits(d: int, v: int, before: int) -> int:
            row = rows[v]
            after = full ^ before ^ 1 << v
            total = 0
            for table, narrow, up in sides:
                side = before & (1 << v) - 1 if up else before & -(2 << v)
                while side:
                    x = (side if up else side & -side).bit_length() - 1
                    code, i = row[x], pos[x]
                    total += table[code[pre[i]] | code[before ^ pre[i + 1]] << 3 | code[after] << 6]
                    side = side & pre[i] if narrow else side ^ 1 << x
            return total

        return hits

    def host_hits(self, perm: Sequence[int]) -> int:
        """The packed counts of every pattern in the host perm, a permutation
        of 1..n read left to right: at each position d the hits of the
        candidates of length 1 and 2 that end there, from one ``pair_counter``
        (a host of fewer than two entries holds no pair), then ``whole``."""
        n = len(perm)
        full = (2 << n) - 2
        pre, pos = [0] * (n + 1), [0] * (n + 1)
        pairs = self.pair_counter(pre, pos, full) if self.pair_sides and n > 1 else None
        packed = 0
        for d, v in enumerate(perm):
            packed += self.single_hits(v, pre[d], full)
            if pairs:
                pos[v] = d
                packed += pairs(d, v, pre[d])
            pre[d + 1] = pre[d] | 1 << v
        return packed + self.whole(perm, pre)

    def whole(self, seq: Sequence[int], pre: Sequence[int]) -> int:
        """The packed hits of the other candidates, the empty one included,
        given the whole host and all n+1 of its prefix bitsets: each choice of
        k positions ordered as tau gets a region mask, tested on every member."""
        n = len(seq)
        hits = 0
        for tau, members in self.generic:
            k = len(tau)
            by_value = sorted(range(k), key=tau.__getitem__)
            for qs in combinations(range(n), k):
                rs = [seq[qs[t]] for t in by_value]
                if rs != sorted(rs):
                    continue
                bands = [(1 << b) - (2 << a) for a, b in zip([0, *rs], [*rs, n + 1])]
                mask = 0
                bit = 1
                lo = 0
                for hi in (*qs, n):
                    column = pre[hi] ^ pre[lo]
                    for band in bands:
                        if column & band:
                            mask |= bit
                        bit <<= 1
                    lo = hi + 1
                for unit, shaded in members:
                    if not mask & shaded:
                        hits += unit
        return hits


def occurrence_counts(
    patterns: CompiledPatterns | Sequence[MeshPattern], perm: Sequence[int]
) -> list[int]:
    """Occurrence counts of several patterns in one pass over the host, a
    permutation of 1..n, read left to right.

    Pass a :class:`CompiledPatterns` when counting on many hosts, so that the
    patterns are grouped and tabulated once; compiled for ``n``, they count
    hosts of length at most ``n``.
    """
    if not isinstance(patterns, CompiledPatterns):
        patterns = CompiledPatterns(patterns)
    n = len(perm)
    if not is_permutation(perm):
        raise ValueError(f"the host {tuple(perm)} is not a permutation of 1..{n}")
    if patterns.n is not None and n > patterns.n:
        raise ValueError(f"a host of length {n} is longer than the n = {patterns.n} "
                         "the patterns were compiled for")
    packed = patterns.host_hits(perm)
    return [packed_count(packed, idx, patterns.field) for idx in range(len(patterns))]


# patterns that count_occurrences and avoids keep compiled for library callers,
# tests and demos (no command counts through them): the catalog and both
# crosses fit, and each hit table of k = 2 takes about 40 kB, plus the band
# rule's rows for the longest host counted, (m + 1)^2 slots at length m
_COMPILED_PATTERNS_KEPT = 64
_compiled = lru_cache(maxsize=_COMPILED_PATTERNS_KEPT)(CompiledPatterns)


def count_occurrences(p: MeshPattern, perm: Sequence[int]) -> int:
    """Number of occurrences of p in perm under the shaded-region semantics.

    >>> count_occurrences(catalog_pattern("X"), (1, 3, 5, 2, 4))
    1
    """
    return occurrence_counts(_compiled((p,)), perm)[0]


def avoids(p: MeshPattern, perm: Sequence[int]) -> bool:
    """True when perm contains no occurrence of p."""
    return not count_occurrences(p, perm)
