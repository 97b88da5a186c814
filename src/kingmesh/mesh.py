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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from operator import or_
from typing import Iterable, Sequence

from .kings import Perm, is_permutation

Box = tuple[int, int]


class PatternSyntaxError(ValueError):
    """Pattern text rejected; ``position`` is the offset of the offending char."""

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
#               tau     := digit+ | int (";" int)*
#               boxes   := "{" [box ("," box)*] "}" ;  box := "(" int "," int ")"
# Whitespace is ignored everywhere.
# ---------------------------------------------------------------------------


def render_pattern(p: MeshPattern) -> str:
    k = p.length
    if k and max(p.tau) > 9:
        tau = ";".join(str(v) for v in p.tau)
    else:
        tau = "".join(str(v) for v in p.tau)
    boxes = ",".join(f"({i},{j})" for i, j in sorted(p.shaded))
    return f"mesh({k};{tau};{{{boxes}}})"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise PatternSyntaxError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PatternSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def done(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise PatternSyntaxError("trailing input", self.pos)


def parse_pattern(text: str) -> MeshPattern:
    """Parse the text format; ``nr:<ident>`` pulls the pattern from the catalog.

    >>> parse_pattern("mesh(1;1;{(0,1),(1,0)})") == catalog_pattern("X")
    True
    """
    s = _Scanner(text)
    if s.peek() == "n":
        s.expect("nr:")
        s.skip_ws()
        ident = text[s.pos :].strip()
        if not ident:
            raise PatternSyntaxError("missing catalog identifier", s.pos)
        entry = _BY_IDENT.get(ident) or _BY_IDENT.get(ident.upper())
        if entry is None:
            raise PatternSyntaxError(f"unknown catalog identifier {ident!r}", s.pos)
        return entry.pattern
    s.expect("mesh")
    s.expect("(")
    k = s.integer()
    s.expect(";")
    tau = _parse_tau(s, k)
    s.expect(";")
    boxes = _parse_boxes(s, k)
    s.expect(")")
    s.done()
    tau_start = len("mesh(")
    if not is_permutation(tau):
        raise PatternSyntaxError(f"tau {tau} is not a permutation of 1..{k}", tau_start)
    return MeshPattern(tau, frozenset(boxes))


def _parse_tau(s: _Scanner, k: int) -> tuple[int, ...]:
    # The digit-string form and the ";"-separated form share the ";" that also
    # precedes the boxes, so look ahead: values run until the ";" followed by "{".
    start = s.pos
    first = s.integer()
    values = [first]
    while True:
        save = s.pos
        if s.peek() != ";":
            break
        s.expect(";")
        if s.peek() == "{":
            s.pos = save
            break
        values.append(s.integer())
    if len(values) == 1 and k != 1 and len(str(first)) == k:
        values = [int(ch) for ch in str(first)]  # digit-string form
    if len(values) != k:
        raise PatternSyntaxError(
            f"expected {k} pattern values, got {len(values)}", start
        )
    return tuple(values)


def _parse_boxes(s: _Scanner, k: int) -> list[Box]:
    s.expect("{")
    boxes: list[Box] = []
    if s.peek() == "}":
        s.expect("}")
        return boxes
    while True:
        s.expect("(")
        where = s.pos
        i = s.integer()
        s.expect(",")
        j = s.integer()
        s.expect(")")
        if not (0 <= i <= k and 0 <= j <= k):
            raise PatternSyntaxError(f"box ({i},{j}) outside [0,{k}]x[0,{k}]", where)
        boxes.append((i, j))
        if s.peek() == ",":
            s.expect(",")
            continue
        s.expect("}")
        return boxes


# ---------------------------------------------------------------------------
# Occurrence counting.
#
# A host of length n is held as n+1 prefix bitsets: pre[p] has bit v set for
# each value v at one of the first p positions (both count from 1).  The
# region strictly between positions lo < hi and strictly between values
# a < b is nonempty exactly when its column band pre[hi-1] ^ pre[lo] meets its
# value band, the bits a+1 .. b-1, which is (1 << b) - (2 << a).  A
# candidate's region mask has bit i*(k+1)+j set when the region of box (i, j)
# is nonempty, and a pattern is satisfied when that mask misses its shaded
# mask.
# ---------------------------------------------------------------------------


def _prefix_bits(perm: Sequence[int]) -> list[int]:
    return list(accumulate([1 << v for v in perm], or_, initial=0))


def _hit_table(members: Sequence[tuple[int, int]], k: int) -> list[list[int]]:
    """table[mask] lists the pattern indices whose shaded mask misses mask."""
    top = (1 << (k + 1) ** 2) - 1
    table: list[list[int]] = [[] for _ in range(top + 1)]
    for idx, shaded in members:
        free = top ^ shaded
        sub = free
        while True:  # every submask of the unshaded boxes
            table[sub].append(idx)
            if not sub:
                break
            sub = (sub - 1) & free
    return table


class CompiledPatterns:
    """Patterns prepared once for any number of hosts.

    The patterns are grouped by ``tau``.  Each group keeps its members as
    (index, shaded mask) pairs and, for k <= 2, a hit table from each of the
    2^((k+1)^2) region masks to the indices of the patterns it satisfies.
    ``len()`` is the number of patterns.
    """

    def __init__(self, patterns: Iterable[MeshPattern]):
        self.patterns = tuple(patterns)
        groups: dict[Perm, list[tuple[int, int]]] = {}
        for idx, p in enumerate(self.patterns):
            groups.setdefault(p.tau, []).append((idx, p.box_mask))
        self.groups = tuple(
            (tau, members, _hit_table(members, len(tau)) if len(tau) <= 2 else None)
            for tau, members in groups.items()
        )

    def __len__(self) -> int:
        return len(self.patterns)


def occurrence_counts(
    patterns: CompiledPatterns | Sequence[MeshPattern], perm: Sequence[int]
) -> list[int]:
    """Occurrence counts of several patterns in one pass over the host.

    Pass a :class:`CompiledPatterns` when counting on many hosts, so that the
    patterns are grouped and tabulated once.  Candidates of length <= 2 are
    counted by tight loops that look each region mask up in the hit table;
    longer ones go through the generic candidate scan.
    """
    if not isinstance(patterns, CompiledPatterns):
        patterns = CompiledPatterns(patterns)
    counts = [0] * len(patterns.patterns)
    pre = _prefix_bits(perm)
    for tau, members, hits in patterns.groups:
        k = len(tau)
        if k == 0:
            # the single empty candidate; its one region is the whole plot
            for idx in hits[1 if perm else 0]:
                counts[idx] += 1
        elif k == 1:
            _count_singles(perm, pre, hits, counts)
        elif k == 2:
            _count_pairs(perm, pre, tau == (1, 2), hits, counts)
        else:
            _count_generic(perm, pre, tau, members, counts)
    return counts


def _count_singles(perm, pre, hits, counts) -> None:
    full = pre[-1]
    for pos, a in enumerate(perm):
        lo = (1 << a) - 1
        hi = -(2 << a)
        before = pre[pos]
        after = full ^ pre[pos + 1]
        mask = (
            (1 if before & lo else 0) | (2 if before & hi else 0)
            | (4 if after & lo else 0) | (8 if after & hi else 0)
        )
        for idx in hits[mask]:
            counts[idx] += 1


def _count_pairs(perm, pre, increasing: bool, hits, counts) -> None:
    # Many pairs of one host share a region mask, so the masks are tallied
    # first and the hit table is applied once per distinct mask.
    n = len(perm)
    full = pre[n]
    tally: dict[int, int] = {}
    get = tally.get
    for i in range(n - 1):
        x = perm[i]
        c0 = pre[i]
        through_i = pre[i + 1]
        for j in range(i + 1, n):
            y = perm[j]
            if (y > x) != increasing:
                continue
            a, b = (x, y) if x < y else (y, x)
            lo = (1 << a) - 1
            mid = (1 << b) - (2 << a)
            hi = -(2 << b)
            c1 = pre[j] ^ through_i
            c2 = full ^ pre[j + 1]
            mask = (
                (1 if c0 & lo else 0) | (2 if c0 & mid else 0) | (4 if c0 & hi else 0)
                | (8 if c1 & lo else 0) | (16 if c1 & mid else 0) | (32 if c1 & hi else 0)
                | (64 if c2 & lo else 0) | (128 if c2 & mid else 0) | (256 if c2 & hi else 0)
            )
            tally[mask] = get(mask, 0) + 1
    for mask, times in tally.items():
        for idx in hits[mask]:
            counts[idx] += times


def _count_generic(perm, pre, tau, members, counts) -> None:
    # each choice of k positions ordered as tau gets a region mask, tested on every member
    n = len(perm)
    k = len(tau)
    by_value = sorted(range(k), key=tau.__getitem__)
    for qs in combinations(range(n), k):
        rs = [perm[qs[t]] for t in by_value]
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
        for idx, shaded in members:
            if not mask & shaded:
                counts[idx] += 1


# patterns that count_occurrences and avoids keep compiled: the catalog and both
# crosses fit, and each hit table of k = 2 takes about 40 kB
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
