"""Ground-truth occurrence distributions by exhaustive enumeration.

For a pattern p, a length n and a king class, the oracle computes the sum of
u^(occurrences of p in s) over every member s of the class, as an exact
integer polynomial.  This is the independent route against which every closed
form in :mod:`kingmesh.gfs` is checked: the two share no code beyond integer
arithmetic.

Its one kernel is a *census*: one pass per length that tallies every host
under its endpoint type.  A class is the set of endpoint types that
:data:`kingmesh.kings.CLASS_TYPES` gives it, so a census of all kings yields
every class's size and distributions, and no walk knows the class; a census of
a restricted class skips the first values the class forbids, so it answers for
that class alone.  Below each first value of n >= 2 it walks the backtracking
tree, building no host: each node takes the values that may come next from a
table of the values of every subset, adds the hits of the candidates ending at
its position to the counts it passes down, once for all the hosts below it,
and the node before the last four entries places its own and the last three
inline, the last two from a list of the orders of each pair of values left,
and records the leaves.  The hits of the length-1 candidates come from a
table of the kernel's rule, and the pairs read their region masks from band
tables, all built once per length in each process.  The empty host and the
host (1,) are counted as single hosts (``CompiledPatterns.host_hits``).  A
census of no pattern takes the same walk, and every host packs 0.  The first
values a class walks and the sum of a tally by class come from
:func:`kingmesh.kings.first_values` and :func:`kingmesh.kings.class_total`.
A census decodes all the tables a caller asks for in one pass over each
tally's keys.

Enumeration can fan out over the choice of the first element; each worker owns
the subtree below one first value and the partial tallies are added, so the
result is identical for any worker count.

:func:`distribution_tables` answers a request whose patterns all have length 1
from :func:`kingmesh.transfer.single_rows` instead, which counts by state
(placed set, last value) in the calling process, so ``jobs`` starts no pool
for it; every other request takes one census.  The battery's checks of a
pattern read only the census.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .kings import (
    CLASS_TYPES,
    KingClass,
    endpoint_flags,
    endpoint_type,
    far_rows,
    first_values,
)
from .mesh import CompiledPatterns, MeshPattern, count_field, parse_pattern, render_pattern
from .series import UPoly


@dataclass(frozen=True)
class DistributionTable:
    """Rows 0..n_max of occurrence-count polynomials for one pattern/class."""

    pattern: MeshPattern
    king_class: KingClass
    rows: tuple[UPoly, ...]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> UPoly:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"row n={n} outside 0..{self.n_max}")
        return self.rows[n]

    def to_json_dict(self) -> dict:
        return {
            "pattern": render_pattern(self.pattern),
            "class": self.king_class.value,
            "rows": [{"n": n, "coeff": str(c)} for n, c in enumerate(self.rows)],
        }


def _tally(task) -> dict[int, int]:
    """One length's tally below one first value: how many hosts there are of
    each key ``packed << 4 | t``, where t is the host's endpoint type and
    ``packed`` its pattern counts as ``CompiledPatterns(patterns, n=n)``
    packs them, in fields of ``count_field(patterns, n)`` bits; no key has zero hosts."""
    patterns, n, first = task
    if n <= 1:  # the empty host or the host (1,), counted as a single host
        host = tuple(range(1, n + 1))
        return {CompiledPatterns(patterns, n=n).host_hits(host) << 4 | endpoint_type(host): 1}
    return _walk(_compiled(patterns, n=n), n, first)


# The patterns compiled for length n, once per length in each process: tasks
# run longest first, so a length's tasks follow each other.
_compiled = lru_cache(maxsize=1)(CompiledPatterns)


@lru_cache(maxsize=1)
def _members(n: int) -> list[tuple[int, ...]]:
    """The values of every subset of 1..n in ascending order, at the index
    ``s >> 1`` of the set's bitset s, in which bit v stands for the value v:
    2^n tuples, built once per length in each process, as ``_compiled`` is.

    >>> _members(3)
    [(), (1,), (2,), (1, 2), (3,), (1, 3), (2, 3), (1, 2, 3)]
    """
    table = [()]
    for v in range(1, n + 1):
        table += [m + (v,) for m in table]
    return table


def _walk(compiled: CompiledPatterns, n: int, first: int):
    """Tally, as ``_tally`` does, every king permutation of 1..n (n >= 2) that
    begins with ``first``, whatever its class.  The walk keeps only the prefix
    bitsets ``pre``.  A node at position d takes the values not in pre[d]
    that may stand next to the entry at d - 1 from ``_members``, at the
    bitset ``apart[last] & ~pre[d]``, where ``apart[a]`` is the row of
    ``far_rows`` for a read as a bitset; the walk starts at position 0 from
    the row ``apart[0]``, which allows only ``first``, as ``tally_subtree``
    does.  A node places each value, in any order, as the tallies are only
    summed, sets pre[d + 1] and adds the hits of the candidates ending at d:
    the single's from ``compiled.singles`` and the pairs' from one
    ``compiled.pair_counter`` over ``pre``, which reads the band tables of
    length n.  The node at n - 4 is the bottom: after each value v of its
    own it places the last three entries inline, saving the calls for
    position n - 3, which outnumber all others.  It takes each value w that
    may follow v, then each order (y, z) of the two values left from
    ``ends``, at the index of their bitset shifted right by one.  ``ends``
    holds, for each order whose values ``far_rows`` lets stand side by
    side, y and the order's part of the key: the singles of y and z, above
    the endpoint type of a host that ends on z.  Each leaf tests w against
    y, adds its own pairs and ``whole`` and updates the tally once.  The
    first call is the bottom at n = 4 and calls it at n = 5; at n = 2 and 3
    it is the bottom too, and fewer than two values are left after w, as no
    king has 2 or 3 entries.  Like ``tally_subtree``, the walk reuses no
    subtree and tests every adjacent pair of every host."""
    type_by_last = [4 * endpoint_flags(first, n) | endpoint_flags(v, n) for v in range(n + 1)]
    full = (2 << n) - 2
    pre = [0] * n + [full]
    singles = compiled.singles
    pairs = compiled.pair_counter(pre) if compiled.pair_sides else None
    whole = compiled.whole if compiled.generic else None
    counted = bool(pairs or whole)
    # after the single table, which is larger, so that a length too long for
    # either fails there, at once, and not while these grow
    members = _members(n)
    far = far_rows(n)
    apart = [1 << first] + [sum(1 << b for b in range(1, n + 1) if row[b]) for row in far[1:]]
    ends: list[tuple[tuple[int, int], ...]] = [()] * (1 << n)
    for y in range(1, n + 1):
        for z in range(1, n + 1):
            if z != y and far[y][z]:
                rest = full ^ 1 << z
                part = (singles[y][rest ^ 1 << y] + singles[z][rest]) << 4 | type_by_last[z]
                ends[(1 << y | 1 << z) >> 1] += ((y, part),)
    leaves: dict[int, int] = {}
    get = leaves.get

    def walk(d: int, last: int, packed: int) -> None:
        before = pre[d]
        legal = members[(apart[last] & ~before) >> 1]
        if d + 4 < n:
            for v in legal:
                pre[d + 1] = before | 1 << v
                hits = packed + singles[v][before]
                if pairs:
                    hits += pairs(d, v)
                walk(d + 1, v, hits)
            return
        for v in legal:  # d = n - 4 from n = 4 on: v, then w, y, z inline
            pre[d + 1] = with_v = before | 1 << v
            hits = packed + singles[v][before]
            if pairs:
                hits += pairs(d, v)
            for w in members[(apart[v] & ~with_v) >> 1]:
                pre[d + 2] = with_w = with_v | 1 << w
                base = hits + singles[w][with_v]
                if pairs:
                    base += pairs(d + 1, w)
                base <<= 4
                to_w = apart[w]
                for y, part in ends[(full ^ with_w) >> 1]:
                    if to_w >> y & 1:
                        key = base + part
                        if counted:
                            pre[n - 1] = with_y = with_w | 1 << y
                            more = 0
                            if pairs:
                                z = (full ^ with_y).bit_length() - 1
                                more = pairs(n - 2, y) + pairs(n - 1, z)
                            if whole:
                                more += whole(pre)
                            key += more << 4
                        leaves[key] = get(key, 0) + 1

    walk(0, 0, 0)
    return leaves


@dataclass(frozen=True)
class Census:
    """The tallies of one pass over a king class, one per length.  A census
    of ALL answers for every class; one of a restricted class skips the first
    values the class forbids, so it answers for that class alone and refuses
    the others."""

    patterns: tuple[MeshPattern, ...]
    tallies: tuple[dict[int, int], ...]
    king_class: KingClass = KingClass.ALL

    def table(self, pattern: MeshPattern, king_class: KingClass) -> DistributionTable:
        """The pattern's distribution rows over the class: row n sums u^k over
        its members of length n with k occurrences.  It decodes this pattern
        alone, as ``tables`` does for the one pattern.

        >>> x = parse_pattern("nr:X'")
        >>> kings = census([x], 5)
        >>> print(kings.table(x, KingClass.ALL).row(5), kings.table(x, "sl").row(5))
        10+4u 6+4u
        """
        return self.tables(king_class, [pattern])[0]

    def tables(self, king_class: KingClass,
               patterns: Sequence[MeshPattern] | None = None) -> list[DistributionTable]:
        """The tables over the class of the patterns asked for, all that the
        census counted by default, in their order, from one pass over each
        tally's keys: each key of a type the class holds adds its hosts to
        the row of every pattern, at the count in the pattern's field, read
        inline as ``packed_count`` reads it."""
        kc = KingClass(king_class)
        if self.king_class not in (KingClass.ALL, kc):
            raise ValueError(f"a census of class {self.king_class.value} answers for "
                             f"{self.king_class.value} alone, not for {kc.value}")
        if patterns is None:
            patterns, indices = self.patterns, range(len(self.patterns))
        else:
            for p in patterns:
                if p not in self.patterns:
                    raise ValueError(f"the census did not count the pattern {render_pattern(p)}")
            indices = [self.patterns.index(p) for p in patterns]
        types, rows = CLASS_TYPES[kc], [[] for _ in patterns]
        for n, tally in enumerate(self.tallies):
            field = count_field(self.patterns, n)
            hists = [[0] * (math.comb(n, p.length) + 1) for p in patterns]
            reads = [(hist, 4 + field * idx) for hist, idx in zip(hists, indices)]
            mask = (1 << field) - 1
            for key, hosts in tally.items():
                if key & 15 in types:
                    for hist, shift in reads:
                        hist[key >> shift & mask] += hosts
            for row, hist in zip(rows, hists):
                row.append(UPoly(hist))
        return [DistributionTable(p, kc, tuple(row)) for p, row in zip(patterns, rows)]


def census(
    patterns: Sequence[MeshPattern],
    n_max: int,
    king_class: KingClass = KingClass.ALL,
    jobs: int = 1,
) -> Census:
    """Enumerate the kings of each length 0..n_max once, tallying them by
    endpoint type and counting the patterns.  The work is split by length and
    by the first values the class allows; with ``jobs > 1`` one pool of
    workers takes it, the longest lengths first.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    patterns, kc = tuple(patterns), KingClass(king_class)
    tasks = [(patterns, n, first) for n in range(n_max, -1, -1)
             for first in (first_values(n, kc) if n else [1])]  # n = 0: the empty host's task
    if jobs > 1 and n_max >= 2:
        import multiprocessing  # only a pooled run pays for the import

        with multiprocessing.Pool(min(jobs, n_max)) as pool:
            parts = pool.map(_tally, tasks, chunksize=1)
    else:
        parts = map(_tally, tasks)
    tallies = [Counter() for _ in range(n_max + 1)]
    for (_, n, _), part in zip(tasks, parts):
        tallies[n].update(part)
    return Census(patterns, tuple(tallies), kc)


def distribution_table(
    pattern: MeshPattern,
    n_max: int,
    king_class: KingClass = KingClass.ALL,
    jobs: int = 1,
) -> DistributionTable:
    return distribution_tables([pattern], n_max, king_class, jobs)[0]


def distribution_tables(
    patterns: Sequence[MeshPattern],
    n_max: int,
    king_class: KingClass = KingClass.ALL,
    jobs: int = 1,
) -> list[DistributionTable]:
    """The tables of the patterns over the class.  When every pattern asked
    for has length 1, each is counted by state (``transfer.single_rows``) in
    this process, and ``jobs`` starts no pool; any other batch comes from one
    census of the class: each length is enumerated once for all the
    patterns, and each table sums its class's endpoint types.

    In a census, occurrence counting takes most of the time, though the walk
    finds the hits of each candidate once for all the hosts that share it.
    A batch shares the walk and compiles the patterns once per length in
    each process, but every pattern still costs.
    """
    patterns = tuple(patterns)
    if patterns and all(p.length == 1 for p in patterns):
        from .transfer import single_rows  # only a batch of singles loads the state route

        kc = KingClass(king_class)
        return [DistributionTable(p, kc, tuple(map(UPoly, single_rows(p.shaded, n_max, kc))))
                for p in patterns]
    return census(patterns, n_max, king_class, jobs).tables(king_class)
