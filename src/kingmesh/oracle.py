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
tree, building no host: each node adds the hits of the candidates ending at its
position to the counts it passes down, once for all the hosts below it.  Those
of the length-1 candidates come from a table of the kernel's rule, and the
pairs read their region masks from band tables, both built once per length in
each process.  The empty host and the host (1,) are counted as single hosts
(``CompiledPatterns.host_hits``).  A length that counts no pattern needs only
:func:`kingmesh.kings.tally_subtree`, whose tally by endpoint type is the
census's tally with nothing packed, and :func:`class_size`, the count by
enumeration, runs the census's tasks of that one length.

Enumeration can fan out over the choice of the first element; each worker owns
the subtree below one first value and the partial tallies are added, so the
result is identical for any worker count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .kings import CLASS_TYPES, KingClass, endpoint_flags, endpoint_type, far_rows, tally_subtree
from .mesh import CompiledPatterns, MeshPattern, count_field, parse_pattern, render_pattern
from .series import UPoly, parse_upoly


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

    @staticmethod
    def from_json_dict(data: dict) -> "DistributionTable":
        rows = [None] * len(data["rows"])
        for item in data["rows"]:
            n = item["n"]
            if type(n) is not int or not 0 <= n < len(rows):
                raise ValueError(f"row n={n!r} outside 0..{len(rows) - 1} in distribution table")
            rows[n] = parse_upoly(item["coeff"])
        if any(r is None for r in rows):
            raise ValueError("missing row in distribution table")
        return DistributionTable(
            parse_pattern(data["pattern"]),
            KingClass(data["class"]),
            tuple(rows),
        )


def _tally(task) -> dict[int, int]:
    """One length's tally below one first value: how many hosts there are of
    each key ``packed << 4 | t``, where t is the host's endpoint type and
    ``packed`` its pattern counts as ``CompiledPatterns(patterns, n=n)``
    packs them, in fields of ``count_field(patterns, n)`` bits; no key has zero hosts."""
    patterns, n, first = task
    if n <= 1:  # the empty host or the host (1,), counted as a single host
        host = tuple(range(1, n + 1))
        return {CompiledPatterns(patterns, n=n).host_hits(host) << 4 | endpoint_type(host): 1}
    if not patterns:  # a host costs only its type, and packed is 0: count, do not build
        return tally_subtree(n, first)
    return _walk(_compiled(patterns, n=n), n, first)


# The patterns compiled for length n, once per length in each process: tasks
# run longest first, so a length's tasks follow each other.
_compiled = lru_cache(maxsize=1)(CompiledPatterns)


def _walk(compiled: CompiledPatterns, n: int, first: int):
    """Tally, as ``_tally`` does, every king permutation of 1..n (n >= 2) that
    begins with ``first``, whatever its class.  Each node adds the hits of the
    candidates ending at its position to the counts it passes down, the
    single's from ``compiled.singles[v][before]`` and the pairs' from one
    ``compiled.pair_counter`` over the walk's own lists, which reads the
    band tables of length n; the other candidates are counted at each leaf.
    A walk that counts pairs keeps, next to ``seq`` and ``pre``, the
    position of each placed value (``pos``), from which the pair loop reads
    the values before an earlier entry.  Like ``tally_subtree``, the walk
    reuses no subtree and tests every adjacent pair of every host."""
    head = 4 * endpoint_flags(first, n)
    type_by_last = [head | endpoint_flags(v, n) for v in range(n + 1)]
    far = far_rows(n)
    full = (2 << n) - 2
    seq = [first] * n
    pre = [0, 1 << first] + [0] * (n - 1)
    pre[n] = full  # all n values precede position n, whatever the order
    pos = [0] * (n + 1)  # pos[seq[i]] = i for the placed entries, kept in pair walks only
    singles = compiled.singles
    pairs = compiled.pair_counter(pre, pos, full) if compiled.pair_sides else None
    whole = compiled.whole if compiled.generic else None
    leaves: dict[int, int] = {}
    get = leaves.get

    def walk(d: int, rest: list[int], packed: int) -> None:
        # place position d, after seq[d - 1], from the values not yet placed
        before = pre[d]
        fp = far[seq[d - 1]]
        if len(rest) == 2:  # the last two entries and their leaf, inline
            a, b = rest
            for v, w in ((a, b), (b, a)):
                if fp[v] and far[v][w]:
                    seq[d], seq[d + 1] = v, w
                    pre[d + 1] = with_v = before | 1 << v
                    key = packed + singles[v][before] + singles[w][with_v]
                    if pairs:
                        pos[v] = d
                        key += pairs(d, v, before) + pairs(d + 1, w, with_v)
                    if whole:
                        key += whole(seq, pre)
                    key = key << 4 | type_by_last[w]
                    leaves[key] = get(key, 0) + 1
            return
        for i, v in enumerate(rest):
            if fp[v]:
                seq[d] = v
                pre[d + 1] = before | 1 << v
                hits = packed + singles[v][before]
                if pairs:
                    pos[v] = d
                    hits += pairs(d, v, before)
                walk(d + 1, rest[:i] + rest[i + 1 :], hits)

    walk(1, [v for v in range(1, n + 1) if v != first], singles[first][0])
    return leaves


def _firsts(n: int, king_class: KingClass) -> list[int]:
    """The first values that begin a type the class holds at length n; 1 at n = 0."""
    heads = {t >> 2 for t in CLASS_TYPES[KingClass(king_class)]}
    return [first for first in range(1, max(n, 1) + 1) if not n or endpoint_flags(first, n) in heads]


def _class_hosts(tally: dict[int, int], king_class: KingClass) -> int:
    """How many hosts of a tally the class holds: those of the types it holds."""
    types = CLASS_TYPES[KingClass(king_class)]
    return sum(hosts for key, hosts in tally.items() if key & 15 in types)


def class_size(n: int, king_class: KingClass = KingClass.ALL) -> int:
    """Number of class members of length n (n >= 0) by enumeration: the
    census's tasks of length n alone, tallied with no pattern."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tallies = (_tally(((), n, first)) for first in _firsts(n, king_class))
    return sum(_class_hosts(tally, king_class) for tally in tallies)


@dataclass(frozen=True)
class Census:
    """The tallies of one pass over a king class, one per length, with the
    patterns counted through ``pattern_n_max``.  A census of ALL answers for
    every class; one of a restricted class skips the first values the class
    forbids, so it answers for that class alone and refuses the others."""

    patterns: tuple[MeshPattern, ...]
    pattern_n_max: int
    tallies: tuple[dict[int, int], ...]
    king_class: KingClass = KingClass.ALL

    def _holds(self, king_class: KingClass) -> KingClass:
        kc = KingClass(king_class)
        if self.king_class not in (KingClass.ALL, kc):
            raise ValueError(f"a census of class {self.king_class.value} answers for "
                             f"{self.king_class.value} alone, not for {kc.value}")
        return kc

    def size(self, n: int, king_class: KingClass) -> int:
        """Number of class members of length n: the hosts of the types the
        class holds.

        >>> kings = census((), 5)
        >>> kings.size(5, KingClass.ALL), kings.size(5, "sl")
        (14, 10)
        """
        if not 0 <= n < len(self.tallies):
            raise IndexError(f"length n={n} outside 0..{len(self.tallies) - 1}")
        return _class_hosts(self.tallies[n], self._holds(king_class))

    def table(self, pattern: MeshPattern, king_class: KingClass) -> DistributionTable:
        """The pattern's distribution rows over the class."""
        kc = self._holds(king_class)
        if pattern not in self.patterns:
            raise ValueError(f"the census did not count the pattern {render_pattern(pattern)}")
        types, idx = CLASS_TYPES[kc], self.patterns.index(pattern)
        rows = []  # each key's field idx, read inline as packed_count reads it
        for n, tally in enumerate(self.tallies[: self.pattern_n_max + 1]):
            row, field = [0] * (math.comb(n, pattern.length) + 1), count_field(self.patterns, n)
            for key, hosts in tally.items():
                if key & 15 in types:
                    row[key >> 4 + field * idx & (1 << field) - 1] += hosts
            rows.append(UPoly(row))
        return DistributionTable(pattern, kc, tuple(rows))


def census(
    patterns: Sequence[MeshPattern],
    n_max: int,
    king_class: KingClass = KingClass.ALL,
    jobs: int = 1,
    pattern_n_max: int | None = None,
) -> Census:
    """Enumerate the kings of each length 0..n_max once, tallying them by
    endpoint type and counting the patterns through ``pattern_n_max``
    (default ``n_max``).  The work is split by length and by the first values
    the class allows; with ``jobs > 1`` one pool of workers takes it, the
    longest lengths first.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if pattern_n_max is None:
        pattern_n_max = n_max
    if not 0 <= pattern_n_max <= n_max:
        raise ValueError(f"pattern_n_max must lie in 0..n_max = {n_max}, got {pattern_n_max}")
    patterns, kc = tuple(patterns), KingClass(king_class)
    tasks = [
        (patterns if n <= pattern_n_max else (), n, first)
        for n in range(n_max, -1, -1)
        for first in _firsts(n, kc)
    ]
    if jobs > 1 and n_max >= 2:
        import multiprocessing  # only a pooled run pays for the import

        with multiprocessing.Pool(min(jobs, n_max)) as pool:
            parts = pool.map(_tally, tasks, chunksize=1)
    else:
        parts = map(_tally, tasks)
    tallies = [Counter() for _ in range(n_max + 1)]
    for (_, n, _), part in zip(tasks, parts):
        tallies[n].update(part)
    return Census(patterns, pattern_n_max, tuple(tallies), kc)


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
    """Batched tables from one census of the class: each length is enumerated
    once for all the patterns, and each table sums its class's endpoint types.

    Occurrence counting takes most of the time, though the walk finds the
    hits of each candidate once for all the hosts that share it.  A batch
    shares the walk and compiles the patterns once per length in each
    process, but every pattern still costs.
    """
    result = census(patterns, n_max, king_class, jobs)
    return [result.table(p, king_class) for p in result.patterns]
