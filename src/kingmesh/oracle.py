"""Ground-truth occurrence distributions by exhaustive enumeration.

For a pattern p, a length n and a king class, the oracle computes the sum of
u^(occurrences of p in s) over every member s of the class, as an exact
integer polynomial.  This is the independent route against which every closed
form in :mod:`kingmesh.gfs` is checked: the two share no code beyond integer
arithmetic.

Its one kernel is a *census*: one pass over a class per length that tallies
every host under its endpoint type.  Each class is a union of endpoint types,
so a census of all kings yields every class's size and distributions.  A
length that counts no pattern needs only those tallies, so its hosts are not
streamed: :func:`kingmesh.kings.tally_subtree` walks the same backtracking
tree below each first value and returns how many hosts end on each kind of
last entry, without building one.

Enumeration can fan out over the choice of the first element; each worker owns
the subtree below one first value and the partial tallies are added, so the
result is identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from itertools import accumulate
from operator import add
from typing import Sequence

from .kings import (
    CLASS_FORBIDS,
    KingClass,
    class_ends,
    endpoint_flags,
    enumerate_kings,
    tally_subtree,
)
from .mesh import CompiledPatterns, MeshPattern, occurrence_counts, parse_pattern, render_pattern
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


# A host's endpoint type is 4 * flags(first entry) + flags(last entry), with
# the endpoint flags of kings.py; a class is the union of the types whose
# flags it does not forbid.
_CLASS_TYPES = {
    kc: [t for t in range(16) if not (t >> 2 & first or t & 3 & last)]
    for kc, (first, last) in CLASS_FORBIDS.items()
}


def _tally(task) -> list[int]:
    """One length's tally below one first value.  Entry t counts the hosts of
    endpoint type t.  The block of type t starts at 16 + t * stride and holds
    the patterns' vectors one after another: how many of those hosts have
    exactly c occurrences."""
    patterns, n, king_class, first = task
    widths = [math.comb(n, p.length) + 1 for p in patterns]
    stride = sum(widths)
    flags = [endpoint_flags(v, n) for v in range(n + 1)]
    counts = [0] * (16 + 16 * stride)
    if n and not patterns:  # a host costs only its tally: count, do not build
        firsts, last = class_ends(n, king_class)
        if first in firsts:
            counts[4 * flags[first] : 4 * flags[first] + 4] = tally_subtree(n, first, last)
        return counts
    starts = list(accumulate(widths, initial=16))[:-1]
    by_type = [[t * stride + start for start in starts] for t in range(16)]
    compiled = CompiledPatterns(patterns)
    for perm in enumerate_kings(n, king_class, (first,)):
        t = 4 * flags[perm[0]] + flags[perm[-1]] if n else 0
        counts[t] += 1
        for start, c in zip(by_type[t], occurrence_counts(compiled, perm)):
            counts[start + c] += 1
    return counts


@dataclass(frozen=True)
class Census:
    """The tallies of one pass over a king class, one per length, with the
    patterns counted through ``pattern_n_max``.  A census of ALL answers for
    every class; one of a restricted class counts only its own members."""

    patterns: tuple[MeshPattern, ...]
    pattern_n_max: int
    tallies: tuple[list[int], ...]

    def size(self, n: int, king_class: KingClass) -> int:
        """Number of class members of length n."""
        return sum(self.tallies[n][t] for t in _CLASS_TYPES[KingClass(king_class)])

    def table(self, pattern: MeshPattern, king_class: KingClass) -> DistributionTable:
        """The pattern's distribution rows over the class."""
        kc = KingClass(king_class)
        idx = self.patterns.index(pattern)
        rows = []
        for n, tally in enumerate(self.tallies[: self.pattern_n_max + 1]):
            widths = [math.comb(n, p.length) + 1 for p in self.patterns]
            start, stride = 16 + sum(widths[:idx]), sum(widths)
            starts = [start + t * stride for t in _CLASS_TYPES[kc]]
            rows.append(UPoly(sum(tally[s + c] for s in starts) for c in range(widths[idx])))
        return DistributionTable(pattern, kc, tuple(rows))


def census(
    patterns: Sequence[MeshPattern],
    n_max: int,
    king_class: KingClass = KingClass.ALL,
    jobs: int = 1,
    pattern_n_max: int | None = None,
) -> Census:
    """Enumerate the class members of each length 0..n_max once, tallying
    them by endpoint type and counting the patterns through ``pattern_n_max``
    (default ``n_max``).  The work is split by length and first value; with
    ``jobs > 1`` one pool of workers takes it, the longest lengths first.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if pattern_n_max is None:
        pattern_n_max = n_max
    if not 0 <= pattern_n_max <= n_max:
        raise ValueError(f"pattern_n_max must lie in 0..n_max = {n_max}, got {pattern_n_max}")
    patterns, kc = tuple(patterns), KingClass(king_class)
    tasks = [
        (patterns if n <= pattern_n_max else (), n, kc, first)
        for n in range(n_max, -1, -1)
        for first in range(1, max(n, 1) + 1)  # the empty host takes any first value
    ]
    if jobs > 1 and n_max >= 2:
        with multiprocessing.Pool(min(jobs, n_max)) as pool:
            parts = pool.map(_tally, tasks, chunksize=1)
    else:
        parts = map(_tally, tasks)
    tallies: list = [None] * (n_max + 1)
    for (_, n, _, _), part in zip(tasks, parts):
        tallies[n] = part if tallies[n] is None else list(map(add, tallies[n], part))
    return Census(patterns, pattern_n_max, tuple(tallies))


def distribution(
    pattern: MeshPattern,
    n: int,
    king_class: KingClass = KingClass.ALL,
    jobs: int = 1,
) -> UPoly:
    """Sum of u^(occurrence count) over the class members of length n."""
    return distribution_table(pattern, n, king_class, jobs).row(n)


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

    Occurrence counting, not enumeration, takes most of the time: over 80 %
    of the catalog sweep to n = 9.  A batch shares each host's set-up and
    compiles the patterns once per worker task, but every pattern still costs.
    """
    result = census(patterns, n_max, king_class, jobs)
    return [result.table(p, king_class) for p in result.patterns]
