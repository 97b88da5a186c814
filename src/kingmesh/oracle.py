"""Ground-truth occurrence distributions by exhaustive enumeration.

For a pattern p, a length n and a king class, the oracle computes the sum of
u^(occurrences of p in s) over every member s of the class, as an exact
integer polynomial.  This is the independent route against which every closed
form in :mod:`kingmesh.gfs` is checked: the two share no code beyond integer
arithmetic.

Enumeration can fan out over the choice of the first element; each worker owns
the subtree below one first value and the partial counts are added, so the
result is identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import Iterable, Sequence

from .kings import KingClass, enumerate_kings
from .mesh import CompiledPatterns, MeshPattern, occurrence_counts, render_pattern
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
        from .mesh import parse_pattern

        rows = [None] * len(data["rows"])
        for item in data["rows"]:
            rows[item["n"]] = parse_upoly(item["coeff"])
        if any(r is None for r in rows):
            raise ValueError("missing row in distribution table")
        return DistributionTable(
            parse_pattern(data["pattern"]),
            KingClass(data["class"]),
            tuple(rows),
        )


def _count_vectors(
    patterns: Sequence[MeshPattern],
    n: int,
    king_class: KingClass,
    first_values: Iterable[int] | None = None,
) -> list[list[int]]:
    """vectors[p][c] = number of class members with exactly c occurrences."""
    sizes = [math.comb(n, p.length) + 1 for p in patterns]
    vectors = [[0] * size for size in sizes]
    compiled = CompiledPatterns(patterns)
    for perm in enumerate_kings(n, king_class, first_values):
        for idx, c in enumerate(occurrence_counts(compiled, perm)):
            vectors[idx][c] += 1
    return vectors


def _worker(args) -> list[list[int]]:
    patterns, n, king_class, first = args
    return _count_vectors(patterns, n, king_class, (first,))


def _merged_vectors(
    patterns: Sequence[MeshPattern], n: int, king_class: KingClass, jobs: int
) -> list[list[int]]:
    if jobs <= 1 or n < 2:
        return _count_vectors(patterns, n, king_class)
    tasks = [(tuple(patterns), n, king_class, first) for first in range(1, n + 1)]
    with multiprocessing.Pool(min(jobs, n)) as pool:
        partials = pool.map(_worker, tasks)
    totals = [[0] * len(v) for v in partials[0]]
    for part in partials:
        for vec, add in zip(totals, part):
            for i, c in enumerate(add):
                vec[i] += c
    return totals


def distribution(
    pattern: MeshPattern,
    n: int,
    king_class: KingClass = KingClass.ALL,
    jobs: int = 1,
) -> UPoly:
    """Sum of u^(occurrence count) over the class members of length n."""
    return UPoly(_merged_vectors([pattern], n, KingClass(king_class), jobs)[0])


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
    """Batched tables sharing a single enumeration pass per length.

    Occurrence counting, not enumeration, takes most of the time: over 80 %
    of the catalog sweep to n = 9.  A batch shares each host's set-up and
    compiles the patterns once per length, but every pattern still costs.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    kc = KingClass(king_class)
    per_pattern: list[list[UPoly]] = [[] for _ in patterns]
    for n in range(n_max + 1):
        for idx, vec in enumerate(_merged_vectors(patterns, n, kc, jobs)):
            per_pattern[idx].append(UPoly(vec))
    return [
        DistributionTable(p, kc, tuple(rows))
        for p, rows in zip(patterns, per_pattern)
    ]
