"""King permutations and their restricted classes.

A permutation (one-line notation, values 1..n) is a *king permutation* when
every two adjacent entries differ by more than one, like non-attacking kings
placed on adjacent columns of a board.  This module provides the symmetry
operations, membership tests, a streaming backtracking enumerator, a counting
walk that tallies the kings below one first value by endpoint type without
building them, and four independent ways of counting, which :func:`count_class`
alone dispatches.  Every walk reads one adjacency table, :func:`far_rows`;
the census of :mod:`kingmesh.oracle` reads each row ``far[a]`` as a bitset,
bit b set when b may stand next to a, so that one AND with the bitset of the
values not yet placed gives the values a node may place after a.
Every restricted class forbids only some first and last entries, so one table,
``CLASS_TYPES``, says which endpoint types each class holds; the walks know no
class: :func:`first_values` (where its members begin, for the walks) and
:func:`class_total` (how many hosts of a tally it holds, for every route) read
the table.

>>> is_king((2, 4, 1, 3))
True
>>> sorted(enumerate_kings(4))
[(2, 4, 1, 3), (3, 1, 4, 2)]
>>> count_kings(7)
646
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from operator import sub
from typing import Iterator, Sequence

Perm = tuple[int, ...]


class KingClass(str, Enum):
    """Restricted classes of king permutations.

    ALL - no restriction
    S   - does not begin with the smallest element
    L   - does not end with the largest element
    SL  - both of the above
    LS  - does not begin with the largest and does not end with the smallest
          (the complement image of SL)

    The empty permutation belongs to every class; the one-element permutation
    belongs only to ALL (it begins with its smallest and ends with its largest
    element at once).  ``CLASS_TYPES`` states these conditions as the endpoint
    types each class holds.
    """

    ALL = "all"
    S = "s"
    L = "l"
    SL = "sl"
    LS = "ls"


# the four counting methods of count_class, under their short names
COUNT_METHODS = {"rec": "recurrence", "explicit": "explicit", "gf": "gf", "enum": "enumerate"}

# the six series every closed form of kingmesh.gfs is built from: the counting
# series of the classes ALL, S/L and SL/LS, and their strong-point distributions
BASE_NAMES = ("A", "B", "C", "Atu", "Btu", "Ctu")


def is_permutation(values: Sequence[int]) -> bool:
    """True when values is a rearrangement of 1..len(values)."""
    n = len(values)
    seen = 0
    for v in values:
        if not 1 <= v <= n:
            return False
        bit = 1 << v
        if seen & bit:
            return False
        seen |= bit
    return True


def perm_text(p: Sequence[int], sep: str) -> str:
    """The entries as one digit string, or joined by ``sep`` once one has two digits."""
    return (sep if p and max(p) > 9 else "").join(map(str, p))


_NEAR = frozenset((-1, 0, 1))  # the differences no two adjacent entries of a king have


def is_king(p: Sequence[int]) -> bool:
    """True when all adjacent entries differ by more than 1 (vacuous for n <= 1).

    >>> is_king((1, 2, 3, 4))
    False
    >>> is_king(())
    True
    """
    return _NEAR.isdisjoint(map(sub, p[1:], p))


def reverse(p: Sequence[int]) -> Perm:
    """Flip the position order.

    >>> reverse((2, 4, 3, 1))
    (1, 3, 4, 2)
    """
    return tuple(reversed(p))


def complement(p: Sequence[int]) -> Perm:
    """Map each value v to n+1-v.

    >>> complement((2, 4, 3, 1))
    (3, 1, 2, 4)
    """
    n = len(p)
    return tuple(n + 1 - v for v in p)


def reduced(values: Sequence[int]) -> Perm:
    """Replace the i-th smallest entry by i (entries must be distinct).

    >>> reduced((2, 6, 4, 8))
    (1, 3, 2, 4)
    """
    if len(set(values)) != len(values):
        raise ValueError(f"entries are not distinct: {tuple(values)}")
    rank = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(rank[v] for v in values)


# A member's class depends only on its end entries.  The endpoint flags of an
# entry say whether it is the smallest value and whether it is the largest;
# each class forbids some flags at its first entry and some at its last.  The
# entry of a one-element permutation carries both flags.
SMALLEST, LARGEST = 1, 2
CLASS_FORBIDS = {
    KingClass.ALL: (0, 0),
    KingClass.S: (SMALLEST, 0),
    KingClass.L: (0, LARGEST),
    KingClass.SL: (SMALLEST, LARGEST),
    KingClass.LS: (LARGEST, SMALLEST),
}

# A permutation's endpoint type is 4 * flags(first entry) + flags(last entry),
# and 0 for the empty one.  This table is the one rule of class membership:
# a class holds exactly the types whose flags it does not forbid.
CLASS_TYPES = {
    kc: frozenset(t for t in range(16) if not (t >> 2 & first or t & 3 & last))
    for kc, (first, last) in CLASS_FORBIDS.items()
}


def endpoint_flags(value: int, n: int) -> int:
    """The endpoint flags of an entry ``value`` of a permutation of 1..n."""
    return SMALLEST * (value == 1) | LARGEST * (value == n)


def endpoint_type(p: Sequence[int]) -> int:
    """The endpoint type of a permutation (see ``CLASS_TYPES``)."""
    n = len(p)
    return 4 * endpoint_flags(p[0], n) | endpoint_flags(p[-1], n) if p else 0


def first_values(n: int, king_class: KingClass) -> list[int]:
    """The first values of 1..n (n >= 1) that begin an endpoint type the class holds.

    >>> first_values(5, KingClass.SL), first_values(1, KingClass.S)
    ([2, 3, 4, 5], [])
    """
    heads = {t >> 2 for t in CLASS_TYPES[KingClass(king_class)]}
    return [first for first in range(1, n + 1) if endpoint_flags(first, n) in heads]


def class_total(tally: dict[int, int], king_class: KingClass) -> int:
    """How many hosts of a tally the class holds: those whose key
    ``packed << 4 | type`` has an endpoint type the class holds.

    >>> class_total(tally_subtree(5, 2), KingClass.L)  # not 24135, which ends on the largest
    2
    """
    types = CLASS_TYPES[KingClass(king_class)]
    return sum(hosts for key, hosts in tally.items() if key & 15 in types)


def in_class(p: Sequence[int], king_class: KingClass = KingClass.ALL) -> bool:
    """Membership of p in a restricted king class (see :class:`KingClass`)."""
    return is_king(p) and endpoint_type(p) in CLASS_TYPES[KingClass(king_class)]


def enumerate_kings(n: int, king_class: KingClass = KingClass.ALL) -> Iterator[Perm]:
    """Yield each member of the class exactly once, in lexicographic order.

    Backtracking over the choice of the next value, pruning any prefix whose
    last two entries differ by at most one, yields every king of length n;
    those whose endpoint type the class holds pass.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    types = CLASS_TYPES[KingClass(king_class)]
    return (p for p in _kings(n) if endpoint_type(p) in types)


def far_rows(n: int) -> list[list[bool]]:
    """``far[a][b]`` of every walk over the kings of 1..n: a and b differ by
    more than one, so they may stand side by side.  A fresh table each call."""
    return [[abs(a - b) > 1 for b in range(n + 1)] for a in range(n + 1)]


def _kings(n: int) -> Iterator[Perm]:
    # One depth-first walk over an explicit stack of (prefix, its last entry,
    # the values not yet placed); each king is yielded where it is completed.
    # The children of a prefix are pushed largest value first, so the smallest
    # is popped first, and the stack never holds more than about n^2 / 2 prefixes.
    far = far_rows(n)
    far[0] = [True] * (n + 1)  # any value may follow the empty prefix
    stack = [((), 0, tuple(range(1, n + 1)))]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, last, rest = pop()
        fl = far[last]
        if len(rest) == 2:  # the last two entries, inline
            a, b = rest
            if far[a][b]:
                if fl[a]:
                    yield prefix + (a, b)
                if fl[b]:
                    yield prefix + (b, a)
        elif rest:
            for i in range(len(rest) - 1, -1, -1):
                v = rest[i]
                if fl[v]:
                    push((prefix + (v,), v, rest[:i] + rest[i + 1 :]))
        else:  # n <= 1
            yield prefix


def tally_subtree(n: int, first: int) -> dict[int, int]:
    """Count the king permutations of 1..n (n >= 1) that begin with
    ``first`` by endpoint type: the result maps each type that occurs to how
    many of them have it.  Which of them a class holds is read from
    ``CLASS_TYPES`` afterwards.

    >>> tally_subtree(5, 2)  # 24153 and 25314 end inside, 24135 on the largest
    {0: 2, 2: 1}

    The same exhaustive backtracking as the stream below one first value: no
    subtree's count is reused or derived by symmetry, and every adjacent pair
    of every member counted is tested, so the count stays an enumeration,
    independent of the closed forms.  But no member is built or yielded,
    which makes it several times faster where only the number matters.  The
    last five entries are placed inline, saving the calls that outnumber all
    others.
    """
    flags = [endpoint_flags(v, n) for v in range(n + 1)]
    far = far_rows(n)
    tally = [0, 0, 0, 0]  # by the endpoint flags of the last entry

    def walk(fp: list[bool], rest: list[int]) -> None:
        # place the values in rest after an entry whose row of far is fp
        if len(rest) == 5:
            a, b, c, d, e = rest
            for v, r, s, t, u in ((a, b, c, d, e), (b, a, c, d, e), (c, a, b, d, e),
                                  (d, a, b, c, e), (e, a, b, c, d)):
                if not fp[v]:
                    continue
                fv = far[v]
                for w, x, y, z in ((r, s, t, u), (s, r, t, u), (t, r, s, u), (u, r, s, t)):
                    if not fv[w]:
                        continue
                    # w follows v; then the six orders of x, y, z
                    fw = far[w]
                    xy, xz, yz = far[x][y], far[x][z], far[y][z]
                    if fw[x]:
                        if xy and yz:
                            tally[flags[z]] += 1
                        if xz and yz:
                            tally[flags[y]] += 1
                    if fw[y]:
                        if xy and xz:
                            tally[flags[z]] += 1
                        if yz and xz:
                            tally[flags[x]] += 1
                    if fw[z]:
                        if xz and xy:
                            tally[flags[y]] += 1
                        if yz and xy:
                            tally[flags[x]] += 1
        elif len(rest) > 1:
            for i, v in enumerate(rest):
                if fp[v]:
                    walk(far[v], rest[:i] + rest[i + 1 :])
        elif fp[rest[0]]:  # the last entry of a king of n <= 4
            tally[flags[rest[0]]] += 1

    # the first entry is placed like the others, from a row that allows only it
    walk([v == first for v in range(n + 1)], list(range(1, n + 1)))
    head = 4 * endpoint_flags(first, n)
    return {head | f: hosts for f, hosts in enumerate(tally) if hosts}


def _count_by_recurrence(n: int) -> int:
    # a(n) = (n+1)a(n-1) - (n-2)a(n-2) - (n-5)a(n-3) + (n-3)a(n-4) for n >= 4,
    # run forward so that large n needs no recursion depth
    a = [1, 1, 0, 0]
    for m in range(4, n + 1):
        a.append(
            (m + 1) * a[m - 1]
            - (m - 2) * a[m - 2]
            - (m - 5) * a[m - 3]
            + (m - 3) * a[m - 4]
        )
    return a[n]


def _count_by_explicit(n: int) -> int:
    # Inclusion-exclusion over maximal runs of adjacent consecutive entries;
    # the double sum is only valid from n = 4 on, small cases are pinned.
    if n < 4:
        return (1, 1, 0, 0)[n]
    total = math.factorial(n)
    for k in range(1, n + 1):
        inner = 0
        for i in range(1, k + 1):
            inner += (
                math.comb(k - 1, i - 1)
                * math.comb(n - k, i)
                * (1 << i)
                * math.factorial(n - k)
            )
        total += inner if k % 2 == 0 else -inner
    return total


# The largest order of a series: its order + 1 coefficients fill one tuple.
# It bounds every route of count_class too, as the gf route reads the class's
# series at order n.
MAX_ORDER = sys.maxsize - 1


def check_order(order: int) -> None:
    """Reject an order that no series can hold, before anything is built."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} is above the largest series order, {MAX_ORDER}")


def count_kings(n: int, method: str = "recurrence") -> int:
    """Number of king permutations of length n, by one of four routes: the
    count of the unrestricted class by :func:`count_class`."""
    return count_class(n, KingClass.ALL, method)


def count_class(n: int, king_class: KingClass, method: str = "enumerate") -> int:
    """Cardinality of a class at length n, by one of four routes:
    ``recurrence`` and ``explicit`` (closed arithmetic, ALL only), ``gf`` (the
    t^n coefficient of the class's counting series) and ``enumerate`` (every
    member walked).  All four agree; the slow ones keep the fast ones honest."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_order(n)  # the gf route's bound, for every route: none ends for a larger n
    kc = KingClass(king_class)
    if method == "enumerate":  # every member walked, below each first value the class allows
        walked = (class_total(tally_subtree(n, first), kc) for first in first_values(n, kc))
        return sum(walked) if n else 1  # the empty king belongs to every class
    if method == "gf":
        from .gfs import class_series

        return class_series(kc, n).coeff(n).evaluate(0)
    if method not in ("recurrence", "explicit"):
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(COUNT_METHODS.values())}")
    if kc is not KingClass.ALL:
        raise ValueError(f"method {method!r} counts only the unrestricted class; "
                         "gf and enumerate count restricted classes")
    return _count_by_recurrence(n) if method == "recurrence" else _count_by_explicit(n)
