"""Class sizes and the rows of length-1 patterns by state counting: the
transfer-matrix route to the kings.

Whether a value may follow a prefix of a king depends only on the values the
prefix has placed and on its last value, so every prefix with the same pair
(placed set, last value) has the same extensions.  Counting merges them: one
count per state, carried forward one position at a time (the transfer-matrix
method; Stanley, *EC1* §4.7, and Flajolet and Sedgewick 2009, ch. V).  A
state is one int, ``placed << shift | last``.

A king's endpoint type (see :data:`kingmesh.kings.CLASS_TYPES`) also reads its
first entry's flags, so one packed pass counts the kings of each kind of first
entry (neither end, the smallest, the largest) in its own field of one int per
state, the field at those flags times ``n * n.bit_length()`` bits, which bounds
n!; the last entry's flags are read from the last value of each final state.

The route is a count, not an enumeration: no king is built, and each state's
extensions are tested once for all the prefixes it stands for.  It keeps its
own adjacency test and shares no code with the oracle or the closed forms.

The same states count the hits of a pattern of length 1 (a *single*), since
whether an entry v is a hit depends only on v and the values placed before it:
the values after it are the rest.  :func:`single_rows` carries, for each
state, one int with a field per (kind of first entry, hits so far), each
``n * n.bit_length()`` bits wide; a hit moves the whole int up one field, and
a king has at most n hits, so no count reaches the next kind's fields.  It
reads the shading through its own region masks, starts only from the first
values the class allows and sums the final states whose endpoint type the
class holds.  Its states live in one list indexed by state, sized before the
walk, so a length whose table cannot be built fails at once.  It answers
``oracle.distribution_tables`` for a batch of singles, and the census checks
it in the tests.

>>> sorted(type_counts(5).items())  # 6 of the 14 kings of 5 hold neither end value at an end
[(0, 6), (1, 2), (2, 2), (4, 2), (8, 2)]
>>> class_sizes(5)[KingClass.SL]
(1, 0, 0, 0, 2, 10)
>>> single_rows(frozenset({(0, 0), (1, 1)}), 5, KingClass.SL)[5]  # X' hits 4 of the 10 kings of SL once
[6, 4, 0, 0, 0, 0]
"""

from __future__ import annotations

from .kings import (
    CLASS_TYPES, LARGEST, SMALLEST, KingClass, class_total, endpoint_flags, endpoint_type, first_values
)


def type_counts(n: int) -> dict[int, int]:
    """Count the king permutations of 1..n by endpoint type: the result maps
    each type that occurs to how many kings have it, as a census tally with
    no pattern does."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:  # the empty king, or the king (1,)
        return {endpoint_type(tuple(range(1, n + 1))): 1}
    flags = [endpoint_flags(v, n) for v in range(n + 1)]
    nexts = [[v for v in range(1, n + 1) if abs(v - last) > 1] for last in range(n + 1)]
    shift = n.bit_length()
    low = (1 << shift) - 1
    width = n * shift  # n! < 2**width, so no field carries into the next
    states = {1 << first << shift | first: 1 << width * flags[first] for first in range(1, n + 1)}
    for _ in range(n - 1):  # place one more value in every state
        after: dict[int, int] = {}
        get = after.get
        for state, packed in states.items():
            placed = state >> shift
            for v in nexts[state & low]:
                if not placed >> v & 1:
                    key = (placed | 1 << v) << shift | v
                    after[key] = get(key, 0) + packed
        states = after
    tally: dict[int, int] = {}
    for state, packed in states.items():
        for head in (0, SMALLEST, LARGEST):
            if kings := packed >> width * head & (1 << width) - 1:
                t = 4 * head | flags[state & low]
                tally[t] = tally.get(t, 0) + kings
    return tally


def class_sizes(n_max: int) -> dict[KingClass, tuple[int, ...]]:
    """The size of every class at each length 0..n_max: the kings of the
    endpoint types the class holds."""
    counts = [type_counts(n) for n in range(n_max + 1)]
    return {kc: tuple(class_total(tally, kc) for tally in counts) for kc in KingClass}


def _region_masks(shaded: frozenset[tuple[int, int]], n: int) -> tuple[list[int], list[int]]:
    """For each value v of 1..n, the values the entries before v must miss
    and those the entries after it must miss for v to be a hit: box (i, j)
    of a single is left of v for i = 0, right for i = 1, and below v for
    j = 0, above for j = 1."""
    full = (2 << n) - 2
    masks = ([0] * (n + 1), [0] * (n + 1))
    for v in range(1, n + 1):
        bands = ((1 << v) - 2, full & -(2 << v))  # the values below v, above v
        for i, j in shaded:
            masks[i][v] |= bands[j]
    return masks


def _single_row(shaded: frozenset[tuple[int, int]], n: int, kc: KingClass) -> list[int]:
    """Row n of ``single_rows``, from a table of every state, sized first."""
    if n == 0:  # the empty king, which holds no entry
        return [1]
    shift = n.bit_length()
    table = [0] * ((2 << n) << shift)
    left, right = _region_masks(shaded, n)
    flags = [endpoint_flags(v, n) for v in range(n + 1)]
    nexts = [[v for v in range(1, n + 1) if abs(v - last) > 1] for last in range(n + 1)]
    low, width = (1 << shift) - 1, n * shift  # n! < 2**width, so no field carries
    layer = [1 << first << shift | first for first in first_values(n, kc)]
    for state in layer:  # the first entry is a hit when no value must precede it
        first = state & low
        table[state] = 1 << width * ((n + 1) * flags[first] + (not right[first]))
    for _ in range(n - 1):  # place one more value in every state
        after: list[int] = []
        reached = after.append
        for state in layer:
            packed, table[state] = table[state], 0
            placed = state >> shift
            for v in nexts[state & low]:
                if not placed >> v & 1:
                    key = (placed | 1 << v) << shift | v
                    old = table[key]
                    if not old:
                        reached(key)
                    # the values after v are those not placed: they miss right[v] when it is placed
                    if placed & left[v] or placed & right[v] != right[v]:
                        table[key] = old + packed
                    else:
                        table[key] = old + (packed << width)
        layer = after
    row, types, field = [0] * (n + 1), CLASS_TYPES[kc], (1 << width) - 1
    full = (2 << n) - 2
    for last in range(1, n + 1):
        packed = table[full << shift | last]
        for at in range(4 * (n + 1)):
            head, hits = divmod(at, n + 1)
            if 4 * head | flags[last] in types:
                row[hits] += packed >> width * at & field
    return row


def single_rows(shaded: frozenset[tuple[int, int]], n_max: int,
                king_class: KingClass = KingClass.ALL) -> list[list[int]]:
    """For the single that shades the boxes ``shaded`` and each length
    0..n_max, how many members of the class it hits k times, at index k of
    row n.  The longest length goes first, so that one too long for its
    table fails before any walk."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    kc = KingClass(king_class)
    return [_single_row(shaded, n, kc) for n in range(n_max, -1, -1)][::-1]
