"""Class sizes and the rows of length-1 patterns by state counting: the
transfer-matrix route to the kings.

Whether a value may follow a prefix of a king depends only on the values the
prefix has placed and on its last value, so every prefix with the same pair
(placed set, last value) has the same extensions.  Counting merges them: one
count per state, carried forward one position at a time (the transfer-matrix
method; Stanley, *EC1* §4.7, and Flajolet and Sedgewick 2009, ch. V).

The same states count the hits of a pattern of length 1 (a *single*), since
whether an entry v is a hit depends only on v and the values placed before it:
the values after it are the rest.  One pass, :func:`_type_rows`, counts the
kings of 1..n by endpoint type (see :data:`kingmesh.kings.CLASS_TYPES`) and
hits.  Each state carries one int with a field per (hits so far, first entry's
flags), the count of (hits, head) at ``width * (4 * hits + head)`` with
``width = n * n.bit_length()`` bits, which bounds n!.  A hit moves the whole
int up four fields, and a king has at most n hits, so no count spills; the
last entry's flags are read from the last value of each final state.  The
states live in one list of ``(1 << n) * (n + 1)`` slots, the slot of (placed,
last) at ``(placed >> 1) * (n + 1) + last``, since value 0 is never placed;
it is sized before the walk, so a length whose table cannot be built fails at
once.

Every reader sums that pass: :func:`single_rows` the rows of its class's
types, and :func:`type_counts` those of the single that shades all four
boxes, which no king of n >= 2 holds and (1,) holds once, so its rows count
every king at hits 0.  The route is a count, not an enumeration: no king is
built, and each state's extensions are tested once for all the prefixes it
stands for.  It keeps its own region masks and adjacency test and shares no
code with the oracle or the closed forms.  It answers
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

from .kings import CLASS_TYPES, KingClass, class_total, endpoint_flags

# the single that shades every box, which only the king (1,) holds
_EVERY_BOX = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})


def type_counts(n: int) -> dict[int, int]:
    """Count the king permutations of 1..n by endpoint type: the result maps
    each type that occurs to how many kings have it, as a census tally with
    no pattern does."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return {t: sum(row) for t, row in _type_rows(_EVERY_BOX, n).items()}


def class_sizes(n_max: int) -> dict[KingClass, tuple[int, ...]]:
    """The size of every class at each length 0..n_max: the kings of the
    endpoint types the class holds."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    counts = [type_counts(n) for n in range(n_max, -1, -1)][::-1]
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


def _type_rows(shaded: frozenset[tuple[int, int]], n: int) -> dict[int, list[int]]:
    """For the single that shades the boxes ``shaded``, how many kings of
    1..n of each endpoint type that occurs it hits k times, at index k of
    the type's row."""
    if n == 0:  # the empty king, which holds no entry
        return {0: [1]}
    left, right = _region_masks(shaded, n)
    flags = [endpoint_flags(v, n) for v in range(n + 1)]
    nexts = [[v for v in range(1, n + 1) if abs(v - last) > 1] for last in range(n + 1)]
    stride, width = n + 1, n * n.bit_length()  # n! < 2**width, so no field carries
    table = [0] * ((1 << n) * stride)
    layer = [(1 << first >> 1) * stride + first for first in range(1, n + 1)]
    for slot in layer:  # the first entry is a hit when no value must follow it
        first = slot % stride
        table[slot] = 1 << width * (4 * (not right[first]) + flags[first])
    for _ in range(n - 1):  # place one more value in every state
        after: list[int] = []
        reached = after.append
        for slot in layer:
            packed, table[slot] = table[slot], 0
            half, last = divmod(slot, stride)
            placed = half << 1
            for v in nexts[last]:
                if not placed >> v & 1:
                    to = (half | 1 << v >> 1) * stride + v
                    old = table[to]
                    if not old:
                        reached(to)
                    # the values after v are those not placed: they miss right[v] when it is placed
                    if placed & left[v] or placed & right[v] != right[v]:
                        table[to] = old + packed
                    else:
                        table[to] = old + (packed << 4 * width)
        layer = after
    rows: dict[int, list[int]] = {}
    field, end = (1 << width) - 1, ((1 << n) - 1) * stride
    for last in range(1, n + 1):
        packed, at = table[end + last], 0
        while packed:
            if kings := packed & field:
                hits, head = divmod(at, 4)
                rows.setdefault(4 * head | flags[last], [0] * (n + 1))[hits] += kings
            packed >>= width
            at += 1
    return rows


def single_rows(shaded: frozenset[tuple[int, int]], n_max: int,
                king_class: KingClass = KingClass.ALL) -> list[list[int]]:
    """For the single that shades the boxes ``shaded`` and each length
    0..n_max, how many members of the class it hits k times, at index k of
    row n.  The longest length goes first, so that one too long for its
    table fails before any walk."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    types = CLASS_TYPES[KingClass(king_class)]
    rows = []
    for n in range(n_max, -1, -1):
        row = [0] * (n + 1)
        for t, counts in _type_rows(shaded, n).items():
            if t in types:
                row = [a + b for a, b in zip(row, counts)]
        rows.append(row)
    return rows[::-1]
