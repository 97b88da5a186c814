"""Class sizes by state counting: the transfer-matrix route to the kings.

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

>>> sorted(type_counts(5).items())  # 6 of the 14 kings of 5 hold neither end value at an end
[(0, 6), (1, 2), (2, 2), (4, 2), (8, 2)]
>>> class_sizes(5)[KingClass.SL]
(1, 0, 0, 0, 2, 10)
"""

from __future__ import annotations

from .kings import LARGEST, SMALLEST, KingClass, class_total, endpoint_flags, endpoint_type


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
