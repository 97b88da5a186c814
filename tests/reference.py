"""The occurrence definition, transcribed literally for the tests to compare
against: independent of the counting kernels in ``kingmesh.mesh``."""

from itertools import combinations

from kingmesh.mesh import MeshPattern


def occurrences_by_definition(pattern: MeshPattern, host) -> int:
    """Count the occurrences straight from the definition: every choice of
    positions ordered as tau whose shaded regions hold no entry of the host."""
    n, k = len(host), pattern.length
    total = 0
    for qs in combinations(range(1, n + 1), k):
        values = [host[q - 1] for q in qs]
        ranked = sorted(values)
        if tuple(ranked.index(v) + 1 for v in values) != pattern.tau:
            continue
        cols, rows = (0, *qs, n + 1), (0, *ranked, n + 1)
        # box (i, j) holds the entries strictly between columns i and i + 1
        # whose values lie strictly between rows j and j + 1
        if not any(
            rows[j] < host[q - 1] < rows[j + 1]
            for i, j in pattern.shaded
            for q in range(cols[i] + 1, cols[i + 1])
        ):
            total += 1
    return total
