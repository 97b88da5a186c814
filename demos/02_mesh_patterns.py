"""Mesh patterns and where they occur.

A mesh pattern is a tiny permutation plus shaded boxes; an occurrence is a
matching subsequence of a host permutation whose shaded regions are empty of
other points.  The package ships a catalog of the length-1 and length-2
patterns it knows results for; ``kingmesh.gfs.SOLVED`` holds the closed forms
of the solved ones.
"""

from kingmesh import (
    avoids,
    catalog,
    catalog_pattern,
    count_occurrences,
    parse_pattern,
    render_pattern,
)
from kingmesh.gfs import SOLVED

print("The catalog:")
for entry in catalog():
    status = "solved" if entry.ident in SOLVED else "open"
    print(f"  {entry.ident:>3} [{status:>6}]  {render_pattern(entry.pattern)}")

x = catalog_pattern("X")
host = (1, 3, 5, 2, 4)
print(f"\nStrong points of {''.join(map(str, host))}:", count_occurrences(x, host))

print("\nParsing the text format:")
p = parse_pattern("mesh(2;12;{(0,1),(1,0),(1,1),(1,2),(2,1)})")
print("  parsed:", render_pattern(p))
print("  this is catalog pattern 14:", p == catalog_pattern("14"))
print("  2413 avoids it:", avoids(p, (2, 4, 1, 3)))
print("  1234 avoids it:", avoids(p, (1, 2, 3, 4)))
