"""Running the cross-check battery programmatically.

Every distribution result the package implements is checked three ways:
exhaustive enumeration, closed-form series, and pinned reference expansions;
the functional equations behind the closed forms are checked to have zero
residual.  This demo runs a reduced battery.
"""

from collections import Counter

from kingmesh import verify_all, verify_equation, verify_theorem

print("One theorem:", verify_theorem("55", order=12, n_max=6).status)
print("One identity:", verify_equation("EQ_P55_DIST", order=12).status)

reports = verify_all(order=10, n_max=5)
by_family = Counter(r.check_id.split(":")[0] for r in reports)
print(f"\nFull battery at order 10, n <= 5: {len(reports)} checks")
for family, count in sorted(by_family.items()):
    print(f"  {family:<12} {count:>3}")
worst = [r for r in reports if r.status != "PASS"]
print("Non-passing checks:", worst if worst else "none")
