"""
The cofinite line: an exact infinite counterexample
===================================================

The naturals with the cofinite topology form a T1 space on which the
closed-set families genuinely differ: the whole line is irreducible,
is a minimal meeting set, and survives the squeeze — so Irr, KF and
WD all contain it — but it is nobody's point closure, so S_c stays at
the singletons.  Sets are represented symbolically (finite or cofinite
with an explicit support), so every computation on this infinite space
is exact — and each symbolic law is cross-checked against truncated
explicit windows.
"""

from orderlab import (
    COFNAT,
    classify,
    cofin,
    fin,
    shen_cofnat,
    sobrify_cofnat,
    wfreflect_cofnat,
    window_oracle,
)

# Symbolic sets: finite ones list their elements, cofinite ones list
# their complement.  The algebra is closed and exact.
a = fin(1, 2, 3)
b = cofin(2, 5)
print("a =", a.describe(), "| b =", b.describe())
print("a ∪ b =", a.union(b).describe())
print("a ∩ b =", a.inter(b).describe())
print("~a  =", a.complement().describe())

# Openness, closedness and closure in the cofinite topology follow the
# symbolic representation: open iff empty or cofinite, closed iff
# finite or everything.
print("b open:", COFNAT.is_open(b), "| a closed:", COFNAT.is_closed(a))
print("closure(b) =", COFNAT.closure(b).describe())

# Any expression tree can be evaluated symbolically and in an explicit
# window of naturals at once; the oracle reports both routes and
# whether they agree.
expr = ("isclosed", ("inter", ("cofin", (0, 1)), ("fin", (1, 2, 9))))
print("window oracle:", window_oracle(expr, 16))

# The classification panel for this space comes from the same flag
# table as a finite space's: approximation properties hold (every
# closed set is reachable through the squeeze and the minimal-meeting
# machinery) while sobriety and well-filteredness fail — the whole
# line is irreducible but has no generic point.
for flag in classify(COFNAT).flags:
    print(f"  {flag.name:20s} {str(flag.value):5s} — {flag.witness}")

# Sobrification repairs that by adding exactly one point, a generic
# top whose closure is everything.
sob = sobrify_cofnat()
print("added points:", sob.added_points)
print("closure of a natural:", sob.point_closure_nat(3).describe())
print("closure of the top:", sob.point_closure_top().describe())
print("sober now:", sob.sober_check())

# The well-filtered reflection lands on the same space: repairing the
# weaker property here already forces the full repair.
_reflection, same = wfreflect_cofnat()
print("well-filtered reflection == sobrification:", same)

# The stage iteration reaches that reflection in one step beyond the
# base copy and then stabilizes.
chain = shen_cofnat()
print("stages:", [s.describe() for s in chain.stages])
print("stabilized at index:", chain.stabilization_index)
