"""
Four families of closed sets and where they sit
===============================================

Between the point closures S_c and the irreducible closed sets Irr of
a T0 space sit two more families: KF (closed sets that are minimal
among those meeting every member of some filtered family of compact
saturated sets) and WD (fixed by a two-sided squeeze).  All four
are sandwiched S_c <= KF, WD <= Irr, and the evaluator `hc` returns
each one, named by its subset-system id, as a tuple of closed-set
masks; on the cofinite line the same evaluator returns a symbolic
family.
"""

from orderlab import (
    IRR,
    KF,
    SC,
    SIERPINSKI,
    VEE,
    FilteredFamily,
    SubsetSystemId,
    hc,
    minimal_closed_meeting,
    scott_space,
    wd_status,
    xizhao_model,
)


IRR_STAR = SubsetSystemId("IRR", starred=True)


def names(space, mask):
    inside = ",".join(space.labels[i] for i in range(space.n) if mask >> i & 1)
    return "{" + inside + "}"


# On the Scott space of the vee pair model the families are computed
# from their definitions (irreducibility scans, minimality filters,
# squeeze bounds); each system id names its family.
sigma = scott_space(xizhao_model(VEE).poset)
for system in (SC, KF, IRR):
    print(f"{system.label:4s}", [names(sigma, m) for m in hc(system, sigma)])

# WD is never computed from its definition: it lies between KF and Irr,
# and on a finite space those two bounds are equal, so WD is their
# common value.  Bounds that differed would raise instead.
print("WD  ", [names(sigma, m) for m in wd_status(sigma)])

# Every family has a proper (whole-carrier-dropping) variant, named by
# the starred system id.  On the two-point space with one nontrivial
# open the whole carrier is itself irreducible, so the starred family is
# strictly smaller.
print("Irr  on 2pt:", [names(SIERPINSKI, m) for m in hc(IRR, SIERPINSKI)])
print("Irr* on 2pt:", [names(SIERPINSKI, m) for m in hc(IRR_STAR, SIERPINSKI)])

# The KF ingredients are available directly.  A filtered family of
# compact saturated sets is validated on construction; the closed sets
# minimal among those meeting all its members are then computed by the
# definitional scan over the whole closed-set lattice.
fam = FilteredFamily(SIERPINSKI, (0b11, 0b10))
meeting = minimal_closed_meeting(SIERPINSKI, fam)
print("minimal closed sets meeting the filter:", [names(SIERPINSKI, m) for m in meeting])
