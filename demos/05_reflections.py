"""
Hyperspace reflections: repairing sobriety and well-filteredness
================================================================

The sobrification of a finite space is built as a hyperspace: points
are the irreducible closed sets of the base, opens are generated by
the sets of members meeting a base open.  Swapping in the KF family
gives the well-filtered reflection the same way.  On finite T0 spaces
both constructions return a homeomorphic copy of the input — the
interesting behaviour lives in how they are checked, and in the stage
iteration that approximates the reflection from below inside a sober
ambient.
"""

from orderlab import (
    SIERPINSKI,
    VEE,
    claim_embed2_check,
    decomposition_check,
    j_embedding_check,
    shen_iterate,
    sobrification,
    universal_property_smoke,
    wf_reflection,
    xizhao_model,
)


def names(space, mask):
    inside = ",".join(space.labels[i] for i in range(space.n) if mask >> i & 1)
    return "{" + inside + "}"


# Sobrification of the two-point space with one nontrivial open: its
# two irreducible closed sets become the two points of the hyperspace,
# and eta sends each base point to its closure.
hyper = sobrification(SIERPINSKI)
print("hyperspace points (as base closed sets):",
      [names(SIERPINSKI, m) for m in hyper.members])
print("eta:", {SIERPINSKI.labels[i]: names(SIERPINSKI, hyper.members[j])
               for i, j in enumerate(hyper.eta)})

# The well-filtered reflection uses the KF family instead; on a finite
# T0 space the two reflections have the same member family.
print("wf members == sob members:", wf_reflection(SIERPINSKI).members == hyper.members)

# The universal property, checked by brute force: for every target
# drawn from all 242 spaces on at most four labeled points that have
# the relevant property, composing with eta must put the continuous
# maps out of the reflection in bijection with those out of the base.
for kind in ("SOBER", "WF"):
    report = universal_property_smoke(SIERPINSKI, kind)
    print(f"universal ({kind}): {report.targets} targets, "
          f"{report.maps_checked} maps checked")

# Stage iteration: inside the sobrification, grow the image of the
# base one stage at a time (a point joins when some member of the
# meeting family of the current stage closes onto exactly its
# closure).  On finite inputs the chain fills the sobrification by
# stage one at the latest; here the image is already everything.
chain = shen_iterate(SIERPINSKI)
print("stage masks:", chain.stages, "stabilized at:", chain.stabilization_index)

# The closure map j embeds the hyperspace of the maximal-point part
# into the hyperspace of the whole model, commuting with both etas and
# preserving the family structure; the report carries each verified law.
jrep = j_embedding_check(VEE, kind="sober")
print("j-embedding:", "embedding" if jrep.embedding else "NOT an embedding",
      "| square commutes:", jrep.square_commutes,
      "| image law:", jrep.image_law)

# Running the stage chains of the model and of its maximal-point part
# side by side ties the two reflections together stage by stage.
pair = claim_embed2_check(VEE)
print("paired chains stabilize at:", (pair.x_index, pair.y_index),
      "stages checked:", pair.stages_checked)

# The decomposition equations relate families of the model's Scott
# space to families of the maximal part, member by member, with exact
# set equality on both sides.
for name in ("EQ0", "EQ1", "EQ2", "KFSET2", "EQ3"):
    for verdict in decomposition_check(VEE, name):
        print(f"{verdict.name:12s} passed={verdict.passed} "
              f"(lhs {verdict.lhs_size} == rhs {verdict.rhs_size})")

# The model the equations run over, for reference.
print("model:", xizhao_model(VEE).poset.labels)
