"""
Pair models: a dcpo presentation of a finite T1 carrier
=======================================================

Every bounded-complete finite poset P yields a model poset whose
elements are pairs (x, e) with x below a maximal element e.  Order:
(x, e) <= (y, f) iff x <= y and either e = f (same slice) or y = f
(y is itself maximal).  The maximal pairs (e, e) recover P's maximal
points exactly, and directed subsets of the model split cleanly:
either they contain a maximum, or they live inside one slice and
project to a directed set of P.
"""

from orderlab import VEE, max_homeo_check, validate_poset, xizhao_model

# The vee poset: one bottom below two incomparable tops.
print("base:", VEE.labels, "up masks:", VEE.up)

model = xizhao_model(VEE)
print("model pairs:", model.pairs)
print("model labels:", model.poset.labels)
print("model up masks:", model.poset.up)

# With two maximal elements and the bottom below both, the model is a
# complete bipartite 2x2 order: each non-maximal pair sits below both
# maximal pairs.
non_max = [i for i in range(4) if model.poset.up[i] & ~(1 << i)]
tops = [i for i in range(4) if not (model.poset.up[i] & ~(1 << i))]
print("non-maximal pairs:", [model.poset.labels[i] for i in non_max])
print("maximal pairs:", [model.poset.labels[i] for i in tops])
for i in non_max:
    assert all(model.poset.up[i] >> j & 1 for j in tops)
print("complete bipartite: yes")

# The model construction itself verifies the directed-set dichotomy
# (exhaustively up to ten pairs) and bounded completeness; the
# maximal-point subspaces of model and base are then homeomorphic,
# and the checker returns the verified map.
homeo = max_homeo_check(model)
print("max-point homeomorphism graph:", homeo.graph)
print("sends:", [
    f"{homeo.source.labels[i]} -> {homeo.target.labels[j]}"
    for i, j in enumerate(homeo.graph)
])

# A three-element chain gives the degenerate shape: a single slice.
chain3 = validate_poset(("a", "b", "c"), (("a", "b"), ("b", "c")))
print("chain model pairs:", xizhao_model(chain3).pairs)
