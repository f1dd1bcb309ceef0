"""
Classifier panels: nine flags from four families
================================================

Each space gets a panel of nine flags, every one computed from the
closed-set families rather than asserted: sober (Irr = S_c with unique
generic points), well_filtered (KF = S_c), rudin / wd_space / wk_space
(the three approximation properties), their three weak variants
(equality after dropping the whole carrier), and two agreement flags
that summarize which families coincide.  One table defines the seven
family flags, and the same classifier builds the panel from it on
finite spaces and on the symbolic cofinite line.
"""

from orderlab import (
    COFNAT,
    IRR,
    KF,
    SC,
    VEE,
    WD,
    classifier_agreement,
    classify,
    hc,
    hmodel_table,
    j_embedding_check,
    max_point_space,
    proposition_key_check,
    scott_space,
    xizhao_model,
)

# Classify the Scott space of the vee pair model: finite T0 spaces are
# sober, so every flag is determined True.
sigma = scott_space(xizhao_model(VEE).poset)
panel = classify(sigma)
for flag in panel.flags:
    print(f"  {flag.name:20s} {str(flag.value):5s} — {flag.witness}")

# The subset systems are first-class ids; the evaluator returns the
# family a system denotes on a given instance, finite or symbolic.
print("SC on sigma:", hc(SC, sigma))
print("IRR on the cofinite line:", hc(IRR, COFNAT).describe())

# On the cofinite line, classify(COFNAT) reads the same table.  The
# panel mixes values, and the agreement flags carry their evidence: a
# flag is True only when some agreeing pair of systems is also known to
# be genuinely distinct (machine-witnessed or cited), so agreement there
# is informative rather than vacuous.
cof_panel = classify(COFNAT)
print("cofinite sober:", cof_panel.flag("sober").value,
      "| h_model:", cof_panel.flag("h_model").value)
print("  h_model witness:", cof_panel.flag("h_model").witness)

table = hmodel_table(COFNAT)
print("KF agrees with WD here?", table.cell("KF", "WD"),
      "— but whether KF and WD differ anywhere is an open question,",
      "so this pair never feeds the agreement flags")

# Preservation: the maximal-point part of a model and the model itself
# carry the same five preserved flags; the checker raises on any
# disagreement.
report = classifier_agreement(VEE)
print("preserved flags agree:", report.agree, "on", report.compared)

# The image law over one model: closing each irreducible set of the
# maximal part in the model embeds the maximal part's sobrification in
# the model's, onto exactly the members above the embedded maximal
# points, and tracing back recovers the set it came from.
jrep = j_embedding_check(VEE, "sober")
print("closure embedding over the vee model:", jrep.embedding,
      "| image law:", jrep.image_law, "| trace inverse:", jrep.inverse_law)

# The key biconditional, per pair of systems: agreement on the model
# is equivalent to agreement on its maximal-point part, in the plain
# and the whole-carrier-dropping forms both.
maxsub, _ = max_point_space(sigma)
for h, g in ((SC, KF), (SC, IRR), (KF, WD), (WD, IRR)):
    verdict = proposition_key_check(VEE, h, g)
    print(f"  {verdict.h} vs {verdict.g}: model={verdict.model_equal} "
          f"max={verdict.max_equal} (starred: {verdict.star_model_equal}/"
          f"{verdict.star_max_equal})")
