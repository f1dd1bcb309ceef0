"""Subset-system evaluators and the space classifier panel.

Four closed-set assignments drive this module: point closures, the
minimal-meeting family, the squeezed image-closure family, and the
irreducible closed sets.  Each gets a named evaluator usable on finite
carriers and on the cofinite line alike, a whole-space-dropping
variant, and a seat in the pairwise agreement matrix behind the
model-agreement flags.  Agreement between two assignments only counts
toward those flags when the assignments are known to differ somewhere:
three separations are recomputed on the cofinite line every time, two
rest on a recorded infinite example and are marked as citations, and
one pair has no recorded separation at all and never counts.

The classifier panel itself is equality-driven — soberness compares
irreducible closed sets against point closures, well-filteredness
compares the minimal-meeting family against point closures, and so on —
with every flag carrying a witness, and the known implication arrows
re-validated on every panel.  `classify` is memoized by value on its
space: a pair-model report asks for the panels of the model's Scott
space and of its maximal points twice each, and each is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .cofinite import (
    COFNAT,
    CofNat,
    classify_cofnat,
    irr_cofnat,
    kf_cofnat,
    sc_cofnat,
    wd_cofnat,
)
from .errors import CheckFailed, PreconditionViolated
from .families import ClosedFamily, family_members, kf_sets, wd_status
from .posets import FinPoset
from .spaces import (
    FinSpace,
    irreducible_closed_sets,
    is_sober,
    point_closures,
)
from .xizhao import xizhao_model

SYSTEM_KINDS = ("SC", "KF", "WD", "IRR")
# system kind -> the `family_members` kind it names
_FAMILY_KIND = {"SC": "Sc", "KF": "KF", "WD": "WD", "IRR": "Irr"}


@dataclass(frozen=True)
class SubsetSystemId:
    """Name of one of the four built-in closed-set assignments.

    The starred form drops the whole carrier from the family it names.
    Starred forms are comparison devices only — they do not themselves
    form subset systems — so the key check takes plain ids and compares
    the starred forms alongside.
    """

    kind: str
    starred: bool = False

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise PreconditionViolated(f"unknown subset system {self.kind!r}")

    @property
    def label(self) -> str:
        return self.kind + ("*" if self.starred else "")


SC = SubsetSystemId("SC")
KF = SubsetSystemId("KF")
WD = SubsetSystemId("WD")
IRR = SubsetSystemId("IRR")


def hc(system: SubsetSystemId, x):
    """Closed-set family of the named system on a finite space or the
    cofinite line: a `ClosedFamily` or a `SymClosedFamily`."""
    if isinstance(x, CofNat):
        fam = {
            "SC": sc_cofnat,
            "KF": kf_cofnat,
            "WD": wd_cofnat,
            "IRR": irr_cofnat,
        }[system.kind]()
        return fam.starred() if system.starred else fam
    if not isinstance(x, FinSpace):
        raise PreconditionViolated(
            "evaluators take a finite space or the cofinite line, "
            f"not {type(x).__name__}"
        )
    kind = _FAMILY_KIND[system.kind]
    fam = ClosedFamily(x, family_members(kind, x), kind)
    return fam.starred() if system.starred else fam


def _value(fam):
    """A family in a form that compares by its members."""
    return frozenset(fam.members) if isinstance(fam, ClosedFamily) else fam


# ---------------------------------------------------------------------------
# distinctness registry and the agreement matrices

MACHINE = "MACHINE"
CITED = "CITED"
UNKNOWN = "UNKNOWN"

_COFNAT_NOTE = "the cofinite line separates them"
_COCOUNT_NOTE = (
    "separated by the co-countable real line (recorded citation, not computed)"
)

DISTINCTNESS = {
    frozenset({"SC", "KF"}): (MACHINE, _COFNAT_NOTE),
    frozenset({"SC", "WD"}): (MACHINE, _COFNAT_NOTE),
    frozenset({"SC", "IRR"}): (MACHINE, _COFNAT_NOTE),
    frozenset({"KF", "IRR"}): (CITED, _COCOUNT_NOTE),
    frozenset({"WD", "IRR"}): (CITED, _COCOUNT_NOTE),
    frozenset({"KF", "WD"}): (
        UNKNOWN,
        "no separating example is recorded; never counts toward agreement flags",
    ),
}


@lru_cache(maxsize=1)
def verify_distinctness_registry() -> MappingProxyType:
    """Recompute every machine-graded separation on the cofinite line.

    Returns the pair-to-grade mapping, read-only; a machine-graded pair
    whose families no longer differ is an implementation bug.  The
    separations do not depend on any input, so they are computed once per
    process and every caller shares the one mapping.
    """
    out = {}
    for pair, (grade, _note) in DISTINCTNESS.items():
        h, g = sorted(pair)
        if grade == MACHINE:
            hv, gv = (_value(hc(SubsetSystemId(k), COFNAT)) for k in (h, g))
            if hv == gv:
                raise CheckFailed("machine separation failed", (h, g))
        out[(h, g)] = grade
    return MappingProxyType(out)


def _matrix(x, starred: bool):
    values = [_value(hc(SubsetSystemId(k, starred), x)) for k in SYSTEM_KINDS]
    return tuple(tuple(a == b for b in values) for a in values)


@dataclass(frozen=True)
class Flag:
    name: str
    value: bool
    witness: str


@dataclass(frozen=True)
class HModelTable:
    space_name: str
    plain: tuple[tuple[bool, ...], ...]
    star: tuple[tuple[bool, ...], ...]
    h_model: Flag
    weak_h_model: Flag

    def cell(self, h: str, g: str, starred: bool = False):
        m = self.star if starred else self.plain
        return m[SYSTEM_KINDS.index(h)][SYSTEM_KINDS.index(g)]


def _agreement_flag(name: str, matrix, starred: bool) -> Flag:
    mark = "*" if starred else ""
    for i, h in enumerate(SYSTEM_KINDS):
        for j in range(i + 1, len(SYSTEM_KINDS)):
            g = SYSTEM_KINDS[j]
            grade, note = DISTINCTNESS[frozenset({h, g})]
            if grade == UNKNOWN:
                continue
            if matrix[i][j]:
                return Flag(
                    name,
                    True,
                    f"{h}{mark} agrees with {g}{mark}; "
                    f"distinctness {grade.lower()}-graded: {note}",
                )
    return Flag(
        name,
        False,
        "no agreement between assignments with recorded distinctness "
        "(a lower bound: only the four built-ins are compared)",
    )


def _space_name(x) -> str:
    if isinstance(x, CofNat):
        return x.name
    return "{" + ",".join(x.labels) + "}"


def hmodel_table(x) -> HModelTable:
    """Pairwise agreement matrices (plain and starred) over the four
    built-in assignments, plus the two derived agreement flags."""
    verify_distinctness_registry()
    plain = _matrix(x, False)
    star = _matrix(x, True)
    return HModelTable(
        _space_name(x),
        plain,
        star,
        _agreement_flag("h_model", plain, False),
        _agreement_flag("weak_h_model", star, True),
    )


# ---------------------------------------------------------------------------
# the classifier panel

FLAG_ORDER = (
    "sober",
    "well_filtered",
    "rudin",
    "wd_space",
    "wk_space",
    "weak_sober",
    "weak_well_filtered",
    "h_model",
    "weak_h_model",
)

# src -> dst: whenever src holds, dst must hold.  Exactly these five.
ARROWS = (
    ("sober", "well_filtered"),
    ("sober", "rudin"),
    ("rudin", "wd_space"),
    ("rudin", "wk_space"),
    ("well_filtered", "wk_space"),
)


@dataclass(frozen=True)
class ClassifierPanel:
    space_name: str
    flags: tuple[Flag, ...]

    def flag(self, name: str) -> Flag:
        for f in self.flags:
            if f.name == name:
                return f
        raise PreconditionViolated(f"no flag named {name!r}")

    def as_dict(self) -> dict:
        return {f.name: f.value for f in self.flags}


def _check_arrows(panel: ClassifierPanel) -> None:
    for src, dst in ARROWS:
        a, b = panel.flag(src), panel.flag(dst)
        if a.value is True and b.value is False:
            raise CheckFailed(
                f"implication {src} -> {dst} violated on {panel.space_name}"
            )


def _diff_witness(x: FinSpace, a_name: str, a: frozenset, b_name: str, b: frozenset) -> str:
    if a == b:
        return f"{a_name} = {b_name}"
    diff = min(a ^ b)
    side = a_name if diff in a else b_name
    other = b_name if diff in a else a_name
    label = "{" + ",".join(x.labels_of_mask(diff)) + "}"
    return f"{side} contains {label}, {other} does not"


@lru_cache(maxsize=1024)
def classify(x) -> ClassifierPanel:
    """Full flag panel of a space, every flag carrying a witness.

    Soberness is computed from the family equality and cross-checked
    against the generic-point definition; the carrier must be T0 for
    the two routes to express the same thing, so non-T0 input is
    rejected rather than misclassified.  Memoized by value: a pair-model
    report asks for the panels of the model's Scott space and of its
    maximal points twice each, and the checks run once per distinct
    space; a rejected or failing input raises and caches nothing.
    """
    if isinstance(x, CofNat):
        data = classify_cofnat()
        flags = [Flag(n, v, w) for n, (v, w) in data["flags"].items()]
        table = hmodel_table(x)
        panel = ClassifierPanel(
            data["space"], tuple(flags) + (table.h_model, table.weak_h_model)
        )
        _check_arrows(panel)
        return panel
    if not isinstance(x, FinSpace):
        raise PreconditionViolated(
            "classifier takes a finite space or the cofinite line, "
            f"not {type(x).__name__}"
        )
    if not x.is_t0:
        raise PreconditionViolated(
            "classifier panel needs a T0 carrier; points "
            f"{x.t0_witness} share a closure"
        )
    sc = frozenset(point_closures(x))
    irr = frozenset(irreducible_closed_sets(x))
    kf = frozenset(kf_sets(x))
    wd = frozenset(wd_status(x))
    sober_eq = irr == sc
    sober_def, _evidence = is_sober(x)
    if sober_eq != sober_def:
        raise CheckFailed("soberness routes disagree on " + _space_name(x))
    full = x.full_mask
    star = lambda fam: frozenset(m for m in fam if m != full)
    flags = (
        Flag("sober", sober_eq,
             _diff_witness(x, "irreducible closed sets", irr, "point closures", sc)),
        Flag("well_filtered", kf == sc,
             _diff_witness(x, "minimal-meeting sets", kf, "point closures", sc)),
        Flag("rudin", kf == irr,
             _diff_witness(x, "minimal-meeting sets", kf, "irreducible closed sets", irr)),
        Flag("wd_space", wd == irr,
             _diff_witness(x, "image-closure family", wd, "irreducible closed sets", irr)),
        Flag("wk_space", wd == kf,
             _diff_witness(x, "image-closure family", wd, "minimal-meeting sets", kf)),
        Flag("weak_sober", star(irr) == star(sc),
             _diff_witness(x, "proper irreducibles", star(irr), "proper point closures", star(sc))),
        Flag("weak_well_filtered", star(kf) == star(sc),
             _diff_witness(x, "proper minimal-meeting sets", star(kf), "proper point closures", star(sc))),
    )
    table = hmodel_table(x)
    panel = ClassifierPanel(
        _space_name(x), flags + (table.h_model, table.weak_h_model)
    )
    _check_arrows(panel)
    return panel


PRESERVED_FLAGS = ("sober", "well_filtered", "rudin", "wd_space", "wk_space")


@dataclass(frozen=True)
class AgreementReport:
    max_panel: ClassifierPanel
    model_panel: ClassifierPanel
    compared: tuple[str, ...]
    agree: bool


def classifier_agreement(poset: FinPoset) -> AgreementReport:
    """The maximal-point space of a pair model and the model itself
    carry the same five preserved flags; disagreement raises."""
    model = xizhao_model(poset)
    sigma = model.sigma
    maxsub, _incl = model.max_space
    pm = classify(maxsub)
    ps = classify(sigma)
    bad = tuple(
        n for n in PRESERVED_FLAGS if pm.flag(n).value != ps.flag(n).value
    )
    if bad:
        raise CheckFailed("classifier panels disagree", bad)
    return AgreementReport(pm, ps, PRESERVED_FLAGS, True)


# ---------------------------------------------------------------------------
# per-instance theorem checks


@dataclass(frozen=True)
class KeyVerdict:
    h: str
    g: str
    model_equal: bool
    max_equal: bool
    star_model_equal: bool
    star_max_equal: bool

    @property
    def biconditional(self) -> bool:
        return self.model_equal == self.max_equal

    @property
    def star_biconditional(self) -> bool:
        return self.star_model_equal == self.star_max_equal


def proposition_key_check(
    poset: FinPoset, h: SubsetSystemId, g: SubsetSystemId
) -> KeyVerdict:
    """Two systems agree on a pair model exactly when they agree on its
    maximal-point part — in the plain and the whole-space-dropping
    forms both.  A failed biconditional raises."""
    if h.starred or g.starred:
        raise PreconditionViolated(
            "pass plain system ids; starred forms are checked alongside"
        )
    model = xizhao_model(poset)
    sigma = model.sigma
    maxsub, _incl = model.max_space

    def eq_pair(space: FinSpace) -> tuple[bool, bool]:
        hv = frozenset(family_members(_FAMILY_KIND[h.kind], space))
        gv = frozenset(family_members(_FAMILY_KIND[g.kind], space))
        full = space.full_mask
        return hv == gv, hv - {full} == gv - {full}

    model_eq, star_model_eq = eq_pair(sigma)
    max_eq, star_max_eq = eq_pair(maxsub)
    verdict = KeyVerdict(
        h.label, g.label, model_eq, max_eq, star_model_eq, star_max_eq
    )
    if not (verdict.biconditional and verdict.star_biconditional):
        raise CheckFailed("key biconditional failed", verdict)
    return verdict
