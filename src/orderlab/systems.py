"""Subset-system evaluators and the space classifier panel.

Four closed-set assignments drive this module: point closures, the
minimal-meeting family, the squeezed image-closure family, and the
irreducible closed sets.  A subset-system id names one of them; `hc`
reads its family, plain or with the whole carrier dropped, from
`families.family_members` on a finite carrier and on the cofinite line
alike.  The pairwise agreement matrices of the four (`hmodel_table`,
memoized by value) hold every family equality this module decides:
the model-agreement flags, the classifier panel and the key
biconditional all read their cells.  Agreement between two assignments
only counts toward the model-agreement flags when the assignments are
known to differ somewhere: three separations are recomputed on the
cofinite line every time, two rest on a recorded infinite example and
are marked as citations, and one pair has no recorded separation at all
and never counts.

The classifier panel is one table, `FLAGS`: each flag names the family
that must equal another — soberness compares irreducible closed sets
against point closures, well-filteredness the minimal-meeting family
against point closures, and so on — and how its witness reads on either
carrier.  Soberness is cross-checked against the generic-point route,
and the known implication arrows are re-validated on every panel.
`classify` is memoized by value on its space: a pair-model report asks
for the panels of the model's Scott space and of its maximal points
twice each, and each is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .cofinite import COFNAT, CofNat, sober_by_generic_points
from .errors import CheckFailed, PreconditionViolated
from .families import family_members
from .posets import FinPoset
from .spaces import FinSpace, is_sober
from .xizhao import xizhao_model

# system kind -> the `family_members` kind it names; reports spell both
_FAMILY_KIND = {"SC": "Sc", "KF": "KF", "WD": "WD", "IRR": "Irr"}
SYSTEM_KINDS = tuple(_FAMILY_KIND)


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
    """Closed-set family of the named system on a finite space (canonical
    masks) or the cofinite line (a `SymClosedFamily`)."""
    fam = family_members(_FAMILY_KIND[system.kind], x)
    if not system.starred:
        return fam
    if isinstance(x, CofNat):
        return fam.starred()
    return tuple(m for m in fam if m != x.full_mask)


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
            if hc(SubsetSystemId(h), COFNAT) == hc(SubsetSystemId(g), COFNAT):
                raise CheckFailed("machine separation failed", (h, g))
        out[(h, g)] = grade
    return MappingProxyType(out)


def _matrix(x, starred: bool):
    values = [hc(SubsetSystemId(k, starred), x) for k in SYSTEM_KINDS]
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


@lru_cache(maxsize=1024)
def hmodel_table(x) -> HModelTable:
    """Pairwise agreement matrices (plain and starred) over the four
    built-in assignments, plus the two derived agreement flags.

    Memoized by value: the panel and the key check of a pair-model
    report read the tables of the model and of its maximal part."""
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

# flag, the system whose family must equal the next one's, whether the
# whole carrier is dropped from both first, the two families' names in a
# finite space's witness, and the cofinite line's witness note
FLAGS = (
    ("sober", IRR, SC, False,
     ("irreducible closed sets", "point closures"),
     "the whole line is irreducible with no generic point"),
    ("well_filtered", KF, SC, False,
     ("minimal-meeting sets", "point closures"),
     "the whole line is a minimal meeting set but not a point closure"),
    ("rudin", KF, IRR, False,
     ("minimal-meeting sets", "irreducible closed sets"),
     "meeting family equals irreducible family"),
    ("wd_space", WD, IRR, False,
     ("image-closure family", "irreducible closed sets"),
     "squeeze: meeting family equals irreducible family"),
    ("wk_space", WD, KF, False,
     ("image-closure family", "minimal-meeting sets"),
     "meeting family equals the squeezed family"),
    ("weak_sober", IRR, SC, True,
     ("proper irreducibles", "proper point closures"),
     "proper irreducibles are exactly the singletons"),
    ("weak_well_filtered", KF, SC, True,
     ("proper minimal-meeting sets", "proper point closures"),
     "proper meeting sets are exactly the singletons"),
)

FLAG_ORDER = tuple(row[0] for row in FLAGS) + ("h_model", "weak_h_model")

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


def _flag(x, table: HModelTable, row) -> Flag:
    """One row of `FLAGS` as a cell of the space's agreement table; the
    witness is the row's note on the cofinite line, and on a finite space
    the equality or the least member only one of the two families holds."""
    name, h, g, starred, (a_name, b_name), note = row
    equal = table.cell(h.kind, g.kind, starred)
    if isinstance(x, CofNat):
        return Flag(name, equal, note)
    if equal:
        return Flag(name, True, f"{a_name} = {b_name}")
    a, b = (set(hc(SubsetSystemId(s.kind, starred), x)) for s in (h, g))
    diff = min(a ^ b)
    side, other = (a_name, b_name) if diff in a else (b_name, a_name)
    label = "{" + ",".join(x.labels_of_mask(diff)) + "}"
    return Flag(name, False, f"{side} contains {label}, {other} does not")


@lru_cache(maxsize=1024)
def classify(x) -> ClassifierPanel:
    """Full flag panel of a finite space or the cofinite line, every flag
    carrying a witness.

    Each flag of `FLAGS` is a cell of the space's agreement table.
    Soberness is cross-checked against the generic-point definition; a
    finite carrier must be T0 for the two routes to express the same
    thing, so non-T0 input is rejected rather than misclassified.
    Memoized by value: a pair-model report asks for the panels of the
    model's Scott space and of its maximal points twice each, and the
    checks run once per distinct space; a rejected or failing input
    raises and caches nothing.
    """
    if isinstance(x, FinSpace) and not x.is_t0:
        raise PreconditionViolated(
            "classifier panel needs a T0 carrier; points "
            f"{x.t0_witness} share a closure"
        )
    table = hmodel_table(x)
    flags = tuple(_flag(x, table, row) for row in FLAGS)
    panel = ClassifierPanel(
        table.space_name, flags + (table.h_model, table.weak_h_model)
    )
    if isinstance(x, CofNat):
        sober_def = sober_by_generic_points()
    else:
        sober_def, _evidence = is_sober(x)
    if panel.flag("sober").value != sober_def:
        raise CheckFailed("soberness routes disagree on " + panel.space_name)
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
    maxsub, _incl = model.max_space
    on_model = hmodel_table(model.sigma)
    on_max = hmodel_table(maxsub)
    verdict = KeyVerdict(
        h.label,
        g.label,
        on_model.cell(h.kind, g.kind),
        on_max.cell(h.kind, g.kind),
        on_model.cell(h.kind, g.kind, True),
        on_max.cell(h.kind, g.kind, True),
    )
    if not (verdict.biconditional and verdict.star_biconditional):
        raise CheckFailed("key biconditional failed", verdict)
    return verdict
