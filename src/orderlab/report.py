"""Deterministic analysis reports, the corpus suite, and the oracle search.

Reports are plain dicts built in one fixed key order and serialized
compactly, so identical configuration yields identical bytes; the
timing field exists in the schema but always reads null for exactly
that reason.  The oracle search re-derives a handful of quantities
along deliberately independent code paths and reports disagreements
(expected: none); a context-manager fault hook lets the tests confirm
the harness actually notices when a path is wrong.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

from . import bits
from .cofinite import (
    COFNAT,
    CofNat,
    kf_witness_window_check,
    shen_cofnat,
    sobrify_cofnat,
    wfreflect_cofnat,
)
from .errors import BudgetExceeded, InputError, OrderLabError
from .families import (
    FilteredFamily,
    family_members,
    minimal_closed_meeting,
)
from .fixtures import FIXTURE_POSETS
from .generate import corpus
from .io import poset_to_json, space_to_json
from .posets import (
    FinPoset,
    bounded_complete_oracle,
    is_bounded_complete,
    up_sets,
)
from .reflections import (
    EQUATION_NAMES,
    claim_embed2_check,
    decomposition_check,
    finite_collapse_check,
    j_embedding_check,
    pair_conditions_check,
    shen_iterate,
    sobrification,
)
from .spaces import (
    compact_saturated_sets,
    irreducible_closed_sets,
    point_closures,
)
from .systems import (
    SYSTEM_KINDS,
    SubsetSystemId,
    classifier_agreement,
    classify,
    proposition_key_check,
)
from .xizhao import max_homeo_check, xizhao_model

SCHEMA = "orderlab-report/1"

CHECK_WHICH = ("pair", "embed", "shen", "embed2", "key", "agreement", "classify")
ALL_WHICH = EQUATION_NAMES + CHECK_WHICH


def parse_which(text: str) -> tuple[str, ...]:
    """Comma-separated selector list, or "all"."""
    if text.strip() == "all":
        return ALL_WHICH
    out = []
    for part in text.split(","):
        name = part.strip()
        if name not in ALL_WHICH:
            raise InputError(
                f"unknown selector {name!r}; choose from "
                + ",".join(ALL_WHICH) + " or all"
            )
        if name not in out:
            out.append(name)
    if not out:
        raise InputError("empty selector list")
    return tuple(out)


@dataclass(frozen=True)
class RunConfig:
    """Settings for one corpus run; equal configs give equal bytes."""

    seed: int = 0
    max_size: int = 7
    trials: int = 100
    budget: int = 500
    which: tuple[str, ...] = ALL_WHICH

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise InputError("seed must fit in 64 bits")
        if self.max_size < 1 or self.trials < 1 or self.budget < 1:
            raise InputError("max_size, trials, and budget must be positive")
        bad = [w for w in self.which if w not in ALL_WHICH]
        if bad or not self.which:
            raise InputError(f"unknown selectors {bad!r}")

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "max_size": self.max_size,
            "trials": self.trials,
            "budget": self.budget,
            "which": list(self.which),
        }


def canonical_json(obj) -> str:
    return json.dumps(obj, ensure_ascii=True, separators=(",", ":"))


def _family_payload(space) -> dict:
    cofnat = isinstance(space, CofNat)
    show = (lambda fam: fam.describe()) if cofnat else (
        lambda fam: [list(space.labels_of_mask(m)) for m in fam]
    )
    payload = {
        kind: show(family_members(kind, space)) for kind in ("Sc", "Irr", "KF", "WD")
    }
    wd = payload["WD"]
    payload["WD"] = {"status": "DETERMINED", "value": wd}
    if not cofnat:
        # the squeeze makes the value and both of its bounds one family
        payload["WD"].update(lower=wd, upper=wd)
    return payload


def panel_payload(panel) -> dict:
    return {
        "space": panel.space_name,
        "flags": {
            f.name: {"value": f.value, "witness": f.witness}
            for f in panel.flags
        },
    }


def _shen_payload(chain) -> dict:
    return {
        "index": chain.stabilization_index,
        "stage_sizes": [s.bit_count() for s in chain.stages],
        "final_covers_sobrification": chain.stages[-1] == chain.ambient.full_mask,
    }


def _witness(report: dict, check: str, error: str, **extra) -> None:
    report["witnesses"].append(
        {"check": check, "error": error, **extra, "replay": report["input"]}
    )


def _guard(report: dict, name: str, thunk):
    """Run one check; a failure becomes a witness instead of propagating.
    A declared budget is not a failure of the check: `BudgetExceeded`
    propagates, and the CLI exits 3."""
    try:
        return thunk()
    except BudgetExceeded:
        raise
    except OrderLabError as exc:
        _witness(report, name, str(exc))
        return None


_KEY_PAIRS = tuple(
    (SYSTEM_KINDS[i], SYSTEM_KINDS[j])
    for i in range(len(SYSTEM_KINDS))
    for j in range(i + 1, len(SYSTEM_KINDS))
)


def analyze_poset(poset: FinPoset, which: tuple[str, ...] = ALL_WHICH) -> dict:
    """One full report for a poset instance.

    Construction failures (a poset the model rejects) propagate as
    input errors; check failures are caught and recorded as witnesses
    so a FAIL report still serializes for replay.
    """
    model = xizhao_model(poset)
    sigma = model.sigma
    maxsub, _incl = model.max_space
    report = {
        "schema": SCHEMA,
        "verdict": None,
        "input": {"kind": "poset", **poset_to_json(poset)},
        "model": {
            "size": model.poset.n,
            "elements": list(model.poset.labels),
            "max_points": list(
                model.poset.labels[i] for i in bits.indices_of(model.max_mask)
            ),
        },
        "families": _family_payload(sigma),
        "panel": panel_payload(classify(sigma)),
        "equations": [],
        "checks": {},
        "witnesses": [],
        "timing": None,
    }
    for name in which:
        if name not in EQUATION_NAMES:
            continue
        verdicts = _guard(report, name, lambda n=name: decomposition_check(poset, n))
        for v in verdicts or ():
            report["equations"].append(
                {
                    "name": v.name,
                    "passed": v.passed,
                    "lhs": v.lhs_size,
                    "rhs": v.rhs_size,
                }
            )
            if not v.passed:
                _witness(report, v.name, "set equality failed", diff=sorted(v.diff))

    if "pair" in which:
        out = {}
        for tag in ("Sc", "Irr"):
            members = family_members(tag, sigma)
            w = _guard(report, f"pair[{tag}]",
                       lambda m=members: pair_conditions_check(poset, m))
            if w is not None:
                out[tag] = {
                    "p1": w.p1, "p2": w.p2, "p3": w.p3,
                    "compact_checked": w.compact_preimages_checked,
                }
                if not (w.p1 and w.p2 and w.p3):
                    _witness(report, f"pair[{tag}]", str(w.witness))
        report["checks"]["pair"] = out

    if "embed" in which:
        out = {}
        for kind in ("sober", "wf"):
            r = _guard(report, f"embed[{kind}]",
                       lambda k=kind: j_embedding_check(poset, k))
            if r is not None:
                out[kind] = {
                    "embedding": r.embedding,
                    "square": r.square_commutes,
                    "image_law": r.image_law,
                    "inverse_law": r.inverse_law,
                    "saturated": r.image_saturated,
                }
        report["checks"]["embed"] = out

    if "shen" in which:
        out = {}
        for tag, space in (("max", maxsub), ("model", sigma)):
            ch = _guard(report, f"shen[{tag}]", lambda s=space: shen_iterate(s))
            if ch is not None:
                out[tag] = _shen_payload(ch)
        report["checks"]["shen"] = out

    if "embed2" in which:
        r = _guard(report, "embed2", lambda: claim_embed2_check(poset))
        if r is not None:
            report["checks"]["embed2"] = {
                "x_index": r.x_index,
                "y_index": r.y_index,
                "stages_checked": r.stages_checked,
            }

    if "key" in which:
        rows = []
        for h, g in _KEY_PAIRS:
            v = _guard(
                report,
                f"key[{h},{g}]",
                lambda a=h, b=g: proposition_key_check(
                    poset, SubsetSystemId(a), SubsetSystemId(b)
                ),
            )
            if v is not None:
                rows.append(
                    {
                        "h": v.h, "g": v.g,
                        "model_equal": v.model_equal,
                        "max_equal": v.max_equal,
                        "biconditional": v.biconditional,
                        "star_biconditional": v.star_biconditional,
                    }
                )
        report["checks"]["key"] = rows

    if "agreement" in which:
        r = _guard(report, "agreement", lambda: classifier_agreement(poset))
        if r is not None:
            report["checks"]["agreement"] = {
                "compared": list(r.compared),
                "agree": r.agree,
            }

    if "classify" in which:
        _guard(report, "max-homeo", lambda: max_homeo_check(model))
        report["checks"]["classify"] = {
            "max_panel": panel_payload(classify(maxsub)),
        }

    report["verdict"] = "FAIL" if report["witnesses"] else "PASS"
    return report


def analyze_space(space, which: tuple[str, ...] = ALL_WHICH) -> dict:
    """Report for a standalone space (finite, or the cofinite line).

    Equations need a pair model, so the space report carries families,
    the panel, and the reflection summaries instead.
    """
    if isinstance(space, CofNat):
        return _analyze_cofnat()
    report = {
        "schema": SCHEMA,
        "verdict": None,
        "input": {"kind": "space", **space_to_json(space)},
        "families": _family_payload(space),
        "panel": panel_payload(classify(space)),
        "checks": {},
        "witnesses": [],
        "timing": None,
    }
    collapse = _guard(report, "collapse", lambda: finite_collapse_check(space))
    if collapse is not None:
        report["checks"]["collapse"] = {
            name: "eta is a homeomorphism" for name in collapse
        }
    sob = _guard(report, "sobrify", lambda: sobrification(space))
    if sob is not None:
        report["checks"]["sobrify"] = {
            "points": sob.space.n,
            "members": [list(space.labels_of_mask(m)) for m in sob.members],
        }
    ch = _guard(report, "shen", lambda: shen_iterate(space))
    if ch is not None:
        report["checks"]["shen"] = _shen_payload(ch)
    report["verdict"] = "FAIL" if report["witnesses"] else "PASS"
    return report


def _analyze_cofnat() -> dict:
    sob = sobrify_cofnat()
    _, same = wfreflect_cofnat()
    ch = shen_cofnat()
    report = {
        "schema": SCHEMA,
        "verdict": "PASS",
        "input": {"kind": "builtin", "name": "cofinite-nat"},
        "families": _family_payload(COFNAT),
        "panel": panel_payload(classify(COFNAT)),
        "checks": {
            "sobrify": {"added_points": list(sob.added_points)},
            "wfreflect": {"same_as_sobrification": same},
            "shen": {"index": ch.stabilization_index,
                     "stages": [s.describe() for s in ch.stages]},
            "window": {"kf_witness_agrees": kf_witness_window_check()},
        },
        "witnesses": [],
        "timing": None,
    }
    return report


def run_suite(cfg: RunConfig):
    """Reports for the fixtures and the seeded corpus, in a fixed order.

    Yields (label, report) pairs: fixtures first under their names,
    then one trial per generated poset under "trial/<index>".
    """
    for name, poset in FIXTURE_POSETS.items():
        report = analyze_poset(poset, cfg.which)
        report["instance"] = name
        yield name, report
    for i, poset in corpus(cfg.seed, cfg.trials, cfg.max_size, cfg.budget):
        label = f"trial/{i}"
        report = analyze_poset(poset, cfg.which)
        report["instance"] = label
        yield label, report


# ---------------------------------------------------------------------------
# oracle search

_ACTIVE_FAULTS: set[str] = set()

ORACLE_PATHS = (
    "bounded-complete",
    "scott-upper",
    "irr-generic",
    "m-routes",
    "eta-image",
)


@contextmanager
def inject_fault(name: str):
    """Test-only hook: perturb one oracle route inside the context."""
    if name not in ORACLE_PATHS:
        raise InputError(f"unknown oracle path {name!r}")
    _ACTIVE_FAULTS.add(name)
    try:
        yield
    finally:
        _ACTIVE_FAULTS.discard(name)


def _faulted(name: str) -> bool:
    return name in _ACTIVE_FAULTS


def _oracle_poset(label: str, poset: FinPoset) -> list[dict]:
    """All redundant-path comparisons for one poset instance."""
    found = []
    echo = {"kind": "poset", **poset_to_json(poset)}

    def report(path, detail):
        found.append({"path": path, "instance": label,
                      "detail": detail, "replay": echo})

    main_bc = is_bounded_complete(poset)[0]
    oracle_bc = bounded_complete_oracle(poset)[0]
    if _faulted("bounded-complete"):
        oracle_bc = not oracle_bc
    if main_bc != oracle_bc:
        report("bounded-complete", {"main": main_bc, "oracle": oracle_bc})
    if not main_bc:
        return found

    model = xizhao_model(poset)
    sigma = model.sigma

    route_a = set(sigma.opens)
    route_b = set(up_sets(model.poset))
    if _faulted("scott-upper"):
        route_b.discard(model.poset.full_mask)
    if route_a != route_b:
        report("scott-upper", {
            "only_topology": sorted(route_a - route_b),
            "only_order": sorted(route_b - route_a),
        })

    for space in (sigma,):
        irr = set(irreducible_closed_sets(space))
        gen = set(point_closures(space))
        if _faulted("irr-generic"):
            gen = gen - {min(gen, key=bits.subset_key)}
        if irr != gen:
            diff = min(irr ^ gen, key=bits.subset_key)
            report("irr-generic",
                   {"member": list(space.labels_of_mask(diff))})

        for k in compact_saturated_sets(space)[:24]:
            meeting = [c for c in space.closed if c and c & k]
            route_a2 = bits.canon(
                c for c in meeting
                if not any(d != c and bits.is_subset(d, c) for d in meeting)
            )
            if _faulted("m-routes"):
                route_a2 = route_a2[1:]
            route_b2 = minimal_closed_meeting(
                space, FilteredFamily(space, (k,))
            )
            if route_a2 != route_b2:
                report("m-routes", {
                    "family": [list(space.labels_of_mask(k))],
                    "scan": [list(space.labels_of_mask(m)) for m in route_a2],
                    "least-member": [
                        list(space.labels_of_mask(m)) for m in route_b2
                    ],
                })
                break

        sob = sobrification(space)
        f = sob.eta_map
        for u in space.opens:
            lhs = f.image(u)
            rhs = sob.diamond(u) & sob.eta_image_mask
            if _faulted("eta-image") and rhs:
                rhs ^= rhs & -rhs
            if lhs != rhs:
                report("eta-image", {"open": list(space.labels_of_mask(u))})
                break
    return found


def oracle_search(cfg: RunConfig) -> list[dict]:
    """Disagreements between redundant computation paths; expected []."""
    found = []
    for name, poset in FIXTURE_POSETS.items():
        found.extend(_oracle_poset(name, poset))
    for i, poset in corpus(cfg.seed, cfg.trials, cfg.max_size, cfg.budget):
        found.extend(_oracle_poset(f"trial/{i}", poset))
    return found
