"""Deterministic analysis reports, the corpus suite, and the oracle search.

Reports are plain dicts built in one fixed key order and serialized
compactly, so identical configuration yields identical bytes; the
timing field exists in the schema but always reads null for exactly
that reason.  A poset report runs the equations its selectors name,
then the rows of the one check table (`REPORT_CHECKS`) they name; a
failed sub-check becomes a witness and leaves its payload out.  The
oracle search re-derives a handful of quantities along deliberately
independent code paths and reports disagreements (expected: none); a
context-manager fault hook lets the tests confirm the harness actually
notices when a path is wrong.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations

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


# ---------------------------------------------------------------------------
# the check selectors of a poset report


def _one(done: list):
    return done[0][1] if done else None


def _shen_payload(chain) -> dict:
    return {
        "index": chain.stabilization_index,
        "stage_sizes": [s.bit_count() for s in chain.stages],
        "final_covers_sobrification": chain.stages[-1] == chain.ambient.full_mask,
    }


def _max_homeo_error(model) -> str | None:
    """The error of `max_homeo_check`, or None when it holds."""
    try:
        max_homeo_check(model)
    except BudgetExceeded:
        raise
    except OrderLabError as exc:
        return str(exc)
    return None


@dataclass(frozen=True)
class ReportCheck:
    """One check selector: its sub-checks as (tag, witness name) pairs,
    `run(poset, model, tag)`, the `payload` of a result, the `flaw` of a
    result that ran but does not hold (an error, or None), and
    `entry(done)`, the `checks` entry made from the (tag, payload) pairs
    of the sub-checks that ran (None leaves the entry out)."""

    subs: tuple[tuple, ...]
    run: Callable
    payload: Callable
    entry: Callable = dict
    flaw: Callable = lambda result: None


# the runners look their functions up when called, so a wrapper put in
# their place in this module (a test's fault, a tracer) is the one run
REPORT_CHECKS = {
    "pair": ReportCheck(
        (("Sc", "pair[Sc]"), ("Irr", "pair[Irr]")),
        lambda poset, model, tag: pair_conditions_check(
            poset, family_members(tag, model.sigma)
        ),
        lambda w: {
            "p1": w.p1, "p2": w.p2, "p3": w.p3,
            "compact_checked": w.compact_preimages_checked,
        },
        flaw=lambda w: None if w.p1 and w.p2 and w.p3 else str(w.witness),
    ),
    "embed": ReportCheck(
        (("sober", "embed[sober]"), ("wf", "embed[wf]")),
        lambda poset, model, kind: j_embedding_check(poset, kind),
        lambda r: {
            "embedding": r.embedding,
            "square": r.square_commutes,
            "image_law": r.image_law,
            "inverse_law": r.inverse_law,
            "saturated": r.image_saturated,
        },
    ),
    "shen": ReportCheck(
        (("max", "shen[max]"), ("model", "shen[model]")),
        lambda poset, model, tag: shen_iterate(
            model.max_space[0] if tag == "max" else model.sigma
        ),
        _shen_payload,
    ),
    "embed2": ReportCheck(
        ((None, "embed2"),),
        lambda poset, model, tag: claim_embed2_check(poset),
        lambda r: {
            "x_index": r.x_index,
            "y_index": r.y_index,
            "stages_checked": r.stages_checked,
        },
        _one,
    ),
    "key": ReportCheck(
        tuple(((h, g), f"key[{h},{g}]") for h, g in combinations(SYSTEM_KINDS, 2)),
        lambda poset, model, hg: proposition_key_check(
            poset, SubsetSystemId(hg[0]), SubsetSystemId(hg[1])
        ),
        lambda v: {
            "h": v.h, "g": v.g,
            "model_equal": v.model_equal,
            "max_equal": v.max_equal,
            "biconditional": v.biconditional,
            "star_biconditional": v.star_biconditional,
        },
        lambda done: [payload for _tag, payload in done],
    ),
    "agreement": ReportCheck(
        ((None, "agreement"),),
        lambda poset, model, tag: classifier_agreement(poset),
        lambda r: {
            "compared": list(r.compared),
            "agree": r.agree,
        },
        _one,
    ),
    # the maximal part's panel is written whether or not max-homeo holds:
    # the runner returns the model, and max-homeo's error is its flaw
    "classify": ReportCheck(
        (("max_panel", "max-homeo"),),
        lambda poset, model, tag: model,
        lambda model: panel_payload(classify(model.max_space[0])),
        flaw=_max_homeo_error,
    ),
}

CHECK_WHICH = tuple(REPORT_CHECKS)
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


def equation_row(v) -> dict:
    """One equation verdict as a report row."""
    return {
        "name": v.name,
        "passed": v.passed,
        "lhs": v.lhs_size,
        "rhs": v.rhs_size,
    }


def _report(echo: dict, space, model: dict | None = None) -> dict:
    """A report with no check run yet; a pair-model report also carries
    its model and its equations."""
    report = {"schema": SCHEMA, "verdict": None, "input": echo}
    if model is not None:
        report["model"] = model
    report["families"] = _family_payload(space)
    report["panel"] = panel_payload(classify(space))
    if model is not None:
        report["equations"] = []
    report.update(checks={}, witnesses=[], timing=None)
    return report


def _settle(report: dict) -> dict:
    report["verdict"] = "FAIL" if report["witnesses"] else "PASS"
    return report


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


def analyze_poset(poset: FinPoset, which: tuple[str, ...] = ALL_WHICH) -> dict:
    """One full report for a poset instance.

    Construction failures (a poset the model rejects) propagate as
    input errors; check failures are caught and recorded as witnesses
    so a FAIL report still serializes for replay.  The equations run in
    `which` order, then the checks in table order.
    """
    model = xizhao_model(poset)
    labels = model.poset.labels
    report = _report(
        {"kind": "poset", **poset_to_json(poset)},
        model.sigma,
        model={
            "size": model.poset.n,
            "elements": list(labels),
            "max_points": [
                labels[i] for i in bits.indices_of(model.max_mask)
            ],
        },
    )
    for name in which:
        if name not in EQUATION_NAMES:
            continue
        verdicts = _guard(report, name, lambda: decomposition_check(poset, name))
        for v in verdicts or ():
            report["equations"].append(equation_row(v))
            if not v.passed:
                _witness(report, v.name, "set equality failed", diff=sorted(v.diff))
    for selector, check in REPORT_CHECKS.items():
        if selector not in which:
            continue
        done = []
        for tag, name in check.subs:
            result = _guard(report, name, lambda: check.run(poset, model, tag))
            if result is not None:
                done.append((tag, check.payload(result)))
                flaw = check.flaw(result)
                if flaw is not None:
                    _witness(report, name, flaw)
        entry = check.entry(done)
        if entry is not None:
            report["checks"][selector] = entry
    return _settle(report)


def analyze_space(space) -> dict:
    """Report for a standalone space (finite, or the cofinite line).

    Equations need a pair model, so the space report carries families,
    the panel, and the reflection summaries instead.
    """
    if isinstance(space, CofNat):
        return _analyze_cofnat()
    report = _report({"kind": "space", **space_to_json(space)}, space)
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
    return _settle(report)


def _analyze_cofnat() -> dict:
    report = _report({"kind": "builtin", "name": "cofinite-nat"}, COFNAT)
    sob = sobrify_cofnat()
    _, same = wfreflect_cofnat()
    ch = shen_cofnat()
    report["checks"] = {
        "sobrify": {"added_points": list(sob.added_points)},
        "wfreflect": {"same_as_sobrification": same},
        "shen": {
            "index": ch.stabilization_index,
            "stages": [s.describe() for s in ch.stages],
        },
        "window": {"kf_witness_agrees": kf_witness_window_check()},
    }
    return _settle(report)


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


def _meeting_minima(closed, k: int) -> tuple[int, ...]:
    """The oracle's scan route for the minimal closed sets meeting k: one
    pass over the closed family `closed`, in canonical order, keeping a
    set that meets k and contains no set already kept.

    Canonical order sorts by cardinality first, so it lists a strict
    subset before its superset.  A minimal meeting set contains no other
    meeting set, so it is kept.  A non-minimal one contains a minimal
    one, listed and kept before it, so it is dropped.  The scan compares
    masks in a list and shares no code with the bit slices of
    `families._minimal_meeting`, the route it is compared with.
    """
    kept = []
    for c in closed:
        if c & k and not any(bits.is_subset(d, c) for d in kept):
            kept.append(c)
    return tuple(kept)


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

    irr = set(irreducible_closed_sets(sigma))
    gen = set(point_closures(sigma))
    if _faulted("irr-generic"):
        gen = gen - {min(gen, key=bits.subset_key)}
    if irr != gen:
        diff = min(irr ^ gen, key=bits.subset_key)
        report("irr-generic", {"member": list(sigma.labels_of_mask(diff))})

    for k in compact_saturated_sets(sigma)[:24]:
        route_a2 = _meeting_minima(sigma.closed, k)
        if _faulted("m-routes"):
            route_a2 = route_a2[1:]
        route_b2 = minimal_closed_meeting(sigma, FilteredFamily(sigma, (k,)))
        if route_a2 != route_b2:
            report("m-routes", {
                "family": [list(sigma.labels_of_mask(k))],
                "scan": [list(sigma.labels_of_mask(m)) for m in route_a2],
                "least-member": [list(sigma.labels_of_mask(m)) for m in route_b2],
            })
            break

    sob = sobrification(sigma)
    for u in sigma.opens:
        lhs = sob.eta_map.image(u)
        rhs = sob.diamond(u) & sob.eta_image_mask
        if _faulted("eta-image") and rhs:
            rhs ^= rhs & -rhs
        if lhs != rhs:
            report("eta-image", {"open": list(sigma.labels_of_mask(u))})
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
