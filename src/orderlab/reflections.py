"""Sobrification, well-filtered reflection, stage iteration, and the
decomposition-equation checkers for pair models.

The hyperspace over the irreducible closed sets is the sobrification;
over the squeezed image-closure family it is the well-filtered
reflection.  Between the hyperspaces of a pair model and of its maximal
point space sits the closure embedding ``j``, and the decomposition
equations transport each closed-set family across it.  Everything here
is verified on explicit finite instances: both sides of every equation
are computed independently and compared exactly.  The up-part of a
hyperspace, the members above an embedded maximal point, is computed in
one place (`_eta_max_up`) by two routes that are compared there, and
every runner that needs it reads it from there.  The pair-condition
witness, the closure-embedding report and each stage step are memoized
by value on their arguments: their checks run once per distinct
argument, however many runners ask for them.  The closure map with its
clauses and the two sides of EQ2 are memoized on the families they are
built over rather than on the kind that names them: on a finite pair
model Irr = WD and Sc = Irr, so the kinds share one computation, while
each verdict keeps its kind's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import bits
from .errors import BudgetExceeded, CheckFailed, SandwichViolated
from .families import family_members, kf_sets
from .posets import FinPoset, validate_poset
from .scott import scott_space
from .spaces import (
    ContinuousMap,
    FinSpace,
    HyperSpace,
    compact_saturated_sets,
    continuous_maps,
    is_embedding,
    is_homeomorphism,
    is_sober,
    irreducible_closed_sets,
    ph_space,
    point_closures,
    subspace,
)
from .xizhao import XiZhaoPoset, e_set, xizhao_model


# ---------------------------------------------------------------------------
# reflections of a single space


def sobrification(space: FinSpace) -> HyperSpace:
    """Hyperspace over the irreducible closed sets, verified sober.

    The canonical point map sends each point to its closure; it is an
    embedding whenever the input is T0 (checked during construction).
    """
    hyper = ph_space(space, irreducible_closed_sets(space))
    ok, _ = is_sober(hyper.space)
    if not ok:
        raise CheckFailed("sobrification output is not sober")
    hyper.eta_map  # materializes and validates the embedding data
    return hyper


def wf_reflection(space: FinSpace) -> HyperSpace:
    """Hyperspace over the squeezed image-closure family.

    Requires that family to be DETERMINED; the output is verified
    well-filtered through the meeting-family collapse on the result.
    """
    hyper = ph_space(space, family_members("WD", space))
    if kf_sets(hyper.space) != point_closures(hyper.space):
        raise CheckFailed("reflection output is not well-filtered")
    hyper.eta_map
    return hyper


def finite_collapse_check(space: FinSpace) -> dict:
    """On finite T0 inputs both reflections are copies of the input.

    Produces the two explicit homeomorphisms (the point maps) after
    verifying them, so callers get the isomorphisms rather than a bare
    verdict.
    """
    sob = sobrification(space)
    wf = wf_reflection(space)
    out = {}
    for name, hyper in (("sober", sob), ("wf", wf)):
        eta = hyper.eta_map
        if not is_homeomorphism(eta):
            raise CheckFailed(f"finite {name} reflection is not a copy of the input")
        out[name] = eta
    return out


# ---------------------------------------------------------------------------
# stage iteration inside the sobrification


@dataclass(frozen=True)
class ReflectionChain:
    ambient: FinSpace
    stages: tuple[int, ...]
    stabilization_index: int


@lru_cache(maxsize=1024)
def _stage_step(ambient: FinSpace, current: int) -> int:
    """One application of the stage rule.

    A point of the ambient joins when some member of the meeting family
    of the current-stage subspace closes, in the ambient, to exactly
    that point's closure.  Memoized by value: `shen_iterate` walks each
    sobrification's chain once, and `claim_embed2_check` reads its chains
    from there.
    """
    sub, incl = subspace(ambient, current)
    out = 0
    for f in kf_sets(sub):
        lifted = incl.image(f)
        closed = ambient.closure(lifted)
        for z in bits.indices_of(ambient.full_mask):
            if closed == ambient.spec_down[z]:
                out |= 1 << z
    if not bits.is_subset(current, out):
        raise CheckFailed("stage rule lost points; stages must increase")
    return out


def shen_iterate(x0: FinSpace) -> ReflectionChain:
    """Iterate the stage rule until it stabilizes.

    The ambient is the sobrification of the input, with the point-map
    image as stage zero.  The stabilized stage is verified well-filtered;
    it must appear by stage one and fill the whole sobrification.
    """
    hyper = sobrification(x0)
    ambient = hyper.space
    stages = [hyper.eta_image_mask]
    while True:
        nxt = _stage_step(ambient, stages[-1])
        if nxt == stages[-1]:
            break
        stages.append(nxt)
    index = len(stages) - 1
    final_sub, _ = subspace(ambient, stages[-1])
    if kf_sets(final_sub) != point_closures(final_sub):
        raise CheckFailed("stabilized stage is not well-filtered")
    if index > 1:
        raise CheckFailed("finite input stabilized after stage one", index)
    if stages[-1] != ambient.full_mask:
        raise CheckFailed("finite input did not fill its sobrification")
    return ReflectionChain(ambient, tuple(stages), index)


# ---------------------------------------------------------------------------
# the up-part of a hyperspace over a pair model


def _eta_max_up(model: XiZhaoPoset, hyper: HyperSpace) -> int:
    """The members above an embedded maximal point, up(eta(Max)), as a mask.

    Computed as the up-closure of the images of the maximal pairs in the
    hyperspace's specialization order, and again as the members meeting
    the maximal part; the two routes must agree.
    """
    up = 0
    for t in bits.indices_of(model.max_mask):
        up |= hyper.space.spec_up[hyper.eta[t]]
    if up != hyper.diamond(model.max_mask):
        raise CheckFailed("up-part routes disagree in the hyperspace")
    return up


# ---------------------------------------------------------------------------
# the closure embedding j between the two hyperspaces


@dataclass(frozen=True)
class JEmbeddingReport:
    kind: str
    jmap: ContinuousMap
    image_mask: int
    embedding: bool
    square_commutes: bool
    image_law: bool
    inverse_law: bool
    image_saturated: bool


# reflection kind -> the closed-set family its hyperspace is built over
_REFLECTION_FAMILY = {"sober": "Irr", "wf": "WD"}


@lru_cache(maxsize=1024)
def j_embedding_check(poset: FinPoset, kind: str = "sober") -> JEmbeddingReport:
    """Closure map between the maximal-point hyperspace and the full one.

    Verifies the four clauses — topological embedding, the commuting
    square with the two point maps, the image law (members meeting the
    maximal part, cross-checked against the order-theoretic up-closure
    of the embedded maximal points), and the trace inverse — plus
    saturation of the image.  Any failure is an implementation bug, so
    failures raise rather than report, and cache nothing.  Memoized by
    value on ``(poset, kind)``: the embed[sober] check and
    `claim_embed2_check` ask for the same report.  The map and its
    clauses are computed once per pair of families (`_closure_embedding`):
    on a finite pair model Irr = WD, so the two kinds share them.
    """
    model = xizhao_model(poset)
    if kind not in _REFLECTION_FAMILY:
        raise CheckFailed("unknown reflection kind", kind)
    maxsub, _incl = model.max_space
    fam = _REFLECTION_FAMILY[kind]
    report = JEmbeddingReport(kind, *_closure_embedding(
        poset, family_members(fam, maxsub), family_members(fam, model.sigma)
    ))
    if not (report.embedding and report.square_commutes and report.image_law
            and report.inverse_law and report.image_saturated):
        raise CheckFailed("closure-embedding clause failed", report)
    return report


@lru_cache(maxsize=1024)
def _closure_embedding(
    poset: FinPoset, fam_max: tuple[int, ...], fam_sigma: tuple[int, ...]
) -> tuple:
    """The closure map from the maximal points' hyperspace over `fam_max`
    to the pair model's over `fam_sigma`, its image mask and the five
    clauses of `j_embedding_check`, in the order of `JEmbeddingReport`."""
    model = xizhao_model(poset)
    sigma = model.sigma
    maxsub, incl = model.max_space
    upper = ph_space(sigma, fam_sigma)
    lower = ph_space(maxsub, fam_max)

    graph = []
    for a in lower.members:
        closed = sigma.closure(incl.image(a))
        if closed not in upper.members:
            raise CheckFailed("closure left the target family",
                              sigma.labels_of_mask(closed))
        graph.append(upper.member_index(closed))
    jmap = ContinuousMap(lower.space, upper.space, tuple(graph))

    embedding = is_embedding(jmap)
    square = all(
        jmap.graph[lower.eta[t]] == upper.eta[incl.graph[t]]
        for t in range(maxsub.n)
    )
    image_mask = jmap.image_mask
    image_law = image_mask == _eta_max_up(model, upper)
    inverse_law = all(
        lower.members[idx] == incl.preimage(upper.members[jmap.graph[idx]])
        for idx in range(lower.space.n)
    )
    saturated = upper.space.saturation(image_mask) == image_mask
    return jmap, image_mask, embedding, square, image_law, inverse_law, saturated


# ---------------------------------------------------------------------------
# pair conditions


@dataclass(frozen=True)
class PairWitness:
    hyper: HyperSpace
    p1: bool
    p2: bool
    p3: bool
    compact_preimages_checked: int
    witness: tuple | None


@lru_cache(maxsize=1024)
def pair_conditions_check(poset: FinPoset, members: tuple[int, ...]) -> PairWitness:
    """Conditions (P1)-(P3) for the hyperspace over a sandwiched family.

    Also runs the compact-set side condition: the point-map preimage of
    every compact saturated set of the hyperspace is saturated in the
    pair model, and its top-set display agrees with the brute scan.

    Memoized by value on ``(poset, members)``: on a finite pair model
    Sc = Irr, so the pair, EQ2 and stage-chain runners all ask for the
    same witness.  Every check above still runs once per distinct
    family; a repeat call with equal arguments returns the witness
    already verified.  A failing check raises and caches nothing.
    """
    model = xizhao_model(poset)
    sigma = model.sigma
    sc = set(point_closures(sigma))
    irr = set(irreducible_closed_sets(sigma))
    member_set = set(members)
    if not sc <= member_set:
        missing = next(iter(sc - member_set))
        raise SandwichViolated(
            "family misses the point closure " + str(sigma.labels_of_mask(missing))
        )
    if not member_set <= irr:
        extra = next(iter(member_set - irr))
        raise SandwichViolated(
            "family exceeds the irreducible sets at " + str(sigma.labels_of_mask(extra))
        )

    hyper = ph_space(sigma, bits.canon(members))
    eta = hyper.eta_map
    p1 = is_embedding(eta)

    up_part = _eta_max_up(model, hyper)
    nonmax_image = bits.mask_of(hyper.eta[i] for i in bits.indices_of(model.nonmax_mask))
    covers = (up_part | nonmax_image) == hyper.space.full_mask
    image = hyper.eta_image_mask
    lower_set = all(
        bits.is_subset(hyper.space.spec_down[i], image)
        for i in bits.indices_of(image)
    )
    p2 = covers and lower_set

    witness = None
    sub_nonmax, incl_nm = subspace(sigma, model.nonmax_mask)
    p3 = True
    for c in sub_nonmax.closed:
        lifted = incl_nm.image(c)
        image_of_c = bits.mask_of(hyper.eta[i] for i in bits.indices_of(lifted))
        if image_of_c not in hyper.space.closed_index:
            p3 = False
            witness = ("P3", sigma.labels_of_mask(lifted))
            break

    checked = 0
    for q in compact_saturated_sets(hyper.space):
        k_mask = eta.preimage(q)
        if sigma.saturation(k_mask) != k_mask:
            raise CheckFailed("compact preimage is not saturated in the model")
        e_set(model, k_mask)  # display vs brute scan compared internally
        checked += 1

    return PairWitness(hyper, p1, p2, p3, checked, witness)


# ---------------------------------------------------------------------------
# decomposition equations


@dataclass(frozen=True)
class EquationVerdict:
    name: str
    passed: bool
    lhs_size: int
    rhs_size: int
    diff: tuple[str, ...]


def _verdict(name: str, lhs: set[int], rhs: set[int], describe) -> EquationVerdict:
    diff = tuple(sorted(describe(m) for m in lhs ^ rhs))
    return EquationVerdict(name, lhs == rhs, len(lhs), len(rhs), diff)


# split equation -> the closed-set family it splits
_SPLIT_FAMILY = {"EQ1": "Irr", "KFSET2": "KF", "EQ3": "WD"}


def _split_equation(
    name: str, model: XiZhaoPoset
) -> tuple[EquationVerdict, EquationVerdict]:
    """The two halves shared by the irreducible/meeting/squeezed splits:
    the full family decomposes into lifted-and-closed maximal-part
    members plus principal ideals of non-maximal pairs, and conversely
    the maximal-part family is the nonempty trace of the full one."""
    sigma = model.sigma
    maxsub, incl = model.max_space
    fam_sigma = set(family_members(_SPLIT_FAMILY[name], sigma))
    fam_max = set(family_members(_SPLIT_FAMILY[name], maxsub))
    lifted = {sigma.closure(incl.image(a)) for a in fam_max}
    ideals = {sigma.spec_down[i] for i in bits.indices_of(model.nonmax_mask)}
    first = _verdict(
        name + "/model", fam_sigma, lifted | ideals, sigma.labels_of_mask
    )
    traces = {
        incl.preimage(b)
        for b in fam_sigma
        if b & model.max_mask
    }
    second = _verdict(name + "/max", fam_max, traces, maxsub.labels_of_mask)
    return first, second


def _eq0(model) -> EquationVerdict:
    """Whole irreducible family = up-closure of the embedded maximal
    points inside the sobrification, plus images of non-maximal points."""
    sigma = model.sigma
    fam = irreducible_closed_sets(sigma)
    hyper = ph_space(sigma, fam)
    ordered = {hyper.members[i] for i in bits.indices_of(_eta_max_up(model, hyper))}
    eta_nonmax = {sigma.spec_down[i] for i in bits.indices_of(model.nonmax_mask)}
    return _verdict("EQ0", set(fam), ordered | eta_nonmax, sigma.labels_of_mask)


@lru_cache(maxsize=1024)
def _eq2_sides(poset: FinPoset, members: tuple[int, ...]):
    """Both sides of the meeting-family split across the hyperspace pair
    over `members`, as ((hyper lhs, rhs), (up-part lhs, rhs)).

    The up-part of the hyperspace (everything above an embedded maximal
    point) carries its own meeting family; closing its members downward
    and adding the images of principal ideals of non-maximal pairs must
    give the hyperspace's meeting family, and tracing back must give the
    up-part's.  Memoized by value on ``(poset, members)``, as
    `pair_conditions_check` is: on a finite pair model Sc = Irr, so the
    two tags of EQ2 ask for the same sides.
    """
    model = xizhao_model(poset)
    sigma = model.sigma
    hyper = ph_space(sigma, members)
    up_mask = _eta_max_up(model, hyper)
    sub_up, incl_up = subspace(hyper.space, up_mask)
    kf_y = frozenset(kf_sets(hyper.space))
    kf_up = frozenset(kf_sets(sub_up))
    closed_lifts = {hyper.space.closure(incl_up.image(a)) for a in kf_up}
    ideal_images = {
        bits.mask_of(hyper.eta[p] for p in bits.indices_of(sigma.spec_down[i]))
        for i in bits.indices_of(model.nonmax_mask)
    }
    traces = frozenset(incl_up.preimage(a) for a in kf_y if a & up_mask)
    return (kf_y, frozenset(closed_lifts | ideal_images)), (kf_up, traces)


def _eq2_for(poset: FinPoset, members: tuple[int, ...], tag: str):
    """The EQ2 verdicts for one tag, named after it."""
    describe = lambda m: str(sorted(bits.indices_of(m)))
    (kf_y, lifted), (kf_up, traces) = _eq2_sides(poset, members)
    return (
        _verdict(f"EQ2[{tag}]/hyper", kf_y, lifted, describe),
        _verdict(f"EQ2[{tag}]/up-part", kf_up, traces, describe),
    )


EQUATION_NAMES = ("EQ0", "EQ1", "EQ2", "KFSET2", "EQ3")


def decomposition_check(poset: FinPoset, which: str) -> tuple[EquationVerdict, ...]:
    """Compute both sides of a named decomposition equation exactly.

    EQ0 splits the irreducible family of the pair model inside its own
    sobrification; EQ1/KFSET2/EQ3 are the irreducible/meeting/squeezed
    family splits between the model and its maximal point space; EQ2 is
    the meeting-family split for the hyperspace pair over the point
    closures and over the irreducible sets.
    """
    model = xizhao_model(poset)
    if which == "EQ0":
        return (_eq0(model),)
    if which in _SPLIT_FAMILY:
        return _split_equation(which, model)
    if which == "EQ2":
        out = []
        for tag in ("Sc", "Irr"):
            members = family_members(tag, model.sigma)
            pair_conditions_check(poset, members)  # the pair must qualify
            out.extend(_eq2_for(poset, members, tag))
        return tuple(out)
    raise CheckFailed("unknown equation name", which)


# ---------------------------------------------------------------------------
# universal property, by enumeration of small targets


@lru_cache(maxsize=8)
def all_posets(n: int) -> tuple[FinPoset, ...]:
    """Every partial order on n labeled elements.

    Enumerated as the transitive antisymmetric sets of strict ordered
    pairs; each order appears exactly once.
    """
    labels = tuple(f"t{i}" for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        chosen = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if any((j, i) in chosen for (i, j) in chosen):
            continue
        if any(
            (i, k) not in chosen
            for (i, j) in chosen
            for (j2, k) in chosen
            if j2 == j and k != i
        ):
            continue
        out.append(
            validate_poset(labels, tuple((labels[i], labels[j]) for i, j in chosen))
        )
    return tuple(out)


@dataclass(frozen=True)
class UniversalReport:
    kind: str
    targets: int
    maps_checked: int


def universal_property_smoke(space: FinSpace, kind: str, budget: int = 4) -> UniversalReport:
    """Factorization through the reflection, against every small target.

    For each enumerated target (all orders on up to ``budget`` labeled
    points, as spaces) the composition with the point map must be a
    bijection between the continuous maps out of the reflection and
    those out of the input — existence and uniqueness of factorizations
    in one statement.
    """
    if budget > 4:
        raise BudgetExceeded("target enumeration is capped at 4 points")
    if kind == "SOBER":
        hyper = sobrification(space)
    elif kind == "WF":
        hyper = wf_reflection(space)
    else:
        raise CheckFailed("unknown reflection kind", kind)
    eta = hyper.eta_map
    targets = 0
    checked = 0
    for n in range(1, budget + 1):
        for target_poset in all_posets(n):
            target = scott_space(target_poset)
            if kind == "SOBER":
                ok, _ = is_sober(target)
                if not ok:
                    raise CheckFailed("finite target failed the soberness check")
            else:
                if kf_sets(target) != point_closures(target):
                    raise CheckFailed("finite target failed the well-filtered check")
            homs_in = continuous_maps(space, target)
            homs_out = continuous_maps(hyper.space, target)
            composed = [
                tuple(g.graph[eta.graph[i]] for i in range(space.n))
                for g in homs_out
            ]
            if len(set(composed)) != len(composed):
                raise CheckFailed("factorizations are not unique")
            if set(composed) != {f.graph for f in homs_in}:
                raise CheckFailed("some map fails to factor through the reflection")
            targets += 1
            checked += len(homs_in)
    return UniversalReport(kind, targets, checked)


# ---------------------------------------------------------------------------
# paired stage chains over the two hyperspaces


@dataclass(frozen=True)
class StagePairReport:
    x_stages: tuple[int, ...]
    y_stages: tuple[int, ...]
    x_index: int
    y_index: int
    stages_checked: int


def claim_embed2_check(poset: FinPoset) -> StagePairReport:
    """Run the two stage chains side by side and tie them together.

    At every stage the closure embedding must carry the maximal-point
    chain exactly onto the part of the model chain above the embedded
    maximal points, while the stage family keeps conditions (P1)-(P3);
    at stabilization both chains must equal the squeezed families of
    their spaces.  The chains are `shen_iterate`'s, so a failure of
    either `shen_iterate` call (its sobrification, or its checks of the
    stabilized stage) is this check's failure too, with that message.
    """
    model = xizhao_model(poset)
    sigma = model.sigma
    maxsub, _ = model.max_space
    upper = ph_space(sigma, irreducible_closed_sets(sigma))
    lower = ph_space(maxsub, irreducible_closed_sets(maxsub))
    jreport = j_embedding_check(poset, "sober")
    jgraph = jreport.jmap.graph
    up = _eta_max_up(model, upper)

    x_chain = list(shen_iterate(maxsub).stages)
    y_chain = list(shen_iterate(sigma).stages)
    x_index = len(x_chain) - 1
    y_index = len(y_chain) - 1
    # side by side, the chains run until neither grows: one stage past
    # the later stabilization, the earlier chain repeating its last stage
    for chain in (x_chain, y_chain):
        chain += [chain[-1]] * (max(x_index, y_index) + 2 - len(chain))

    for step, (x_mask, y_mask) in enumerate(zip(x_chain, y_chain)):
        j_image = bits.mask_of(jgraph[i] for i in bits.indices_of(x_mask))
        if j_image != up & y_mask:
            raise CheckFailed("stage equation failed", step)
        stage = bits.canon(upper.members[i] for i in bits.indices_of(y_mask))
        wit = pair_conditions_check(poset, stage)
        if not (wit.p1 and wit.p2 and wit.p3):
            raise CheckFailed("stage family lost a pair condition", step)

    x_final = {lower.members[i] for i in bits.indices_of(x_chain[-1])}
    y_final = {upper.members[i] for i in bits.indices_of(y_chain[-1])}
    if x_final != set(family_members("WD", maxsub)):
        raise CheckFailed("maximal-point chain missed its squeezed family")
    if y_final != set(family_members("WD", sigma)):
        raise CheckFailed("model chain missed its squeezed family")
    return StagePairReport(
        tuple(x_chain), tuple(y_chain), x_index, y_index, len(y_chain)
    )
