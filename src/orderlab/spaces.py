"""Finite topological spaces, stored as their specialization preorder.

A finite space is Alexandrov: its opens are exactly the up-sets of its
specialization preorder, and `spec_up[x]` is the minimal open
neighbourhood of the point x.  A `FinSpace` stores its labels and
`spec_up` only.  Everything label-free is keyed by `spec_up`, so spaces
with equal preorders and different labels (a discrete maximal-point
space and a hyperspace's up-part, say) share one computation:
- the views: the opens (enumerated by `_preorder_up_sets`, which
  refuses a space with more than `MAX_UP_SETS` opens), the closed
  sets, their bit-sliced views (`bits.bit_slices`: one int per point, one
  bit per member) and `spec_down`, derived on first use in one
  `PreorderViews` per preorder;
- the families: `point_closures`, `irreducible_closed_sets` and
  `compact_saturated_sets` here, and the meeting and squeezed families
  in `families`, memoized by `preorder_memo`.
A hyperspace whose unit is a verified homeomorphism onto a T0 base is
registered by `ph_space` as a copy of the base's preorder
(`PreorderViews.copy_of`), and `preorder_memo` transports the base's
families across the unit instead of recomputing them: the definitional
routes run once per sobrification, on the base.  The views themselves
are not transported.
Values that carry labels stay keyed by the labelled space: `ph_space`'s
hyperspaces by ``(base, members)`` and `subspace`'s subspaces with their
inclusions by ``(space, mask)``.  Derived spaces (Scott spaces,
subspaces, maximal-point spaces, hyperspaces) are built from their
preorder.  A `ContinuousMap` scans its target's opens once, at
construction, and keeps their preimages (`open_preimages`); for an
inclusion these are the relative topology, so the inclusion's
continuity scan is also `subspace`'s relative-topology check.
`make_space` validates an open family given from outside: it checks the
closure laws, builds the space from the minimal neighbourhoods, and
compares the enumerated opens with the family.  Saturation is still the
intersection of all open supersets, taken on the open slices in O(n)
int operations.  Every subset of a finite space is compact, so Q(X), the
compact saturated sets, is the nonempty opens; `compact_saturated_sets`
certifies the listing it reads them from: each must be an up-set of the
preorder, and every minimal neighbourhood must be listed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

from . import bits
from .errors import (
    BudgetExceeded,
    CheckFailed,
    FamilyNotIrreducible,
    InputError,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    UnknownLabel,
)
from .posets import check_preorder, label_index


MAX_UP_SETS = 1 << 16


def _up_set_leaves(spec_up: tuple[int, ...]):
    """Yield every up-set of a preorder given by its up-masks.

    Depth first, the lowest undecided point is decided both ways: taking
    it takes its up-set, and leaving it out leaves out its down-set.  The
    taken part stays an up-set and the left-out part a down-set, so every
    leaf is an up-set, and each up-set is reached exactly once.
    """
    spec_down = bits.bit_slices(spec_up, len(spec_up))
    stack = [(0, (1 << len(spec_up)) - 1)]
    while stack:
        taken, undecided = stack.pop()
        if not undecided:
            yield taken
            continue
        x = (undecided & -undecided).bit_length() - 1
        stack.append((taken | spec_up[x], undecided & ~spec_up[x]))
        stack.append((taken, undecided & ~spec_down[x]))


def _preorder_up_sets(spec_up: tuple[int, ...]) -> tuple[int, ...]:
    """All up-sets of a preorder, in canonical order: the opens of its
    space.  Raises `BudgetExceeded` on the first leaf past `MAX_UP_SETS`,
    so a refused space costs at most the budget plus one leaf."""
    out = []
    for u in _up_set_leaves(spec_up):
        if len(out) == MAX_UP_SETS:
            raise BudgetExceeded(
                f"space has more than {MAX_UP_SETS} open sets (the open-set budget)"
            )
        out.append(u)
    return bits.canon(out)


class PreorderViews:
    """The label-free views of a finite space, derived on first use from
    its specialization preorder.  `preorder_views` holds one per preorder,
    shared by every space with that preorder whatever its labels."""

    def __init__(self, spec_up: tuple[int, ...]):
        self.spec_up = spec_up
        self.n = len(spec_up)
        self.full_mask = (1 << self.n) - 1
        # (base spec_up, eta) when x -> eta[x] is a verified homeomorphism
        # from the base's preorder onto this one (set by `ph_space`)
        self.copy_of: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @cached_property
    def opens(self) -> tuple[int, ...]:
        return _preorder_up_sets(self.spec_up)

    @cached_property
    def open_set(self) -> frozenset:
        """The opens as a set; its nonzero members are Q(X), the compact
        saturated sets (`compact_saturated_sets`)."""
        return frozenset(self.opens)

    @cached_property
    def closed(self) -> tuple[int, ...]:
        return bits.canon(self.full_mask & ~u for u in self.opens)

    @cached_property
    def closed_index(self) -> dict[int, int]:
        """closed_index[c] is the position of closed set c in `closed`."""
        return {c: j for j, c in enumerate(self.closed)}

    @cached_property
    def open_slices(self) -> tuple[int, ...]:
        """open_slices[p] has bit j set when opens[j] holds p."""
        return bits.bit_slices(self.opens, self.n)

    @cached_property
    def closed_slices(self) -> tuple[int, ...]:
        """closed_slices[p] has bit j set when closed[j] holds p."""
        return bits.bit_slices(self.closed, self.n)

    @cached_property
    def closed_strict_subsets(self) -> tuple[int, ...]:
        """Entry j has bit i set when closed[i] is a strict subset of closed[j]."""
        slices = self.closed_slices
        every = (1 << len(self.closed)) - 1
        out = []
        for j, c in enumerate(self.closed):
            outside = 0
            for p in bits.indices_of(self.full_mask & ~c):
                outside |= slices[p]
            out.append(every & ~outside & ~(1 << j))
        return tuple(out)

    @cached_property
    def spec_down(self) -> tuple[int, ...]:
        """spec_down[x] = cl{x}; x <= y in specialization iff x in cl{y}."""
        return bits.bit_slices(self.spec_up, self.n)


preorder_views = lru_cache(maxsize=4096)(PreorderViews)


def _shared(name: str) -> cached_property:
    """A `FinSpace` attribute read once from the views of its preorder."""
    view = cached_property(lambda self: getattr(self.views, name))
    view.__doc__ = getattr(PreorderViews, name).__doc__
    return view


@dataclass(frozen=True)
class FinSpace:
    """A finite space as its specialization preorder: `spec_up[x]` has bit
    y set when x <= y, i.e. when every open holding x holds y."""

    labels: tuple[str, ...]
    spec_up: tuple[int, ...]

    def __post_init__(self):
        check_preorder(self.labels, self.spec_up)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def views(self) -> PreorderViews:
        return preorder_views(self.spec_up)

    opens = _shared("opens")
    open_set = _shared("open_set")
    closed = _shared("closed")
    closed_index = _shared("closed_index")
    open_slices = _shared("open_slices")
    closed_slices = _shared("closed_slices")
    closed_strict_subsets = _shared("closed_strict_subsets")
    spec_down = _shared("spec_down")

    @cached_property
    def t0_witness(self):
        """A pair of topologically indistinguishable points, or None."""
        seen = {}
        for x in range(self.n):
            key = self.spec_up[x]
            if key in seen:
                return (self.labels[seen[key]], self.labels[x])
            seen[key] = x
        return None

    @property
    def is_t0(self) -> bool:
        return self.t0_witness is None

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def labels_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits.indices_of(mask))

    def closure(self, mask: int) -> int:
        """Smallest closed superset (fast path: the union of point closures)."""
        out = 0
        for i in bits.indices_of(mask):
            out |= self.spec_down[i]
        return out

    def closure_definitional(self, mask: int) -> int:
        acc = self.full_mask
        for c in self.closed:
            if bits.is_subset(mask, c):
                acc &= c
        return acc

    def saturation(self, mask: int) -> int:
        """Intersection of all open supersets.

        The AND of the open slices over the points of the mask selects the
        opens holding all of it; a point lies in the saturation when its
        own slice holds every selected open.
        """
        slices = self.open_slices
        supersets = (1 << len(self.opens)) - 1
        for p in bits.indices_of(mask):
            supersets &= slices[p]
        out = 0
        for q in range(self.n):
            if supersets & slices[q] == supersets:
                out |= 1 << q
        return out


def _closure_witness(labels, masks: tuple[int, ...]) -> None:
    """Raise for the first pair, in `combinations` order, whose union or
    intersection is missing from the family."""
    fam = frozenset(masks)
    for a, b in itertools.combinations(masks, 2):
        for m, exc in (
            (a | b, NotClosedUnderUnion),
            (a & b, NotClosedUnderIntersection),
        ):
            if m not in fam:
                raise exc(
                    tuple(labels[i] for i in bits.indices_of(a)),
                    tuple(labels[i] for i in bits.indices_of(b)),
                )


def make_space(labels, opens) -> FinSpace:
    """Validate an open family given from outside (label lists or masks).

    A mask outside the carrier raises `InputError` before any scan.
    After the empty/full check, each point's minimal neighbourhood is the
    intersection of the members holding it.  A family is a topology
    exactly when joining any member with any minimal neighbourhood stays
    in the family (O(k*n)): the family is then the up-set family of the
    neighbourhoods' preorder, which is closed under union and
    intersection.  A family failing that test goes to the pairwise scan,
    which names the first failing pair in `combinations` order; the
    up-sets, which can be exponentially many, are never enumerated for
    it.  Otherwise the space is built from the neighbourhoods and its
    enumerated opens must equal the family.
    """
    labels = tuple(labels)
    index = label_index(labels)
    n = len(labels)
    full = (1 << n) - 1
    masks = []
    for u in opens:
        if isinstance(u, int):
            if u not in range(full + 1):
                raise InputError(f"open mask {u} lies outside the {n}-point carrier")
            masks.append(u)
        else:
            m = 0
            for l in u:
                if l not in index:
                    raise UnknownLabel(l)
                m |= 1 << index[l]
            masks.append(m)
    canon_masks = bits.canon(masks)
    fam = frozenset(canon_masks)
    if 0 not in fam:
        raise MissingEmptyOrFull("empty")
    if full not in fam:
        raise MissingEmptyOrFull("full")
    nbhd = [full] * n
    for u in canon_masks:
        for x in bits.indices_of(u):
            nbhd[x] &= u
    if any(u | v not in fam for v in nbhd for u in canon_masks):
        _closure_witness(labels, canon_masks)
        raise CheckFailed("family is not Alexandrov, yet every pair closes")
    space = FinSpace(labels, tuple(nbhd))
    if space.opens != canon_masks:
        raise CheckFailed("Alexandrov law: opens differ from specialization up-sets")
    return space


@dataclass(frozen=True)
class ContinuousMap:
    """A map of finite spaces, given by its graph and checked continuous.

    Construction scans the target's opens once: their preimages are kept
    as `open_preimages`, and each must be open in the source.
    """

    source: FinSpace
    target: FinSpace
    graph: tuple[int, ...]

    def __post_init__(self):
        if len(self.graph) != self.source.n:
            raise CheckFailed("graph length mismatch")
        for fx in self.graph:
            if fx not in range(self.target.n):
                raise CheckFailed("graph leaves the target", (self.graph, fx))
        if not self.open_preimages <= self.source.open_set:
            w = next(w for w in self.target.opens
                     if self.preimage(w) not in self.source.open_set)
            raise CheckFailed(
                "map not continuous",
                (self.graph, self.target.labels_of_mask(w)),
            )

    @cached_property
    def open_preimages(self) -> frozenset:
        """The preimages of the target's opens (for an inclusion, the
        relative topology)."""
        return frozenset(self.preimage(w) for w in self.target.opens)

    @cached_property
    def fibers(self) -> tuple[int, ...]:
        """fibers[t] is the mask of the source points sent to target point t."""
        out = [0] * self.target.n
        for i, t in enumerate(self.graph):
            out[t] |= 1 << i
        return tuple(out)

    def preimage(self, target_mask: int) -> int:
        fibers = self.fibers
        m = 0
        for t in bits.indices_of(target_mask & self.image_mask):
            m |= fibers[t]
        return m

    def image(self, source_mask: int) -> int:
        m = 0
        for i in bits.indices_of(source_mask):
            m |= 1 << self.graph[i]
        return m

    @cached_property
    def image_mask(self) -> int:
        return bits.mask_of(self.graph)


def is_injective(f: ContinuousMap) -> bool:
    return len(set(f.graph)) == len(f.graph)


def is_embedding(f: ContinuousMap) -> bool:
    """Injective, and the image of each source open is the trace of a
    target open on the image.  For an injective map that trace is the
    image of the open's preimage, so the source opens must be exactly the
    preimages of the target opens (`open_preimages`)."""
    return is_injective(f) and f.open_preimages == f.source.open_set


def is_homeomorphism(f: ContinuousMap) -> bool:
    if not is_injective(f) or f.image_mask != f.target.full_mask:
        return False
    inverse = [0] * f.target.n
    for i, fi in enumerate(f.graph):
        inverse[fi] = i
    try:
        ContinuousMap(f.target, f.source, tuple(inverse))
    except CheckFailed:
        return False
    return True


def continuous_maps(source: FinSpace, target: FinSpace, budget: int = 1_000_000):
    """All continuous maps, enumerated exhaustively.

    Candidates are prefiltered by specialization monotonicity (equivalent to
    continuity on Alexandrov spaces); every accepted map is
    still validated definitionally by `ContinuousMap`.
    """
    total = target.n ** source.n if source.n else 1
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate maps exceed the budget of {budget}"
        )
    out = []
    su, tu = source.spec_up, target.spec_up
    for graph in itertools.product(range(target.n), repeat=source.n):
        ok = True
        for x in range(source.n):
            fx_up = tu[graph[x]]
            for y in bits.indices_of(su[x]):
                if not fx_up >> graph[y] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(ContinuousMap(source, target, graph))
    return tuple(out)


class _PreorderKey:
    """A space that hashes and compares as its specialization preorder."""

    __slots__ = ("space", "_hash")

    def __init__(self, space: FinSpace):
        self.space = space
        self._hash = hash(space.spec_up)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.space.spec_up == other.space.spec_up


def preorder_memo(fn):
    """Memoize a label-free value of a finite space by its preorder.

    Spaces with equal `spec_up` share one computation whatever their
    labels, so `fn` must return masks only.  A miss runs `fn` on the
    caller's own space, so a failing check names the caller's labels,
    and a failure caches nothing.  A miss on a preorder registered as a
    copy (`PreorderViews.copy_of`) is instead evaluated on a twin: the
    base's preorder under the caller's labels permuted by `eta`, which
    hits the base's entry; the result masks are mapped through `eta`
    and put back in canonical order.  `cache_info` and `cache_clear` are
    those of the underlying `lru_cache`.
    """

    def evaluate(key: _PreorderKey):
        space = key.space
        if space.views.copy_of is None:
            return fn(space)
        base_up, eta = space.views.copy_of
        twin = FinSpace(tuple(space.labels[e] for e in eta), base_up)
        return bits.canon(
            bits.mask_of(eta[x] for x in bits.indices_of(m)) for m in memo(twin)
        )

    cached = lru_cache(maxsize=4096)(wraps(fn)(evaluate))

    @wraps(fn)
    def memo(space: FinSpace):
        return cached(_PreorderKey(space))

    memo.cache_info = cached.cache_info
    memo.cache_clear = cached.cache_clear
    return memo


@preorder_memo
def point_closures(space: FinSpace) -> tuple[int, ...]:
    return bits.canon(space.spec_down)


@preorder_memo
def irreducible_closed_sets(space: FinSpace) -> tuple[int, ...]:
    """Nonempty closed sets not covered by two proper closed subsets.

    Definitional scan: A is reducible iff some closed B has A not inside B
    and A not inside cl(A \\ B); then A = (A n B) u (A n cl(A\\B)) splits it.
    Both conditions are evaluated for every B at once on the bit-sliced
    view: `outside[p]` has bit j set when closed set j misses p, so A is
    not inside B_j for the bits of the union of `outside` over A, and p
    lies in cl(A \\ B_j) for the bits of the union of `outside` over the
    points of A above p.  The result is cross-checked against the
    point-closure family (finite spaces are sober, so the two must
    coincide).
    """
    closed = [c for c in space.closed if c]
    every = (1 << len(closed)) - 1
    outside = [every & ~s for s in bits.bit_slices(closed, space.n)]
    out = []
    for a in closed:
        not_in_b = not_in_cl = 0
        for p in bits.indices_of(a):
            not_in_b |= outside[p]
            p_in_cl = 0
            for q in bits.indices_of(a & space.spec_up[p]):
                p_in_cl |= outside[q]
            not_in_cl |= every & ~p_in_cl
        if not not_in_b & not_in_cl:
            out.append(a)
    result = bits.canon(out)
    if result != point_closures(space):
        raise CheckFailed("irreducible closed sets differ from point closures")
    return result


@preorder_memo
def compact_saturated_sets(space: FinSpace) -> tuple[int, ...]:
    """All nonempty compact saturated subsets (the empty set is excluded).

    In a finite space every subset is compact, and the saturation of a
    set is its up-set in the specialization preorder, which is open; so
    Q(X) is the nonempty opens.  Two checks certify the listing they are
    read from: each candidate must equal its up-closure under `spec_up`,
    and each point's minimal neighbourhood `spec_up[x]` must be listed
    (every open cover of a saturated set then refines the cover by the
    minimal neighbourhoods of its points).  The first candidate that is
    not an up-set, in up-set order, is raised, else the first unlisted
    neighbourhood.
    """
    candidates = [s for s in space.opens if s]
    for s in candidates:
        up = 0
        for x in bits.indices_of(s):
            up |= space.spec_up[x]
        if up != s:
            raise CheckFailed("up-set is not an intersection of opens", s)
    for u in space.spec_up:
        if u not in space.open_set:
            raise CheckFailed("minimal neighbourhood is not among the opens", u)
    return bits.canon(candidates)


def is_sober(space: FinSpace):
    """(verdict, evidence): every irreducible closed set has a unique generic point.

    Evidence is a tuple of (irreducible mask, generic point index) on
    success, or the offending closed set on failure.
    """
    assignment = []
    for a in irreducible_closed_sets(space):
        generics = [x for x in range(space.n) if space.spec_down[x] == a]
        if len(generics) != 1:
            return False, a
        assignment.append((a, generics[0]))
    return True, tuple(assignment)


@lru_cache(maxsize=1024)
def subspace(space: FinSpace, mask: int) -> tuple[FinSpace, ContinuousMap]:
    """Materialize the subspace on `mask` plus its inclusion map.

    The subspace is built from the restricted preorder; its opens must be
    the relative topology, the traces of the ambient opens on `mask`.
    Those traces are the ambient opens' preimages under the inclusion, so
    the inclusion's continuity scan lists them (`open_preimages`) and the
    check compares that family with the subspace's opens: the ambient
    opens are scanned once.  Memoized by value on ``(space, mask)``; a
    failing check raises and caches nothing.
    """
    keep = bits.indices_of(mask)
    pos = {old: new for new, old in enumerate(keep)}

    def restrict(u: int) -> int:
        m = 0
        for old in bits.indices_of(u & mask):
            m |= 1 << pos[old]
        return m

    labels = tuple(space.labels[i] for i in keep)
    sub = FinSpace(labels, tuple(restrict(space.spec_up[i]) for i in keep))
    incl = ContinuousMap(sub, space, keep)
    if incl.open_preimages != sub.open_set:
        raise CheckFailed("relative topology differs from the restricted preorder")
    return sub, incl


@dataclass(frozen=True)
class HyperSpace:
    """A lower-Vietoris hyperspace over a family of closed sets of a base."""

    space: FinSpace
    base: FinSpace
    members: tuple[int, ...]
    eta: tuple[int, ...] | None

    def member_index(self, base_mask: int) -> int:
        return self.members.index(base_mask)

    def diamond(self, base_mask: int) -> int:
        out = 0
        for i, m in enumerate(self.members):
            if m & base_mask:
                out |= 1 << i
        return out

    @cached_property
    def eta_map(self) -> ContinuousMap:
        if self.eta is None:
            raise CheckFailed("eta undefined: family lacks the point closures")
        return ContinuousMap(self.base, self.space, self.eta)

    @property
    def eta_image_mask(self) -> int:
        return bits.mask_of(self.eta)


def member_label(base: FinSpace, mask: int) -> str:
    return "{" + ",".join(base.labels[i] for i in bits.indices_of(mask)) + "}"


@lru_cache(maxsize=1024)
def ph_space(base: FinSpace, members: tuple[int, ...]) -> HyperSpace:
    """Lower-Vietoris space on a family of nonempty irreducible closed sets.

    The topology is generated from the diamond subbase: on a finite set
    it is the space of the preorder in which the up-set of member i is
    the intersection of the subbasic sets containing i.  It is then
    verified: its closed sets must be exactly the boxed base-closed
    sets, and the specialization order must be inclusion of members.  When
    the family contains every point closure, the unit x -> cl{x} is
    attached and checked to be a topological and order embedding (for T0
    bases).  When it is moreover onto (the family is the point closures
    and nothing else), the unit is a homeomorphism, and the hyperspace's
    preorder is registered as a copy of the base's (`copy_of`), so its
    closed-set families are transported from the base's.  A preorder
    equal to the base's, or either side already a copy, is not
    registered, so copy chains stay acyclic.
    """
    members = bits.canon(members)
    irr = set(irreducible_closed_sets(base))
    for m in members:
        if m not in irr:
            raise FamilyNotIrreducible(base.labels_of_mask(m))
    k = len(members)
    bits.check_carrier(k)
    labels = tuple(member_label(base, m) for m in members)
    every = (1 << k) - 1
    holds = bits.bit_slices(members, base.n)
    subbase = {0, every}
    for u in base.opens:
        d = 0
        for p in bits.indices_of(u):
            d |= holds[p]
        subbase.add(d)
    nbhd = []
    for i in range(k):
        acc = every
        for d in subbase:
            if d >> i & 1:
                acc &= d
        nbhd.append(acc)
    space = FinSpace(labels, tuple(nbhd))
    expected_closed = set()
    for c in base.closed:
        hit = 0
        for p in bits.indices_of(base.full_mask & ~c):
            hit |= holds[p]
        expected_closed.add(every & ~hit)
    if bits.canon(expected_closed) != space.closed:
        raise CheckFailed("hyperspace closed sets differ from boxed base closeds")
    for i in range(k):
        for j in range(k):
            if bool(space.spec_up[i] >> j & 1) != bits.is_subset(members[i], members[j]):
                raise CheckFailed("hyperspace specialization is not inclusion", (i, j))
    eta = None
    if set(point_closures(base)) <= set(members):
        eta = tuple(members.index(base.spec_down[x]) for x in range(base.n))
        hyper = HyperSpace(space, base, members, eta)
        if base.is_t0:
            f = hyper.eta_map
            if not is_embedding(f):
                raise CheckFailed("unit map is not a topological embedding")
            for u in base.opens:
                if f.image(u) != hyper.diamond(u) & hyper.eta_image_mask:
                    raise CheckFailed("unit image law failed", u)
            for x in range(base.n):
                for y in range(base.n):
                    in_base = bool(base.spec_up[x] >> y & 1)
                    in_hyper = bool(space.spec_up[eta[x]] >> eta[y] & 1)
                    if in_base != in_hyper:
                        raise CheckFailed("unit order-embedding failed", (x, y))
            # the current views of both preorders, not a stale one an
            # older space may hold after the views cache was emptied
            views = preorder_views(space.spec_up)
            if (k == base.n and space.spec_up != base.spec_up
                    and views.copy_of is None
                    and preorder_views(base.spec_up).copy_of is None):
                views.copy_of = (base.spec_up, eta)
        return hyper
    return HyperSpace(space, base, members, eta)
