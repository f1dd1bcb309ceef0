"""Exact symbolic model of the cofinite topology on the naturals.

Every set handled here is finite or cofinite, so the whole boolean
algebra, the topology, and the closed-set families are decidable without
enumerating an infinite carrier.  This space is the workbench's built-in
separating example: it is not sober and not well-filtered, yet every
irreducible closed set arises from a filtered compact family.

The four family evaluators (`sc_cofnat`, `irr_cofnat`, `kf_cofnat`,
`wd_cofnat`) take no arguments; each re-checks its family on a fixed
sample of points.  `families.family_members` picks them by kind, and
`systems.classify` builds this space's panel from the same flag table
as a finite space's, with `sober_by_generic_points` as the second route
to soberness.

Filtered families are restricted to two schemas — a single compact
saturated set, and the family of all nonempty cofinite sets — which
suffice for every claim made about this space.  Arbitrary symbolic
families are out of scope, as is the co-countable real line (finite or
cofinite supports cannot express countable/uncountable distinctions);
the co-countable example is referenced in reports as a citation only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckFailed, InputError, PreconditionViolated

WINDOW_BOUND = 64


# ---------------------------------------------------------------------------
# finite/cofinite set algebra


@dataclass(frozen=True)
class CoSet:
    """A finite or cofinite subset of the naturals, in canonical form.

    ``support`` lists the set itself (finite case) or its complement
    (cofinite case), strictly increasing either way.
    """

    cofinite: bool
    support: tuple[int, ...]

    def __post_init__(self):
        if list(self.support) != sorted(set(self.support)):
            raise CheckFailed("support is not canonical", self.support)
        if any(x < 0 for x in self.support):
            raise InputError("supports are natural numbers")

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.support

    @property
    def is_whole(self) -> bool:
        return self.cofinite and not self.support

    def member(self, n: int) -> bool:
        return (n in self.support) != self.cofinite

    def complement(self) -> "CoSet":
        return CoSet(not self.cofinite, self.support)

    def union(self, other: "CoSet") -> "CoSet":
        a, b = set(self.support), set(other.support)
        if not self.cofinite and not other.cofinite:
            return fin(*(a | b))
        if self.cofinite and other.cofinite:
            return cofin(*(a & b))
        if self.cofinite:
            return cofin(*(a - b))
        return cofin(*(b - a))

    def inter(self, other: "CoSet") -> "CoSet":
        return self.complement().union(other.complement()).complement()

    def is_subset(self, other: "CoSet") -> bool:
        return self.inter(other.complement()).is_empty

    def describe(self) -> str:
        inner = "{" + ",".join(str(x) for x in self.support) + "}"
        if self.cofinite:
            return "N" if self.is_whole else "N\\" + inner
        return inner


def fin(*elems: int) -> CoSet:
    return CoSet(False, tuple(sorted(set(elems))))


def cofin(*excluded: int) -> CoSet:
    return CoSet(True, tuple(sorted(set(excluded))))


EMPTY = fin()
WHOLE = cofin()


# ---------------------------------------------------------------------------
# the space itself


class CofNat:
    """The naturals under the cofinite topology, as a symbolic space.

    Opens are the empty set and the cofinite sets; closed sets are the
    finite sets and the whole line.  All predicates are decidable on
    canonical ``CoSet`` inputs.
    """

    name = "cofinite-nat"

    def is_open(self, s: CoSet) -> bool:
        return s.is_empty or s.cofinite

    def is_closed(self, s: CoSet) -> bool:
        return (not s.cofinite) or s.is_whole

    def closure(self, s: CoSet) -> CoSet:
        return s if not s.cofinite else WHOLE

    def point_closure(self, n: int) -> CoSet:
        return fin(n)

    def is_t1(self) -> bool:
        return True

    def is_compact_saturated(self, s: CoSet) -> bool:
        """Every nonempty finite-or-cofinite set qualifies.

        Finite sets are saturated because each missing point is excluded
        by a cofinite open superset, and any open cover has a member
        that is already cofinite, leaving finitely much to patch; a
        cofinite set is itself open.
        """
        return not s.is_empty

    def __repr__(self):
        return "CofNat()"


COFNAT = CofNat()


# ---------------------------------------------------------------------------
# symbolic closed-set families


@dataclass(frozen=True)
class SymClosedFamily:
    """Family of closed sets: optional all-singletons block (minus listed
    exceptions), optional whole line, plus an explicit finite list."""

    all_singletons: bool = False
    whole: bool = False
    finite_list: tuple[CoSet, ...] = ()
    except_points: tuple[int, ...] = ()

    def __post_init__(self):
        if self.except_points and not self.all_singletons:
            raise CheckFailed("exceptions require the singleton block")
        for s in self.finite_list:
            if s.cofinite or s.is_empty:
                raise CheckFailed("finite list holds nonempty finite sets only")
            if self.all_singletons and len(s.support) == 1:
                raise CheckFailed("singleton duplicated in the finite list")
        if list(self.finite_list) != sorted(
            set(self.finite_list), key=lambda s: (len(s.support), s.support)
        ):
            raise CheckFailed("finite list is not canonical")

    def contains(self, s: CoSet) -> bool:
        if s.is_whole:
            return self.whole
        if s.cofinite or s.is_empty:
            return False
        if (
            self.all_singletons
            and len(s.support) == 1
            and s.support[0] not in self.except_points
        ):
            return True
        return s in self.finite_list

    def starred(self) -> "SymClosedFamily":
        return SymClosedFamily(
            self.all_singletons, False, self.finite_list, self.except_points
        )

    def describe(self) -> str:
        parts = []
        if self.all_singletons:
            block = "ALL_SINGLETONS"
            if self.except_points:
                block += "\\{" + ",".join(
                    "{%d}" % p for p in self.except_points
                ) + "}"
            parts.append(block)
        if self.whole:
            parts.append("WHOLE")
        parts.extend(s.describe() for s in self.finite_list)
        return " + ".join(parts) if parts else "EMPTY_FAMILY"


SC_COFNAT = SymClosedFamily(all_singletons=True)
IRR_COFNAT = SymClosedFamily(all_singletons=True, whole=True)


@dataclass(frozen=True)
class SymFilteredFamily:
    """One of the two supported schemas of filtered compact families."""

    schema: str  # "single" | "all-cofinite"
    base: CoSet | None = None

    def __post_init__(self):
        if self.schema == "single":
            if self.base is None or not COFNAT.is_compact_saturated(self.base):
                raise PreconditionViolated(
                    "single-set schema needs one nonempty set"
                )
        elif self.schema == "all-cofinite":
            if self.base is not None:
                raise PreconditionViolated("tail schema takes no base set")
        else:
            raise PreconditionViolated(f"unknown family schema {self.schema!r}")

    def has_member(self, s: CoSet) -> bool:
        if self.schema == "single":
            return s == self.base
        return s.cofinite and not s.is_empty


def irreducible_coset(s: CoSet) -> bool:
    """Shape analysis of irreducibility among the closed sets.

    A finite closed set with two or more points splits into a point and
    the rest, both closed and proper; the whole line cannot be a union
    of two finite sets.  Singletons cannot split at all.
    """
    if s.is_whole:
        return True
    if s.cofinite or s.is_empty:
        return False
    return len(s.support) == 1


def sc_cofnat() -> SymClosedFamily:
    """Point closures: all singletons, sampled against the closure map."""
    for n in range(12):
        if COFNAT.closure(fin(n)) != fin(n) or not SC_COFNAT.contains(fin(n)):
            raise CheckFailed("point-closure sample failed", n)
    return SC_COFNAT


def irr_cofnat() -> SymClosedFamily:
    """Irreducible closed sets, with the shape analysis sampled.

    Every two-point closed set must fail irreducibility and every
    singleton pass; the whole line passes by the union-of-finites
    argument.
    """
    import itertools

    for a, b in itertools.combinations(range(6), 2):
        if irreducible_coset(fin(a, b)):
            raise CheckFailed("two-point set claimed irreducible", (a, b))
    for n in range(6):
        if not irreducible_coset(fin(n)):
            raise CheckFailed("singleton claimed reducible", n)
    if not irreducible_coset(WHOLE):
        raise CheckFailed("whole line claimed reducible")
    return IRR_COFNAT


def m_cofnat(family: SymFilteredFamily) -> SymClosedFamily:
    """Minimal closed sets meeting every member, per schema.

    Single set K: a closed set meeting K at x contains the closed
    singleton {x}, which still meets K, so the minimal ones are exactly
    the singletons drawn from K.  All-cofinite schema: a finite closed F
    misses the member that excludes F, so only the whole line meets
    every member, and it is trivially minimal among itself.
    """
    if family.schema == "single":
        k = family.base
        if not k.cofinite:
            singles = tuple(fin(x) for x in k.support)
            return SymClosedFamily(finite_list=singles)
        return SymClosedFamily(all_singletons=True, except_points=k.support)
    escape = fin(0, 1).inter(cofin(0, 1))
    if not escape.is_empty:
        raise CheckFailed("escape member failed to miss its finite set")
    return SymClosedFamily(whole=True)


def kf_witness_for(s: CoSet) -> SymFilteredFamily:
    """A filtered family exhibiting a given family member as minimal."""
    if s.is_whole:
        return SymFilteredFamily("all-cofinite")
    if not s.cofinite and len(s.support) == 1:
        return SymFilteredFamily("single", s)
    raise PreconditionViolated("no witness schema for " + s.describe())


def kf_cofnat() -> SymClosedFamily:
    """Minimal-meeting family members over the supported schemas.

    Singletons come from single-set families over themselves; the whole
    line from the all-cofinite family.  Each claimed member is
    re-derived through its witness.
    """
    for n in range(8):
        got = m_cofnat(kf_witness_for(fin(n)))
        if not got.contains(fin(n)):
            raise CheckFailed("singleton witness failed", n)
    if not m_cofnat(kf_witness_for(WHOLE)).contains(WHOLE):
        raise CheckFailed("whole-line witness failed")
    return SymClosedFamily(all_singletons=True, whole=True)


def wd_cofnat() -> SymClosedFamily:
    """Squeeze: the meeting family already equals the irreducible family."""
    irr = irr_cofnat()
    if kf_cofnat() != irr:
        raise CheckFailed("squeeze bounds differ: meeting family is not the irreducible family")
    return irr


def sober_by_generic_points() -> bool:
    """Soberness by its definition, apart from the family equality.

    The whole line is irreducible, and a generic point would need its
    closure to be the whole line — but every point closes to its own
    singleton.  So soberness fails exactly when the whole line is in the
    irreducible family.
    """
    has_generic_for_whole = any(
        COFNAT.point_closure(n) == WHOLE for n in range(8)
    )
    return not irr_cofnat().contains(WHOLE) or has_generic_for_whole


# ---------------------------------------------------------------------------
# sobrification and the stage iteration, symbolically


@dataclass(frozen=True)
class SobSet:
    """Subset of the sobrified carrier: a block of naturals plus a flag
    for the added generic point."""

    coset: CoSet
    top: bool

    def describe(self) -> str:
        if self.coset.is_whole and self.top:
            return "N + TOP"
        if self.top:
            return self.coset.describe() + " + TOP"
        return self.coset.describe()


@dataclass(frozen=True)
class CofnatSobrification:
    """The naturals plus one generic top point.

    Closed sets are the finite subsets of the naturals plus the whole
    carrier, so the closure of the copy of the base space is everything:
    the new point is generic, and it is the only added point.
    """

    added_points: tuple[str, ...] = ("TOP",)

    def is_closed(self, s: SobSet) -> bool:
        if s.top:
            return s.coset.is_whole
        return not s.coset.cofinite

    def is_open(self, s: SobSet) -> bool:
        if s.top:
            return s.coset.cofinite
        return s.coset.is_empty

    def closure(self, s: SobSet) -> SobSet:
        if self.is_closed(s):
            return s
        return SobSet(WHOLE, True)

    def point_closure_nat(self, n: int) -> SobSet:
        return SobSet(fin(n), False)

    def point_closure_top(self) -> SobSet:
        return SobSet(WHOLE, True)

    def irreducible(self, s: SobSet) -> bool:
        if not self.is_closed(s):
            return False
        if s.top:
            return True
        return len(s.coset.support) == 1

    def sober_check(self) -> bool:
        """Every irreducible closed set has a unique generic point.

        Finite-part singletons are their own closures; the whole carrier
        is the closure of the top point and of nothing else, since every
        natural closes to its singleton.
        """
        for n in range(8):
            if self.closure(SobSet(fin(n), False)) != SobSet(fin(n), False):
                return False
            if self.point_closure_nat(n) == self.point_closure_top():
                return False
        return self.closure(SobSet(WHOLE, False)) == self.point_closure_top()

    def eta_embedding_check(self) -> bool:
        """The base space sits inside as the non-top part.

        Every nonempty open up here is a cofinite block of naturals with
        the top point, so its trace on the base is open; conversely each
        base open is exactly such a trace.  The base map is the identity
        on naturals, hence injective.
        """
        if not self.is_open(SobSet(EMPTY, False)):
            return False
        for k in range(8):
            up = SobSet(cofin(*range(k)), True)
            if not self.is_open(up):
                return False
            if not COFNAT.is_open(up.coset):  # the trace on the base
                return False
        # a nonempty open missing the top point would have open trace
        # complementing a closed finite set wrongly; confirm none exists
        return not any(
            self.is_open(SobSet(cofin(*range(k)), False)) for k in range(8)
        )


def sobrify_cofnat() -> CofnatSobrification:
    """Sobrification: one generic point over the whole line is added.

    The irreducible family exceeds the point closures by exactly the
    whole line, so exactly one point appears; soberness and the
    embedding of the base are verified shape-by-shape.
    """
    irr, sc = irr_cofnat(), sc_cofnat()
    extra = irr.whole and not sc.whole and irr.starred() == sc
    if not extra:
        raise CheckFailed("irreducible family should exceed point closures by the whole line only")
    out = CofnatSobrification()
    if not out.sober_check():
        raise CheckFailed("sobrification is not sober")
    if not out.eta_embedding_check():
        raise CheckFailed("base does not embed in its sobrification")
    return out


def wfreflect_cofnat() -> tuple[CofnatSobrification, bool]:
    """Well-filtered reflection; here it coincides with the sobrification.

    The squeezed family equals the irreducible family, so the hyperspace
    construction is run on the same members and yields the same space.
    """
    return sobrify_cofnat(), wd_cofnat() == irr_cofnat()


@dataclass(frozen=True)
class CofnatShenChain:
    stages: tuple[SobSet, ...]
    stabilization_index: int
    added: tuple[str, ...]


def shen_cofnat() -> CofnatShenChain:
    """Stage iteration inside the symbolic sobrification.

    Stage zero is the embedded copy of the naturals.  Its meeting family
    contains every singleton (each is its own down-set) and the whole
    line, whose closure in the ambient is the down-set of the top point;
    so stage one adds exactly the top and is everything, hence stable.
    """
    amb = sobrify_cofnat()
    stage0 = SobSet(WHOLE, False)
    kf0 = kf_cofnat()
    adds_top = kf0.contains(WHOLE) and amb.closure(SobSet(WHOLE, False)) == amb.point_closure_top()
    keeps = all(
        kf0.contains(fin(n)) and amb.closure(SobSet(fin(n), False)) == amb.point_closure_nat(n)
        for n in range(8)
    )
    if not (adds_top and keeps):
        raise CheckFailed("stage rule did not reproduce the expected points")
    stage1 = SobSet(WHOLE, True)
    # Stage two cannot grow: stage one is already the whole carrier.
    return CofnatShenChain((stage0, stage1, stage1), 1, ("TOP",))


# ---------------------------------------------------------------------------
# window oracle: symbolic algebra vs truncated explicit sets


@dataclass(frozen=True)
class Window:
    """Explicit model on {0..n-1} with a tail indicator for the rest."""

    n: int
    points: frozenset
    tail: bool


def _to_window(s: CoSet, n: int) -> Window:
    if any(x >= n for x in s.support):
        raise InputError("window too small for the expression's supports")
    if s.cofinite:
        return Window(n, frozenset(set(range(n)) - set(s.support)), True)
    return Window(n, frozenset(s.support), False)


def _w_union(a: Window, b: Window) -> Window:
    return Window(a.n, a.points | b.points, a.tail or b.tail)


def _w_inter(a: Window, b: Window) -> Window:
    return Window(a.n, a.points & b.points, a.tail and b.tail)


def _w_compl(a: Window) -> Window:
    return Window(a.n, frozenset(range(a.n)) - a.points, not a.tail)


def _w_subset(a: Window, b: Window) -> bool:
    return a.points <= b.points and (not a.tail or b.tail)


def eval_symbolic(expr):
    """Evaluate a set/verdict expression tree in the exact algebra."""
    op = expr[0]
    if op == "fin":
        return fin(*expr[1])
    if op == "cofin":
        return cofin(*expr[1])
    if op == "union":
        return eval_symbolic(expr[1]).union(eval_symbolic(expr[2]))
    if op == "inter":
        return eval_symbolic(expr[1]).inter(eval_symbolic(expr[2]))
    if op == "compl":
        return eval_symbolic(expr[1]).complement()
    if op == "closure":
        return COFNAT.closure(eval_symbolic(expr[1]))
    if op == "subset":
        return eval_symbolic(expr[1]).is_subset(eval_symbolic(expr[2]))
    if op == "member":
        return eval_symbolic(expr[2]).member(expr[1])
    if op == "isopen":
        return COFNAT.is_open(eval_symbolic(expr[1]))
    if op == "isclosed":
        return COFNAT.is_closed(eval_symbolic(expr[1]))
    if op == "eq":
        return eval_symbolic(expr[1]) == eval_symbolic(expr[2])
    raise InputError(f"unknown expression node {op!r}")


def eval_window(expr, n: int):
    """Evaluate the same tree in the truncated explicit model."""
    op = expr[0]
    if op in ("fin", "cofin"):
        return _to_window(eval_symbolic(expr), n)
    if op == "union":
        return _w_union(eval_window(expr[1], n), eval_window(expr[2], n))
    if op == "inter":
        return _w_inter(eval_window(expr[1], n), eval_window(expr[2], n))
    if op == "compl":
        return _w_compl(eval_window(expr[1], n))
    if op == "closure":
        w = eval_window(expr[1], n)
        return Window(n, frozenset(range(n)), True) if w.tail else w
    if op == "subset":
        return _w_subset(eval_window(expr[1], n), eval_window(expr[2], n))
    if op == "member":
        k, w = expr[1], eval_window(expr[2], n)
        if k >= n:
            raise InputError("window too small for the membership query")
        return k in w.points
    if op == "isopen":
        w = eval_window(expr[1], n)
        return (not w.points and not w.tail) or w.tail
    if op == "isclosed":
        w = eval_window(expr[1], n)
        return (not w.tail) or (w.points == frozenset(range(n)) and w.tail)
    if op == "eq":
        return eval_window(expr[1], n) == eval_window(expr[2], n)
    raise InputError(f"unknown expression node {op!r}")


def window_oracle(expr, n: int) -> dict:
    """Evaluate an expression along both routes and compare.

    Set-valued expressions compare via the window image of the symbolic
    answer; verdict-valued ones compare directly.
    """
    if n > WINDOW_BOUND or n < 1:
        raise InputError(f"window size must be within 1..{WINDOW_BOUND}")
    sym = eval_symbolic(expr)
    win = eval_window(expr, n)
    if isinstance(sym, CoSet):
        agree = _to_window(sym, n) == win
        return {"agree": agree, "symbolic": sym.describe(), "window": sorted(win.points)}
    return {"agree": sym == win, "symbolic": sym, "window": win}


def kf_witness_window_check() -> bool:
    """Window view of the whole-line witness family.

    Every nonempty finite closed set drawn from the window misses the
    member excluding it, while the whole line meets every member.
    """
    import itertools

    n = 10
    universe = range(n)
    for size in (1, 2, 3):
        for combo in itertools.combinations(universe, size):
            f = fin(*combo)
            escape = cofin(*combo)
            if not f.inter(escape).is_empty:
                return False
            if not window_oracle(("inter", ("fin", combo), ("cofin", combo)), n)["agree"]:
                return False
    members = [cofin(0), cofin(0, 1), cofin(*universe)]
    return all(not WHOLE.inter(m).is_empty for m in members)


def random_coset_expr(rng, depth: int):
    """Seeded random expression tree for the disagreement search."""
    if depth == 0:
        support = tuple(sorted(rng.sample(range(8), rng.randint(0, 3))))
        return ("cofin" if rng.random() < 0.5 else "fin", support)
    pick = rng.random()
    if pick < 0.35:
        return ("union", random_coset_expr(rng, depth - 1),
                random_coset_expr(rng, depth - 1))
    if pick < 0.7:
        return ("inter", random_coset_expr(rng, depth - 1),
                random_coset_expr(rng, depth - 1))
    if pick < 0.85:
        return ("compl", random_coset_expr(rng, depth - 1))
    return ("closure", random_coset_expr(rng, depth - 1))
