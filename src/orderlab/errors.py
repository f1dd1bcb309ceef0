"""Exception types raised by the workbench.

Every error that carries a witness stores it as an attribute so callers
(and the CLI) can report the offending data, not just a message.
"""


class OrderLabError(Exception):
    """Base class for all workbench errors."""


class InputError(OrderLabError):
    """Malformed or rejected input data (CLI exit code 2)."""


class BudgetExceeded(OrderLabError):
    """An enumeration would exceed its configured budget (CLI exit code 3).

    Budgets fail loudly rather than silently degrading exactness.
    """


class DuplicateLabel(InputError):
    def __init__(self, label):
        super().__init__(f"duplicate label {label!r}")
        self.label = label


class UnknownLabel(InputError):
    def __init__(self, label):
        super().__init__(f"unknown label {label!r}")
        self.label = label


class AntisymmetryViolation(InputError):
    """The reflexive-transitive closure of the input relation has a 2-cycle."""

    def __init__(self, a, b):
        super().__init__(f"antisymmetry violation: {a!r} <= {b!r} and {b!r} <= {a!r}")
        self.pair = (a, b)


class NotClosedUnderUnion(InputError):
    def __init__(self, a, b):
        super().__init__(f"open family lacks the union of {sorted(a)} and {sorted(b)}")
        self.pair = (a, b)


class NotClosedUnderIntersection(InputError):
    def __init__(self, a, b):
        super().__init__(
            f"open family lacks the intersection of {sorted(a)} and {sorted(b)}"
        )
        self.pair = (a, b)


class MissingEmptyOrFull(InputError):
    def __init__(self, which):
        super().__init__(f"open family is missing the {which} set")
        self.which = which


class FamilyNotIrreducible(InputError):
    def __init__(self, member):
        super().__init__("family member is not an irreducible closed set")
        self.member = member


class InvalidFamily(InputError):
    """A filtered family precondition failed (emptiness, filteredness, ...)."""

    def __init__(self, reason, witness=None):
        super().__init__(f"invalid family: {reason}")
        self.witness = witness


class NotBoundedComplete(InputError):
    def __init__(self, witness):
        super().__init__(
            "poset is not bounded complete "
            f"(witness subset with upper bounds but no supremum: {witness})"
        )
        self.witness = witness


class NotAlgebraic(InputError):
    def __init__(self, witness=None):
        super().__init__("poset is not an algebraic dcpo")
        self.witness = witness


class NotUpperSet(InputError):
    def __init__(self, witness):
        super().__init__(f"set is not an upper set (witness {witness})")
        self.witness = witness


class PreconditionViolated(InputError):
    def __init__(self, reason):
        super().__init__(f"precondition violated: {reason}")


class SandwichViolated(InputError):
    """A hyperspace family is outside the required point-closure/irreducible band."""

    def __init__(self, reason, witness=None):
        super().__init__(f"family sandwich violated: {reason}")
        self.witness = witness


class CheckFailed(OrderLabError):
    """An internal verification (dual path, asserted theorem) disagreed.

    These are never expected to fire; any occurrence is a bug and the
    witness payload is kept for diagnosis.
    """

    def __init__(self, what, witness=None):
        super().__init__(f"verification failed: {what}")
        self.witness = witness


class GenerationBudgetExceeded(BudgetExceeded):
    def __init__(self, trials):
        super().__init__(f"rejection sampling found no instance in {trials} trials")
        self.trials = trials
