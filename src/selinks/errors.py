"""Error taxonomy shared by the whole package.

Three failure classes are distinguished so callers (and the command line
driver) can react by kind: bad input, an exact computation contradicting a
mathematical invariant, and resource budgets.
"""


class UsageError(ValueError):
    """A precondition was violated or the input is malformed."""


class IntegrityError(ArithmeticError):
    """An exact computation produced an impossible value.

    Raised when a quantity that must be a non-negative integer (a Betti
    number, a genus) comes out fractional or negative.  Since every step is
    exact rational arithmetic this is never a rounding artifact; it signals
    an invalid input, typically a weight system with no quasi-smooth member.
    """


class ResourceBudgetError(RuntimeError):
    """A computation would exceed its budget (an enumeration or an expansion)."""
