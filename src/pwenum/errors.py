"""Exception types shared across the package."""


class CapExceededError(Exception):
    """An enumeration would exceed the configured size cap."""


class IntegrityError(Exception):
    """An exact-arithmetic postcondition failed.

    Raised when a tally of character exponents does not have the shape that
    the orthogonality of characters forces, or a division that must be exact
    leaves a remainder.  Both signal a broken precondition (a non-generating
    character, a set that is not actually a submodule) rather than a
    recoverable input problem.
    """
