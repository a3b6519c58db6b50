"""Exception types shared across the package."""


class HomcatError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HomcatError):
    """A constructed object violates its defining identities.

    ``witness`` holds the offending data (e.g. a basis triple for a failed
    associativity check) so callers can report exactly what broke.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapExhausted(HomcatError):
    """An iterative construction (resolution, window, knitting closure) hit its cap."""

    def __init__(self, message, leftover=None):
        super().__init__(message)
        self.leftover = leftover


class GuardError(HomcatError):
    """A guard refused an input it cannot decide exactly.

    Chiefly a non-split residue field: a simple module or an endomorphism
    ring whose residue field is larger than F_p.  Also a prime above
    MAX_PRIME, a search above its bound, or an algebra outside a method's
    hypotheses (disconnected, not self-injective).
    """
