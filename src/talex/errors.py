"""Exception types shared across the package."""


class TalexError(Exception):
    """Base class for all package-specific failures."""


class InexactDivision(TalexError):
    """The Fox route's division left a remainder above ``half_prec_tol``.

    For a genuine nonabelian SL2 representation the division defining the
    twisted Alexander polynomial is exact, so this signals either a
    non-representation input or insufficient working precision.
    """


class DegenerateContext(TalexError):
    """A parameter point with one of the guarded quantities near zero."""


class NonConvergence(TalexError):
    """The simultaneous root iteration failed to converge."""
