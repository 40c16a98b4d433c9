"""Error types shared across the package."""


class ThetaForgeError(Exception):
    """Base class for all package errors."""


class DegenerateForm(ThetaForgeError):
    """Bilinear form has a zero exact eigenvalue (det A = 0)."""


class SingularFrame(ThetaForgeError):
    """Frame matrix is singular or conditioned worse than the cap."""


class WallTooClose(ThetaForgeError):
    """Some |w_j . u| is below the wall threshold; M_r is undefined on walls."""

    def __init__(self, msg, j=None, distance=None):
        super().__init__(msg)
        self.j = j
        self.distance = distance


class RankTooLarge(ThetaForgeError):
    """Requested rank exceeds the direct-evaluation cap."""


class NotTimelike(ThetaForgeError):
    """Cone columns do not span a positive definite subspace."""


class NonExactInput(ThetaForgeError):
    """Exact-arithmetic operation received a float where a rational is required."""


class ZeroDelta(ThetaForgeError):
    """Gram determinant Delta is zero; Q_- is undefined."""


class GenericityViolated(ThetaForgeError):
    """A sign argument is exactly zero; the identity requires generic input."""


class BudgetExceeded(ThetaForgeError):
    """Point budget hit before the tail estimate reached the tolerance.

    Carries the best partial value so callers can surface it.
    """

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


class ValidationError(ThetaForgeError):
    """Config or argument failed schema validation."""
