"""Exception hierarchy shared by all tensorspectra modules."""


class TensorSpectraError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TensorSpectraError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class CutContact(TensorSpectraError):
    """Evaluation point lies on a branch cut and no side was specified."""


class BranchTrackingFailed(TensorSpectraError):
    """Homotopy continuation lost the root it was following.

    Carries the last certified (u, T) pair, or None when there is none.
    """

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class QuadratureFailure(TensorSpectraError):
    """Numerical integration did not reach the requested accuracy."""

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


class CapExceeded(TensorSpectraError):
    """Requested enumeration larger than the configured feasibility cap."""


class NearSingular(TensorSpectraError):
    """Linear solve is too ill-conditioned to trust."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class SignMismatch(TensorSpectraError):
    """Eigenvalue sign incompatible with the requested coupling sign."""


class NoMatchingPairs(TensorSpectraError):
    """No real eigenpair with the sign required by the coupling."""


class RootFindFailure(TensorSpectraError):
    """A scalar root search did not bracket or converge."""


class OutsideWedge(TensorSpectraError):
    """Coupling argument outside the convergence wedge of the contour."""


class ParityError(TensorSpectraError, ValueError):
    """Order/degree combination has odd parity, so the quantity vanishes identically."""
