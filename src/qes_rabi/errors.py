"""Exception and warning types shared across the package."""


class QesError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QesError, ValueError):
    """A model specification violates its parameter domain."""


class CouplingOutOfRange(ValidationError):
    """Coupling beyond the spectral-collapse boundary (2|g| >= omega for the
    2-photon model, |g| >= omega for the two-mode model)."""


class ZeroCoupling(ValidationError):
    """g = 0: the spin sectors decouple and the Bargmann prefactor rate is
    undefined; solve the trivial uncoupled problem directly instead."""


class BadSector(ValidationError):
    """Sector index outside the allowed set for the model."""


class WrongModel(QesError, TypeError):
    """Operation requested for a model kind it is not defined for."""


class DegenerateAtomBranch(QesError):
    """delta = 0 branch: the lower spinor component is not defined by the
    elimination formula."""


class WindowExceeded(QesError):
    """Requested energy lies outside the truncation-reliable window; raise
    n_max before matching."""


class DroppedBranchWarning(UserWarning):
    """Pencil candidates dropped from a solve because their eigenvector
    cannot be a real monic polynomial: a zero leading coefficient or
    non-finite entries after normalising. The other branches of the point
    are still returned, each judged by its residuals."""


class DegenerateAtomWarning(UserWarning):
    """delta = 0: the coupled equations decouple into exactly solvable
    oscillator branches."""
