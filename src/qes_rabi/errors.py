"""Exception and warning types shared across the package, and the one
rule by which its warnings name their location."""
import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class QesError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QesError, ValueError):
    """A model specification violates its parameter domain."""


class CouplingOutOfRange(ValidationError):
    """Coupling beyond the spectral-collapse boundary (2|g| >= omega for the
    2-photon model, |g| >= omega for the two-mode model)."""


class ZeroCoupling(ValidationError):
    """g = 0, or a g/omega that underflows to 0: the spin sectors decouple
    and the Bargmann prefactor rate is undefined; solve the trivial
    uncoupled problem directly instead."""


class BadSector(ValidationError):
    """Sector index outside the allowed set for the model."""


class WrongModel(QesError, TypeError):
    """Operation requested for a model kind it is not defined for."""


class DegenerateAtomBranch(QesError):
    """delta = 0 branch: the lower spinor component is not defined by the
    elimination formula."""


class DroppedBranchWarning(UserWarning):
    """Pencil candidates dropped from a solve because their eigenvector
    cannot be a real monic polynomial: its coefficients are not all finite
    after division by the leading one (a zero leading coefficient gives inf
    or nan). The other branches of the point are still returned, each
    judged by its residuals."""


class DegenerateAtomWarning(UserWarning):
    """delta = 0: the coupled equations decouple into exactly solvable
    oscillator branches."""


def _warn(message: str, category: type[Warning]) -> None:
    """``warnings.warn`` at the first frame outside this package, the
    library's caller, however deep the call that warns."""
    level, frame = 1, sys._getframe()
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, category, stacklevel=level)
