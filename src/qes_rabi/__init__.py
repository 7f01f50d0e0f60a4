"""Quasi-exactly-solvable spectra of the quantum Rabi model and its
2-photon and two-mode generalizations, with a truncated-basis oracle."""

from .errors import (
    BadSector,
    CouplingOutOfRange,
    DegenerateAtomBranch,
    DegenerateAtomWarning,
    DroppedBranchWarning,
    QesError,
    ValidationError,
    WrongModel,
    ZeroCoupling,
)
from .models import (
    Frame,
    ModelKind,
    ModelSpec,
    TWO_PHOTON_SECTORS,
    frame,
    su11_elements,
    validate,
)
from .oracle import MatchResult, default_n_max, match_energy, match_grid, parity_spectrum
from .solver import (
    BargmannWavefunction,
    Branch,
    DEGENERATE_DELTA_SQ,
    QesSolution,
    qes_energy,
    second_component,
    solve_grid,
    solve_qes,
    wavefunction_eval,
)
from .stencil import apply_first_factor

__version__ = "0.1.0"

__all__ = [
    "BadSector", "BargmannWavefunction", "Branch", "CouplingOutOfRange",
    "DEGENERATE_DELTA_SQ", "DegenerateAtomBranch", "DegenerateAtomWarning",
    "DroppedBranchWarning", "Frame", "MatchResult", "ModelKind", "ModelSpec",
    "QesError", "QesSolution", "TWO_PHOTON_SECTORS", "ValidationError",
    "WrongModel", "ZeroCoupling", "apply_first_factor",
    "default_n_max", "frame", "match_energy", "match_grid", "parity_spectrum", "qes_energy",
    "second_component", "solve_grid", "solve_qes", "su11_elements",
    "validate", "wavefunction_eval",
]
