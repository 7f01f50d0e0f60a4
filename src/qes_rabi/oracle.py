"""Brute-force verification by truncated-basis diagonalization.

The Hamiltonians are written in the basis |n> x {sigma_x = +1, -1} with
n <= n_max (|n> being the Fock level for the Rabi model, the su(1,1)
sector level otherwise). In this basis the coupling term is diagonal in
the spin and tridiagonal in n, while the level-splitting term couples the
two spin components at equal n with amplitude delta. The parity that
flips sigma_x together with (-1)^n commutes with all three Hamiltonians,
so the truncated matrix splits exactly into two symmetric tridiagonal
chains; the spectrum is always computed from them. A quasi-exact energy
is accepted as verified when its gap to the truncated spectrum is below
tolerance and stays put when the truncation is doubled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ValidationError, WindowExceeded
from .models import ModelKind, ModelSpec, squeeze_factor, two_mode_frame, validate


# Truncation sizes that keep the doubling drift below 1e-9 across the
# validity domains (convergence slows approaching the collapse boundary).
DEFAULT_N_MAX = {
    ModelKind.RABI: 64,
    ModelKind.TWO_PHOTON: 256,
    ModelKind.TWO_MODE: 256,
}


def default_n_max(kind: ModelKind) -> int:
    return DEFAULT_N_MAX[ModelKind(kind)]


def require_n_max(n_max: int) -> None:
    """Raise ValidationError below the minimum truncation n_max = 4."""
    if n_max < 4:
        raise ValidationError(f"n_max must be >= 4, got {n_max}")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one energy against the truncated spectrum."""

    matched: bool
    gap: float
    truncation_drift: float


def _diag_and_coupling(spec: ModelSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal energies and n -> n+1 coupling amplitudes (spin s = +1)."""
    n = np.arange(n_max + 1)
    w, g = spec.omega, spec.g
    if spec.kind is ModelKind.RABI:
        return w * n, g * np.sqrt(n[:-1] + 1.0)
    # 2 omega (K0 - 1/2) plus the frame's energy shift, taken in units of
    # the level spacing 2 omega (1/4 for the 2-photon model, exactly).
    f = two_mode_frame(spec)
    level = n + f.kappa - 0.5 + f.energy_shift / (2.0 * f.omega)
    # K+ amplitudes sqrt((n + 1)(n + 2 kappa)), as in su11_elements.
    kplus = np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0 * f.kappa))
    return 2.0 * f.omega * level, f.g * kplus


def parity_spectrum(spec: ModelSpec, n_max: int) -> np.ndarray:
    """Full truncated spectrum (2 n_max + 2 levels, ascending).

    The operator flipping sigma_x together with the phase (-1)^n commutes
    with all three Hamiltonians, splitting the truncated matrix into two
    symmetric tridiagonal chains of length n_max + 1 whose eigenvalues
    union to the full spectrum. Requires delta set and n_max >= 4;
    admits g = 0.
    """
    spec = validate(spec, require_coupling=False)
    if spec.delta is None:
        raise ValidationError("oracle needs delta set on the spec")
    require_n_max(n_max)
    diag, amp = _diag_and_coupling(spec, n_max)
    alt = spec.delta * (-1.0) ** np.arange(n_max + 1)
    chains = [
        scipy.linalg.eigh_tridiagonal(diag + p * alt, amp, eigvals_only=True)
        for p in (1.0, -1.0)
    ]
    return np.sort(np.concatenate(chains))


def _reliable_window(spec: ModelSpec, n_max: int) -> float:
    spacing = spec.omega if spec.kind is ModelKind.RABI \
        else 2.0 * spec.omega * squeeze_factor(spec).value
    return spacing * n_max / 4.0


def match_energy(E: float, spec: ModelSpec, n_max: int, tol: float) -> MatchResult:
    """Match a candidate energy against the truncated spectrum.

    gap is the distance to the nearest eigenvalue at n_max;
    truncation_drift compares it with the gap recomputed at 2 * n_max.
    Matched means gap <= tol and drift <= tol/10. Raises WindowExceeded
    when E lies beyond spacing * n_max / 4, where truncation-corrupted
    high eigenvalues could fake a match.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    window = _reliable_window(spec, n_max)
    if E >= window:
        raise WindowExceeded(
            f"E = {E:g} outside reliable window {window:g}; raise n_max"
        )
    ev1 = parity_spectrum(spec, n_max)
    gap1 = float(np.min(np.abs(ev1 - E)))
    ev2 = parity_spectrum(spec, 2 * n_max)
    gap2 = float(np.min(np.abs(ev2 - E)))
    drift = abs(gap1 - gap2)
    return MatchResult(
        matched=(gap1 <= tol and drift <= tol / 10.0),
        gap=gap1,
        truncation_drift=drift,
    )
