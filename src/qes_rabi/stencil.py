"""Banded action of the models' Fuchsian operators on monomial coefficients.

Eliminating the lower spinor component from the coupled first-order (Rabi)
or second-order (sector models) systems leaves a single linear ODE for the
upper component phi(z):

    L phi = 0,   L = L2 L1 - sign * delta^2,

where L1 is the exactly solvable factor, L2 the complementary one, and
sign = -1 for the Rabi model (second order) and +1 for the 2-photon and
two-mode models (fourth order). The 2-photon operators are the two-mode
ones in its two-mode frame (``models.two_mode_frame``). All polynomial
coefficients of L are at most quadratic in z, so acting on z^k produces
powers z^{k+b} with band offsets b in {+1, 0, -1, -2} and band
coefficients polynomial in k. The +1 band vanishes at k = degree exactly when the energy takes its
quasi-exact value, which is what confines L to the span of {1, ..., z^M}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .models import ModelKind, ModelSpec, TwoModeFrame, two_mode_frame, validate

# An operator is a sum of terms c * z^m * d^d/dz^d, stored as (d, m, c).
Terms = tuple[tuple[int, int, float], ...]


def _falling(k: int, d: int) -> float:
    out = 1.0
    for i in range(d):
        out *= k - i
    return out


def _rabi_terms(w: float, g: float, E: float) -> Terms:
    return (
        (2, 2, w * w),
        (2, 0, -g * g),
        (1, 2, -2.0 * w * g),
        (1, 1, w * w - 2.0 * g * g - 2.0 * E * w),
        (1, 0, g / w * (2.0 * g * g - w * w)),
        (0, 1, 2.0 * g * (g * g / w + E)),
        (0, 0, E * E - g**4 / w**2),
    )


def _rabi_first_factor(w: float, g: float, E: float) -> Terms:
    # (omega z + g) d/dz - (g^2/omega + E)
    return ((1, 1, w), (1, 0, g), (0, 0, -(g * g / w + E)))


def _rabi_second_factor(w: float, g: float, E: float) -> Terms:
    # (omega z - g) d/dz - (2 g z - g^2/omega + E)
    return ((1, 1, w), (1, 0, -g), (0, 1, -2.0 * g), (0, 0, g * g / w - E))


def _two_mode_terms(f: TwoModeFrame, E: float) -> Terms:
    w, g, kap, Lam = f.omega, f.g, f.kappa, f.squeeze
    return (
        (4, 2, g * g),
        (3, 2, 4.0 * g * w * (Lam - 1.0)),
        (3, 1, 4.0 * g * g * (kap + 0.5)),
        (2, 2, 4.0 * w * w * (Lam * Lam - 3.0 * Lam + 1.0)),
        (2, 1, 4.0 * w * g * (3.0 * (kap + 0.5) * Lam - 3.0 * kap - 1.0)),
        (2, 0, 4.0 * g * g * kap * (kap + 0.5)),
        (1, 2, 8.0 * w**3 / g * Lam * (1.0 - Lam)),
        (1, 1, 8.0 * w * w * kap * (1.0 - Lam)
               + 8.0 * w * w * (kap + 0.5) * (1.0 - Lam) ** 2
               + 4.0 * w * (E - 2.0 * w * kap)),
        (1, 0, 8.0 * w * g * kap * ((kap + 0.5) * Lam - kap)),
        (0, 1, 4.0 * w * w / g * (1.0 - Lam) * (2.0 * kap * w * Lam - w - E)),
        (0, 0, 4.0 * w * w * kap * kap * (1.0 - Lam) ** 2
               - (E - 2.0 * w * (kap - 0.5)) ** 2),
    )


def _two_mode_first_factor(f: TwoModeFrame, E: float) -> Terms:
    w, g, kap, Lam = f.omega, f.g, f.kappa, f.squeeze
    return ((2, 1, g), (1, 1, 2.0 * w * Lam), (1, 0, 2.0 * g * kap),
            (0, 0, 2.0 * kap * w * Lam - w - E))


def _two_mode_second_factor(f: TwoModeFrame, E: float) -> Terms:
    w, g, kap, Lam = f.omega, f.g, f.kappa, f.squeeze
    return ((2, 1, g), (1, 1, 2.0 * w * (Lam - 2.0)), (1, 0, 2.0 * g * kap),
            (0, 1, 4.0 * w * w / g * (1.0 - Lam)),
            (0, 0, 2.0 * kap * w * (Lam - 2.0) + w + E))


def _model_terms(spec: ModelSpec, energy: float,
                 rabi: Callable[[float, float, float], Terms],
                 two_mode: Callable[[TwoModeFrame, float], Terms]) -> Terms:
    """One operator's terms: the Rabi formula, or the two-mode formula
    built in the spec's two-mode frame. With z = z_scale * z_two_mode a
    two-mode term c z^m d^d is c * z_scale^(d - m) z^m d^d in the spec's
    own variable; z_scale is a power of two, so this is exact."""
    if spec.kind is ModelKind.RABI:
        return rabi(spec.omega, spec.g, energy)
    f = two_mode_frame(spec)
    return tuple((d, m, c * f.z_scale ** (d - m))
                 for d, m, c in two_mode(f, energy - f.energy_shift))


def _apply_terms(terms: Terms, coeffs: np.ndarray) -> np.ndarray:
    """Coefficient vector of (sum_t c z^m d^d) applied to a polynomial."""
    coeffs = np.asarray(coeffs)
    n = len(coeffs)
    shift = max((m - d for d, m, _ in terms), default=0)
    out = np.zeros(n + max(shift, 0), dtype=np.result_type(coeffs, float))
    for k in range(n):
        if coeffs[k] == 0:
            continue
        for d, m, c in terms:
            idx = k - d + m
            if 0 <= idx < len(out):
                out[idx] += c * _falling(k, d) * coeffs[k]
    return out


@dataclass(frozen=True, eq=False)
class OdeStencil:
    """Banded monomial action of L with the delta^2 part split off.

    ``bands[b](k)`` is the coefficient with which c_k feeds the z^{k+b}
    coefficient of the image; delta^2 enters the full operator as
    ``delta_sq_sign * delta^2`` times the identity.
    """

    degree_ceiling: int
    delta_sq_sign: int
    bands: Mapping[int, Callable[[int], float]]
    terms: Terms = field(repr=False, default=())

    def band(self, offset: int, k: int) -> float:
        return self.bands[offset](k)


def ode_stencil(spec: ModelSpec, degree: int, energy: float) -> OdeStencil:
    """Stencil of the model's eliminated operator at the given energy.

    With ``energy = qes_energy(spec, degree)`` the +1 band vanishes at
    k = degree, closing the operator on polynomials of that degree.
    """
    spec = validate(spec, warn_degenerate=False)  # delta never enters the stencil
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    terms = _model_terms(spec, energy, _rabi_terms, _two_mode_terms)
    sign = -1 if spec.kind is ModelKind.RABI else +1

    def band_fn(offset: int) -> Callable[[int], float]:
        parts = [(d, c) for d, m, c in terms if m - d == offset]
        return lambda k: sum(c * _falling(k, d) for d, c in parts)

    bands = {b: band_fn(b) for b in (+1, 0, -1, -2)}
    return OdeStencil(degree_ceiling=degree, delta_sq_sign=sign,
                      bands=bands, terms=terms)


def apply_ode(stencil: OdeStencil, delta_sq: float, coeffs: np.ndarray) -> np.ndarray:
    """Image coefficients of the full operator, delta^2 part included.

    Input of length n yields output of length n + 1; a true polynomial
    solution maps to the zero vector.
    """
    coeffs = np.asarray(coeffs)
    if len(coeffs) > stencil.degree_ceiling + 1:
        raise ValueError(
            f"coefficient vector of length {len(coeffs)} exceeds stencil "
            f"ceiling {stencil.degree_ceiling}"
        )
    out = np.zeros(len(coeffs) + 1, dtype=np.result_type(coeffs, float))
    img = _apply_terms(stencil.terms, coeffs)
    out[: len(img)] = img
    out[: len(coeffs)] += stencil.delta_sq_sign * delta_sq * coeffs
    return out


def apply_first_factor(spec: ModelSpec, energy: float, coeffs: np.ndarray) -> np.ndarray:
    """Apply the exactly solvable factor L1 (kernel = degenerate-atom
    branch) to a coefficient vector."""
    return _apply_terms(
        _model_terms(spec, energy, _rabi_first_factor, _two_mode_first_factor), coeffs)


def apply_second_factor(spec: ModelSpec, energy: float, coeffs: np.ndarray) -> np.ndarray:
    """Apply the complementary factor L2 (maps the lower component back
    up) to a coefficient vector."""
    return _apply_terms(
        _model_terms(spec, energy, _rabi_second_factor, _two_mode_second_factor), coeffs)
