"""Banded action of the models' Fuchsian operators on monomial coefficients.

Eliminating the lower spinor component from the coupled first-order (Rabi)
or second-order (sector models) systems leaves a single linear ODE for the
upper component phi(z):

    L phi = 0,   L = L2 L1 - sign * delta^2,

where L1 is the exactly solvable factor, L2 the complementary one, and
sign = -1 for the Rabi model (second order) and +1 for the 2-photon and
two-mode models (fourth order). The 2-photon operators are the two-mode
ones in its two-mode frame (``models.two_mode_frame``). Every operator
is one short list of terms c z^m d^d/dz^d, applied by one routine
(``_apply_terms``) to a coefficient vector or, for the delta^2 pencil, to
the monomials 1, ..., z^M at once. The polynomial coefficients of L are
at most quadratic in z, so a term sends z^k to z^{k+m-d}, with band
offsets m - d in {+1, 0, -1, -2}. The +1 band vanishes at k = degree
exactly when the energy takes its quasi-exact value, which is what
confines L to the span of {1, ..., z^M}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .models import ModelKind, ModelSpec, TwoModeFrame, two_mode_frame, validate

MAX_DEGREE = 1000  # the dense pencil is ill-conditioned well below this

# An operator is a sum of terms c * z^m * d^d/dz^d, stored as (d, m, c).
Terms = tuple[tuple[int, int, float], ...]


def _require_degree(degree: int) -> None:
    """Raise ValidationError unless 1 <= degree <= MAX_DEGREE."""
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    if degree > MAX_DEGREE:
        raise ValidationError(f"degree must be <= {MAX_DEGREE}, got {degree}")


def _falling(k: np.ndarray, d: int) -> np.ndarray:
    """k (k-1) ... (k-d+1), elementwise; exact for integer k."""
    out = np.ones_like(k, dtype=float)
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
    """Coefficients of (sum_t c z^m d^d) applied to a polynomial, or to
    each column of a 2-D ``coeffs``.

    Terms are applied from the highest band offset m - d down, in term
    order within a band, so every output coefficient sums its inputs in
    ascending k, then term order: the result is bitwise that of the plain
    loop over k and terms, whatever the batch shape.
    """
    coeffs = np.asarray(coeffs)
    n = len(coeffs)
    shift = max((m - d for d, m, _ in terms), default=0)
    out = np.zeros((n + max(shift, 0),) + coeffs.shape[1:],
                   dtype=np.result_type(coeffs, float))
    k = np.arange(n).reshape((n,) + (1,) * (coeffs.ndim - 1))
    for d, m, c in sorted(terms, key=lambda t: t[0] - t[1]):
        lo = min(max(d - m, 0), n)  # c_k with k < d - m has no image
        out[lo + m - d:n + m - d] += c * _falling(k[lo:], d) * coeffs[lo:]
    return out


@dataclass(frozen=True, eq=False)
class OdeStencil:
    """The eliminated operator L as terms c z^m d^d, with the delta^2 part
    split off.

    A term sends c_k into the z^{k+m-d} coefficient of the image, with
    band offsets m - d in {+1, 0, -1, -2}; delta^2 enters the full
    operator as ``delta_sq_sign * delta^2`` times the identity.
    """

    degree_ceiling: int
    delta_sq_sign: int
    terms: Terms

    def band(self, offset: int, k: int) -> float:
        """Coefficient with which c_k feeds the z^{k+offset} coefficient."""
        return float(sum(c * _falling(k, d)
                         for d, m, c in self.terms if m - d == offset))


def ode_stencil(spec: ModelSpec, degree: int, energy: float) -> OdeStencil:
    """Stencil of the model's eliminated operator at the given energy.

    With ``energy = qes_energy(spec, degree)`` the +1 band vanishes at
    k = degree, closing the operator on polynomials of that degree.
    """
    spec = validate(spec, warn_degenerate=False)  # delta never enters the stencil
    _require_degree(degree)
    return OdeStencil(
        degree_ceiling=degree,
        delta_sq_sign=-1 if spec.kind is ModelKind.RABI else +1,
        terms=_model_terms(spec, energy, _rabi_terms, _two_mode_terms))


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
    out = _apply_terms(stencil.terms, coeffs)  # the +1 band: length n + 1
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
