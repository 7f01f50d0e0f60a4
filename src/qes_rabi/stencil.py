"""Banded action of the models' Fuchsian operators on monomial coefficients.

Eliminating the lower spinor component from the coupled first-order (Rabi)
or second-order (sector models) systems leaves a single linear ODE for the
upper component phi(z):

    L phi = 0,   L = L2 L1 + sign * delta^2,

where L1 is the exactly solvable factor, L2 the complementary one, and
sign = -1 for the Rabi model (second order) and +1 for the 2-photon and
two-mode models (fourth order). Every operator here is in units of
omega, read from the spec's ``models.Frame`` at E/omega: L1 and L2 are
the physical factors divided by omega, L and the delta^2 pencil (delta^2
in units of omega^2) divided by omega^2; the 2-photon operators are the
two-mode ones in its frame. Every operator is one short list of terms
c z^m d^d/dz^d, applied by one routine (``_apply_terms``) to a
coefficient vector or to a block of them at once: the monomials 1, ...,
z^M for the delta^2 pencil, every branch's polynomial for its ODE
residual. Only the factors L1 and L2 are written out, and L is applied as
them, L1 first: the pencil is the product of their two matrices, and each
factor of one model has one term list (d, m) in one order. The root
systems and the parameter constraint in ``solver`` stay hand-written, so
a wrong factor term shows there. A term sends z^k to z^{k+m-d}: L1 has
band offsets m - d in {0, -1} and L2 in {+1, 0, -1}, so L has
{+1, 0, -1, -2}. The +1 band of L vanishes at k = degree exactly when
the energy takes its quasi-exact value, which is what confines L to the
span of {1, ..., z^M}.
"""
from __future__ import annotations

import operator

import numpy as np

from .errors import ValidationError
from .models import Frame, ModelKind, ModelSpec, frame

# A point's root pass holds (B, M, M) complex blocks, about 37 M^3 bytes
# at its peak (1 GB at M = 300); no branch passes its gates from M ~ 100.
MAX_DEGREE = 300

# An operator is a sum of terms c * z^m * d^d/dz^d, stored as (d, m, c).
Terms = tuple[tuple[int, int, float], ...]


def _require_degree(degree: int) -> None:
    """Raise ValidationError unless degree is an integer (``operator.index``)
    with 1 <= degree <= MAX_DEGREE."""
    try:
        operator.index(degree)
    except TypeError:
        raise ValidationError(f"degree must be an integer, got {degree!r}") from None
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    if degree > MAX_DEGREE:
        raise ValidationError(
            f"degree must be <= {MAX_DEGREE} (memory grows as degree^3), got {degree}")


def _delta_sq_sign(kind: ModelKind) -> int:
    """Sign with which delta^2 enters L: -1 for the second-order Rabi
    operator, +1 for the fourth-order sector models."""
    return -1 if kind is ModelKind.RABI else +1


def _falling(k: np.ndarray, d: int) -> np.ndarray:
    """k (k-1) ... (k-d+1), elementwise; exact for integer k."""
    out = np.ones_like(k, dtype=float)
    for i in range(d):
        out *= k - i
    return out


def _rabi_factors(g: float, E: float) -> tuple[Terms, Terms]:
    # L1 = (z + g) d/dz - (g^2 + E)
    # L2 = (z - g) d/dz - (2 g z - g^2 + E)
    return (((1, 1, 1.0), (1, 0, g), (0, 0, -(g * g + E))),
            ((1, 1, 1.0), (1, 0, -g), (0, 1, -2.0 * g), (0, 0, g * g - E)))


def _two_mode_factors(f: Frame, E: float) -> tuple[Terms, Terms]:
    # L1 = g z d^2 + 2 (Lam z + g kappa) d + 2 kappa Lam - 1 - E
    # L2 = g z d^2 + 2 ((Lam - 2) z + g kappa) d
    #      + 4 (1 - Lam)/g z + 2 kappa (Lam - 2) + 1 + E
    g, kap, Lam = f.g, f.kappa, f.squeeze
    return (((2, 1, g), (1, 1, 2.0 * Lam), (1, 0, 2.0 * g * kap),
             (0, 0, 2.0 * kap * Lam - 1.0 - E)),
            ((2, 1, g), (1, 1, 2.0 * (Lam - 2.0)), (1, 0, 2.0 * g * kap),
             (0, 1, 4.0 / g * (1.0 - Lam)),
             (0, 0, 2.0 * kap * (Lam - 2.0) + 1.0 + E)))


def _factors(f: Frame, e: float) -> tuple[Terms, Terms]:
    """The factors (L1, L2) at e = E/omega: the Rabi formulas at g/omega, or
    the two-mode formulas built in the frame. With z = z_scale * z_two_mode
    a two-mode term c z^m d^d is c * z_scale^(d - m) z^m d^d in the spec's
    own variable; z_scale is a power of two, so this is exact."""
    if f.kind is ModelKind.RABI:
        return _rabi_factors(f.g, e)
    return tuple(tuple((d, m, c * f.z_scale ** (d - m)) for d, m, c in factor)
                 for factor in _two_mode_factors(f, e - f.energy_shift))


def _apply_terms(terms: Terms, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of (sum_t c z^m d^d) applied to a polynomial, or to
    each column of a batch ``coeffs`` (axis 0 the powers of z).

    A term's c may also be an array that broadcasts against the batch
    axes, one coefficient per column: one call then applies a different
    operator to each column. Terms are applied from the highest band
    offset m - d down, in term order within a band, so every output
    coefficient sums its inputs in ascending k, then term order: the
    result is bitwise that of the plain loop over k and terms, whatever
    the batch shape.
    """
    coeffs = np.asarray(coeffs)
    n = len(coeffs)
    shift = max((m - d for d, m, _ in terms), default=0)
    out = np.zeros((n + max(shift, 0),) + coeffs.shape[1:],
                   dtype=np.result_type(coeffs, float))
    k = np.arange(n).reshape((n,) + (1,) * (coeffs.ndim - 1))
    falling = {}
    for d, m, c in sorted(terms, key=lambda t: t[0] - t[1]):
        if d not in falling:
            falling[d] = _falling(k, d)
        lo = min(max(d - m, 0), n)  # c_k with k < d - m has no image
        out[lo + m - d:n + m - d] += c * falling[d][lo:] * coeffs[lo:]
    return out


def apply_first_factor(spec: ModelSpec, energy: float, coeffs: np.ndarray) -> np.ndarray:
    """Apply the exactly solvable factor L1 (kernel = degenerate-atom
    branch) to a coefficient vector."""
    return _apply_terms(_factors(frame(spec), energy / spec.omega)[0], coeffs)
