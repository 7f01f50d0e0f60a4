"""Model specifications, parameter domains and su(1,1) representation data.

Three models are supported, all describing a two-level atom (splitting
2*delta) coupled with strength g to bosonic modes of frequency omega:

* ``rabi``       -- linear coupling to one mode,
* ``two-photon`` -- coupling through the squared mode operators; the field
  splits into two su(1,1) sectors labelled q = 1/4 (even photon numbers)
  and q = 3/4 (odd photon numbers),
* ``two-mode``   -- coupling through a pair of degenerate modes; sectors are
  labelled by kappa = 1/2, 1, 3/2, ... (the conserved photon-number
  imbalance is 2*kappa - 1).

Every formula reads a spec through its ``Frame`` (``frame``). Both sector
models are one su(1,1) problem; the frame maps the 2-photon model onto the
two-mode model, whose formulas alone are written out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (
    BadSector,
    CouplingOutOfRange,
    ValidationError,
    WrongModel,
    ZeroCoupling,
)

TWO_PHOTON_SECTORS = (Fraction(1, 4), Fraction(3, 4))


class ModelKind(str, Enum):
    RABI = "rabi"
    TWO_PHOTON = "two-photon"
    TWO_MODE = "two-mode"


@dataclass(frozen=True)
class ModelSpec:
    """One model instance: kind, sector index and (omega, g, delta).

    ``delta`` may be None when it is an output of the solve rather than an
    input. ``sector`` must be None for the Rabi model, q in {1/4, 3/4} for
    the 2-photon model and a positive half-integer for the two-mode model.
    """

    kind: ModelKind
    omega: float
    g: float
    delta: float | None = None
    sector: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if self.sector is not None and not isinstance(self.sector, Fraction):
            object.__setattr__(self, "sector", Fraction(self.sector))

    def with_delta(self, delta: float) -> "ModelSpec":
        """This spec at another delta: its fields copied as they are, since
        they were coerced when it was built."""
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__, delta=delta)
        return spec


def validate(spec: ModelSpec, require_coupling: bool = True) -> ModelSpec:
    """Check a ModelSpec against its parameter domain and return it.

    ``require_coupling=False`` admits g = 0 (legal for plain spectrum
    computations; the quasi-exact machinery divides by g/omega and needs it
    nonzero, so a g/omega that underflows to 0 is refused as g = 0 is).
    """
    if not (math.isfinite(spec.omega) and spec.omega > 0):
        raise ValidationError(f"omega must be positive and finite, got {spec.omega}")
    if not math.isfinite(spec.g / spec.omega):
        raise ValidationError(f"g/omega must be finite, got g={spec.g}, omega={spec.omega}")
    _require_delta(spec)

    if spec.kind is ModelKind.RABI:
        if spec.sector is not None:
            raise BadSector("the Rabi model carries no sector index")
    elif spec.kind is ModelKind.TWO_PHOTON:
        if spec.sector not in TWO_PHOTON_SECTORS:
            raise BadSector(f"2-photon sector must be 1/4 or 3/4, got {spec.sector}")
    elif spec.sector is None or spec.sector <= 0 or (2 * spec.sector).denominator != 1:
        raise BadSector(
            f"two-mode sector must be a positive half-integer, got {spec.sector}")
    if spec.kind is not ModelKind.RABI and (coupling := abs(frame(spec).g)) >= 1:
        raise CouplingOutOfRange(f"collapse parameter {coupling:g} >= 1 (|2g/omega| for 2-photon, "
                                 "|g/omega| for two-mode): spectral-collapse boundary crossed")

    if require_coupling and spec.g / spec.omega == 0:
        raise ZeroCoupling("g = 0: atom and field decouple")
    return spec


def _require_delta(spec: ModelSpec) -> None:
    """``validate``'s check of delta, for a spec whose omega is valid."""
    delta = 0.0 if spec.delta is None else spec.delta
    if not (delta >= 0 and math.isfinite(delta / spec.omega)):
        raise ValidationError(f"delta must be >= 0 with delta/omega finite, got {spec.delta}")


@dataclass(frozen=True)
class Frame:
    """What every formula reads of a spec, in units of omega: the Rabi
    coupling g/omega, or a sector model as the two-mode model at coupling
    ``g`` (the collapse parameter) and any positive Bargmann index
    ``kappa``, with E/omega = E_two_mode/omega + energy_shift and
    z = z_scale * z_two_mode. The properties are computed when read: a
    frame is also built at |g| >= 1 (``validate``) and g = 0 (the oracle)."""

    kind: ModelKind
    g: float
    kappa: float = 0.0
    energy_shift: float = 0.0
    z_scale: float = 1.0

    @property
    def squeeze(self) -> float:
        """1 for the Rabi model, else Lambda = sqrt(1 - g^2) (Omega, for the
        2-photon model); it rescales the spacing of the quasi-exact energies."""
        if self.kind is ModelKind.RABI:
            return 1.0
        return math.sqrt(1.0 - self.g * self.g)

    @property
    def prefactor_rate(self) -> float:
        """Exponential rate of the Bargmann prefactor: wavefunctions are
        exp(-prefactor_rate * z) * polynomial(z)."""
        if self.kind is ModelKind.RABI:
            return self.g
        return 1.0 / self.g * (1.0 - self.squeeze) / self.z_scale


def frame(spec: ModelSpec) -> Frame:
    """The frame of a spec with valid omega, kind and sector: the Rabi model
    at g/omega; the 2-photon model at (omega, g, q) as the two-mode model at
    (omega, 2g, kappa = q), shifted up by omega/2, in z = 2 z_two_mode."""
    if spec.kind is ModelKind.RABI:
        return Frame(spec.kind, spec.g / spec.omega)
    if spec.kind is ModelKind.TWO_PHOTON:
        return Frame(spec.kind, 2.0 * spec.g / spec.omega, float(spec.sector),
                     energy_shift=0.5, z_scale=2.0)
    return Frame(spec.kind, spec.g / spec.omega, float(spec.sector))


def su11_elements(spec: ModelSpec, n: int | np.ndarray) -> tuple:
    """Matrix elements of (K0, K+) on the sector level |n>, or on each
    level of an integer array ``n``.

    Returns (k0, kplus_amp) with k0 = n + sector and
    K+|n> = kplus_amp |n+1>. K- is the adjoint of K+, so its amplitude on
    |n> is kplus_amp of level n - 1 (0 at n = 0).
    """
    if spec.kind is ModelKind.RABI:
        raise WrongModel("su(1,1) elements are defined for the sector models only")
    if np.any(np.less(n, 0)):
        raise ValueError(f"n must be >= 0, got {np.min(n)}")
    x = float(spec.sector)
    return n + x, np.sqrt((n + 1) * (n + 2 * x))
