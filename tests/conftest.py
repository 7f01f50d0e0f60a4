"""Shared fixtures and independent helpers for the test suite.

The helpers here deliberately avoid the package's own code paths where
they serve as oracles: the direct photon-basis Hamiltonian, the dense
truncated Hamiltonian of each model, the root-system residual summed over
tuples of roots and the log-space Fock expansion of the analytic
wavefunctions are built from scratch so they can cross-check the library.
"""
from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from qes_rabi import ModelKind, ModelSpec
from qes_rabi.models import two_mode_frame

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def _src_on_subprocess_path():
    """CLI tests run ``python -m qes_rabi`` in a subprocess; let it import
    the package from src/ as pytest's ``pythonpath`` setting does here."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


def rabi_spec(g=0.3, omega=1.0, delta=None):
    return ModelSpec(ModelKind.RABI, omega, g, delta)


def two_photon_spec(g=0.3, omega=1.0, delta=None, sector=Fraction(1, 4)):
    return ModelSpec(ModelKind.TWO_PHOTON, omega, g, delta, sector)


def two_mode_spec(g=0.6, omega=1.0, delta=None, sector=Fraction(1, 2)):
    return ModelSpec(ModelKind.TWO_MODE, omega, g, delta, sector)


# One representative safely-coupled spec per model; g ranges give the
# part of each validity domain used for randomized parameter draws.
MODEL_G_RANGES = {
    ModelKind.RABI: (0.05, 0.45),
    ModelKind.TWO_PHOTON: (0.05, 0.45),
    ModelKind.TWO_MODE: (0.05, 0.85),
}

ALL_SECTORS = {
    ModelKind.RABI: [None],
    ModelKind.TWO_PHOTON: [Fraction(1, 4), Fraction(3, 4)],
    ModelKind.TWO_MODE: [Fraction(1, 2), Fraction(1), Fraction(3, 2)],
}


def make_spec(kind: ModelKind, g: float, omega: float = 1.0, sector=None, delta=None):
    if sector is None and kind is not ModelKind.RABI:
        sector = ALL_SECTORS[kind][0]
    return ModelSpec(kind, omega, g, delta, sector)


def random_specs(kind: ModelKind, count: int, seed: int) -> list[ModelSpec]:
    """Seeded draws of (omega, g) inside the validity domain."""
    rng = np.random.default_rng(seed)
    lo, hi = MODEL_G_RANGES[kind]
    specs = []
    for _ in range(count):
        omega = rng.uniform(0.5, 2.0)
        g = rng.uniform(lo, hi) * omega
        specs.append(make_spec(kind, g, omega))
    return specs


def direct_two_photon_hamiltonian(omega: float, g: float, delta: float,
                                  photon_cutoff: int) -> np.ndarray:
    """2-photon Hamiltonian assembled in the raw photon basis.

    Basis |m> x {sigma_x = +1, -1}, m < photon_cutoff, index = 2m + si.
    Uses only <m+2|(a^dag)^2|m> = sqrt((m+1)(m+2)); independent of the
    package's su(1,1) sector machinery.
    """
    dim = 2 * photon_cutoff
    h = np.zeros((dim, dim))
    for m in range(photon_cutoff):
        for si, s in enumerate((1.0, -1.0)):
            i = 2 * m + si
            h[i, i] = omega * m
            if m + 2 < photon_cutoff:
                j = 2 * (m + 2) + si
                h[i, j] = h[j, i] = s * g * math.sqrt((m + 1) * (m + 2))
        h[2 * m, 2 * m + 1] = h[2 * m + 1, 2 * m] = delta
    return h


def dense_hamiltonian(spec: ModelSpec, n_max: int) -> np.ndarray:
    """Truncated Hamiltonian of any model as a dense symmetric matrix.

    Basis |n> x {sigma_x = +1, -1}, n <= n_max, index = 2n + si, built from
    the photon content of each basis state: the Fock level |n> with
    <n+1|a^dag|n> = sqrt(n+1) for the Rabi model, the pair state
    |n + 2 kappa - 1, n> with <..|a1^dag a2^dag|..> = sqrt((n+1)(n+2 kappa))
    for the two-mode model, and the photon levels m = 2n + 2q - 1/2 of
    ``direct_two_photon_hamiltonian`` for the 2-photon model. Shares no
    code with the package's oracle or its two-mode frame.
    """
    if spec.kind is ModelKind.TWO_PHOTON:
        first = int(2 * spec.sector - Fraction(1, 2))
        full = direct_two_photon_hamiltonian(spec.omega, spec.g, spec.delta,
                                             2 * n_max + 2)
        keep = [2 * m + si for m in range(first, 2 * n_max + 2, 2) for si in (0, 1)]
        return full[np.ix_(keep, keep)]
    dim = 2 * (n_max + 1)
    h = np.zeros((dim, dim))
    for n in range(n_max + 1):
        if spec.kind is ModelKind.RABI:
            photons, amp = n, math.sqrt(n + 1)
        else:
            two_kappa = 2 * float(spec.sector)
            photons, amp = 2 * n + two_kappa - 1, math.sqrt((n + 1) * (n + two_kappa))
        for si, s in enumerate((1.0, -1.0)):
            i = 2 * n + si
            h[i, i] = spec.omega * photons
            if n < n_max:
                h[i, i + 2] = h[i + 2, i] = s * spec.g * amp
        h[2 * n, 2 * n + 1] = h[2 * n + 1, 2 * n] = spec.delta
    return h


def bae_reference(solution) -> float:
    """``solver.bae_residual`` with every sum over ordered tuples of
    distinct roots written out, O(M^4): the reference for its power sums.

    Same equations, denominators and two-mode frame; no root prechecks.
    """
    z = solution.roots
    w, g = solution.spec.omega, solution.spec.g
    m = solution.degree
    idx = range(m)

    def s2(i):
        return sum(2.0 / (z[i] - z[j]) for j in idx if j != i)

    def s3(i):
        return sum(3.0 / ((z[i] - z[l]) * (z[i] - z[j]))
                   for l, j in permutations([t for t in idx if t != i], 2))

    def s4(i):
        return sum(4.0 / ((z[i] - z[p]) * (z[i] - z[l]) * (z[i] - z[j]))
                   for p, l, j in permutations([t for t in idx if t != i], 3))

    worst = 0.0
    if solution.spec.kind is ModelKind.RABI:
        for i in idx:
            lhs = s2(i) * (w * z[i] - g) * (w * z[i] + g)
            rhs = (2.0 * w * g * z[i] ** 2 + (2 * m - 1) * w * w * z[i]
                   + g * (w * w - 2.0 * g * g) / w)
            worst = max(worst, abs(lhs - rhs))
        return worst

    f = two_mode_frame(solution.spec)
    w, g, x, sq = f.omega, f.g, f.kappa, f.squeeze
    z = z / f.z_scale  # read by s2, s3 and s4 from here on
    for i in idx:
        val = (g * g * z[i] ** 2 * s4(i)
               + 4.0 * g * (w * (sq - 1.0) * z[i] ** 2 + g * (x + 0.5) * z[i]) * s3(i)
               + (4.0 * w * w * (sq * sq - 3.0 * sq + 1.0) * z[i] ** 2
                  + 4.0 * w * g * (3.0 * (x + 0.5) * sq - 3.0 * x - 1.0) * z[i]
                  + 4.0 * g * g * x * (x + 0.5)) * s2(i)
               + 8.0 * w**3 / g * sq * (1.0 - sq) * z[i] ** 2
               + 8.0 * w * w * (m * sq + (x + 0.5) * sq * (sq - 2.0) + x) * z[i]
               + 8.0 * w * g * x * ((x + 0.5) * sq - x))
        worst = max(worst, abs(val))
    return worst / f.z_scale ** 3


def _log_norm(spec: ModelSpec, n: int) -> float:
    """log of the basis normalization factorial (under the square root)."""
    if spec.kind is ModelKind.RABI:
        return math.lgamma(n + 1)
    x = float(spec.sector)
    if spec.kind is ModelKind.TWO_PHOTON:
        return math.lgamma(2 * (n + x - 0.25) + 1)
    return math.lgamma(n + 2 * x) + math.lgamma(n + 1)


def fock_coefficients(spec: ModelSpec, rate: float, poly: np.ndarray,
                      n_max: int) -> np.ndarray:
    """Basis coefficients of exp(-rate*z) * poly(z) in the sector basis.

    Each monomial contribution is accumulated in log space so the huge
    normalization factorials never overflow. Real polynomials only.
    """
    out = np.zeros(n_max + 1)
    loglam = math.log(abs(rate))
    sgnlam = -1.0 if rate > 0 else 1.0
    for n in range(n_max + 1):
        acc = 0.0
        for j, pj in enumerate(poly):
            m = n - j
            if m < 0 or pj == 0:
                continue
            logmag = (m * loglam - math.lgamma(m + 1)
                      + 0.5 * _log_norm(spec, n) + math.log(abs(pj)))
            acc += (sgnlam ** m) * math.copysign(1.0, pj) * math.exp(logmag)
        out[n] = acc
    return out
