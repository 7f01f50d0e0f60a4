"""Shared fixtures and independent helpers for the test suite.

The helpers here deliberately avoid the package's own code paths where
they serve as oracles: the direct photon-basis Hamiltonian, the dense
truncated Hamiltonian of each model and its parity chains, Kus's delta^2
matrix for the Rabi model, the root-system residual summed over tuples of
roots, the log-space Fock expansion of the analytic wavefunctions and a
``csv.writer`` table writer are built from scratch so they can
cross-check the library. ``operator``, ``pencil`` and ``band`` are not
oracles: they read the package's private factor terms, for the tests of
them. ``sector_reference`` is: it retypes the factor formulas and solves
their product in 50 digits.
"""
from __future__ import annotations

import csv
import io
import math
import os
from fractions import Fraction
from itertools import permutations
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np
import pytest

from qes_rabi import ModelKind, ModelSpec
from qes_rabi.models import frame
from qes_rabi.solver import _unit_energy
from qes_rabi.stencil import _apply_terms, _factors

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


def _operator(f, e: float, n: int) -> np.ndarray:
    first, second = _factors(f, e)
    return _apply_terms(second, _apply_terms(first, np.eye(n)))


def operator(spec: ModelSpec, energy: float, n: int) -> np.ndarray:
    """The (n+1) x n matrix of L = L2 L1 at this energy, the delta^2 part
    left out, in units of omega^2: column k is the image of z^k, L1 applied
    first, as the solve applies it."""
    return _operator(frame(spec), energy / spec.omega, n)


def pencil(spec: ModelSpec, degree: int) -> np.ndarray:
    """The solve's delta^2 pencil of one point, in units of omega^2: the
    first M + 1 rows of ``operator`` at the quasi-exact energy."""
    f = frame(spec)
    n = degree + 1
    return _operator(f, _unit_energy(f, degree), n)[:n]


def band(op: np.ndarray, offset: int, k: int) -> float:
    """Coefficient with which c_k feeds the z^{k+offset} coefficient of
    the image under the matrix ``op`` of ``operator``."""
    return float(op[k + offset, k])


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


def kus_matrix(omega: float, g: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Kus's symmetric tridiagonal matrix of the Rabi model (Kus 1985,
    J. Math. Phys. 26:2792): its eigenvalues are the delta^2 of the
    nontrivial Juddian branches at this degree M. With x = 4 g^2 / omega^2
    and k = 1..M, the diagonal is omega^2 (k^2 - k x) and the
    off-diagonal omega^2 sqrt(k (k - 1) (M - k + 1) x). Returned as
    (diagonal, off-diagonal); shares no code with the package's pencil.
    """
    x = 4.0 * g * g / (omega * omega)
    k = np.arange(1, degree + 1, dtype=float)
    upper = k[1:]
    return (omega**2 * (k * k - k * x),
            omega**2 * np.sqrt(upper * (upper - 1.0) * (degree - upper + 1.0) * x))


def dense_parity_chains(spec: ModelSpec, n_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The +delta and -delta parity chains, (diagonal, off-diagonal), read
    off ``dense_hamiltonian``.

    The chain state |n>_p = (|n, +> + p (-1)^n |n, ->) / sqrt(2) has the
    diagonal H[2n, 2n] + p (-1)^n H[2n, 2n+1] and the n -> n+1 coupling
    H[2n, 2n+2] of the spin-up component.
    """
    h = dense_hamiltonian(spec, n_max)
    up = 2 * np.arange(n_max + 1)
    split = (-1.0) ** np.arange(n_max + 1) * h[up, up + 1]
    return [(h[up, up] + p * split, h[up[:-1], up[:-1] + 2]) for p in (1.0, -1.0)]


def full_chain_match(E: float, spec: ModelSpec, n_max: int,
                     tol: float) -> tuple[float, float, bool]:
    """``match_energy`` with every chain solved in full: (gap, drift,
    matched), gap being the larger per-chain distance to the nearest level
    at n_max and drift its change at 2 n_max. The reference for the
    windowed solve."""
    import scipy.linalg

    gaps = [max(float(np.min(np.abs(
                scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True) - E)))
                for d, e in dense_parity_chains(spec, n))
            for n in (n_max, 2 * n_max)]
    drift = abs(gaps[0] - gaps[1])
    return gaps[0], drift, gaps[0] <= tol and drift <= tol / 10.0


def bae_gate(solution) -> float:
    """The root-system gate of ``QesSolution.reject_reason``, written out:
    1e-8 * max(1, max|z_i|)^3."""
    return 1e-8 * max(1.0, float(np.max(np.abs(solution.roots)))) ** 3


def bae_reference(solution) -> float:
    """The stored ``QesSolution.bae_residual`` (``solver._root_residuals``)
    with every sum over ordered tuples of distinct roots written out,
    O(M^4): the reference for its power sums.

    Same equations in units of omega, denominators and two-mode frame; no
    root prechecks.
    """
    z = solution.roots
    g = solution.spec.g / solution.spec.omega
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
            lhs = s2(i) * (z[i] - g) * (z[i] + g)
            rhs = 2.0 * g * z[i] ** 2 + (2 * m - 1) * z[i] + g * (1.0 - 2.0 * g * g)
            worst = max(worst, abs(lhs - rhs))
        return worst

    f = frame(solution.spec)
    g, x, sq = f.g, f.kappa, f.squeeze
    z = z / f.z_scale  # read by s2, s3 and s4 from here on
    for i in idx:
        val = (g * g * z[i] ** 2 * s4(i)
               + 4.0 * g * ((sq - 1.0) * z[i] ** 2 + g * (x + 0.5) * z[i]) * s3(i)
               + (4.0 * (sq * sq - 3.0 * sq + 1.0) * z[i] ** 2
                  + 4.0 * g * (3.0 * (x + 0.5) * sq - 3.0 * x - 1.0) * z[i]
                  + 4.0 * g * g * x * (x + 0.5)) * s2(i)
               + 8.0 / g * sq * (1.0 - sq) * z[i] ** 2
               + 8.0 * (m * sq + (x + 0.5) * sq * (sq - 2.0) + x) * z[i]
               + 8.0 * g * x * ((x + 0.5) * sq - x))
        worst = max(worst, abs(val))
    return worst / f.z_scale ** 3


def sector_reference(spec: ModelSpec, degree: int) -> list[float]:
    """The delta^2 pencil eigenvalues of a sector-model point in 50 digits,
    in units of omega^2, ascending: the reference for the solve's
    ``unit_delta_squared``.

    The two-mode factor tables are typed here from their formulas,
        L1 = g z d^2 + 2 (Lam z + g kappa) d + 2 kappa Lam - 1 - E,
        L2 = g z d^2 + 2 ((Lam - 2) z + g kappa) d
             + 4 (1 - Lam)/g z + 2 kappa (Lam - 2) + 1 + E,
    evaluated at the solve's own doubles g/omega, kappa, Lam and E/omega
    (the frame's, and the 2-photon E less its shift), multiplied exactly
    and solved by ``mpmath.eig``. The 2-photon z = 2 z_two_mode only
    rescales the powers of z, a similarity that keeps the eigenvalues.
    Only the real eigenvalues are returned, as delta^2 = -mu.
    """
    import mpmath

    f = frame(spec)
    with mpmath.workdps(50):
        g, kap, lam = mpmath.mpf(f.g), mpmath.mpf(f.kappa), mpmath.mpf(f.squeeze)
        e = mpmath.mpf(_unit_energy(f, degree)) - mpmath.mpf(f.energy_shift)
        n = degree + 1
        first, second = mpmath.zeros(n, n), mpmath.zeros(n + 1, n)
        for k in range(n):
            lower = g * k * (k - 1) + 2 * g * kap * k  # the z^(k-1) coefficient
            first[k, k] = 2 * lam * k + 2 * kap * lam - 1 - e
            second[k, k] = 2 * (lam - 2) * k + 2 * kap * (lam - 2) + 1 + e
            second[k + 1, k] = 4 * (1 - lam) / g
            if k:
                first[k - 1, k] = second[k - 1, k] = lower
        product = second * first
        mu = mpmath.eig(product[:n, :n], left=False, right=False)
        return sorted(float(-m.real) for m in mu if abs(m.imag) <= 1e-30 * (1 + abs(m)))


def reference_fmt(value) -> str:
    """One CSV cell as the CLI first wrote it: 17 significant digits for
    floats, through ``format``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def reference_csv(header, rows) -> bytes:
    """A CSV table as ``csv.writer`` writes it with LF line endings, one
    ``reference_fmt`` per cell: the reference for the CLI's table writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([reference_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def reference_json(obj) -> str:
    """JSON by the plain recursive walk, one call per value and ``%.17g``
    per float: the reference for ``records.json_dumps``."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return "%.17g" % obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(encode_basestring(str(k)) + ":" + reference_json(v)
                              for k, v in obj.items()) + "}"
    return "[" + ",".join(reference_json(v) for v in obj) + "]"


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
