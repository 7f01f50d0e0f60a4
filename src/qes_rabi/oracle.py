"""Brute-force verification by truncated-basis diagonalization.

The Hamiltonians are written in the basis |n> x {sigma_x = +1, -1} with
n <= n_max (|n> being the Fock level for the Rabi model, the su(1,1)
sector level otherwise). In this basis the coupling term is diagonal in
the spin and tridiagonal in n, while the level-splitting term couples the
two spin components at equal n with amplitude delta. The parity that
flips sigma_x together with (-1)^n commutes with all three Hamiltonians,
so the truncated matrix splits exactly into two symmetric tridiagonal
chains; the spectrum is always computed from them. A quasi-exact
(Juddian) energy is a level of both chains, so it is accepted as
verified when each chain has a level within tolerance of it, found by
bisection in that window only, and the larger of the two distances stays
put when the truncation is doubled. The chains are built and solved in
units of omega, at g/omega and delta/omega; omega scales E and tol on the
way in and the levels, gap and drift on the way out.

The chains are solved by LAPACK, fetched once through scipy: dstebz
bisects for the levels in a window, with the arguments scipy's
tridiagonal eigensolver passes for one, and dstev solves a whole chain.
For a whole chain that solver defaults to dstevd in scipy 1.17 and to
dstemr in older releases, 1.10 among them. Without eigenvectors dstev and
dstevd run the same code (the same rescaling, then dsterf), so the levels
have the bits that solver gives them where its default is dstevd; dstev
is taken because every scipy this package supports wraps it. The
routines are called directly because the Python wrapper cost about a
third of a windowed solve; the oracle checks finiteness and the LAPACK
info code itself. scipy is imported inside the oracle's functions only,
because it dominates the package's import time, and before any chain is
built: the first import of scipy resets Python's warnings registry, so a
delta = 0 warning already shown would show again.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAtomWarning, ValidationError, WindowExceeded
from .models import ModelKind, ModelSpec, frame, su11_elements, validate


# Truncation sizes that keep the doubling drift below 1e-9 across the
# validity domains (convergence slows approaching the collapse boundary).
DEFAULT_N_MAX = {
    ModelKind.RABI: 64,
    ModelKind.TWO_PHOTON: 256,
    ModelKind.TWO_MODE: 256,
}


def default_n_max(kind: ModelKind) -> int:
    return DEFAULT_N_MAX[ModelKind(kind)]


# Largest truncation a caller may ask for: parity_spectrum takes O(n_max^2)
# time, and match_energy also solves at 2 n_max.
MAX_N_MAX = 16384


def require_n_max(n_max: int, limit: int = MAX_N_MAX) -> None:
    """Raise ValidationError unless 4 <= n_max <= limit."""
    if not 4 <= n_max <= limit:
        raise ValidationError(f"n_max must be in 4..{limit}, got {n_max}")


def require_tol(tol: float) -> None:
    """Raise ValidationError unless the match tolerance is finite and > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be finite and positive, got {tol}")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one energy against the truncated spectrum."""

    matched: bool
    gap: float
    truncation_drift: float


def _diag_and_coupling(spec: ModelSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal energies and n -> n+1 coupling amplitudes (spin s = +1) of
    a validated spec, in units of omega."""
    n = np.arange(n_max + 1.0)
    f = frame(spec)
    if f.kind is ModelKind.RABI:
        return n, f.g * np.sqrt(n[:-1] + 1.0)
    # 2 K0 - 1 plus the frame's energy shift (exact: multiples of 1/4), and
    # g times the K+ amplitudes.
    k0, kplus, _ = su11_elements(spec, n)
    return 2.0 * k0 - 1.0 + f.energy_shift, f.g * kplus[:-1]


def _parity_chains(spec: ModelSpec,
                   n_max: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Diagonals of the +delta and -delta parity chains and their shared
    off-diagonal, in units of omega, for 4 <= n_max <= 2 MAX_N_MAX (the
    doubled truncation of match_energy). Requires delta set; admits g = 0.
    Every entry is a function of its own n, so the chains at a smaller
    n_max are bitwise the leading blocks of these. The oracle alone reads
    delta as an input, so it alone warns when delta = 0. Raises
    ValidationError when an entry is not finite in double precision."""
    spec = validate(spec, require_coupling=False)
    if spec.delta is None:
        raise ValidationError("oracle needs delta set on the spec")
    if spec.delta == 0.0:
        warnings.warn("delta = 0: spin components decouple into exactly solvable "
                      "oscillator branches", DegenerateAtomWarning, stacklevel=3)
    require_n_max(n_max, 2 * MAX_N_MAX)
    with np.errstate(over="ignore"):  # refused below
        diag, amp = _diag_and_coupling(spec, n_max)
        alt = np.empty(n_max + 1)  # delta/omega times (-1)^n
        alt[0::2] = spec.delta / spec.omega
        alt[1::2] = -alt[0]
        diags = (diag + alt, diag - alt)
    if not all(np.isfinite(a).all() for a in (*diags, amp)):
        raise ValidationError(f"omega={spec.omega:g}, g={spec.g:g}, delta={spec.delta:g}: "
                              "the parity chains are not finite in double precision")
    return diags, amp


@functools.cache
def _drivers():
    """(dstebz, dstev) from scipy's LAPACK, fetched once; the first call
    imports scipy."""
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs(("stebz", "stev"), dtype=np.float64)


def _chain_levels(diag: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Every level of one chain, ascending, by dstev. Not dsterf alone:
    dstev rescales a chain of large norm before it calls dsterf."""
    _, stev = _drivers()
    w, _, info = stev(diag, amp, compute_v=False)
    if info:
        raise np.linalg.LinAlgError(f"dstev failed (LAPACK info={info})")
    return w


def _window_levels(diag: np.ndarray, amp: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The levels of one chain in (lo, hi], ascending, by dstebz bisection
    at its default tolerance (range 'V' = 1, tol 0, order 'E'), for
    lo < hi."""
    stebz, _ = _drivers()
    m, w, _, _, info = stebz(diag, amp, 1, lo, hi, 1, 1, 0.0, "E")
    if info:
        raise np.linalg.LinAlgError(f"dstebz failed (LAPACK info={info})")
    return w[:m]


def parity_spectrum(spec: ModelSpec, n_max: int) -> np.ndarray:
    """Full truncated spectrum (2 n_max + 2 levels, ascending).

    The operator flipping sigma_x together with the phase (-1)^n commutes
    with all three Hamiltonians, splitting the truncated matrix into two
    symmetric tridiagonal chains of length n_max + 1 whose eigenvalues
    union to the full spectrum; each chain is solved in full by dstev, in
    units of omega. Requires delta set and 4 <= n_max <= 2 MAX_N_MAX; admits
    g = 0. Raises ValidationError when a chain entry or a level times omega
    is not finite in double precision.
    """
    _drivers()  # imports scipy before _parity_chains can warn
    diags, amp = _parity_chains(spec, n_max)
    levels = np.sort(np.concatenate([_chain_levels(d, amp) for d in diags]))
    with np.errstate(over="ignore"):  # refused below
        levels *= spec.omega
    if not np.isfinite(levels).all():
        raise ValidationError(f"omega={spec.omega:g}, g={spec.g:g}, delta={spec.delta:g}: "
                              "the truncated spectrum is not finite in double precision")
    return levels


def _reliable_window(spec: ModelSpec, n_max: int) -> float:
    spacing = 1.0 if spec.kind is ModelKind.RABI else 2.0 * frame(spec).squeeze
    return spacing * n_max / 4.0


def _chain_gap(diag: np.ndarray, amp: np.ndarray, E: float, tol: float) -> float:
    """Distance from E to the nearest eigenvalue of one chain.

    dstebz bisection finds the levels in (E - tol, E + tol] only; when
    there are none dstev solves the chain in full, so the distance stays
    exact.
    """
    ev = _window_levels(diag, amp, E - tol, E + tol)
    if ev.size == 0:
        ev = _chain_levels(diag, amp)
    return float(np.min(np.abs(ev - E)))


def match_energy(E: float, spec: ModelSpec, n_max: int, tol: float) -> MatchResult:
    """Match a candidate energy against both parity chains.

    A Juddian energy is a level of both chains (the exceptional levels
    are degenerate across parity), so gap is the larger of the two
    per-chain distances from E to the nearest level at n_max, and
    truncation_drift compares it with the same number at 2 * n_max.
    The chains are built once, at 2 n_max; those at n_max are their
    leading blocks (n_max + 1 diagonal entries, n_max couplings), bitwise
    the chains built at n_max. Each chain is solved only in the window
    (E - tol, E + tol], by dstebz; a chain with no level there is solved
    in full by dstev, so its distance stays exact.
    Matched means gap <= tol and drift <= tol/10: both chains hold a
    level within tol. It runs at E/omega and tol/omega, and a tol that is
    not finite or opens no window around E/omega in double precision
    raises ValidationError. Raises WindowExceeded when E lies beyond
    spacing * n_max / 4, where truncation-corrupted high eigenvalues
    could fake a match.
    """
    require_n_max(n_max)
    _drivers()  # imports scipy before _parity_chains can warn
    (plus, minus), amp = _parity_chains(spec, 2 * n_max)  # validates spec
    e, unit_tol = E / spec.omega, tol / spec.omega
    if not (math.isfinite(tol) and e - unit_tol < e + unit_tol):
        raise ValidationError(f"tol = {tol:g} opens no double-precision window around E = {E:g}")
    window = _reliable_window(spec, n_max)
    if e >= window:
        raise WindowExceeded(
            f"E = {E:g} outside reliable window {window * spec.omega:g}; raise n_max"
        )

    def gap(size: int) -> float:  # the chains at truncation size: leading blocks
        return max(_chain_gap(d[:size + 1], amp[:size], e, unit_tol) for d in (plus, minus))

    gap1, gap2 = gap(n_max), gap(2 * n_max)
    drift = abs(gap1 - gap2)
    return MatchResult(
        matched=(gap1 <= unit_tol and drift <= unit_tol / 10.0),
        gap=spec.omega * gap1,
        truncation_drift=spec.omega * drift,
    )
