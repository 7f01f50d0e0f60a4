"""Brute-force verification by truncated-basis diagonalization.

The Hamiltonians are written in the basis |n> x {sigma_x = +1, -1} with
n <= n_max (|n> being the Fock level for the Rabi model, the su(1,1)
sector level otherwise). In this basis the coupling term is diagonal in
the spin and tridiagonal in n, while the level-splitting term couples the
two spin components at equal n with amplitude delta. The parity that
flips sigma_x together with (-1)^n commutes with all three Hamiltonians,
so the truncated matrix splits exactly into two symmetric tridiagonal
chains. They are built as one tridiagonal, the +delta chain, a zero
coupling, then the -delta chain, in units of omega (at g/omega and
delta/omega), and every solve reads that build; omega scales E and tol
on the way in and the levels, gap and drift on the way out. The build
has two parts: what every delta shares, the diagonal without delta and
the couplings with their largest entry (``_delta_free_chains``), and the
diagonal with +-delta/omega added in alternating sign
(``_fill_delta``). ``parity_spectrum`` builds both once a call
(``_parity_chains``). A quasi-exact (Juddian) energy is a level of both
chains, so it is accepted as verified when each chain has a level within
tolerance of it, found by bisection in that window only, and the larger
of the two distances stays put when the truncation is doubled; a chain
with no level there is bisected in wider windows (``_chain_gap``), never
solved whole. A sweep verifies its whole grid in one pass
(``match_grid``): the branches of a point share g and E and differ only
in delta, so the first part is built once a point, at 2 n_max, and the
second once a nontrivial branch, before its four windowed bisections.
``match_energy`` is the one-branch case of that code.

The chains are solved by LAPACK, fetched once through scipy: dstebz
bisects for the levels in a window, with the arguments scipy's
tridiagonal eigensolver passes for one, and dstev solves the joined
chain whole (parity_spectrum only), its dsterf splitting at the zero
coupling and sorting the levels of both chains. For a whole chain that
solver defaults to dstevd in scipy 1.17 and to dstemr in older releases,
1.10 among them. Without eigenvectors dstev and dstevd run the same code
(the same rescaling, then dsterf), so the levels have the bits that
solver gives each chain where its default is dstevd; dstev is taken
because every scipy this package supports wraps it. The routines are
called directly because the Python wrapper cost about a third of a
windowed solve; the oracle checks finiteness and the LAPACK info code
itself. scipy is imported on first use, not with the package, because
it dominates the package's import time; ``_checked_delta`` imports it
before its delta = 0 warning, because the first import of scipy resets
Python's warnings registry, so a warning already shown would show again.

parity_spectrum asked for its lowest `levels` levels bisects for just
those when 10 levels <= n_max + 1, and otherwise solves the joined chain
by dstev and keeps the lowest. Bisection costs about 0.35 us per level
per chain row, a full solve about 16.5 ns per row^2 per chain (2 vCPUs
of an Intel Xeon), so 10 is about where the two meet. One dstebz call
(range 'I', order 'E') takes levels 1..levels of the joined chain. Its
tolerance is 2 * tiny, LAPACK's most accurate setting: at 0, dstebz
stops at an interval of eps times the chain's norm. On the benchmark's
sector spectra a 40-digit Sturm check read errors of up to 5.9e-14 of
max(1, |level|) at tolerance 0, 3.6e-16 at 2 * tiny and 1.6e-15 for
dstev. The routes round differently, so a level's last digits can change
with `levels` or with the route: on those spectra by at most 1.8e-15 of
max(1, |level|), and by up to 2.9e-14 over a scan with delta up to
20 omega, where dstev's error, which grows with the chain's norm, read
2.0e-14 and bisection's 3.3e-16.

dstebz squares the couplings without rescaling, so they overflow from
about 1e154. The scale is therefore decided once per build, that is once
per delta, since the largest entry can be a diagonal one: when the
largest entry leaves [2^-485, 2^485], the range in which dstev solves
without rescaling, ``_fill_delta`` returns the power of two that brings
it into [1/2, 1), and 0 otherwise (every chain the benchmark builds).
Each bisection reads the build and its window scaled by that power and
scales the levels or gaps back, exactly for every entry that stays
normal; dstev reads the build unscaled.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAtomWarning, ValidationError
from .models import ModelKind, ModelSpec, _require_delta, frame, su11_elements, validate
from .solver import Branch, QesSolution


# Truncation sizes that keep the doubling drift below 1e-9 across the
# validity domains (convergence slows approaching the collapse boundary).
DEFAULT_N_MAX = {
    ModelKind.RABI: 64,
    ModelKind.TWO_PHOTON: 256,
    ModelKind.TWO_MODE: 256,
}


def default_n_max(kind: ModelKind) -> int:
    return DEFAULT_N_MAX[ModelKind(kind)]


# Largest truncation any caller may ask for, the library's as the CLI's:
# parity_spectrum takes O(n_max^2) time when it solves the chains in full,
# O(levels * n_max) when it bisects for its lowest levels, and a match
# builds and bisects its chains at 2 n_max.
MAX_N_MAX = 16384


def require_n_max(n_max: int) -> None:
    """Raise ValidationError unless 4 <= n_max <= MAX_N_MAX."""
    if not 4 <= n_max <= MAX_N_MAX:
        raise ValidationError(f"n_max must be in 4..{MAX_N_MAX}, got {n_max}")


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
    k0, kplus = su11_elements(spec, n)
    return 2.0 * k0 - 1.0 + f.energy_shift, f.g * kplus[:-1]


def _delta_free_chains(spec: ModelSpec, n_max: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """What the parity chains of a validated spec share at every delta, in
    units of omega: the diagonal without delta, once for each chain; the
    sign delta takes on each of those entries, (-1)^n on the +delta chain
    and -(-1)^n on the -delta chain; the joined couplings (the chains'
    n_max amplitudes, a zero, the amplitudes again); and the largest
    |coupling|, inf when one is not finite (``_fill_delta`` refuses it)."""
    with np.errstate(over="ignore"):  # refused with each delta
        diag, amp = _diag_and_coupling(spec, n_max)
    signs = np.ones(n_max + 1)
    signs[1::2] = -1.0
    return (np.concatenate((diag, diag)), np.concatenate((signs, -signs)),
            np.concatenate((amp, [0.0], amp)), float(np.abs(amp).max()))


def _checked_delta(spec: ModelSpec) -> float:
    """delta/omega of a spec whose other fields are valid. Requires delta
    set and valid; warns, with the stack level of a caller of the
    oracle's public functions, when it is 0: the oracle alone reads delta
    as an input."""
    if spec.delta is None:
        raise ValidationError("oracle needs delta set on the spec")
    _require_delta(spec)
    _drivers()  # a first import of scipy would show the warning below again
    if spec.delta == 0.0:
        warnings.warn("delta = 0: spin components decouple into exactly solvable "
                      "oscillator branches", DegenerateAtomWarning, stacklevel=4)
    return spec.delta / spec.omega


def _fill_delta(chains: tuple[np.ndarray, np.ndarray, np.ndarray, float], spec: ModelSpec,
                unit_delta: float) -> tuple[np.ndarray, int]:
    """The joined diagonal of ``_delta_free_chains``' chains at
    unit_delta = delta/omega of ``spec``, and the power of two every
    bisection scales the joined build by (module docstring). Raises
    ValidationError when an entry is not finite in double precision."""
    diag, signs, _, amp_max = chains
    with np.errstate(over="ignore"):  # refused below
        joined = diag + unit_delta * signs
    joined_max = float(np.abs(joined).max())
    if not (math.isfinite(joined_max) and math.isfinite(amp_max)):
        raise ValidationError(f"omega={spec.omega:g}, g={spec.g:g}, delta={spec.delta:g}: "
                              "the parity chains are not finite in double precision")
    norm = max(joined_max, amp_max)
    return joined, 0 if _RMIN <= norm <= _RMAX else -math.frexp(norm)[1]


def _parity_chains(spec: ModelSpec, n_max: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The +delta chain, a zero coupling, then the -delta chain, as one
    tridiagonal in units of omega: 2 n_max + 2 diagonal entries, and the
    chains' shared n_max couplings, a zero, then those couplings again.
    Returned with the power of two every bisection scales it by (module
    docstring). For 4 <= n_max <= MAX_N_MAX. Requires delta set; admits
    g = 0. Every entry is a function of its own n, so each chain at a
    smaller n_max is bitwise the leading block of its chain here. Warns
    when delta = 0 (``_checked_delta``). Raises ValidationError when an
    entry is not finite in double precision."""
    spec = validate(spec, require_coupling=False)
    unit_delta = _checked_delta(spec)
    require_n_max(n_max)
    chains = _delta_free_chains(spec, n_max)
    joined, scale = _fill_delta(chains, spec, unit_delta)
    return joined, chains[2], scale


@functools.cache
def _drivers():
    """(dstebz, dstev) from scipy's LAPACK, fetched once; the first call
    imports scipy."""
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs(("stebz", "stev"), dtype=np.float64)


def _chain_levels(diag: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Every level of a tridiagonal as built, ascending, by dstev; for the
    joined chains its dsterf splits at the zero coupling. Not dsterf alone:
    dstev rescales a tridiagonal of large norm before it calls dsterf."""
    _, stev = _drivers()
    w, _, info = stev(diag, amp, compute_v=False)
    if info:
        raise np.linalg.LinAlgError(f"dstev failed (LAPACK info={info})")
    return w


# dstev solves a chain whose largest entry lies in [_RMIN, _RMAX] as it is
# and rescales any other: the square roots of LAPACK's smlnum = tiny / eps
# and of its inverse, 2^-485 and 2^485.
_RMIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_RMAX = 1.0 / _RMIN

# Bisect when 10 * levels <= n_max + 1; see the module docstring.
_BISECT_RATIO = 10


def _bisect(diag: np.ndarray, amp: np.ndarray, irange: int, lo: float, hi: float,
            iu: int, abstol: float) -> np.ndarray:
    """Levels of a tridiagonal by dstebz bisection, ascending (order 'E'):
    those in (lo, hi] for irange 1 (range 'V'), levels 1..iu for irange 2
    (range 'I'). The caller scales the input by _parity_chains' power of
    two: dstebz squares the couplings unscaled."""
    stebz, _ = _drivers()
    m, w, _, _, info = stebz(diag, amp, irange, lo, hi, 1, iu, abstol, "E")
    if info:
        raise np.linalg.LinAlgError(f"dstebz failed (LAPACK info={info})")
    return w[:m]


def _window_levels(diag: np.ndarray, amp: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The levels of one chain in (lo, hi], ascending, by dstebz bisection
    at its default tolerance (range 'V', tol 0), for lo < hi."""
    return _bisect(diag, amp, 1, lo, hi, 1, 0.0)


def parity_spectrum(spec: ModelSpec, n_max: int, levels: int) -> np.ndarray:
    """The lowest `levels` levels of the truncated spectrum, ascending
    (levels = 2 n_max + 2 gives all of them).

    The levels of the two parity chains union to the full spectrum; they
    are solved in units of omega, joined as ``_parity_chains`` builds
    them. When 10 levels <= n_max + 1, dstebz bisects the build for the
    lowest `levels` levels only, at tolerance 2 tiny: O(levels n_max) time.
    Otherwise one dstev call solves it in full, O(n_max^2), and the lowest
    `levels` are kept. The routes round differently, so a level's last
    digits can change with `levels`; the module docstring gives the
    measured differences. Requires delta set, 4 <= n_max <= MAX_N_MAX
    and 1 <= levels <= 2 n_max + 2; admits g = 0. Raises ValidationError
    when a chain entry or a level times omega is not finite in double
    precision.
    """
    if not 1 <= levels <= 2 * (n_max + 1):
        raise ValidationError(f"levels must be in 1..{2 * (n_max + 1)}, got {levels}")
    diag, amp, scale = _parity_chains(spec, n_max)
    if _BISECT_RATIO * levels <= n_max + 1:
        out = _bisect(np.ldexp(diag, scale), np.ldexp(amp, scale), 2, 0.0, 0.0, levels,
                      2.0 * np.finfo(float).tiny)
        out = np.ldexp(out, -scale)
    else:
        out = _chain_levels(diag, amp)[:levels]
    with np.errstate(over="ignore"):  # refused below
        out *= spec.omega
    if not np.isfinite(out).all():
        raise ValidationError(f"omega={spec.omega:g}, g={spec.g:g}, delta={spec.delta:g}: "
                              "the truncated spectrum is not finite in double precision")
    return out


# An empty window widens by this factor: of 2, 4, 8, 16 and 32, 8 was the
# fastest on 105 detuned matches at n_max 256 and 1024.
_WIDEN = 8


def _chain_gap(diag: np.ndarray, amp: np.ndarray, E: float, tol: float) -> float:
    """Distance from E to the nearest level of one chain, to bisection's
    accuracy (about ulp times the chain's norm).

    dstebz bisection finds the levels in (E - w, E + w] only, for w = tol
    and then, while the window is empty, for w grown by _WIDEN each time.
    The first window that holds a level holds the nearest one. The loop
    ends: every level lies within max_i(|d_i| + |a_i-1| + |a_i|) of 0
    (Gershgorin), so a window wider than |E| plus that holds them all.
    """
    w = tol
    while (ev := _window_levels(diag, amp, E - w, E + w)).size == 0:
        w *= _WIDEN
    return min(abs(level - E) for level in ev.tolist())


def match_energy(E: float, spec: ModelSpec, n_max: int, tol: float) -> MatchResult:
    """Match a candidate energy against both parity chains: the
    one-branch case of ``match_grid``.

    A Juddian energy is a level of both chains (the exceptional levels
    are degenerate across parity), so gap is the larger of the two
    per-chain distances from E to the nearest level at n_max, and
    truncation_drift compares it with the same number at 2 * n_max.
    The chains are built once, joined, at 2 n_max; each chain at n_max
    and at 2 n_max is a slice of that build, bitwise the chain built at
    that size. Each is solved only in the window (E - tol, E + tol], by
    dstebz; a chain with no level there is bisected in wider windows
    until one holds a level (``_chain_gap``), so no chain is solved in
    full. The build, E and tol are scaled by the build's power of two
    once, and the gaps scaled back once.
    Matched means gap <= tol and drift <= tol/10: both chains hold a
    level within tol. Any solve places a level only to about one ulp of
    the chains' largest entry (the norm, in units of omega), so gap and
    drift are resolved only to about ulp * norm * omega; below that they
    are rounding noise, not distances. That floor exceeds the default
    tol of 1e-8 only at extreme couplings (it is about 2e139 at Rabi
    g/omega = 1e154, where the record stays unmatched). It runs at
    E/omega and tol/omega, and a tol that is not finite or opens no
    window around E/omega in double precision raises ValidationError.
    The doubling is the only truncation test, at any E: a match needs the
    gap to hold when n_max doubles, which a level that the truncation has
    moved does not do.
    """
    return _match_branch(_point_chains(spec, n_max), E, spec, n_max, tol)


def match_grid(solutions: Sequence[Sequence[QesSolution]], n_max: int,
               tol: float) -> list[list[MatchResult | None]]:
    """``match_energy`` of every nontrivial branch of a solved grid, in one
    pass: entry [i][j] is bitwise ``match_energy(s.energy, s.spec, n_max,
    tol)`` for s = solutions[i][j], and None for a degenerate-atom branch.

    ``solutions`` is what ``solve_grid`` returns: per point, branches
    whose specs differ only in delta and which share the point's energy.
    Once per point with a nontrivial branch, n_max is checked, the spec
    validated, and the delta-free parts of both chains built at 2 n_max:
    the diagonal, the sign delta takes on each entry, the joined couplings
    and their largest entry (``_delta_free_chains``). Once per nontrivial branch, delta is checked
    and filled in (``_fill_delta``), with that branch's own power-of-two
    scale, since the chains' norm depends on delta, and the four windowed
    bisections run as in ``match_energy``. Memory is O(n_max) per point.
    Errors are those of ``match_energy``, raised for the first failing
    branch in grid order, then branch order.
    """
    matches = []
    for branches in solutions:
        chains, results = None, []
        for sol in branches:  # a plain loop: the delta = 0 warning's stack level
            if sol.branch is not Branch.NONTRIVIAL:
                results.append(None)
                continue
            if chains is None:
                chains = _point_chains(sol.spec, n_max)
            results.append(_match_branch(chains, sol.energy, sol.spec, n_max, tol))
        matches.append(results)
    return matches


def _point_chains(spec: ModelSpec, n_max: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """What every branch of a point shares in a match at n_max: n_max
    checked and the spec validated, then ``_delta_free_chains`` at
    2 n_max."""
    require_n_max(n_max)
    spec = validate(spec, require_coupling=False)
    return _delta_free_chains(spec, 2 * n_max)


def _match_branch(chains: tuple, E: float, spec: ModelSpec, n_max: int,
                  tol: float) -> MatchResult:
    """``match_energy`` of one branch on its point's ``_point_chains``: gap
    and drift from the four windowed bisections, matched by the two
    bounds alone, whatever E is."""
    diag, scale = _fill_delta(chains, spec, _checked_delta(spec))
    amp = chains[2]
    e, unit_tol = E / spec.omega, tol / spec.omega
    if not (math.isfinite(tol) and e - unit_tol < e + unit_tol):
        raise ValidationError(f"tol = {tol:g} opens no double-precision window around E = {E:g}")
    if scale:
        diag, amp = np.ldexp(diag, scale), np.ldexp(amp, scale)
    scaled_e, scaled_tol = math.ldexp(e, scale), math.ldexp(unit_tol, scale)
    minus = 2 * n_max + 1  # where the -delta chain starts

    def gap(size: int) -> float:  # both chains at truncation size, scaled back
        return math.ldexp(max(_chain_gap(diag[i:i + size + 1], amp[:size], scaled_e, scaled_tol)
                              for i in (0, minus)), -scale)

    gap1, gap2 = gap(n_max), gap(2 * n_max)
    drift = abs(gap1 - gap2)
    return MatchResult(
        matched=(gap1 <= unit_tol and drift <= unit_tol / 10.0),
        gap=spec.omega * gap1,
        truncation_drift=spec.omega * drift,
    )
